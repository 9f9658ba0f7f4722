"""The front-door ``solve()``: a strongest-applicable registry query.

Dispatch is driven entirely by the capability-typed solver registry
(:mod:`repro.algorithms.registry`): among the registered solvers whose
declared ``dag_classes`` admit the instance, the one with the smallest
``auto_rank`` wins.  The built-in ranks reproduce the paper's
strongest-applicable order exactly — independent → :func:`~.independent.
suu_i_lp`, chains → :func:`~.chains.solve_chains`, in-/out-forest →
:func:`~.trees.solve_tree`, mixed forest → :func:`~.trees.solve_forest` —
and the general-DAG depth-layered extension is marked ``fallback``, so it
only enters the query with ``allow_fallback=True``.

The per-solver capability and guarantee table lives in the registry
(``suu algorithms list`` renders it;
:func:`~.registry.describe_solvers` returns the rows), so there is no
hand-maintained copy here to drift.

General DAGs are outside the paper's classes (§5 open problem); without
the fallback the query comes up empty and :class:`UnsupportedDagError`
is raised so callers notice they left the paper's territory.
"""

from __future__ import annotations

from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import UnsupportedDagError, ValidationError
from .constants import PRACTICAL, SUUConstants
from .registry import SOLVERS, solver_names

__all__ = ["solve"]


def solve(
    instance: SUUInstance,
    constants: SUUConstants = PRACTICAL,
    rng=None,
    method: str = "auto",
    allow_fallback: bool = False,
) -> ScheduleResult:
    """Schedule ``instance`` with the strongest applicable paper algorithm.

    ``method`` is ``"auto"`` (dispatch on the DAG class, the default) or
    any solver registry name (``suu algorithms list``), which forces that
    solver: ``"adaptive"``/``"oblivious"``/``"lp"`` for SUU-I,
    ``"chains"``/``"tree"``/``"forest"`` for the §4 pipelines,
    ``"layered"`` for general DAGs, the baselines, ``"online_greedy"``, ...

    A forced method runs its solver unconditionally — capability
    violations surface as the solver's own error, with its own wording.
    """
    if method != "auto":
        if method not in SOLVERS:
            raise ValidationError(
                f"unknown method {method!r}; expected one of "
                f"{sorted(['auto', *solver_names()])}"
            )
        return SOLVERS[method].build(instance, constants=constants, rng=rng)

    cls = instance.classify()
    ranked = sorted(
        (
            s
            for s in SOLVERS.values()
            if s.auto_rank is not None
            and cls in s.dag_classes
            and (allow_fallback or not s.fallback)
        ),
        key=lambda s: s.auto_rank,
    )
    if ranked:
        return ranked[0].build(instance, constants=constants, rng=rng)
    raise UnsupportedDagError(
        "general precedence DAGs are outside the paper's algorithm classes "
        "(§5 lists them as an open problem); pass allow_fallback=True for "
        "the depth-layered extension (guarantee scales with DAG depth), use "
        "method='layered'/'serial' explicitly, or transitively reduce the DAG"
    )
