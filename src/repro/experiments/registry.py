"""Name registries backing declarative experiment specs.

An :class:`~repro.experiments.spec.ExperimentSpec` names its instance
generator and algorithm as strings so that specs serialize, hash stably for
the on-disk result cache, and round-trip through JSON.  This module owns
the two registries and their built-in entries:

* **generators** — ``fn(rng, **params) -> SUUInstance``;
* **algorithms** — ``fn(instance, rng, **params) -> ScheduleResult``.

Both are open for extension (the scenario-diversity hook: new uncertainty
models or workload families register here and immediately work with the
runner, the CLI, and the cached benchmarks)::

    from repro.experiments import register_generator

    @register_generator("budgeted")
    def budgeted(rng, n=16, m=6, gamma=3):
        ...
"""

from __future__ import annotations

from typing import Callable

from ..algorithms import LEAN, PAPER, PRACTICAL, SUUConstants, solve
from ..algorithms.registry import SOLVERS, Solver
from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ExperimentError
from ..workloads import (
    diamond_dag,
    greedy_trap,
    grid_computing,
    probability_matrix,
    project_management,
    random_instance,
)

__all__ = [
    "GENERATORS",
    "ALGORITHMS",
    "register_generator",
    "register_algorithm",
    "resolve_generator",
    "resolve_algorithm",
    "resolve_constants",
]

GENERATORS: dict[str, Callable[..., SUUInstance]] = {}
ALGORITHMS: dict[str, Callable[..., ScheduleResult]] = {}

_CONSTANTS = {"paper": PAPER, "practical": PRACTICAL, "lean": LEAN}


def resolve_constants(value) -> SUUConstants:
    """Map a preset name (``paper``/``practical``/``lean``) to constants.

    Specs carry the preset *name* so they stay JSON-serializable; an
    :class:`SUUConstants` instance is passed through unchanged for direct
    (non-spec) callers.
    """
    if isinstance(value, SUUConstants):
        return value
    try:
        return _CONSTANTS[value]
    except KeyError:
        raise ExperimentError(
            f"unknown constants preset {value!r}; expected one of "
            f"{sorted(_CONSTANTS)}"
        ) from None


def register_generator(name: str):
    """Decorator registering ``fn(rng, **params) -> SUUInstance`` under ``name``."""

    def deco(fn):
        if name in GENERATORS:
            raise ExperimentError(f"generator {name!r} is already registered")
        GENERATORS[name] = fn
        return fn

    return deco


def register_algorithm(name: str):
    """Decorator registering ``fn(instance, rng, **params) -> ScheduleResult``."""

    def deco(fn):
        if name in ALGORITHMS:
            raise ExperimentError(f"algorithm {name!r} is already registered")
        ALGORITHMS[name] = fn
        return fn

    return deco


def resolve_generator(name: str) -> Callable[..., SUUInstance]:
    try:
        return GENERATORS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown generator {name!r}; registered: {sorted(GENERATORS)}"
        ) from None


def resolve_algorithm(name: str) -> Callable[..., ScheduleResult]:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown algorithm {name!r}; registered: {sorted(ALGORITHMS)}"
        ) from None


# ----------------------------------------------------------------------
# Built-in generators
# ----------------------------------------------------------------------
@register_generator("random")
def _gen_random(rng, n=16, m=6, dag_kind="independent", prob_model="uniform", **kw):
    return random_instance(n, m, dag_kind=dag_kind, prob_model=prob_model, rng=rng, **kw)


@register_generator("grid")
def _gen_grid(rng, **kw):
    return grid_computing(rng=rng, **kw)


@register_generator("project")
def _gen_project(rng, **kw):
    return project_management(rng=rng, **kw)


@register_generator("greedy_trap")
def _gen_greedy_trap(rng, n=12, m=4, **kw):
    # The trap family is deterministic by construction; rng is unused.
    return greedy_trap(n, m, **kw)


@register_generator("diamond")
def _gen_diamond(rng, n=16, m=6, width=3, jitter=False, prob_model="uniform", **kw):
    """Series-parallel fan-out/fan-in pipelines (``workloads.diamond_dag``)."""
    dag = diamond_dag(n, width=width, rng=rng, jitter=jitter)
    p = probability_matrix(m, n, model=prob_model, rng=rng, **kw)
    return SUUInstance(p, dag, name=f"diamond/{prob_model}(n={n},m={m},w={width})")


# ----------------------------------------------------------------------
# Built-in algorithms: re-exports of the solver-registry records.
#
# Every record in repro.algorithms.registry.SOLVERS is exposed under the
# *same name*, so an algorithm name means one thing everywhere (pipeline
# methods, specs, portfolio, fuzzer, CLI).  The adapter preserves the
# historical experiment-algorithm contract exactly — ``fn(instance, rng,
# **params)``, with a ``constants=`` preset keyword only for solvers that
# declare the need — so spec hashes depend only on names and params.
# ----------------------------------------------------------------------
@register_algorithm("solve")
def _alg_solve(instance, rng, constants="practical", method="auto", allow_fallback=False):
    """The auto-dispatching front door (strongest-applicable query)."""
    return solve(
        instance,
        constants=resolve_constants(constants),
        rng=rng,
        method=method,
        allow_fallback=allow_fallback,
    )


def _solver_adapter(solver: Solver) -> Callable[..., ScheduleResult]:
    """Wrap a registry record in the experiment-algorithm signature."""
    if solver.needs_constants:

        def run(instance, rng, constants="practical", **params):
            return solver.build(
                instance, constants=resolve_constants(constants), rng=rng, **params
            )

    else:

        def run(instance, rng, **params):
            return solver.build(instance, rng=rng, **params)

    run.__name__ = f"_alg_{solver.name}"
    run.__doc__ = f"{solver.guarantee} [{solver.paper}]"
    return run


for _name, _solver in sorted(SOLVERS.items()):
    register_algorithm(_name)(_solver_adapter(_solver))
del _name, _solver
