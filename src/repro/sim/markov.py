"""Exact expected makespan via the Markov chain over unfinished sets.

Figure 1 (left) of the paper depicts a regimen as a Markov chain whose
states are the subsets of unfinished jobs.  For small ``n`` we can compute
expected makespans *exactly* by dynamic programming over that chain:
transitions only remove jobs, so processing states in order of increasing
popcount solves the chain without any linear-system machinery — except for
self-loops, handled in closed form.

Two schedule shapes are supported:

* :class:`~repro.core.schedule.Regimen` (assignment depends on the state
  only): ``E[S] = (1 + sum_{S' ⊊ S} P(S→S') E[S']) / (1 - P(S→S))``.
* :class:`~repro.core.schedule.CyclicSchedule` (assignment depends on the
  step only): states are ``(S, τ)`` pairs with ``τ`` a position in the
  prefix+cycle; for fixed ``S`` the positions form a "rho" shape whose
  cycle part is a cyclic linear recurrence solved in closed form.

Both are exponential in ``n`` and guarded by ``max_states``, which caps
the **full** DP allocation ``2^n × width`` (``width`` = schedule positions
or horizon steps), not just the subset count.

This module is a thin facade over :mod:`repro.sim.exact`, reached through
:func:`repro.evaluate.evaluate` (``mode="exact"``).  Every solver
takes ``engine="sparse"`` (default — the vectorized layer-at-a-time
engine, practical to n ≈ 18–20 for regimens) or ``engine="scalar"`` (the
original per-state dict DP, kept as the golden reference; the two agree
to ≤1e-9, property-tested).  The per-state primitives
:func:`eligible_bitmask` and :func:`transition_distribution` are
re-exported unchanged for the golden per-state Malewicz DP
(:mod:`repro.opt.scalar`) and the execution tree.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.instance import SUUInstance
from ..core.schedule import CyclicSchedule, Regimen
from ..errors import ValidationError
from .exact import scalar as _scalar, sparse as _sparse
from .exact.lattice import DEFAULT_MAX_STATES as _DEFAULT_MAX_STATES
from .exact.scalar import eligible_bitmask, transition_distribution

__all__ = [
    "transition_distribution",
    "eligible_bitmask",
    "EXACT_ENGINES",
]

#: Names accepted by the ``engine=`` argument of every solver here.
EXACT_ENGINES = ("sparse", "scalar")

_MODULES = {"sparse": _sparse, "scalar": _scalar}


def _engine(name: str):
    try:
        return _MODULES[name]
    except KeyError:
        raise ValidationError(
            f"unknown exact engine {name!r}; expected one of {EXACT_ENGINES}"
        ) from None


def _expected_makespan_regimen(
    instance: SUUInstance,
    regimen: Regimen,
    max_states: int = _DEFAULT_MAX_STATES,
    engine: str = "sparse",
) -> float:
    """Exact expected makespan of ``regimen`` started from "all unfinished".

    Raises :class:`~repro.errors.ScheduleError` if from some reachable
    state the regimen makes no progress (expected makespan would be
    infinite), and :class:`~repro.errors.ExactSolverLimitError` when
    ``2^n`` exceeds ``max_states``.
    """
    with obs.span("exact.solve", op="makespan_regimen", engine=engine, n=instance.n):
        return _engine(engine).expected_makespan_regimen(
            instance, regimen, max_states=max_states
        )


def _expected_makespan_cyclic(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    max_states: int = _DEFAULT_MAX_STATES,
    engine: str = "sparse",
) -> float:
    """Exact expected makespan of a prefix+cycle oblivious schedule.

    The chain's states are ``(S, τ)`` pairs, so the ``max_states`` guard
    covers ``2^n × (P + L)`` entries.  See the engine modules for the
    recurrence and the rho-shape closed form.
    """
    with obs.span("exact.solve", op="makespan_cyclic", engine=engine, n=instance.n):
        return _engine(engine).expected_makespan_cyclic(
            instance, schedule, max_states=max_states
        )


def _state_distribution(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = _DEFAULT_MAX_STATES,
    engine: str = "sparse",
) -> np.ndarray:
    """Exact distribution over unfinished-sets after each step.

    Returns an ``(horizon + 1, 2^n)`` array: row ``t`` is the probability
    distribution of the unfinished set after ``t`` steps under the cyclic
    schedule (row 0 is the point mass on "all unfinished").  The
    ``max_states`` guard covers the full ``2^n × (horizon + 1)``
    allocation.
    """
    with obs.span(
        "exact.solve", op="state_distribution", engine=engine, n=instance.n
    ):
        return _engine(engine).state_distribution(
            instance, schedule, horizon, max_states=max_states
        )


def _exact_completion_curve(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = _DEFAULT_MAX_STATES,
    engine: str = "sparse",
) -> np.ndarray:
    """Exact ``Pr[all jobs done by step t]`` for ``t = 1..horizon``.

    The exact counterpart of the Monte Carlo ``completion_curve`` metric,
    usable for small ``n``; the two agree to sampling error (tested).
    """
    with obs.span(
        "exact.solve", op="completion_curve", engine=engine, n=instance.n
    ):
        return _engine(engine).exact_completion_curve(
            instance, schedule, horizon, max_states=max_states
        )
