"""Scalar Malewicz DP — the golden reference.

The original pure-Python implementation of
:func:`repro.opt.malewicz.optimal_regimen`, kept as the executable
specification of the vectorized DP: one reachable state at a time, one
assignment at a time, one transition dict per assignment.  Easy to audit
against the first-passage equation, slow past n ≈ 8.  The vectorized DP
is held to it — values equal bit for bit (``==``) and identical regimen
tables — by ``tests/opt/test_malewicz_equiv.py`` and the fuzzer's
``opt`` oracle.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import SUUInstance
from ..core.schedule import Regimen
from ..errors import ExactSolverLimitError
from ..sim.exact.scalar import eligible_bitmask, reachable_states, transition_distribution
from .bruteforce import count_assignments, iter_assignments
from .malewicz import ExactSolution

__all__ = ["optimal_regimen"]


def optimal_regimen(
    instance: SUUInstance,
    max_states: int = 1 << 14,
    max_assignments_per_state: int = 200_000,
) -> ExactSolution:
    """Compute an exact optimal regimen by Malewicz's DP.

    Raises :class:`ExactSolverLimitError` when ``2^n`` exceeds
    ``max_states`` or some state would require enumerating more than
    ``max_assignments_per_state`` assignments — the guards that keep this
    solver inside the "constant width, constant m" regime where it is
    intended to run.
    """
    n, m = instance.n, instance.m
    if n > 62:
        raise ExactSolverLimitError("bitmask solver limited to 62 jobs")
    if (1 << n) > max_states:
        raise ExactSolverLimitError(
            f"exact DP needs 2^{n} states (limit {max_states})"
        )
    expect = np.zeros(1 << n, dtype=np.float64)
    assignments: dict[int, np.ndarray] = {}
    # A job finishes only after its predecessors, so the chain reaches
    # only up-closed sets; the DP solves those and reads no others.
    for state in reachable_states(instance):
        elig_mask = eligible_bitmask(instance, state)
        eligible = [j for j in range(n) if (elig_mask >> j) & 1]
        total = count_assignments(m, len(eligible), allow_idle=False)
        if total > max_assignments_per_state:
            raise ExactSolverLimitError(
                f"state with {len(eligible)} eligible jobs needs {total} "
                f"assignments (limit {max_assignments_per_state})"
            )
        best_e = np.inf
        best_a: np.ndarray | None = None
        # Idle machines are never needed: assigning any eligible job weakly
        # dominates idling (success probabilities only increase), so we
        # enumerate total functions M -> eligible only.
        for a in iter_assignments(m, eligible, allow_idle=False):
            dist = transition_distribution(instance, state, a)
            stay = dist.get(state, 0.0)
            if stay >= 1.0 - 1e-15:
                continue  # no progress; infinite expectation
            acc = 1.0
            for nxt, pr in dist.items():
                if nxt != state:
                    acc += pr * expect[nxt]
            e = acc / (1.0 - stay)
            if e < best_e - 1e-15:
                best_e = e
                best_a = a.copy()
        if best_a is None:
            raise ExactSolverLimitError(
                f"no progressing assignment from state {state:#x} "
                "(some eligible job has p_ij = 0 on all machines?)"
            )
        expect[state] = best_e
        assignments[state] = best_a
    regimen = Regimen(n, m, assignments)
    full = (1 << n) - 1
    return ExactSolution(
        regimen=regimen,
        expected_makespan=float(expect[full]),
        states_solved=len(assignments),
    )
