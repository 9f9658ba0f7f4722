"""Exact optimal regimens (Malewicz's dynamic program, [21]).

Malewicz showed that an optimal schedule can be taken to be a *regimen*
(the assignment depends only on the unfinished set) and that when both the
DAG width and ``m`` are constants an optimal regimen is computable in
polynomial time by dynamic programming over unfinished sets.  This module
implements that DP exactly: for every unfinished set ``S`` it tries every
assignment of machines to eligible jobs and keeps the first one minimizing

    E[S] = (1 + Σ_{S' ⊊ S} P_a(S→S') · E[S']) / (1 − P_a(S→S)) ,

the standard first-passage optimality equation for absorbing chains whose
transitions never add jobs back.  Every ``S'`` lies in a lower popcount
layer, so solving the layers in increasing order makes every needed
``E[S']`` available.  Idle machines are never needed: assigning any
eligible job weakly dominates idling.

The DP solves only the states the chain can reach, the up-closed sets of
:func:`repro.sim.exact.lattice.state_index`, and the regimen it returns
assigns nothing elsewhere.  It is vectorized over that index, one
(popcount layer, eligible count ``k``) group of states at a time.  The
states of a group share the ``k^m``
assignment *signatures* (machine ``i`` takes the ``σ_i``-th eligible
job), enumerated once in :func:`~repro.opt.bruteforce.iter_assignments`
order.  For every state × signature the group computes the success
probability of each *slot* (a distinct job the signature serves), hands
the (state, signature) rows to the first-passage kernel a regimen's exact
evaluation uses too (:func:`~repro.sim.exact.lattice.first_passage`), and
keeps each state's first minimizing signature.  A group runs in chunks of
at most :data:`CHUNK_ENTRIES` subset-table entries, so memory stays
bounded however large the group.

Every candidate value is computed with the floating-point operations of
the per-state loop in :mod:`repro.opt.scalar` (the golden reference), in
the same order, and the choice follows its rule (a later signature wins
only when lower by more than 1e-15), so the two agree bit for bit;
property tests hold them to equal values and identical tables, and the
optimum to the exact value of its own regimen.  The work is
``O(R · k^m · 2^min(k, m))`` over the ``R`` reachable states, ``O(n^w)``
on a DAG of width ``w`` — exact ground truth on the constant-width,
constant-``m`` instances Malewicz proved tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import SUUInstance
from ..core.schedule import Regimen
from ..errors import ExactSolverLimitError
from ..sim.exact.lattice import (
    CHUNK_ENTRIES,
    bit_positions,
    first_passage,
    popcount_array,
    state_index,
)
from .bruteforce import count_assignments

__all__ = ["ExactSolution", "optimal_regimen", "optimal_expected_makespan"]

#: A later signature replaces the best so far only when its value is lower
#: by more than this, as in the scalar DP.
_TIE_EPS = 1e-15


@dataclass
class ExactSolution:
    """An exact optimum: the regimen and its expected makespan."""

    regimen: Regimen
    expected_makespan: float
    states_solved: int


def _signatures(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``k^m`` assignment signatures of a state with ``k`` eligible jobs.

    ``sig[a, i]`` is the eligible-job rank machine ``i`` takes under
    signature ``a``, in ``iter_assignments`` order (machine 0 varies
    slowest).  The distinct ranks of a signature, ascending, are its
    slots: ``slot_of[a, i]`` is machine ``i``'s slot and
    ``slot_rank[a, s]`` the rank at slot ``s``, or ``k`` past the last.
    """
    sig = np.stack(np.unravel_index(np.arange(k**m), (k,) * m), axis=1)
    used = np.zeros((sig.shape[0], k), dtype=bool)
    used[np.arange(sig.shape[0])[:, None], sig] = True
    slot_of = np.take_along_axis(np.cumsum(used, axis=1) - 1, sig, axis=1)
    slot_rank = np.sort(np.where(used, np.arange(k), k), axis=1)[:, : min(k, m)]
    return sig, slot_of, slot_rank


def _signature_values(p, states, jobs, bitval, sig, slot_of, slot_rank, expect):
    """``E`` of every (state, signature) pair of one chunk; ``inf`` if stuck.

    ``jobs`` holds each state's eligible jobs ascending, ``bitval`` their
    bits plus a trailing 0 (the bit of a padding slot).
    """
    slots = slot_rank.shape[1]
    shape = (states.size, sig.shape[0])
    # Per-slot failure products, machine by machine as the scalar DP
    # multiplies them; padding slots keep 1 and never complete.
    fail = np.ones((slots, *shape))
    slot_ids = np.arange(slots)[:, None, None]
    for i in range(p.shape[0]):
        f = 1.0 - p[i][jobs[:, sig[:, i]]]
        fail *= np.where(slot_of[:, i] == slot_ids, f, 1.0)
    bits = np.moveaxis(bitval[:, slot_rank], -1, 0)  # (slots, states, signatures)
    return first_passage(states[:, None], 1.0 - fail, bits, expect)


def _solve_group(p, states, jobs, signatures, expect):
    """Best value and first best signature of every state in one group."""
    sig, slot_of, slot_rank = signatures
    width = 1 << slot_rank.shape[1]
    a_step = max(1, min(sig.shape[0], CHUNK_ENTRIES // width))
    g_step = max(1, CHUNK_ENTRIES // (a_step * width))
    bitval = np.zeros((states.size, jobs.shape[1] + 1), dtype=np.int64)
    bitval[:, :-1] = np.left_shift(1, jobs)
    best_e = np.full(states.size, np.inf)
    best_a = np.zeros(states.size, dtype=np.int64)
    for g0 in range(0, states.size, g_step):
        g = slice(g0, g0 + g_step)
        for a0 in range(0, sig.shape[0], a_step):
            a = slice(a0, a0 + a_step)
            e = _signature_values(
                p, states[g], jobs[g], bitval[g], sig[a], slot_of[a], slot_rank[a], expect
            )
            # The scalar DP's rule, one signature column at a time: a later
            # signature wins only when lower by more than _TIE_EPS, so
            # near-ties (equal values rounded apart) keep the earlier one.
            cur_e, cur_a = best_e[g], best_a[g]
            for j in range(e.shape[1]):
                better = e[:, j] < cur_e - _TIE_EPS
                cur_e[better] = e[better, j]
                cur_a[better] = a0 + j
    return best_e, best_a


def optimal_regimen(
    instance: SUUInstance,
    max_states: int = 1 << 14,
    max_assignments_per_state: int = 200_000,
) -> ExactSolution:
    """Compute an exact optimal regimen by Malewicz's DP.

    Raises :class:`ExactSolverLimitError` when ``2^n`` exceeds
    ``max_states`` or some reachable state would require enumerating more
    than ``max_assignments_per_state`` assignments — the guards that keep
    this solver inside the "constant width, constant m" regime where it is
    intended to run.  Both are checked before the DP tables are allocated.
    ``states_solved`` counts the nonempty reachable states.
    """
    n, m = instance.n, instance.m
    if n > 62:
        raise ExactSolverLimitError("bitmask solver limited to 62 jobs")
    if (1 << n) > max_states:
        raise ExactSolverLimitError(
            f"exact DP needs 2^{n} states (limit {max_states})"
        )
    index = state_index(instance)
    elig = index.elig
    eligible = popcount_array(elig)
    k_max = int(eligible.max())
    total = count_assignments(m, k_max, allow_idle=False)
    if total > max_assignments_per_state:
        raise ExactSolverLimitError(
            f"state with {k_max} eligible jobs needs {total} "
            f"assignments (limit {max_assignments_per_state})"
        )
    size = 1 << n
    expect = np.zeros(size, dtype=np.float64)
    table = np.full((size, m), Regimen.UNDEFINED, dtype=np.int32)
    # Groups of one (popcount layer, eligible count), lower layers first,
    # states ascending; the first group is the empty set alone, which
    # needs no assignment.
    layer = np.repeat(np.arange(n + 1), np.diff(index.ptr))
    key = layer * (n + 1) + eligible
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)[1:]
    signatures = {k: _signatures(k, m) for k in map(int, np.unique(eligible[1:]))}
    for group in groups:
        states = index.states[group]
        k = int(eligible[group[0]])
        jobs = bit_positions(elig[group], k)
        best_e, best_a = _solve_group(instance.p, states, jobs, signatures[k], expect)
        stuck = np.isinf(best_e)
        if stuck.any():
            raise ExactSolverLimitError(
                f"no progressing assignment from state "
                f"{int(states[np.argmax(stuck)]):#x} "
                "(some eligible job has p_ij = 0 on all machines?)"
            )
        expect[states] = best_e
        table[states] = np.take_along_axis(jobs, signatures[k][0][best_a], axis=1)
    return ExactSolution(
        regimen=Regimen.from_table(table),
        expected_makespan=float(expect[size - 1]),
        states_solved=index.states.size - 1,
    )


def optimal_expected_makespan(
    instance: SUUInstance, max_states: int = 1 << 14
) -> float:
    """Convenience wrapper: just the optimal expected makespan ``T^OPT``."""
    return optimal_regimen(instance, max_states=max_states).expected_makespan
