"""Scalar (dict-of-dicts) exact Markov solvers — the golden reference.

This is the original pure-Python implementation of the Figure-1
subset-lattice DP, kept as the executable specification of the
vectorized engine in :mod:`repro.sim.exact.sparse`: every solver here is
one state at a time, one transition dict at a time, with no clever
layout — easy to audit against the paper, slow past n ≈ 12.  Reach it
through :func:`repro.evaluate.evaluate` with ``mode="exact",
engine="scalar"``.  The sparse engine's makespans equal these bit for
bit — it adds each transition's terms in the order of
:func:`transition_distribution`'s dict — which
``tests/sim/test_exact_engines_equiv.py`` property-tests.

The regimen solver visits only the states the chain can reach, the
up-closed ones (:func:`reachable_states`), tested one state at a time;
the cyclic and forward solvers keep the whole lattice, so they remain an
independent reference for the vectorized index of reachable states.

The per-state primitives (:func:`eligible_bitmask`,
:func:`reachable_states`, :func:`transition_distribution`) also serve the golden per-state
Malewicz DP (:mod:`repro.opt.scalar`) and the execution tree
(:mod:`repro.sim.exec_tree`), which enumerate single states anyway.
"""

from __future__ import annotations

import numpy as np

from ..._util import iterable_from_bitmask
from ...core.instance import SUUInstance
from ...core.schedule import IDLE, CyclicSchedule, Regimen
from ...errors import ScheduleError
from .lattice import DEFAULT_MAX_STATES, check_state_budget

__all__ = [
    "eligible_bitmask",
    "up_closed",
    "reachable_states",
    "transition_distribution",
    "expected_makespan_regimen",
    "expected_makespan_cyclic",
    "state_distribution",
    "exact_completion_curve",
]


def eligible_bitmask(instance: SUUInstance, state: int) -> int:
    """Bitmask of jobs in ``state`` whose predecessors are all finished.

    ``state`` is the bitmask of *unfinished* jobs; a job is eligible iff it
    is unfinished and none of its predecessors is unfinished.
    """
    dag = instance.dag
    elig = 0
    s = state
    while s:
        j = (s & -s).bit_length() - 1
        if dag.pred_mask(j) & state == 0:
            elig |= 1 << j
        s &= s - 1
    return elig


def up_closed(instance: SUUInstance, state: int) -> bool:
    """Can the chain reach unfinished set ``state`` from "all unfinished"?

    A job finishes only after its predecessors, so a reachable state
    holds every successor of each of its jobs: no finished job ``k`` has
    an unfinished predecessor (``pred_mask(k) & state == 0``).
    """
    dag = instance.dag
    done = ((1 << instance.n) - 1) & ~state
    while done:
        k = (done & -done).bit_length() - 1
        if dag.pred_mask(k) & state:
            return False
        done &= done - 1
    return True


def reachable_states(instance: SUUInstance) -> list[int]:
    """The nonempty states the chain can reach, by increasing popcount.

    Each subset is tested on its own with :func:`up_closed`.  Any
    combination of eligible jobs can complete in one step, and what it
    leaves is up-closed again, so a DP over these states only reads
    values of states in the list.
    """
    states = sorted(range(1, 1 << instance.n), key=lambda s: s.bit_count())
    return [s for s in states if up_closed(instance, s)]


def _per_job_success(instance: SUUInstance, assignment: np.ndarray, active: int) -> dict[int, float]:
    """Success probability per *active* job under ``assignment``.

    Only jobs in the ``active`` bitmask (eligible and unfinished) receive
    machine work; machines pointing elsewhere idle, per Def 2.1.
    """
    fail: dict[int, float] = {}
    p = instance.p
    for i in range(instance.m):
        j = int(assignment[i])
        if j == IDLE or not (active >> j) & 1:
            continue
        fail[j] = fail.get(j, 1.0) * (1.0 - p[i, j])
    return {j: 1.0 - f for j, f in fail.items() if 1.0 - f > 0.0}


def transition_distribution(
    instance: SUUInstance, state: int, assignment: np.ndarray
) -> dict[int, float]:
    """Exact one-step transition distribution from unfinished-set ``state``.

    Returns ``{next_state: probability}``.  Jobs complete independently, so
    the distribution is the product measure over the assigned eligible jobs.
    """
    active = eligible_bitmask(instance, state)
    q = _per_job_success(instance, assignment, active)
    jobs = sorted(q)
    dist: dict[int, float] = {state: 1.0}
    for j in jobs:
        qj = q[j]
        new: dict[int, float] = {}
        for s, pr in dist.items():
            new[s & ~(1 << j)] = new.get(s & ~(1 << j), 0.0) + pr * qj
            if pr * (1.0 - qj) > 0.0:
                new[s] = new.get(s, 0.0) + pr * (1.0 - qj)
        dist = new
    return dist


def expected_makespan_regimen(
    instance: SUUInstance,
    regimen: Regimen,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of ``regimen`` started from "all unfinished".

    Solves the reachable states only, so the regimen needs an assignment
    there and nowhere else.  Raises :class:`ScheduleError` if some
    reachable state has no assignment (the first in popcount order) or if
    from some reachable state the regimen makes no progress (expected
    makespan would be infinite).
    """
    n = instance.n
    check_state_budget(n, 1, max_states)
    full = (1 << n) - 1
    expect = np.zeros(1 << n, dtype=np.float64)
    # Process states in order of increasing popcount: transitions from S
    # reach only subsets of S.
    states = reachable_states(instance)
    assignments = [regimen.assignment_for_state(state) for state in states]
    for state, a in zip(states, assignments):
        dist = transition_distribution(instance, state, a)
        stay = dist.get(state, 0.0)
        if stay >= 1.0 - 1e-15:
            raise ScheduleError(
                f"regimen makes no progress from state "
                f"{iterable_from_bitmask(state)}; expected makespan is infinite"
            )
        acc = 1.0
        for nxt, pr in dist.items():
            if nxt != state:
                acc += pr * expect[nxt]
        expect[state] = acc / (1.0 - stay)
    return float(expect[full])


def expected_makespan_cyclic(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of a prefix+cycle oblivious schedule.

    For each unfinished set ``S`` (increasing popcount) and each schedule
    position ``τ``, ``E[S, τ]`` satisfies::

        E[S, τ] = 1 + Σ_{S' ⊊ S} P_τ(S→S') E[S', next(τ)]
                    + P_τ(S→S) E[S, next(τ)]

    Positions run ``0 .. P+L-1`` where ``P`` is the prefix length and ``L``
    the cycle length; ``next`` advances and wraps the cycle part.  Within a
    fixed ``S``, the cycle positions form a linear recurrence
    ``E_τ = a_τ + b_τ E_{next(τ)}`` around the loop, solved in closed form;
    the prefix is then a backward substitution.

    The total work is ``O(2^n · (P+L) · 2^k)`` with ``k`` the number of
    jobs assigned per step — exact but only for small instances.
    """
    n = instance.n
    schedule.validate_against(instance)
    P = schedule.prefix_length
    L = schedule.cycle_length
    total = P + L
    check_state_budget(n, total, max_states)

    # Transition distributions depend on (state, position) but only through
    # the assignment table; cache per (position, state).
    def dist_at(state: int, tau: int) -> dict[int, float]:
        if tau < P:
            a = schedule.prefix.table[tau]
        else:
            a = schedule.cycle.table[tau - P]
        return transition_distribution(instance, state, a)

    expect = np.zeros((1 << n, total), dtype=np.float64)
    states = sorted(range(1 << n), key=lambda s: s.bit_count())
    for state in states:
        if state == 0:
            continue
        # a_tau = 1 + sum over strictly-smaller successors; b_tau = self-loop.
        a = np.empty(total, dtype=np.float64)
        b = np.empty(total, dtype=np.float64)
        for tau in range(total):
            dist = dist_at(state, tau)
            nxt_tau = tau + 1 if tau + 1 < total else P
            acc = 1.0
            for nxt, pr in dist.items():
                if nxt != state:
                    acc += pr * expect[nxt, nxt_tau]
            a[tau] = acc
            b[tau] = dist.get(state, 0.0)
        # Cycle part: E_P = A + B * E_P with
        # A = a_P + b_P a_{P+1} + b_P b_{P+1} a_{P+2} + ...,  B = prod b.
        # States from which the cycle makes no progress get E = inf; they
        # are tolerated as long as they are unreachable from the full
        # state at time 0 (e.g. a prefix that provably clears them).
        A = 0.0
        B = 1.0
        for off in range(L):
            tau = P + off
            A += B * a[tau]
            B *= b[tau]
        if B >= 1.0 - 1e-15 or not np.isfinite(A):
            e_cycle_start = np.inf
        else:
            e_cycle_start = A / (1.0 - B)

        def step_back(a_tau: float, b_tau: float, e_next: float) -> float:
            # avoid 0 * inf = nan when the next position is a dead state
            if b_tau == 0.0:
                return a_tau
            return a_tau + b_tau * e_next

        expect[state, P + L - 1] = step_back(a[P + L - 1], b[P + L - 1], e_cycle_start)
        for tau in range(P + L - 2, P - 1, -1):
            expect[state, tau] = step_back(a[tau], b[tau], expect[state, tau + 1])
        # Prefix part, backwards.
        for tau in range(P - 1, -1, -1):
            expect[state, tau] = step_back(a[tau], b[tau], expect[state, tau + 1])
    full = (1 << n) - 1
    value = float(expect[full, 0])
    if not np.isfinite(value):
        raise ScheduleError(
            "cyclic schedule makes no progress from some reachable state; "
            "expected makespan is infinite"
        )
    return value


def state_distribution(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Exact distribution over unfinished-sets after each step.

    Returns an ``(horizon + 1, 2^n)`` array: row ``t`` is the probability
    distribution of the unfinished set after ``t`` steps under the cyclic
    schedule (row 0 is the point mass on "all unfinished").  Forward
    propagation over the Figure-1 Markov chain; complements the backward
    expected-makespan DP.
    """
    n = instance.n
    check_state_budget(n, horizon + 1, max_states)
    schedule.validate_against(instance)
    dist = np.zeros((horizon + 1, 1 << n), dtype=np.float64)
    dist[0, (1 << n) - 1] = 1.0
    for t in range(horizon):
        a = schedule.assignment_at(t)
        row = dist[t]
        nxt = dist[t + 1]
        for state in np.flatnonzero(row > 0.0):
            state = int(state)
            pr = row[state]
            if state == 0:
                nxt[0] += pr
                continue
            for child, q in transition_distribution(instance, state, a).items():
                nxt[child] += pr * q
    return dist


def exact_completion_curve(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Exact ``Pr[all jobs done by step t]`` for ``t = 1..horizon``.

    The exact counterpart of the Monte Carlo ``completion_curve`` metric,
    usable for small ``n``; the two agree to sampling error (tested).
    """
    dist = state_distribution(instance, schedule, horizon, max_states=max_states)
    return dist[1:, 0].copy()
