"""Baseline schedulers the paper's algorithms are compared against.

The paper has no experimental section, so the natural comparators for the
experiment suite are:

* :func:`serial_baseline` — the trivially correct schedule ``Σ_{o,3}``
  alone: all machines gang up on one job at a time in topological order.
  Optimal for a single job, ``Θ(n)``-ly wasteful for wide instances.
* :func:`round_robin_baseline` — an oblivious cyclic spread of machines
  over jobs, ignoring both probabilities and structure.
* :func:`greedy_prob_policy` — adaptive: every machine picks the eligible
  unfinished job it completes with the highest probability (ties to the
  lowest job id).  A natural "local" heuristic with no cap on piling up.
* :func:`random_policy` — adaptive: machines pick uniformly random
  eligible jobs; the weakest sensible comparator.
* :func:`exact_baseline` — the Malewicz optimal regimen (small instances
  only), i.e. ``T^OPT`` itself.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import SUUInstance
from ..core.schedule import (
    IDLE,
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    Regimen,
    ScheduleResult,
)
from ..opt.malewicz import optimal_regimen
from .msm import MSMGreedy
from .replication import serial_tail

__all__ = [
    "serial_baseline",
    "round_robin_baseline",
    "greedy_prob_policy",
    "random_policy",
    "msm_eligible_policy",
    "exact_baseline",
    "state_round_robin_regimen",
]


def serial_baseline(instance: SUUInstance) -> ScheduleResult:
    """All machines on one job at a time, topological order, forever."""
    return ScheduleResult(
        schedule=CyclicSchedule(
            ObliviousSchedule.empty(instance.m), serial_tail(instance)
        ),
        algorithm="serial_baseline",
    )


def round_robin_baseline(instance: SUUInstance) -> ScheduleResult:
    """Oblivious round-robin: machine ``i`` cycles through jobs offset by ``i``.

    The cycle has length ``n`` so every (machine, job) pair appears once
    per period; precedence is ignored (the execution semantics idle
    machines on ineligible jobs).
    """
    n, m = instance.n, instance.m
    order = instance.dag.topological_order()
    table = np.empty((max(1, n), m), dtype=np.int32)
    if n == 0:
        table[:] = IDLE
    else:
        for t in range(n):
            for i in range(m):
                table[t, i] = order[(t + i) % n]
    return ScheduleResult(
        schedule=CyclicSchedule(ObliviousSchedule.empty(m), ObliviousSchedule(table)),
        algorithm="round_robin_baseline",
    )


def greedy_prob_policy(instance: SUUInstance) -> ScheduleResult:
    """Adaptive greedy: each machine takes its best eligible job."""
    p = instance.p

    def rule(inst, unfinished, eligible, t, rng):
        a = np.full(inst.m, IDLE, dtype=np.int32)
        if eligible:
            jobs = np.asarray(sorted(eligible), dtype=np.int64)
            sub = p[:, jobs]  # (m, k)
            best = np.argmax(sub, axis=1)
            for i in range(inst.m):
                if sub[i, best[i]] > 0.0:
                    a[i] = jobs[best[i]]
        return a

    return ScheduleResult(
        schedule=AdaptivePolicy(rule, name="greedy-prob", stationary=True, randomized=False),
        algorithm="greedy_prob_policy",
    )


def random_policy(instance: SUUInstance) -> ScheduleResult:
    """Adaptive uniform-random assignment over eligible jobs."""

    def rule(inst, unfinished, eligible, t, rng):
        a = np.full(inst.m, IDLE, dtype=np.int32)
        if eligible:
            jobs = np.asarray(sorted(eligible), dtype=np.int64)
            picks = rng.integers(0, len(jobs), size=inst.m)
            a[:] = jobs[picks]
        return a

    return ScheduleResult(
        schedule=AdaptivePolicy(rule, name="random", stationary=True, randomized=True),
        algorithm="random_policy",
    )


def msm_eligible_policy(instance: SUUInstance) -> ScheduleResult:
    """Adaptive MSM-ALG restricted to *eligible* unfinished jobs.

    The natural extension of SUU-I-ALG (Figure 2) to precedence DAGs:
    every step, run the greedy MaxSumMass assignment over the jobs that can
    actually execute.  No approximation guarantee is claimed for this
    heuristic — the paper's DAG results go through the LP pipeline instead
    — but it is the strongest simple adaptive comparator.

    Running plain SUU-I-ALG over the whole unfinished set can *livelock*
    under precedence semantics (machines keep getting assigned to
    ineligible jobs and idle forever), which is itself an instructive
    failure; this policy is the repaired version.
    """
    greedy = MSMGreedy(instance.p)

    def rule(inst, unfinished, eligible, t, rng):
        return greedy.assign(eligible)

    return ScheduleResult(
        schedule=AdaptivePolicy(rule, name="msm-eligible", stationary=True, randomized=False),
        algorithm="msm_eligible_policy",
    )


def exact_baseline(instance: SUUInstance, max_states: int = 1 << 14) -> ScheduleResult:
    """The exact optimal regimen (small instances; Malewicz's DP)."""
    sol = optimal_regimen(instance, max_states=max_states)
    return ScheduleResult(
        schedule=sol.regimen,
        algorithm="exact_baseline",
        certificates={"expected_makespan": sol.expected_makespan},
    )


def state_round_robin_regimen(
    instance: SUUInstance, max_states: int = 1 << 20
) -> ScheduleResult:
    """Round-robin over each state's *eligible* jobs, as an explicit regimen.

    The state-dependent cousin of :func:`round_robin_baseline`: in a state
    with ``k`` eligible jobs, machine ``i`` takes the ``(i mod k)``-th of
    them in job order.  The dense table is filled at the reachable states
    of :func:`~repro.sim.exact.lattice.state_index` with one vectorized
    pass per eligible count and no per-state Python; other rows stay
    :attr:`~repro.core.schedule.Regimen.UNDEFINED`.  So this is the
    standard *evaluation workload* for the exact Markov engines at n ≈
    14–20 (``benchmarks/bench_perf_exact_markov.py``, the
    engine-equivalence property tests, and the ``state_round_robin``
    registry algorithm) — a nontrivial regimen whose exact expected
    makespan is well-defined because every eligible job set is nonempty
    and every job has a positive-probability machine.
    """
    from ..sim.exact.lattice import (
        bit_positions,
        check_state_budget,
        popcount_array,
        state_index,
    )

    n, m = instance.n, instance.m
    check_state_budget(n, 1, max_states)
    index = state_index(instance)
    count = popcount_array(index.elig)
    table = np.full((1 << n, m), Regimen.UNDEFINED, dtype=np.int32)
    # Every nonempty set has an eligible job: count 0 is the empty set's.
    for k in np.flatnonzero(np.bincount(count))[1:]:
        rows = np.flatnonzero(count == k)
        jobs = bit_positions(index.elig[rows], int(k))
        table[index.states[rows]] = jobs[:, np.arange(m) % k]
    return ScheduleResult(
        schedule=Regimen.from_table(table),
        algorithm="state_round_robin",
    )
