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

    def frontier_rule(inst, unfinished, eligible, t):
        return greedy.assign_rows(eligible.tolist())

    return ScheduleResult(
        schedule=AdaptivePolicy(
            name="msm-eligible", stationary=True, randomized=False, frontier_rule=frontier_rule
        ),
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
    where machine ``i`` serves ``k_i`` of the eligible jobs (those with
    ``p_ij > 0``), it takes the ``(i mod k_i)``-th of them in job order,
    and idles if it serves none.  The regimen has one row per nonempty
    reachable state of :func:`~repro.sim.exact.lattice.state_index`,
    filled with one vectorized pass per served count of each distinct
    served set (one set when every ``p_ij > 0``), with no per-state Python
    and nothing sized ``2^n``.  So this is the
    standard *evaluation workload* for the exact Markov engines at n ≈
    14–22 (``benchmarks/bench_perf_exact_markov.py``, the
    engine-equivalence property tests, and the ``state_round_robin``
    registry algorithm) — a nontrivial regimen whose exact expected
    makespan is well-defined: every nonempty state has an eligible job,
    some machine serves it, and that machine works on a job it serves.
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
    # Index state 0 is the empty set; every other has an eligible job.
    elig = index.elig[1:]
    rows = np.full((elig.size, m), IDLE, dtype=np.int32)
    serves = (instance.p > 0.0) @ (1 << np.arange(n, dtype=np.int64))
    for mask in np.unique(serves):
        machines = np.flatnonzero(serves == mask)
        served = elig & mask
        count = popcount_array(served)
        groups = np.bincount(count, minlength=1)
        groups[0] = 0  # a machine that serves no eligible job idles
        for k in np.flatnonzero(groups):
            sel = np.flatnonzero(count == k)
            rows[sel[:, None], machines] = bit_positions(served[sel], int(k))[:, machines % k]
    return ScheduleResult(
        schedule=Regimen.from_rows(n, index.states[1:], rows),
        algorithm="state_round_robin",
    )
