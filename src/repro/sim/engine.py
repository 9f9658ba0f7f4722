"""Stochastic execution of schedules (the semantics of Definition 2.1).

One execution proceeds step by step: the schedule names a job per machine;
machines whose named job is finished or not yet eligible idle for the step
(Def 2.1); each job with at least one working machine completes with
probability ``1 - prod(1 - p_ij)`` independently across jobs and steps.

This module is the scalar (single-replication) engine that works for every
schedule type, including adaptive policies.  Two vectorized multi-replication
fast paths exist: the lockstep path for oblivious schedules in
:mod:`repro.sim.montecarlo` and the frontier-memoized batched path for
adaptive policies in :mod:`repro.sim.batch`.  ``docs/architecture.md``
documents the decision tree that picks between the three; the scalar engine
remains the reference implementation the fast paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import (
    IDLE,
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    Regimen,
)
from ..errors import ScheduleError, SimulationLimitError

__all__ = [
    "ExecutionResult",
    "simulate",
    "eligible_mask",
    "assignment_for_step",
    "effective_assignment",
    "DEFAULT_MAX_STEPS",
]

#: Step budget before :func:`simulate` gives up (override per call).
DEFAULT_MAX_STEPS = 1_000_000


@dataclass
class ExecutionResult:
    """Outcome of one stochastic execution.

    Attributes
    ----------
    completion:
        Per-job completion step (1-based, so a job finished in the first
        step has completion 1); ``0`` for jobs that never finished.
    makespan:
        Step at which the last job finished; only meaningful when
        ``finished`` is True.
    finished:
        Whether all jobs completed within the step budget.
    steps_executed:
        Number of steps actually simulated.
    masses:
        Per-job mass accumulated during the execution (Def 2.4: mass stops
        accumulating once the job completes, and idling machines contribute
        nothing).
    trace:
        When requested, the list of per-step effective assignments.
    """

    completion: np.ndarray
    makespan: int
    finished: bool
    steps_executed: int
    masses: np.ndarray
    trace: list[np.ndarray] = field(default_factory=list)


def eligible_mask(instance: SUUInstance, finished: np.ndarray) -> np.ndarray:
    """Boolean mask of jobs whose predecessors have all finished.

    Note: a finished job is trivially "eligible"; callers combine this with
    the unfinished mask.
    """
    dag = instance.dag
    elig = np.ones(instance.n, dtype=bool)
    if not dag.num_edges:
        return elig
    for j in range(instance.n):
        for pred in dag.predecessors(j):
            if not finished[pred]:
                elig[j] = False
                break
    return elig


def assignment_for_step(
    instance: SUUInstance,
    schedule,
    t: int,
    finished: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The raw step-``t`` assignment of ``schedule`` in state ``finished``.

    The scalar engine's query; the batched engine (:mod:`repro.sim.batch`)
    resolves many frontier states at once with the same semantics.  The
    returned assignment is *raw*: machines may still name finished or
    ineligible jobs; apply :func:`effective_assignment` before drawing
    completions.
    """
    if isinstance(schedule, ObliviousSchedule):
        return schedule.assignment_at(t)
    if isinstance(schedule, CyclicSchedule):
        return schedule.assignment_at(t)
    if isinstance(schedule, Regimen):
        state = 0
        for j in np.flatnonzero(~finished):
            state |= 1 << int(j)
        return schedule.assignment_for_state(state)
    if isinstance(schedule, AdaptivePolicy):
        unfinished = frozenset(np.flatnonzero(~finished).tolist())
        elig = eligible_mask(instance, finished)
        eligible = frozenset(np.flatnonzero(elig & ~finished).tolist())
        return schedule.assignment_for(instance, unfinished, eligible, t, rng)
    raise ScheduleError(f"cannot execute schedule of type {type(schedule).__name__}")


def effective_assignment(
    instance: SUUInstance,
    assignment: np.ndarray,
    finished: np.ndarray,
    elig: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the Def 2.1 idling rule: machines on finished or not-yet-eligible
    jobs idle for the step.  Returns a new array; the input is not modified.
    """
    if elig is None:
        elig = eligible_mask(instance, finished)
    effective = assignment.copy()
    for i in range(instance.m):
        j = effective[i]
        if j == IDLE:
            continue
        if finished[j] or not elig[j]:
            effective[i] = IDLE
    return effective


def simulate(
    instance: SUUInstance,
    schedule,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_trace: bool = False,
) -> ExecutionResult:
    """Run one stochastic execution of ``schedule`` on ``instance``.

    Stops as soon as all jobs are finished or after ``max_steps`` steps.
    For finite :class:`ObliviousSchedule` inputs the execution also stops at
    the end of the schedule (remaining jobs stay unfinished).
    """
    rng = as_rng(rng)
    n, m = instance.n, instance.m
    p = instance.p
    finished = np.zeros(n, dtype=bool)
    completion = np.zeros(n, dtype=np.int64)
    masses = np.zeros(n, dtype=np.float64)
    trace: list[np.ndarray] = []

    horizon = max_steps
    if isinstance(schedule, ObliviousSchedule):
        horizon = min(max_steps, schedule.length)

    steps = 0
    for t in range(horizon):
        if finished.all():
            break
        a = assignment_for_step(instance, schedule, t, finished, rng)
        steps = t + 1
        # Effective assignment: machines on finished/ineligible jobs idle.
        effective = effective_assignment(instance, a, finished)
        if record_trace:
            trace.append(effective.copy())
        # Per-job completion draws.
        fail = np.ones(n, dtype=np.float64)
        touched: set[int] = set()
        for i in range(m):
            j = effective[i]
            if j != IDLE:
                fail[j] *= 1.0 - p[i, j]
                masses[j] += p[i, j]
                touched.add(int(j))
        if touched:
            jobs = np.fromiter(touched, dtype=np.int64)
            q = 1.0 - fail[jobs]
            wins = rng.random(jobs.size) < q
            done = jobs[wins]
            finished[done] = True
            completion[done] = t + 1
    all_done = bool(finished.all())
    makespan = int(completion.max()) if all_done else steps
    if not all_done and steps >= max_steps:
        # Leave it to the caller to decide whether truncation is an error;
        # estimators count truncated runs explicitly.
        pass
    return ExecutionResult(
        completion=completion,
        makespan=makespan,
        finished=all_done,
        steps_executed=steps,
        masses=masses,
        trace=trace,
    )


def simulate_or_raise(
    instance: SUUInstance,
    schedule,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Like :func:`simulate` but raises if the execution did not finish."""
    result = simulate(instance, schedule, rng=rng, max_steps=max_steps)
    if not result.finished:
        raise SimulationLimitError(
            f"execution did not finish within {max_steps} steps "
            f"({int((~(result.completion > 0)).sum())} jobs left)"
        )
    return result
