"""Batched (lockstep) simulation of adaptive policies.

The scalar engine (:mod:`repro.sim.engine`) replays one execution at a
time, re-running the policy's Python code every step of every replication.
This module advances *all* replications of an adaptive policy in lockstep:

* state is a ``(reps, jobs)`` boolean completion matrix;
* the policy is queried once per distinct *frontier state* — the set of
  completed jobs — per step, and (for stationary policies) the resulting
  per-job success-probability vector is memoized across steps, exploiting
  that Def 2.1 adaptive policies are functions of the completed-job set;
* per-step job completions are drawn as one vectorized Bernoulli over the
  ``(reps, jobs)`` success-probability matrix.

Because executions are monotone (jobs only finish), the number of distinct
frontier states encountered is typically far below ``reps × steps``, so the
policy's Python code runs orders of magnitude less often than in the scalar
loop while the per-replication makespan distribution is exactly the same.

Only *deterministic* policies are eligible: a randomized rule queried once
per state would hand every replication in that state the same draw, which
correlates replications (the per-replication marginal would still be
correct, but the estimator's standard error would be wrong).
:func:`repro.evaluate.evaluate` routes randomized policies to the scalar
engine automatically.

``docs/architecture.md`` documents the full engine decision tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.mass import assignment_success_prob
from ..core.schedule import AdaptivePolicy, CyclicSchedule, ObliviousSchedule, Regimen
from ..errors import ScheduleError
from .engine import (
    DEFAULT_MAX_STEPS,
    assignment_for_step,
    effective_assignment,
    eligible_mask,
)

__all__ = ["BatchExecutionResult", "simulate_batch", "batchable"]


@dataclass
class BatchExecutionResult:
    """Outcome of a lockstep batch of stochastic executions.

    Attributes
    ----------
    makespans:
        Per-replication makespan (1-based step of the last completion);
        replications that hit the step budget report the censored value
        ``max_steps``.
    finished:
        Per-replication flag: did every job complete within the budget?
    steps_executed:
        Steps simulated before every replication finished (or the budget).
    policy_queries:
        Number of times the policy's rule actually ran — the quantity the
        batching exists to minimize.
    memo_entries:
        Distinct frontier-state keys held by the memo table at the end.
    """

    makespans: np.ndarray
    finished: np.ndarray
    steps_executed: int
    policy_queries: int
    memo_entries: int

    @property
    def truncated(self) -> int:
        """Number of replications censored at the step budget."""
        return int((~self.finished).sum())


def batchable(schedule) -> bool:
    """Can ``schedule`` run on the batched engine?

    True for explicit regimens and for deterministic adaptive policies;
    False for randomized policies (scalar engine) and oblivious/cyclic
    schedules (which have their own, cheaper lockstep path in
    :mod:`repro.sim.montecarlo`).
    """
    if isinstance(schedule, Regimen):
        return True
    if isinstance(schedule, AdaptivePolicy):
        return not schedule.randomized
    return False


def _query_state(
    instance: SUUInstance,
    schedule,
    t: int,
    finished_row: np.ndarray,
    policy_rng: np.random.Generator,
) -> np.ndarray:
    """One-step success-probability vector for one frontier state.

    Runs the exact same query pipeline as the scalar engine — raw
    assignment, Def 2.1 idling, product-form success probability — so the
    two engines are statistically indistinguishable by construction.
    """
    elig = eligible_mask(instance, finished_row)
    if isinstance(schedule, AdaptivePolicy):
        # Inline the adaptive branch of assignment_for_step so eligibility
        # is computed once per query instead of twice.
        unfinished = frozenset(int(j) for j in np.flatnonzero(~finished_row))
        eligible = frozenset(int(j) for j in np.flatnonzero(elig & ~finished_row))
        a = schedule.assignment_for(instance, unfinished, eligible, t, policy_rng)
    else:
        a = assignment_for_step(instance, schedule, t, finished_row, policy_rng)
    effective = effective_assignment(instance, a, finished_row, elig)
    return assignment_success_prob(instance.p, effective)


def simulate_batch(
    instance: SUUInstance,
    schedule,
    reps: int,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    memoize: bool = True,
) -> BatchExecutionResult:
    """Run ``reps`` stochastic executions of an adaptive policy in lockstep.

    Parameters
    ----------
    schedule:
        An :class:`AdaptivePolicy` with ``randomized=False``, or a
        :class:`Regimen`.  Oblivious and cyclic schedules are rejected —
        :func:`repro.evaluate.evaluate` sends them to the dedicated
        oblivious kernel, which never queries per state at all.
    memoize:
        Cache success-probability vectors across steps keyed by
        :meth:`AdaptivePolicy.frontier_key`.  Replications sharing a
        frontier within one step always share one query (that grouping is
        the point of batching); ``memoize=False`` only disables the
        cross-step cache, which is useful for testing that memoization
        does not change results.

    The completion draws consume ``rng`` identically whether or not
    memoization is enabled, so for a deterministic policy the two settings
    produce bitwise-identical makespans under the same seed.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        raise ScheduleError(
            "oblivious/cyclic schedules have their own lockstep path in "
            "repro.sim.montecarlo; simulate_batch is for adaptive policies"
        )
    if isinstance(schedule, AdaptivePolicy):
        if schedule.randomized:
            raise ScheduleError(
                f"policy {schedule.name!r} is randomized; batching would share "
                "draws between replications — use the scalar engine"
            )
        frontier_key = schedule.frontier_key
    elif isinstance(schedule, Regimen):
        # A regimen is stationary by definition (Def 2.2).
        def frontier_key(token, t):
            return token
    else:
        raise ScheduleError(
            f"cannot batch-execute schedule of type {type(schedule).__name__}"
        )
    rng = as_rng(rng)
    # Policies receive a dedicated generator so that a rule that (against
    # its declaration) consumes randomness cannot desynchronize the
    # completion-draw stream shared by all memoization settings.
    policy_rng = np.random.default_rng(int(rng.integers(0, 2**63)))

    n = instance.n
    finished = np.zeros((reps, n), dtype=bool)
    makespans = np.full(reps, max_steps, dtype=np.int64)
    done = np.zeros(reps, dtype=bool)
    memo: dict = {}
    queries = 0
    lookups = 0
    steps = 0

    for t in range(max_steps):
        if done.all():
            break
        steps = t + 1
        active_idx = np.flatnonzero(~done)
        fin_active = finished[active_idx]  # (A, n) copy
        # Group replications by frontier state: one policy query per
        # distinct completed-job set, scattered back via fancy indexing.
        packed = np.packbits(fin_active, axis=1)
        uniq, inverse = np.unique(packed, axis=0, return_inverse=True)
        q_rows = np.empty((uniq.shape[0], n), dtype=np.float64)
        lookups += uniq.shape[0]
        for k in range(uniq.shape[0]):
            token = uniq[k].tobytes()
            key = frontier_key(token, t)
            q = memo.get(key) if memoize else None
            if q is None:
                row = np.unpackbits(uniq[k])[:n].astype(bool)
                q = _query_state(instance, schedule, t, row, policy_rng)
                queries += 1
                if memoize:
                    memo[key] = q
            q_rows[k] = q
        q_matrix = q_rows[inverse]
        draws = rng.random((active_idx.size, n))
        newly = (~fin_active) & (draws < q_matrix)
        fin_active |= newly
        finished[active_idx] = fin_active
        now_done = fin_active.all(axis=1)
        newly_done = active_idx[now_done]
        makespans[newly_done] = t + 1
        done[newly_done] = True

    # Counter flush happens once per batch, outside the lockstep loop, so
    # the disabled path costs nothing per step.
    obs.add("batch.steps", steps)
    obs.add("batch.policy_queries", queries)
    obs.add("batch.memo_hits", lookups - queries)
    obs.add("batch.memo_entries", len(memo))
    return BatchExecutionResult(
        makespans=makespans,
        finished=done.copy(),
        steps_executed=steps,
        policy_queries=queries,
        memo_entries=len(memo),
    )
