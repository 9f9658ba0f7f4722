"""Batched (lockstep) simulation of adaptive policies.

The scalar engine (:mod:`repro.sim.engine`) replays one execution at a
time, re-running the policy's Python code every step of every replication.
This module advances *all* replications of an adaptive policy in lockstep:

* state is a ``(reps, jobs)`` boolean completion matrix;
* each step groups the replications by *frontier state* — the set of
  completed jobs, packed to bytes and sorted as one 1-D key — and (for
  stationary policies) memoizes each state's per-job success-probability
  vector across steps, exploiting that Def 2.1 adaptive policies are
  functions of the completed-job set;
* the frontier states missing from the memo are resolved together by
  :func:`frontier_eligible` (one predecessor-matrix product), one call of
  the policy's frontier rule for all of them (a per-state rule runs once
  per state instead), one validation of the ``(k, m)`` block, and
  :func:`frontier_success_prob` (Def 2.1 idling and the product-form
  success probability for all of them in one ``bincount``);
* per-step job completions are drawn as one vectorized Bernoulli over the
  ``(reps, jobs)`` success-probability matrix.

Because executions are monotone (jobs only finish), the number of distinct
frontier states encountered is typically far below ``reps × steps``, so the
policy answers orders of magnitude fewer states than in the scalar loop
while the per-replication makespan distribution is exactly the same.
Each success-probability row is bitwise the row that
:func:`~repro.sim.engine.effective_assignment` and
:func:`~repro.core.mass.assignment_success_prob` give for that state.

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
from itertools import compress

import numpy as np

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import (
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    Regimen,
    validate_assignment,
)
from ..errors import ScheduleError, ValidationError
from .engine import DEFAULT_MAX_STEPS

__all__ = [
    "BatchExecutionResult",
    "simulate_batch",
    "batchable",
    "frontier_eligible",
    "frontier_success_prob",
]


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
        Frontier states answered by the policy (those missing from the
        memo) — the quantity the batching exists to minimize.
    rule_calls:
        Calls into the policy for those answers: one per step that has
        missing states for a frontier rule (a regimen's is one
        ``rows_at`` gather), one per state for a per-state rule.
    memo_entries:
        Distinct frontier-state keys held by the memo table at the end.
    """

    makespans: np.ndarray
    finished: np.ndarray
    steps_executed: int
    policy_queries: int
    rule_calls: int
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


def _predecessor_matrix(instance: SUUInstance) -> np.ndarray | None:
    """``(n, n)`` 0/1 matrix with a 1 at ``[u, v]`` for each edge ``u ≺ v``.

    ``None`` for an instance without edges, where every job is eligible.
    """
    dag = instance.dag
    if not dag.num_edges:
        return None
    pred = np.zeros((instance.n, instance.n), dtype=np.float64)
    u, v = np.asarray(dag.edges, dtype=np.int64).T
    pred[u, v] = 1.0
    return pred


def frontier_eligible(
    instance: SUUInstance, finished: np.ndarray, pred: np.ndarray | None = None
) -> np.ndarray:
    """``(k, n)`` eligibility of ``k`` frontier states in one matrix product.

    Row ``s`` is :func:`~repro.sim.engine.eligible_mask` of
    ``finished[s]``: job ``j`` is eligible iff none of its predecessors is
    unfinished (so, as there, a finished job counts as eligible).  Pass
    ``pred`` (from the instance's DAG) to skip rebuilding it per call.
    """
    if pred is None:
        pred = _predecessor_matrix(instance)
    if pred is None:
        return np.ones(finished.shape, dtype=bool)
    # Entry [s, j] counts job j's unfinished predecessors in state s; the
    # counts are small integers, exact in float64.
    return (~finished).astype(np.float64) @ pred == 0.0


def frontier_success_prob(
    instance: SUUInstance,
    assignments: np.ndarray,
    finished: np.ndarray,
    eligible: np.ndarray,
) -> np.ndarray:
    """``(k, n)`` one-step success probabilities of ``k`` frontier states.

    ``assignments[s]`` is the raw ``(m,)`` assignment the schedule names in
    state ``finished[s]`` (eligibility ``eligible[s]``).  Def 2.1 idling
    drops machines on finished or ineligible jobs, and
    ``q_j = 1 - exp(Σ_i log1p(-p_ij))`` over the working machines, with
    ``q_j = 1`` when one of them has ``p_ij = 1``.  One ``bincount`` sums
    each state's terms in machine order, so row ``s`` is bitwise
    ``assignment_success_prob(p, effective_assignment(...))`` of that state.
    """
    k, m = assignments.shape
    n = instance.n
    named = assignments >= 0
    jobs = np.where(named, assignments, 0)
    state = np.arange(k)[:, None]
    working = named & ~finished[state, jobs] & eligible[state, jobs]
    cell = (state * n + jobs)[working]
    probs = instance.p[np.arange(m)[None, :], jobs][working]
    with np.errstate(divide="ignore"):
        contrib = np.log1p(-np.minimum(probs, 1.0 - 1e-300))
    # q starts as the per-cell log-failure sums (bincount returns ints when
    # no machine works); exp and 1 - x run in place, as k·n temporaries
    # would set a large frontier's memory peak.
    q = np.bincount(cell, weights=contrib, minlength=k * n).astype(np.float64, copy=False)
    np.subtract(1.0, np.exp(q, out=q), out=q)
    q[cell[probs >= 1.0]] = 1.0
    return q.reshape(k, n)


def _frontier_assignments(
    instance: SUUInstance,
    policy: AdaptivePolicy,
    t: int,
    finished: np.ndarray,
    eligible: np.ndarray,
    policy_rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """``(k, m)`` raw assignments of ``policy`` in ``k`` frontier states.

    Returns them with the number of calls into the policy.  A frontier
    rule answers every state in one call.  A per-state rule runs once per
    state, in row order, so what it draws from ``policy_rng`` is fixed by
    the seed and the states' order.  The answers are validated once, as
    one block.
    """
    k = finished.shape[0]
    n, m = instance.n, instance.m
    unfinished = ~finished
    open_ = unfinished & eligible
    if policy.frontier_rule is not None:
        raw = policy.frontier_rule(instance, unfinished, open_, t)
        return validate_assignment(raw, n, m, rows=k), 1
    jobs = range(n)
    unfinished_rows = unfinished.tolist()
    open_rows = open_.tolist()
    rows = []
    for s in range(k):
        a = np.asarray(
            policy.rule(
                instance,
                frozenset(compress(jobs, unfinished_rows[s])),
                frozenset(compress(jobs, open_rows[s])),
                t,
                policy_rng,
            )
        )
        if a.shape != (m,):
            validate_assignment(a, n, m)  # raises, naming the shape
        rows.append(a)
    return validate_assignment(np.stack(rows), n, m, rows=k), k


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
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        raise ScheduleError(
            "oblivious/cyclic schedules have their own lockstep path in "
            "repro.sim.montecarlo; simulate_batch is for adaptive policies"
        )
    if isinstance(schedule, Regimen):
        schedule.validate_against(instance)
        # Its policy view is a stationary frontier rule: one rows_at gather.
        schedule = schedule.as_policy()
    if not isinstance(schedule, AdaptivePolicy):
        raise ScheduleError(
            f"cannot batch-execute schedule of type {type(schedule).__name__}"
        )
    if schedule.randomized:
        raise ScheduleError(
            f"policy {schedule.name!r} is randomized; batching would share "
            "draws between replications — use the scalar engine"
        )
    frontier_key = schedule.frontier_key
    rng = as_rng(rng)
    # Policies receive a dedicated generator so that a rule that (against
    # its declaration) consumes randomness cannot desynchronize the
    # completion-draw stream shared by all memoization settings.
    policy_rng = np.random.default_rng(int(rng.integers(0, 2**63)))

    n = instance.n
    pred = _predecessor_matrix(instance)
    finished = np.zeros((reps, n), dtype=bool)
    makespans = np.full(reps, max_steps, dtype=np.int64)
    done = np.zeros(reps, dtype=bool)
    memo: dict = {}
    queries = 0
    rule_calls = 0
    lookups = 0
    steps = 0
    key_dtype = np.dtype((np.void, (n + 7) // 8))

    for t in range(max_steps):
        if done.all():
            break
        steps = t + 1
        active_idx = np.flatnonzero(~done)
        fin_active = finished[active_idx]  # (A, n) copy
        # Group replications by frontier state: one row per distinct
        # completed-job set, scattered back via fancy indexing.  Each
        # packed row is one opaque key, so the sort compares byte strings;
        # this is the order, inverse and keys of np.unique(axis=0).
        packed = np.packbits(fin_active, axis=1).view(key_dtype).ravel()
        uniq, inverse = np.unique(packed, return_inverse=True)
        q_rows = np.empty((uniq.size, n), dtype=np.float64)
        lookups += uniq.size
        keys = [frontier_key(token, t) for token in uniq.tolist()]
        missing = []
        for k, key in enumerate(keys):
            q = memo.get(key) if memoize else None
            if q is None:
                missing.append(k)
            else:
                q_rows[k] = q
        if missing:
            fin_bytes = uniq[missing].view(np.uint8).reshape(len(missing), -1)
            fin = np.unpackbits(fin_bytes, axis=1, count=n).astype(bool)
            elig = frontier_eligible(instance, fin, pred)
            raw, calls = _frontier_assignments(instance, schedule, t, fin, elig, policy_rng)
            q_new = frontier_success_prob(instance, raw, fin, elig)
            q_rows[missing] = q_new
            queries += len(missing)
            rule_calls += calls
            if memoize:
                for k, q in zip(missing, q_new):
                    memo[keys[k]] = q
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
    obs.add("batch.rule_calls", rule_calls)
    obs.add("batch.memo_hits", lookups - queries)
    obs.add("batch.memo_entries", len(memo))
    return BatchExecutionResult(
        makespans=makespans,
        finished=done.copy(),
        steps_executed=steps,
        policy_queries=queries,
        rule_calls=rule_calls,
        memo_entries=len(memo),
    )
