"""Sharded Monte Carlo estimation: the orchestration half of the backend.

:func:`sharded_estimate` is what ``evaluate(..., workers=N)`` routes
through: build a deterministic shard plan
(:mod:`repro.parallel.sharding`), run each shard on the chosen executor
(:mod:`repro.parallel.executor`), and fold per-shard partials in shard
order (:mod:`repro.parallel.merge`) into one
:class:`~repro.sim.montecarlo.MakespanEstimate` with the same shape and
semantics as the single-process path.
"""

from __future__ import annotations

import pickle

import numpy as np

from .. import obs
from ..errors import ScheduleError, SimulationLimitError, ValidationError
from .executor import Executor, get_executor
from .merge import merge_partials
from .sharding import make_shard_plan, resolve_root_seed
from .worker import ShardOutcome, _ObjectShardTask, estimate_shard

__all__ = ["sharded_estimate", "merged_estimate"]


def _check_picklable(instance, schedule) -> None:
    """Fail fast (and helpfully) before shipping objects to a process pool."""
    try:
        pickle.dumps((instance, schedule), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ScheduleError(
            f"schedule {schedule!r} cannot be pickled to worker processes "
            f"({exc}); run it through an ExperimentSpec (workers rebuild the "
            "schedule from the registry) or use executor='serial'"
        ) from None


def merged_estimate(
    outcomes: "list[ShardOutcome]",
    reps: int,
    max_steps: int,
    keep_samples: bool,
    require_finished: bool,
):
    """Fold shard outcomes (in shard order) into one MakespanEstimate.

    Shared by this module and the experiment runner, so both the direct
    estimator and suite execution merge with identical semantics.  The
    merged ``truncated`` count is returned, not warned about: each caller
    warns once for its own result.
    """
    from ..sim.montecarlo import MakespanEstimate

    outcomes = sorted(outcomes, key=lambda o: o.shard_index)
    # Reassemble worker telemetry in shard-index order (not completion
    # order), so the merged trace — spans and summed counters alike — is
    # bitwise identical for every worker count.  No-op when tracing is off.
    obs.add("parallel.shards", len(outcomes))
    for o in outcomes:
        obs.graft_snapshot(o.telemetry)
    merged = merge_partials(o.partial for o in outcomes)
    if merged.count != reps:
        raise ValidationError(
            f"shard partials cover {merged.count} replications, expected {reps}"
        )
    engines = {o.engine_used for o in outcomes}
    if len(engines) != 1:  # pragma: no cover - engine choice is deterministic
        raise ScheduleError(f"shards disagree on the engine: {sorted(engines)}")
    if require_finished and merged.truncated:
        raise SimulationLimitError(
            f"{merged.truncated}/{reps} replications hit the {max_steps}-step budget"
        )
    samples = None
    if keep_samples:
        samples = np.concatenate(
            [np.asarray(o.samples, dtype=np.int64) for o in outcomes]
        )
    return MakespanEstimate(
        mean=merged.mean,
        std_err=merged.std_err,
        n_reps=merged.count,
        truncated=merged.truncated,
        min=merged.min,
        max=merged.max,
        samples=samples,
        engine_used=engines.pop(),
    )


def sharded_estimate(
    instance,
    schedule,
    reps: int,
    rng,
    max_steps: int,
    engine: str,
    executor: "str | Executor | None",
    workers: int | None,
    shards: int | None,
    keep_samples: bool,
    require_finished: bool,
):
    """Estimate a makespan through the shard → execute → merge pipeline."""
    plan = make_shard_plan(reps, resolve_root_seed(rng), n_shards=shards)
    exe = get_executor(executor, workers)
    owns_executor = not isinstance(executor, Executor)
    if exe.name == "process":
        _check_picklable(instance, schedule)
    trace = obs.enabled()
    tasks = [
        _ObjectShardTask(
            instance=instance,
            schedule=schedule,
            shard=shard,
            max_steps=max_steps,
            engine=engine,
            keep_samples=keep_samples,
            trace=trace,
        )
        for shard in plan.shards
    ]
    with obs.span(
        "parallel.map",
        shards=len(plan.shards),
        executor=exe.name,
        workers=workers,
        engine=engine,
    ):
        try:
            outcomes = exe.map_tasks(estimate_shard, tasks)
        finally:
            if owns_executor:
                exe.close()
        return merged_estimate(
            outcomes,
            reps=reps,
            max_steps=max_steps,
            keep_samples=keep_samples,
            require_finished=require_finished,
        )
