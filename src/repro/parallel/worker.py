"""Worker-side functions of the parallel backend.

Everything in this module is a plain module-level function operating on
picklable payloads, so it can cross the process boundary under any
multiprocessing start method.  Tasks are **spec tasks**
(:func:`run_spec_task`): only the JSON spec dict travels, and the worker
rebuilds the instance and schedule through the experiment registries.
Rebuilding is deterministic (instance and solver seeds live in the spec),
so every worker reconstructs the identical schedule — closure-based
adaptive policies included — and a per-process LRU cache makes the
rebuild a one-time cost per spec rather than per shard.

Workers never warn about censoring: truncation counts travel back inside
the partials, and the *parent* warns once for the merged estimate instead
of once per shard per process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .. import obs
from .merge import PartialEstimate
from .sharding import Shard

__all__ = [
    "ShardOutcome",
    "SpecTask",
    "SpecTaskOutcome",
    "run_spec_task",
]


@dataclass(frozen=True)
class ShardOutcome:
    """What one replication shard sends back to the aggregator.

    ``telemetry`` is the worker-side :meth:`~repro.obs.Telemetry.snapshot`
    when the task asked for tracing (``None`` otherwise); the parent
    grafts the snapshots back in shard-index order, so the reassembled
    trace is deterministic and identical for every worker count.
    """

    shard_index: int
    partial: PartialEstimate
    engine_used: str
    elapsed_s: float
    telemetry: dict | None = None


def _estimate_partial(
    instance,
    schedule,
    shard: Shard,
    max_steps: int,
    trace: bool = False,
) -> ShardOutcome:
    """Run one shard through the (single-process) estimator and summarize it."""
    # Engine-layer call: a shard is a slice of one spec's replications,
    # below the repro.evaluate front door.
    from ..sim.montecarlo import _estimate_makespan

    sw = obs.stopwatch()
    # The capture scopes this shard's spans/counters into its own snapshot
    # whether the shard runs in a forked worker or in-process (serial
    # executor) — both travel the same snapshot/graft protocol.
    with obs.capture(enabled=trace) as tel:
        with obs.span("parallel.shard", shard=shard.index, reps=shard.reps):
            est = _estimate_makespan(
                instance,
                schedule,
                reps=shard.reps,
                rng=shard.rng(),
                max_steps=max_steps,
                keep_samples=True,
            )
    assert est.samples is not None
    return ShardOutcome(
        shard_index=shard.index,
        partial=PartialEstimate.from_samples(est.samples, truncated=est.truncated),
        engine_used=est.engine_used,
        elapsed_s=sw.elapsed_s,
        telemetry=tel.snapshot() if tel is not None else None,
    )


@lru_cache(maxsize=8)
def _build_instance_from_spec(spec_json: str):
    """Rebuild (spec, instance) from canonical spec JSON, cached per process."""
    from ..experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(json.loads(spec_json))
    return spec, spec.build_instance()


@lru_cache(maxsize=8)
def _build_from_spec(spec_json: str):
    """Rebuild (spec, instance, schedule_result) from canonical spec JSON.

    Cached per process: with a reused pool every worker builds each spec
    (including a possibly expensive solver run) once, then serves all of
    that spec's shards from the cache.  Determinism of the rebuild is what
    makes this safe — the spec pins both the instance seed and the solver
    seed, so every process reconstructs the identical schedule.  Reference
    tasks use only :func:`_build_instance_from_spec`, skipping the solver.
    """
    spec, instance = _build_instance_from_spec(spec_json)
    result = spec.build_schedule(instance)
    return spec, instance, result


def spec_payload(spec) -> str:
    """Canonical JSON for a spec, used as both task payload and cache key."""
    return json.dumps(spec.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class SpecTask:
    """One unit of suite work: a shard, a reference solve, or an exact eval.

    ``kind`` is ``"shard"`` (simulate ``shard`` of the spec's replications),
    ``"reference"`` (compute the ratio denominator via
    :func:`repro.analysis.reference_makespan`), or ``"exact"`` (the spec's
    ``evaluation:`` block requested ``mode="exact"``: one front-door call
    replaces the whole shard plan).  ``spec_index`` threads the position in
    the suite back to the aggregator, which routes outcomes to the right
    spec regardless of completion order.
    """

    spec_index: int
    spec_json: str
    kind: str
    shard: Shard | None = None
    trace: bool = False


@dataclass(frozen=True)
class SpecTaskOutcome:
    spec_index: int
    kind: str
    shard: ShardOutcome | None = None
    algorithm: str | None = None
    certificates: dict | None = None
    reference: float | None = None
    reference_kind: str | None = None
    #: Exact-evaluation outcome (kind="exact"): the analytic expected
    #: makespan and the engine provenance reported by the front door.
    exact_value: float | None = None
    engine_used: str | None = None
    elapsed_s: float = 0.0
    #: Worker-side telemetry snapshot when the task asked for tracing.
    telemetry: dict | None = None


def run_spec_task(task: SpecTask) -> SpecTaskOutcome:
    if task.kind == "shard":
        spec, instance, result = _build_from_spec(task.spec_json)
        assert task.shard is not None
        outcome = _estimate_partial(
            instance,
            result.schedule,
            task.shard,
            max_steps=spec.max_steps,
            trace=task.trace,
        )
        # Certificates ride on shard 0 only: every shard holds the same
        # schedule, so sending n_shards copies would be pure overhead.
        certificates = None
        if task.shard.index == 0:
            from ..experiments.runner import _jsonable

            certificates = {k: _jsonable(v) for k, v in result.certificates.items()}
        return SpecTaskOutcome(
            spec_index=task.spec_index,
            kind="shard",
            shard=outcome,
            algorithm=result.algorithm,
            certificates=certificates,
            elapsed_s=outcome.elapsed_s,
            telemetry=outcome.telemetry,
        )
    if task.kind == "exact":
        from ..evaluate import evaluate

        spec, instance, result = _build_from_spec(task.spec_json)
        sw = obs.stopwatch()
        with obs.capture(enabled=task.trace) as tel:
            with obs.span("parallel.exact", spec=task.spec_index):
                report = evaluate(
                    instance, result.schedule, request=spec.evaluation_request()
                )
        from ..experiments.runner import _jsonable

        certificates = {k: _jsonable(v) for k, v in result.certificates.items()}
        return SpecTaskOutcome(
            spec_index=task.spec_index,
            kind="exact",
            algorithm=result.algorithm,
            certificates=certificates,
            exact_value=report.makespan,
            engine_used=report.engine,
            elapsed_s=sw.elapsed_s,
            telemetry=tel.snapshot() if tel is not None else None,
        )
    if task.kind == "reference":
        from ..analysis.ratios import reference_makespan

        # Only the instance is needed; never pay for the spec's solver here.
        spec, instance = _build_instance_from_spec(task.spec_json)
        sw = obs.stopwatch()
        with obs.capture(enabled=task.trace) as tel:
            with obs.span("parallel.reference", spec=task.spec_index):
                reference, kind = reference_makespan(
                    instance, exact_limit=spec.exact_limit
                )
        return SpecTaskOutcome(
            spec_index=task.spec_index,
            kind="reference",
            reference=float(reference),
            reference_kind=kind,
            elapsed_s=sw.elapsed_s,
            telemetry=tel.snapshot() if tel is not None else None,
        )
    raise ValueError(f"unknown spec task kind {task.kind!r}")


def _clear_worker_caches() -> None:
    """Testing hook: drop the per-process spec build caches."""
    _build_from_spec.cache_clear()
    _build_instance_from_spec.cache_clear()
