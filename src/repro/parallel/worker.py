"""Worker-side functions of the parallel backend.

Everything in this module is a plain module-level function operating on
picklable payloads, so it can cross the process boundary under any
multiprocessing start method.  Tasks are **spec tasks**
(:func:`run_spec_task`): only the JSON spec dict travels, and the worker
rebuilds the instance and schedule through the experiment registries.
Rebuilding is deterministic (instance and solver seeds live in the spec),
so every worker reconstructs the identical schedule — closure-based
adaptive policies included — and a per-process LRU cache makes the
rebuild a one-time cost per spec rather than per shard.  Which task pays
for the rebuild is an accident of scheduling, so its telemetry reaches no
trace: a task times and captures only its own work.

Every task returns one :class:`TaskOutcome`, whatever its kind.  The
runner caches an outcome minus its telemetry
(:meth:`TaskOutcome.to_entry`), so a resumed outcome and a fresh one are
assembled alike.

Workers never warn about censoring: truncation counts travel back inside
the partials, and the *parent* warns once for the merged estimate instead
of once per shard per process.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .. import obs
from .merge import PartialEstimate
from .sharding import Shard

__all__ = ["SpecTask", "TaskOutcome", "run_spec_task"]


def _jsonable(v):
    """Best-effort conversion of certificate values to JSON types."""
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return repr(v)


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

    @property
    def name(self) -> str:
        """The task's name within its spec: ``sNNNofMMM``, ``exact`` or ``ref``."""
        if self.shard is not None:
            return f"s{self.shard.index:03d}of{self.shard.n_shards:03d}"
        return "ref" if self.kind == "reference" else self.kind


@dataclass(frozen=True)
class TaskOutcome:
    """What one task sends back to the runner.

    A shard fills ``shard_index`` and ``partial``; ``value`` is the exact
    makespan of an ``"exact"`` task or the ratio denominator of a
    ``"reference"`` task, whose kind is ``reference_kind``.  Certificates
    ride on shard 0 and the exact task only: every shard holds the same
    schedule.  ``telemetry`` is the worker-side
    :meth:`~repro.obs.Telemetry.snapshot` when the task asked for tracing
    (``None`` otherwise); the parent grafts the snapshots back in task
    order, so the reassembled trace is deterministic and identical for
    every worker count.
    """

    kind: str
    elapsed_s: float
    shard_index: int | None = None
    partial: PartialEstimate | None = None
    value: float | None = None
    reference_kind: str | None = None
    engine_used: str | None = None
    algorithm: str | None = None
    certificates: dict | None = None
    telemetry: dict | None = None

    def to_entry(self) -> dict:
        """This outcome as JSON types, minus its telemetry: its cache entry."""
        entry = asdict(self)
        del entry["telemetry"]
        return entry

    @classmethod
    def from_entry(cls, entry: dict) -> "TaskOutcome":
        """Inverse of :meth:`to_entry`; a malformed entry raises."""
        partial = entry.get("partial")
        if partial is not None:
            partial = PartialEstimate.from_dict(partial)
        # An entry carries no telemetry; one written into the file is not grafted.
        return cls(**{**entry, "partial": partial, "telemetry": None})


def run_spec_task(task: SpecTask) -> TaskOutcome:
    """Run one task; only its own work is timed and traced."""
    # The rebuild is cached per process: a throwaway capture keeps its
    # telemetry out of the caller's trace under the serial executor, as a
    # worker process drops it.
    with obs.capture(enabled=task.trace):
        if task.kind == "reference":
            # Only the instance is needed; never pay for the spec's solver.
            spec, instance = _build_instance_from_spec(task.spec_json)
        else:
            spec, instance, result = _build_from_spec(task.spec_json)
    sw = obs.stopwatch()
    with obs.capture(enabled=task.trace) as tel:
        if task.kind == "shard":
            # Engine-layer call: a shard is a slice of one spec's
            # replications, below the repro.evaluate front door.
            from ..sim.montecarlo import _estimate_makespan

            shard = task.shard
            with obs.span("parallel.shard", shard=shard.index, reps=shard.reps):
                est = _estimate_makespan(
                    instance,
                    result.schedule,
                    reps=shard.reps,
                    rng=shard.rng(),
                    max_steps=spec.max_steps,
                    keep_samples=True,
                )
            fields = dict(
                shard_index=shard.index,
                partial=PartialEstimate.from_samples(est.samples, truncated=est.truncated),
                engine_used=est.engine_used,
            )
        elif task.kind == "exact":
            from ..evaluate import evaluate

            with obs.span("parallel.exact", spec=task.spec_index):
                report = evaluate(
                    instance, result.schedule, request=spec.evaluation_request()
                )
            fields = dict(value=report.makespan, engine_used=report.engine)
        elif task.kind == "reference":
            from ..analysis.ratios import reference_makespan

            with obs.span("parallel.reference", spec=task.spec_index):
                reference, kind = reference_makespan(
                    instance, exact_limit=spec.exact_limit
                )
            fields = dict(value=float(reference), reference_kind=kind)
        else:
            raise ValueError(f"unknown spec task kind {task.kind!r}")
    if task.kind != "reference":
        fields["algorithm"] = result.algorithm
        if task.shard is None or task.shard.index == 0:
            fields["certificates"] = {
                k: _jsonable(v) for k, v in result.certificates.items()
            }
    return TaskOutcome(
        kind=task.kind,
        elapsed_s=sw.elapsed_s,
        telemetry=tel.snapshot() if tel is not None else None,
        **fields,
    )


def _clear_worker_caches() -> None:
    """Testing hook: drop the per-process spec build caches."""
    _build_from_spec.cache_clear()
    _build_instance_from_spec.cache_clear()
