"""The experiment runner: execute specs, cache results on disk.

One :class:`ExperimentResult` per spec.  Results are cached as JSON files
keyed by ``ExperimentSpec.spec_hash()`` (the hash covers everything that
affects the numbers), so re-running a benchmark sweep or a CLI suite
recomputes only what changed.  The cache is a plain directory of
self-describing JSON files — inspectable, diffable, and safe to delete
wholesale.  Every entry carries :data:`RESULT_SCHEMA_VERSION`; loading an
entry written under another schema raises
:class:`~repro.errors.ExperimentError` (the runner warns with
:class:`~repro.errors.StaleCacheWarning` and recomputes instead of reusing
stale numbers).

Execution goes through the sharded parallel backend (:mod:`repro.parallel`)
along both axes the backend offers: a suite fans its specs out to the
executor, and each spec's replications split into independent
``SeedSequence``-seeded shards.  The default executor is serial — same
shards, same merge order, same numbers — so ``executor="process",
workers=N`` changes wall-clock only, never results.  In-flight shard
partials are themselves cached (``<cache>/shards/``), so an interrupted
sweep resumes from the shards it already finished; partials carry the same
:data:`RESULT_SCHEMA_VERSION` as top-level entries, and a version mismatch
warns (:class:`~repro.errors.StaleCacheWarning`) and recomputes instead of
resuming from stale numbers.

``docs/architecture.md`` documents how the runner, the registries, the
simulation engines, and the parallel backend fit together.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..errors import (
    ExperimentError,
    ScheduleError,
    StaleCacheWarning,
    ValidationError,
    warn_censored,
)
from ..parallel.executor import Executor, get_executor
from ..parallel.merge import PartialEstimate, merge_partials
from ..parallel.sharding import Shard, make_shard_plan
from ..parallel.worker import ShardOutcome, SpecTask, run_spec_task, spec_payload
from .spec import ExperimentSpec

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "run_suite",
    "DEFAULT_CACHE_DIR",
    "RESULT_SCHEMA_VERSION",
]

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".repro_cache") / "experiments"

#: Schema of cached ``ExperimentResult`` JSON.  Bump when the result shape
#: or the meaning of a recorded field changes; mismatched entries are
#: rejected loudly instead of silently reinterpreted.
#: v2: sharded estimation (elapsed_s became aggregate worker seconds) and
#: the explicit version field itself.
RESULT_SCHEMA_VERSION = 2


def _jsonable(v):
    """Best-effort conversion of certificate/meta values to JSON types."""
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


@dataclass
class ExperimentResult:
    """Measured outcome of one spec (plus provenance for the cache).

    ``elapsed_s`` is the aggregate compute time summed over the spec's
    shard and reference tasks — under a process executor this exceeds the
    wall-clock share the spec actually occupied.
    """

    spec: ExperimentSpec
    algorithm: str
    mean: float
    std_err: float
    min: float
    max: float
    truncated: int
    reference: float | None = None
    reference_kind: str | None = None
    ratio: float | None = None
    engine_used: str = "auto"
    certificates: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    cache_hit: bool = False

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.std_err
        return (self.mean - half, self.mean + half)

    def to_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "algorithm": self.algorithm,
            "mean": self.mean,
            "std_err": self.std_err,
            "min": self.min,
            "max": self.max,
            "truncated": self.truncated,
            "reference": self.reference,
            "reference_kind": self.reference_kind,
            "ratio": self.ratio,
            "engine_used": self.engine_used,
            "certificates": self.certificates,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: dict, cache_hit: bool = False) -> "ExperimentResult":
        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ExperimentError(
                f"cached experiment result has schema_version={version!r}, this "
                f"runner writes {RESULT_SCHEMA_VERSION}; the entry predates a "
                "schema change and must be recomputed, not reinterpreted"
            )
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            algorithm=data["algorithm"],
            mean=data["mean"],
            std_err=data["std_err"],
            min=data["min"],
            max=data["max"],
            truncated=data["truncated"],
            reference=data.get("reference"),
            reference_kind=data.get("reference_kind"),
            ratio=data.get("ratio"),
            engine_used=data.get("engine_used", "auto"),
            certificates=data.get("certificates", {}),
            elapsed_s=data.get("elapsed_s", 0.0),
            cache_hit=cache_hit,
        )


# ----------------------------------------------------------------------
# Cache paths and loading
# ----------------------------------------------------------------------
def _cache_path(cache_dir: Path, spec: ExperimentSpec) -> Path:
    # Keyed on the hash alone so renaming a spec (name is excluded from the
    # hash) still finds its cached result; the name lives inside the JSON.
    return cache_dir / f"{spec.spec_hash()}.json"


def _shard_dir(cache_dir: Path) -> Path:
    return cache_dir / "shards"


def _shard_cache_path(cache_dir: Path, spec_hash: str, shard: Shard) -> Path:
    return _shard_dir(cache_dir) / (
        f"{spec_hash}.s{shard.index:03d}of{shard.n_shards:03d}.json"
    )


def _reference_cache_path(cache_dir: Path, spec_hash: str) -> Path:
    return _shard_dir(cache_dir) / f"{spec_hash}.ref.json"


def _load_cached_result(path: Path) -> ExperimentResult | None:
    """Read a spec-level cache entry; None on miss, corruption, or staleness.

    A schema-version mismatch warns (:class:`StaleCacheWarning`) so stale
    entries are never silently reused *and* never silently dropped; plain
    corruption stays a quiet miss as before.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # corrupt entry: recompute and rewrite
    try:
        return ExperimentResult.from_dict(data, cache_hit=True)
    except ExperimentError as exc:
        warnings.warn(
            StaleCacheWarning(f"discarding stale cache entry {path.name}: {exc}"),
            stacklevel=4,
        )
        return None
    except (KeyError, TypeError):
        return None


def _stale_partial(path: Path, data: object, kind: str) -> bool:
    """True (with a :class:`StaleCacheWarning`) for version-mismatched partials.

    Shard and reference partials carry the same ``schema_version`` as
    top-level results; resuming an interrupted sweep from partials written
    under another schema would silently mix incompatible numbers into the
    merge, so a mismatch is rejected as loudly as a stale spec-level entry.
    """
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version == RESULT_SCHEMA_VERSION:
        return False
    warnings.warn(
        StaleCacheWarning(
            f"discarding stale {kind} {path.name}: written under "
            f"schema_version={version!r}, this runner writes "
            f"{RESULT_SCHEMA_VERSION}; recomputing instead of resuming"
        ),
        stacklevel=5,
    )
    return True


def _load_cached_shard(path: Path, spec_hash: str, shard: Shard) -> dict | None:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # corrupt entry: a quiet miss, recomputed and rewritten
    if _stale_partial(path, data, "shard partial"):
        return None
    try:
        if (
            data.get("spec_hash") != spec_hash
            or data.get("shard_index") != shard.index
            or data.get("n_shards") != shard.n_shards
            or not isinstance(data["engine_used"], str)
            or not isinstance(data["elapsed_s"], (int, float))
        ):
            return None
        partial = PartialEstimate.from_dict(data["partial"])
        if partial.count != shard.reps:
            return None  # written under a different shard plan: recompute
        data["partial"] = partial
        return data
    except (KeyError, TypeError, ValueError):
        return None


def _load_cached_reference(path: Path, spec_hash: str) -> dict | None:
    """Read a cached reference solve; None on miss, staleness, or defect.

    Validates every field the suite loop later reads, mirroring
    :func:`_load_cached_shard` — corrupt entries are quiet misses, while a
    ``schema_version`` mismatch warns with :class:`StaleCacheWarning`.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if _stale_partial(path, data, "reference solve"):
        return None
    try:
        if (
            data.get("spec_hash") != spec_hash
            or not isinstance(data["reference"], (int, float))
            or not isinstance(data["reference_kind"], str)
            or not isinstance(data["elapsed_s"], (int, float))
        ):
            return None
        return data
    except (KeyError, TypeError):
        return None


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
@dataclass
class _PendingSpec:
    """Bookkeeping for one cache-missed spec while its tasks are in flight.

    ``plan`` is None for exact-mode specs (``evaluation: {"mode":
    "exact"}``), whose whole shard plan is replaced by one front-door
    evaluation task.
    """

    spec: ExperimentSpec
    spec_hash: str
    plan: object | None
    need_reference: bool
    shard_outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    algorithm: str | None = None
    certificates: dict = field(default_factory=dict)
    reference: float | None = None
    reference_kind: str | None = None
    have_reference: bool = False
    exact_value: float | None = None
    engine_used: str | None = None
    have_exact: bool = False
    elapsed_s: float = 0.0
    #: Worker telemetry snapshots for the non-shard tasks (shard snapshots
    #: ride inside each ShardOutcome); grafted in a fixed order at
    #: assembly time, not completion order.
    exact_telemetry: dict | None = None
    reference_telemetry: dict | None = None

    def complete(self) -> bool:
        if self.plan is None:
            done = self.have_exact
        else:
            done = len(self.shard_outcomes) == self.plan.n_shards
        return done and (self.have_reference or not self.need_reference)


def _assemble(pend: _PendingSpec) -> ExperimentResult:
    spec = pend.spec
    # Graft order within a spec is fixed (exact, shards by index, then
    # reference) regardless of task completion order, so a traced suite's
    # per-spec subtrees are reproducible; counters are order-independent
    # sums either way.
    obs.graft_snapshot(pend.exact_telemetry)
    if pend.plan is None:
        assert pend.exact_value is not None
        mean, std_err = pend.exact_value, 0.0
        lo = hi = pend.exact_value
        truncated = 0
        engine_used = pend.engine_used or "markov-sparse"
    else:
        outcomes = sorted(pend.shard_outcomes.values(), key=lambda o: o.shard_index)
        obs.add("parallel.shards", len(outcomes))
        for o in outcomes:
            obs.graft_snapshot(o.telemetry)
        merged = merge_partials(o.partial for o in outcomes)
        if merged.count != spec.reps:
            raise ValidationError(
                f"shard partials cover {merged.count} replications, "
                f"expected {spec.reps}"
            )
        engines = {o.engine_used for o in outcomes}
        if len(engines) != 1:  # pragma: no cover - engine choice is deterministic
            raise ScheduleError(f"shards disagree on the engine: {sorted(engines)}")
        (engine_used,) = engines
        mean, std_err = merged.mean, merged.std_err
        lo, hi = merged.min, merged.max
        truncated = merged.truncated
        if truncated:
            # One warning per spec, for the merged estimate.
            warn_censored(truncated, spec.reps, spec.max_steps, stacklevel=2)
    obs.graft_snapshot(pend.reference_telemetry)
    ratio = None
    if pend.need_reference and pend.reference is not None:
        ratio = mean / max(pend.reference, 1e-12)
    return ExperimentResult(
        spec=spec,
        algorithm=pend.algorithm or spec.algorithm,
        mean=mean,
        std_err=std_err,
        min=lo,
        max=hi,
        truncated=truncated,
        reference=pend.reference,
        reference_kind=pend.reference_kind,
        ratio=ratio,
        engine_used=engine_used,
        certificates=pend.certificates,
        elapsed_s=pend.elapsed_s,
        cache_hit=False,
    )


def run_suite(
    specs: Sequence[ExperimentSpec],
    cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
    force: bool = False,
    progress: Callable[[ExperimentSpec, ExperimentResult], None] | None = None,
    executor: "str | Executor | None" = None,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run every spec, returning one result per spec in input order.

    Cache-missed specs are decomposed into replication-shard and reference
    tasks and fanned out to ``executor`` (default serial;
    ``executor="process", workers=N`` or just ``workers=N`` for a worker
    pool).  Task payloads are spec JSON — workers rebuild instances and
    schedules from the registries — so every spec parallelizes, including
    closure-based adaptive policies.  Results are identical for every
    executor and worker count: the shard plan and merge order depend only
    on each spec's ``reps`` and ``sim_seed``.

    ``progress`` (if given) is called once per spec as it completes —
    completion order under a process pool, input order otherwise.
    """
    cache = Path(cache_dir) if cache_dir is not None else None
    exe = get_executor(executor, workers)
    owns_executor = not isinstance(executor, Executor)
    results: list[ExperimentResult | None] = [None] * len(specs)
    pending: dict[int, _PendingSpec] = {}
    tasks: list[SpecTask] = []

    def finish(idx: int, result: ExperimentResult) -> None:
        results[idx] = result
        if progress is not None:
            progress(specs[idx], result)

    def store(idx: int, result: ExperimentResult) -> None:
        pend = pending[idx]
        if cache is not None:
            path = _cache_path(cache, specs[idx])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(result.to_dict(), indent=2))
            # The spec-level entry supersedes its in-flight partials.
            for shard in pend.plan.shards if pend.plan is not None else ():
                _shard_cache_path(cache, pend.spec_hash, shard).unlink(missing_ok=True)
            _reference_cache_path(cache, pend.spec_hash).unlink(missing_ok=True)
        finish(idx, result)

    trace = obs.enabled()
    for idx, spec in enumerate(specs):
        if cache is not None and not force:
            hit = _load_cached_result(_cache_path(cache, spec))
            if hit is not None:
                obs.add("experiments.cache.hits")
                finish(idx, hit)
                continue
            obs.add("experiments.cache.misses")
        exact_mode = spec.evaluation_mode == "exact"
        pend = _PendingSpec(
            spec=spec,
            spec_hash=spec.spec_hash(),
            plan=None if exact_mode else make_shard_plan(spec.reps, spec.sim_seed),
            need_reference=spec.compute_reference,
        )
        pending[idx] = pend
        payload = spec_payload(spec)
        if exact_mode:
            # One front-door evaluation replaces the whole shard plan; it
            # is cheap and deterministic, so it has no partial cache.
            tasks.append(
                SpecTask(
                    spec_index=idx, spec_json=payload, kind="exact", trace=trace
                )
            )
        for shard in pend.plan.shards if pend.plan is not None else ():
            cached = None
            if cache is not None and not force:
                cached = _load_cached_shard(
                    _shard_cache_path(cache, pend.spec_hash, shard),
                    pend.spec_hash,
                    shard,
                )
                obs.add(
                    "experiments.shard_cache.hits"
                    if cached is not None
                    else "experiments.shard_cache.misses"
                )
            if cached is not None:
                pend.shard_outcomes[shard.index] = ShardOutcome(
                    shard_index=shard.index,
                    partial=cached["partial"],
                    engine_used=cached["engine_used"],
                    elapsed_s=cached["elapsed_s"],
                )
                pend.elapsed_s += cached["elapsed_s"]
                pend.algorithm = pend.algorithm or cached.get("algorithm")
                if cached.get("certificates") is not None:
                    pend.certificates = cached["certificates"]
            else:
                tasks.append(
                    SpecTask(
                        spec_index=idx,
                        spec_json=payload,
                        kind="shard",
                        shard=shard,
                        trace=trace,
                    )
                )
        if pend.need_reference:
            cached_ref = None
            if cache is not None and not force:
                cached_ref = _load_cached_reference(
                    _reference_cache_path(cache, pend.spec_hash), pend.spec_hash
                )
            if cached_ref is not None:
                pend.reference = cached_ref["reference"]
                pend.reference_kind = cached_ref["reference_kind"]
                pend.have_reference = True
                pend.elapsed_s += cached_ref["elapsed_s"]
            else:
                tasks.append(
                    SpecTask(
                        spec_index=idx,
                        spec_json=payload,
                        kind="reference",
                        trace=trace,
                    )
                )
        if pend.complete():
            # Every piece came from the shard cache (an interrupted run
            # that had finished computing but not merging).
            store(idx, _assemble(pend))
            del pending[idx]

    def on_task_done(_task_idx: int, outcome) -> None:
        idx = outcome.spec_index
        pend = pending[idx]
        pend.elapsed_s += outcome.elapsed_s
        if outcome.kind == "exact":
            pend.exact_value = outcome.exact_value
            pend.engine_used = outcome.engine_used
            pend.exact_telemetry = outcome.telemetry
            pend.have_exact = True
            pend.algorithm = pend.algorithm or outcome.algorithm
            if outcome.certificates is not None:
                pend.certificates = outcome.certificates
        elif outcome.kind == "shard":
            pend.shard_outcomes[outcome.shard.shard_index] = outcome.shard
            pend.algorithm = pend.algorithm or outcome.algorithm
            if outcome.certificates is not None:
                pend.certificates = outcome.certificates
            if cache is not None:
                shard = pend.plan.shards[outcome.shard.shard_index]
                path = _shard_cache_path(cache, pend.spec_hash, shard)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(
                        {
                            "schema_version": RESULT_SCHEMA_VERSION,
                            "spec_hash": pend.spec_hash,
                            "shard_index": shard.index,
                            "n_shards": shard.n_shards,
                            "partial": outcome.shard.partial.to_dict(),
                            "engine_used": outcome.shard.engine_used,
                            "algorithm": outcome.algorithm,
                            "certificates": outcome.certificates,
                            "elapsed_s": outcome.shard.elapsed_s,
                        },
                        indent=2,
                    )
                )
        else:
            pend.reference = outcome.reference
            pend.reference_kind = outcome.reference_kind
            pend.reference_telemetry = outcome.telemetry
            pend.have_reference = True
            if cache is not None:
                path = _reference_cache_path(cache, pend.spec_hash)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(
                        {
                            "schema_version": RESULT_SCHEMA_VERSION,
                            "spec_hash": pend.spec_hash,
                            "reference": outcome.reference,
                            "reference_kind": outcome.reference_kind,
                            "elapsed_s": outcome.elapsed_s,
                        }
                    )
                )
        if pend.complete():
            store(idx, _assemble(pend))
            del pending[idx]

    try:
        if tasks:
            with obs.span(
                "experiments.map", tasks=len(tasks), executor=exe.name
            ):
                exe.map_tasks(run_spec_task, tasks, progress=on_task_done)
    finally:
        if owns_executor:
            exe.close()
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def run_experiment(
    spec: ExperimentSpec,
    cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
    force: bool = False,
    executor: "str | Executor | None" = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Execute one spec, consulting/updating the on-disk cache.

    ``cache_dir=None`` disables caching entirely; ``force=True`` recomputes
    and overwrites any cached entry.  Entries are files named
    ``<spec_hash>.json``; corrupt entries are treated as misses (and
    rewritten), schema-stale entries additionally warn with
    :class:`~repro.errors.StaleCacheWarning`.  ``workers=N`` fans the
    spec's replication shards out to a process pool.
    """
    (result,) = run_suite(
        [spec],
        cache_dir=cache_dir,
        force=force,
        executor=executor,
        workers=workers,
    )
    return result
