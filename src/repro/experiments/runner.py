"""The experiment runner: execute specs, cache results on disk.

One :class:`ExperimentResult` per spec.  Results are cached as JSON files
keyed by ``ExperimentSpec.spec_hash()`` (the hash covers everything that
affects the numbers), so re-running a benchmark sweep or a CLI suite
recomputes only what changed.  The cache is a :mod:`repro.store`
directory: self-describing JSON files, inspectable, diffable, and safe to
delete wholesale.  A damaged entry is a quiet miss; one written under
another :data:`repro.store.SCHEMA_VERSION` warns
(:class:`~repro.errors.StaleCacheWarning`); both are recomputed.

Execution goes through the sharded parallel backend (:mod:`repro.parallel`)
along both axes the backend offers: a suite fans its specs out to the
executor, and each spec's replications split into independent
``SeedSequence``-seeded shards.  The default executor is serial — same
shards, same merge order, same numbers — so ``executor="process",
workers=N`` changes wall-clock only, never results.  Each of a spec's
tasks (a shard, its exact evaluation, its reference solve) returns one
:class:`~repro.parallel.worker.TaskOutcome`, cached on its own under
``<cache>/shards/`` until the spec-level entry supersedes it, so an
interrupted sweep resumes from the tasks it already finished.  A spec is
assembled once, from its outcomes in task order, whether they were
computed or resumed.

``docs/architecture.md`` documents how the runner, the registries, the
simulation engines, and the parallel backend fit together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from .. import obs, store
from ..errors import ExperimentError, ScheduleError, ValidationError, warn_censored
from ..parallel.executor import Executor, get_executor
from ..parallel.merge import merge_partials
from ..parallel.sharding import make_shard_plan
from ..parallel.worker import SpecTask, TaskOutcome, run_spec_task, spec_payload
from .spec import ExperimentSpec

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "run_suite",
    "DEFAULT_CACHE_DIR",
]

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".repro_cache") / "experiments"


@dataclass
class ExperimentResult:
    """Measured outcome of one spec (plus provenance for the cache).

    ``elapsed_s`` is the aggregate compute time summed over the spec's
    tasks — under a process executor this exceeds the wall-clock share
    the spec actually occupied.
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
            "schema_version": store.SCHEMA_VERSION,
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
# Cache entries
# ----------------------------------------------------------------------
def _task_path(cache_dir: Path, spec_hash: str, task: SpecTask) -> Path:
    return cache_dir / "shards" / f"{spec_hash}.{task.name}.json"


def _load_result(path: Path, spec: ExperimentSpec, spec_hash: str) -> ExperimentResult | None:
    """``spec``'s cached result; None on a miss, a stale entry or a defect.

    The entry must name ``spec_hash``.  A hit carries ``spec`` itself, so a
    spec renamed since its result was cached (the name stays out of the
    hash) is reported under its new name.
    """
    entry = store.read(path, "experiment result")
    if entry is None or entry.get("spec_hash") != spec_hash:
        return None
    try:
        return replace(ExperimentResult.from_dict(entry, cache_hit=True), spec=spec)
    except (AttributeError, KeyError, TypeError, ExperimentError):
        return None


def _load_outcome(path: Path, spec_hash: str, task: SpecTask) -> TaskOutcome | None:
    """A task's cached outcome; None on a miss, a stale entry or a defect.

    Entries come from outside the program, so the outcome must name this
    spec and task, a shard's partial must cover the shard's replications,
    and every field the assembly reads must have its type.
    """
    entry = store.read(path, f"{task.kind} task")
    if entry is None or entry.get("spec_hash") != spec_hash or entry.get("task") != task.name:
        return None
    try:
        out = TaskOutcome.from_entry(entry["outcome"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    number = (int, float)
    if task.kind == "shard":
        fits = (
            out.shard_index == task.shard.index
            and out.partial is not None
            and out.partial.count == task.shard.reps
            and isinstance(out.engine_used, str)
        )
    elif task.kind == "exact":
        fits = isinstance(out.value, number) and isinstance(out.engine_used, str)
    else:
        fits = isinstance(out.value, number) and isinstance(out.reference_kind, str)
    ok = fits and out.kind == task.kind and isinstance(out.elapsed_s, number)
    return out if ok else None


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
@dataclass
class _PendingSpec:
    """One cache-missed spec: its tasks and the outcomes in so far, by task name."""

    spec: ExperimentSpec
    spec_hash: str
    tasks: list[SpecTask]
    outcomes: dict[str, TaskOutcome] = field(default_factory=dict)


def _spec_tasks(idx: int, spec: ExperimentSpec, trace: bool) -> list[SpecTask]:
    """A spec's tasks in assembly order: the exact evaluation or the shards
    by index, then the reference solve."""
    payload = spec_payload(spec)
    if spec.evaluation_mode == "exact":
        # One front-door evaluation replaces the whole shard plan.
        tasks = [SpecTask(idx, payload, "exact", trace=trace)]
    else:
        plan = make_shard_plan(spec.reps, spec.sim_seed)
        tasks = [SpecTask(idx, payload, "shard", s, trace) for s in plan.shards]
    if spec.compute_reference:
        tasks.append(SpecTask(idx, payload, "reference", trace=trace))
    return tasks


def _assemble(pend: _PendingSpec) -> ExperimentResult:
    spec = pend.spec
    outcomes = [pend.outcomes[task.name] for task in pend.tasks]
    # Grafting in task order, not completion order, makes a traced suite's
    # per-spec subtrees reproducible; counters are order-independent sums
    # either way.
    for o in outcomes:
        obs.graft_snapshot(o.telemetry)
    shards = [o for o in outcomes if o.kind == "shard"]
    if shards:
        obs.add("parallel.shards", len(shards))
        merged = merge_partials(o.partial for o in shards)
        if merged.count != spec.reps:
            raise ValidationError(
                f"shard partials cover {merged.count} replications, "
                f"expected {spec.reps}"
            )
        engines = {o.engine_used for o in shards}
        if len(engines) != 1:  # pragma: no cover - engine choice is deterministic
            raise ScheduleError(f"shards disagree on the engine: {sorted(engines)}")
        (engine_used,) = engines
        mean, std_err = merged.mean, merged.std_err
        lo, hi, truncated = merged.min, merged.max, merged.truncated
        if truncated:
            # One warning per spec, for the merged estimate.
            warn_censored(truncated, spec.reps, spec.max_steps, stacklevel=2)
    else:
        (exact,) = (o for o in outcomes if o.kind == "exact")
        mean = lo = hi = exact.value
        std_err, truncated, engine_used = 0.0, 0, exact.engine_used
    ref = next((o for o in outcomes if o.kind == "reference"), None)
    return ExperimentResult(
        spec=spec,
        algorithm=next((o.algorithm for o in outcomes if o.algorithm), spec.algorithm),
        mean=mean,
        std_err=std_err,
        min=lo,
        max=hi,
        truncated=truncated,
        reference=ref.value if ref else None,
        reference_kind=ref.reference_kind if ref else None,
        ratio=mean / max(ref.value, 1e-12) if ref else None,
        engine_used=engine_used,
        certificates=next(
            (o.certificates for o in outcomes if o.certificates is not None), {}
        ),
        elapsed_s=sum(o.elapsed_s for o in outcomes),
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

    Cache-missed specs are decomposed into replication-shard, exact and
    reference tasks and fanned out to ``executor`` (default serial;
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
    reuse = cache is not None and not force
    exe = get_executor(executor, workers)
    owns_executor = not isinstance(executor, Executor)
    results: list[ExperimentResult | None] = [None] * len(specs)
    pending: dict[int, _PendingSpec] = {}
    to_run: list[SpecTask] = []

    def finish(idx: int, result: ExperimentResult) -> None:
        results[idx] = result
        if progress is not None:
            progress(specs[idx], result)

    def record(task: SpecTask, outcome: TaskOutcome) -> None:
        pend = pending[task.spec_index]
        pend.outcomes[task.name] = outcome
        if len(pend.outcomes) < len(pend.tasks):
            return
        del pending[task.spec_index]
        result = _assemble(pend)
        if cache is not None:
            store.write(cache / f"{pend.spec_hash}.json", result.to_dict())
            # The spec-level entry supersedes its task entries.
            for t in pend.tasks:
                _task_path(cache, pend.spec_hash, t).unlink(missing_ok=True)
        finish(task.spec_index, result)

    def on_task_done(task_idx: int, outcome: TaskOutcome) -> None:
        task = to_run[task_idx]
        if cache is not None:
            spec_hash = pending[task.spec_index].spec_hash
            store.write(
                _task_path(cache, spec_hash, task),
                {"spec_hash": spec_hash, "task": task.name, "outcome": outcome.to_entry()},
            )
        record(task, outcome)

    trace = obs.enabled()
    for idx, spec in enumerate(specs):
        # Keyed on the hash alone so renaming a spec (name is excluded from
        # the hash) still finds its cached result, reported under the new name.
        spec_hash = spec.spec_hash()
        if reuse:
            hit = _load_result(cache / f"{spec_hash}.json", spec, spec_hash)
            if hit is not None:
                obs.add("experiments.cache.hits")
                finish(idx, hit)
                continue
            obs.add("experiments.cache.misses")
        pend = pending[idx] = _PendingSpec(spec, spec_hash, _spec_tasks(idx, spec, trace))
        for task in pend.tasks:
            cached = None
            if reuse:
                cached = _load_outcome(_task_path(cache, spec_hash, task), spec_hash, task)
                obs.add(
                    "experiments.task_cache.hits"
                    if cached is not None
                    else "experiments.task_cache.misses"
                )
            if cached is None:
                to_run.append(task)
            else:
                record(task, cached)

    try:
        if to_run:
            with obs.span("experiments.map", tasks=len(to_run), executor=exe.name):
                exe.map_tasks(run_spec_task, to_run, progress=on_task_done)
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
    ``<spec_hash>.json``; damaged entries are treated as misses (and
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
