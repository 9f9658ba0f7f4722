"""The asyncio evaluation server: dedup, cache, admission, workers.

Request lifecycle (``docs/architecture.md`` has the diagram):

```
submit ──▶ admission control ──▶ cache lookup ──▶ in-flight dedup
   │        (queue depth,          (memory LRU,      (same job_key
   │         state-cost guard       then disk)        joins the leader)
   │         → AdmissionError)
   └──▶ queue ──▶ evaluate() on the worker thread pool
```

Everything upstream of the worker pool is pure asyncio bookkeeping —
the event loop never blocks on a simulation.  Compute runs on a
:class:`concurrent.futures.ThreadPoolExecutor` via
``loop.run_in_executor`` (numpy releases the GIL in the hot kernels);
results resolve asyncio futures that the protocol layer awaits.

Dedup and caching apply only to *reproducible* jobs (integer seed):
a ``None`` seed means "fresh randomness", and replaying or coalescing
such a request would silently correlate answers that the client asked
to be independent.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..core.instance import SUUInstance
from ..errors import AdmissionError, ServeError, ValidationError, censored_message
from ..evaluate.dispatch import exact_state_cost, select_route
from ..evaluate.facade import _evaluate, resolve_schedule
from ..evaluate.report import censoring
from ..evaluate.request import EvaluationRequest
from .cache import DEFAULT_SERVE_CACHE_DIR, ResultCache
from .keys import job_key

__all__ = ["ServerConfig", "Job", "EvaluationServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`EvaluationServer`."""

    #: Jobs admitted but not yet finished; beyond this the server sheds.
    max_queue: int = 256
    #: Cap on the summed exact-route DP allocation (``2^n × width`` cells)
    #: in flight — the exact-engine guard applied server-wide, so one burst
    #: of large exact solves cannot exhaust memory.
    max_inflight_states: int = 1 << 24
    #: Worker threads bridging asyncio to the engines.
    workers: int = 4
    #: On-disk result cache; None disables the disk layer.
    cache_dir: Path | str | None = DEFAULT_SERVE_CACHE_DIR
    #: In-memory LRU entries.
    memory_entries: int = 256
    #: 429 Retry-After hint handed to shed clients.
    retry_after_s: float = 0.5
    #: Completed-job envelopes retained for ``GET /jobs/<id>``.
    job_history: int = 1024


@dataclass
class Job:
    """One admitted evaluation, from submit to resolved envelope."""

    job_id: str
    key: str | None
    instance: SUUInstance
    schedule: object
    request: EvaluationRequest
    future: asyncio.Future
    envelope: dict
    queue_sw: obs.Stopwatch = field(default_factory=obs.stopwatch)
    exact_cost: int = 0


class EvaluationServer:
    """Async façade over ``evaluate()`` with dedup, caching, and shedding.

    Use as an async context manager (or call :meth:`start` / :meth:`stop`);
    :meth:`submit` is the whole client API — the HTTP layer
    (:mod:`repro.serve.protocol`) is a thin codec over it.
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.cache = ResultCache(
            cache_dir=self.config.cache_dir,
            memory_entries=self.config.memory_entries,
        )
        self.metrics: dict[str, int] = {
            "serve.requests": 0,
            "serve.jobs_computed": 0,
            "serve.dedup_hits": 0,
            "serve.cache_hits": 0,
            # Retired cross-request batching; kept at 0 for /metrics readers.
            "serve.batch_groups": 0,
            "serve.shed": 0,
            "serve.errors": 0,
        }
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight: dict[str, Job] = {}  # job_key -> leader job
        self._jobs: OrderedDict[str, dict] = OrderedDict()  # job_id -> envelope
        self._pending = 0  # admitted, not yet resolved
        self._inflight_states = 0
        self._next_id = 0
        self._scheduler_task: asyncio.Task | None = None
        self._compute_tasks: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None
        self._accepting = False

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self._scheduler_task is not None:
            raise ServeError("server already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="suu-serve"
        )
        self._accepting = True
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )

    async def stop(self) -> None:
        """Graceful drain: stop admitting, finish everything in flight."""
        self._accepting = False
        while self._pending:
            await asyncio.sleep(0.005)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        if self._compute_tasks:
            await asyncio.gather(*self._compute_tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "EvaluationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- metrics ---------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        self.metrics[name] = self.metrics.get(name, 0) + value
        obs.add(name, value)

    def metrics_snapshot(self) -> dict:
        snap = dict(self.metrics)
        snap["serve.queued"] = self._queue.qsize()
        snap["serve.pending"] = self._pending
        snap["serve.inflight_states"] = self._inflight_states
        snap["serve.dedup_total"] = (
            snap["serve.dedup_hits"] + snap["serve.cache_hits"]
        )
        return snap

    # -- submission ------------------------------------------------------
    async def submit(
        self,
        instance: SUUInstance,
        schedule,
        request: EvaluationRequest,
    ) -> dict:
        """Evaluate through the server; returns the resolved job envelope.

        Raises :class:`~repro.errors.AdmissionError` when shed and
        :class:`~repro.errors.ValidationError` for malformed work —
        compute failures resolve into a ``status: "failed"`` envelope
        (and re-raise for direct callers).
        """
        if not self._accepting:
            raise ServeError("server is not accepting requests (stopped/draining)")
        self._count("serve.requests")
        concrete = resolve_schedule(instance, schedule, request.seed)
        if hasattr(concrete, "validate_against"):
            concrete.validate_against(instance)
        route = select_route(instance, concrete, request)

        key = None
        if isinstance(request.seed, (int, np.integer)):
            try:
                # Hash the *submitted* schedule: a solver name is its own
                # content (the built table is a deterministic function of
                # name + instance + seed), so name-submitted and
                # table-submitted jobs get distinct keys by design.
                key = job_key(instance, schedule, request)
            except ValidationError:
                key = None  # unhashable schedule kind: compute solo, uncached

        job_id = self._new_job_id()
        # Cache replay: the stored wire dict goes back out byte-identical.
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._count("serve.cache_hits")
                envelope = self._register(
                    job_id,
                    key,
                    status="done",
                    report=cached,
                    cache_hit=True,
                )
                envelope["provenance"]["queue_time_s"] = 0.0
                envelope["provenance"]["compute_time_s"] = 0.0
                return envelope

        # In-flight dedup: identical work joins the leader's computation.
        if key is not None and key in self._inflight:
            leader = self._inflight[key]
            self._count("serve.dedup_hits")
            envelope = self._register(
                job_id, key, status="deduped", deduped_with=leader.job_id
            )
            try:
                report = await asyncio.shield(leader.future)
            except BaseException as exc:
                envelope["status"] = "failed"
                envelope["error"] = str(exc)
                raise
            envelope["status"] = "done"
            envelope["report"] = report
            envelope["warnings"] = _wire_warnings(report)
            envelope["provenance"]["cache_hit"] = False
            envelope["provenance"]["queue_time_s"] = leader.envelope[
                "provenance"
            ]["queue_time_s"]
            envelope["provenance"]["compute_time_s"] = leader.envelope[
                "provenance"
            ]["compute_time_s"]
            return envelope

        # Admission control: bounded queue, bounded exact-route state cost.
        if self._pending >= self.config.max_queue:
            self._count("serve.shed")
            raise AdmissionError(
                f"queue full ({self._pending} jobs in flight >= max_queue "
                f"{self.config.max_queue}); retry later",
                retry_after_s=self.config.retry_after_s,
            )
        cost = 0
        if route.mode == "exact":
            cost = (
                route.cost
                if route.cost is not None
                else exact_state_cost(
                    instance, concrete, request.metrics, request.horizon
                )
            )
            if self._inflight_states + cost > self.config.max_inflight_states:
                self._count("serve.shed")
                raise AdmissionError(
                    f"exact-route state budget exhausted ({self._inflight_states}"
                    f" + {cost} DP cells > max_inflight_states "
                    f"{self.config.max_inflight_states}); retry later",
                    retry_after_s=self.config.retry_after_s,
                )

        envelope = self._register(job_id, key, status="queued")
        job = Job(
            job_id=job_id,
            key=key,
            instance=instance,
            schedule=concrete,
            request=request,
            future=asyncio.get_running_loop().create_future(),
            envelope=envelope,
            exact_cost=cost,
        )
        self._pending += 1
        self._inflight_states += cost
        if key is not None:
            self._inflight[key] = job
        await self._queue.put(job)
        try:
            report = await asyncio.shield(job.future)
        except BaseException as exc:
            envelope["status"] = "failed"
            envelope["error"] = str(exc)
            raise
        envelope["status"] = "done"
        envelope["report"] = report
        envelope["warnings"] = _wire_warnings(report)
        return envelope

    # -- scheduler -------------------------------------------------------
    async def _scheduler(self) -> None:
        """Hand each admitted job to the worker pool as it arrives."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            task = loop.create_task(self._dispatch(job))
            self._compute_tasks.add(task)
            task.add_done_callback(self._compute_tasks.discard)

    async def _dispatch(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.envelope["status"] = "running"
        job.envelope["provenance"]["queue_time_s"] = job.queue_sw.elapsed_s
        sw = obs.stopwatch()
        try:
            report_dict = await loop.run_in_executor(self._pool, _compute, job)
        except BaseException as exc:
            self._count("serve.errors")
            self._finish(job)
            if not job.future.done():
                job.future.set_exception(exc)
            return
        job.envelope["provenance"]["compute_time_s"] = sw.elapsed_s
        self._count("serve.jobs_computed")
        if job.key is not None:
            self.cache.put(job.key, report_dict)
        self._finish(job)
        job.future.set_result(report_dict)

    def _finish(self, job: Job) -> None:
        self._pending -= 1
        self._inflight_states -= job.exact_cost
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]

    # -- bookkeeping -----------------------------------------------------
    def _new_job_id(self) -> str:
        self._next_id += 1
        return f"j-{self._next_id:06d}"

    def _register(
        self,
        job_id: str,
        key: str | None,
        status: str,
        report: dict | None = None,
        cache_hit: bool = False,
        deduped_with: str | None = None,
    ) -> dict:
        envelope = {
            "job_id": job_id,
            "key": key,
            "status": status,
            "report": report,
            "error": None,
            "warnings": _wire_warnings(report) if report is not None else [],
            "provenance": {
                "cache_hit": cache_hit,
                "deduped_with": deduped_with,
                "queue_time_s": None,
                "compute_time_s": None,
            },
        }
        self._jobs[job_id] = envelope
        while len(self._jobs) > self.config.job_history:
            self._jobs.popitem(last=False)
        return envelope

    def get_job(self, job_id: str) -> dict | None:
        return self._jobs.get(job_id)


def _wire_warnings(report_dict: dict) -> list[str]:
    """Censoring surfaced as response data, in the canonical wording.

    Worker threads cannot route Python warnings to a client connection,
    so the envelope derives the message from the report through the same
    :func:`~repro.evaluate.report.censoring` and
    :func:`~repro.errors.censored_message` that ``evaluate()``'s warning
    uses — one wording, every route.
    """
    censored = censoring(report_dict)
    return [censored_message(*censored)] if censored else []


def _compute(job: Job) -> dict:
    """Worker-thread body: ``evaluate()`` without its censoring warning,
    which reaches the client as envelope data instead."""
    return _evaluate(job.instance, job.schedule, request=job.request).to_dict()
