"""The four benchmark workloads: inputs from a seed, one item, its checks.

Every workload is a *pool* of items built from the workload seed alone.
An item is what a library user pays for: one registry ``build()`` (or
``solve()``) followed by one ``evaluate()``; on ``serve_mix`` it is one
HTTP request.  The timed loop walks the pool in order, pass after pass,
and only ever times complete passes, so every pass repeats exactly the
same work and every item is timed the same number of times.

Pool sizes are set so that one pass averages over enough instances to
keep the per-seed spread of the end-to-end figures small, and is short
enough that a run holds several passes; the instance classes and sizes
are the ones the paper's pipelines and the exact and Monte Carlo
engines are built for.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from perfbench import hostspeed
from repro import evaluate, solve
from repro.algorithms.registry import resolve_solver
from repro.bounds.lower import lower_bounds
from repro.decomp.chain_decomposition import lemma46_width_bound
from repro.errors import AdmissionError, ServeError
from repro.evaluate import EvaluationRequest
from repro.serve import ServeClient, ServerConfig
from repro.serve.protocol import decode_schedule
from repro.workloads import random_instance
from serve_load import HttpServerThread

# ----------------------------------------------------------------------
# Pool shapes.  Module constants (not options): the self-tests shrink
# them with monkeypatch to keep their runs short.
#
# A library pool is a sequence of rounds, each holding one item of every
# kind.  A pass over the pool takes a few seconds, so a run holds several
# and each item's timed figure (its median over the passes) shrugs off a
# slow spell of the host.
# ----------------------------------------------------------------------
#: pipeline_mc: one instance of each LP-pipeline class at the paper's n=40, m=8.
PIPELINE_ROUND = ("chains", "out_tree", "mixed_forest")
PIPELINE_ROUNDS = 18
PIPELINE_REPS = 100

#: exact_regimen: (registry solver, n, m) of each round item, on chains.
#: Round-robin items are cheap and their ratio varies most: two per round.
EXACT_ROUND = (
    ("state_round_robin", 16, 4),
    ("exact", 10, 3),
    ("round_robin", 12, 4),
    ("round_robin", 12, 4),
)
EXACT_ROUNDS = 3
#: Rounds whose exact values are checked against the scalar golden engine,
#: which takes seconds per item (the certificate check covers every item).
EXACT_GOLDEN_ROUNDS = 1

#: adaptive_mc: SUU-I-ALG on independent jobs, MSM-eligible on an out-tree.
ADAPTIVE_ROUNDS = 10
ADAPTIVE_REPS = 125

#: serve_mix: closed loop of this many client threads / server workers.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_MC_REPS = 100
#: Instances of the MC and solver-name requests (one per round of 8), and
#: of the exact requests.
SERVE_SHARED = 16
SERVE_EXACT_POOL = 16
SERVE_SOLVERS = ("serial", "round_robin", "msm_eligible")
#: Requests per statistics block of the timed serve loop.
SERVE_BLOCK = 96
#: Requests in the fixed serve blocks of the traced run (fewer distinct
#: keys than the server's 256-entry memory cache, so counts repeat).
SERVE_FIXED_BLOCK = 240
#: Leading requests whose fresh (not repeated) reports define
#: ``makespan_ratio`` on serve_mix.
SERVE_RATIO_PREFIX = 256
#: Request kinds that resend an earlier request.
SERVE_REPEATS = ("repeat", "dup")

EXACT_TOL = 1e-9


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng((seed, *key))


def _request_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


@dataclass
class Item:
    """One unit of user work: build a schedule, then evaluate it."""

    name: str
    kind: str
    instance: object
    build: Callable[[], object]
    request: dict
    lower_bound: float
    #: Check the exact value against the scalar golden engine.
    golden: bool = False


@dataclass
class Op:
    """The outcome of one timed item or request."""

    index: int
    kind: str
    seconds: float
    solve_s: float = 0.0
    evaluate_s: float = 0.0
    makespan: float | None = None
    lower_bound: float = 1.0
    error: str | None = None
    t_end: float = 0.0
    #: serve_mix: the served report and its provenance.
    payload: dict = field(default_factory=dict, repr=False)


# ----------------------------------------------------------------------
# Correctness checks shared by the workloads
# ----------------------------------------------------------------------
def _lp_certificate_errors(cert: dict) -> list[str]:
    bad = []
    if cert["min_mass"] + EXACT_TOL < cert["target_mass"]:
        bad.append(f"job mass {cert['min_mass']} below target {cert['target_mass']}")
    if cert["max_machine_load"] > cert["t_hat"]:
        bad.append("machine load exceeds t_hat")
    if cert["max_chain_window_sum"] > cert["t_hat"]:
        bad.append("chain window sum exceeds t_hat")
    if not cert["windows_ok"]:
        bad.append("an assignment exceeds its window")
    return bad


def certificate_errors(result, instance) -> list[str]:
    """Re-check the certificates an LP-pipeline result carries."""
    cert = result.certificates or {}
    if "blocks" in cert:
        bad = []
        if cert["decomposition_width"] > lemma46_width_bound(instance.n):
            bad.append("chain decomposition wider than Lemma 4.6 allows")
        for block in cert["blocks"]:
            bad.extend(_lp_certificate_errors(block))
        return bad
    if "t_hat" in cert:
        return _lp_certificate_errors(cert)
    return []


def mc_errors(makespan, std_err, truncated, lower_bound) -> list[str]:
    """An MC estimate must be uncensored and not below the lower bound."""
    bad = []
    if truncated:
        bad.append(f"{truncated} censored replications")
    if makespan is None or makespan < lower_bound - 5.0 * std_err:
        bad.append(f"mean {makespan} below lower bound {lower_bound} - 5 SE")
    return bad


def exact_mismatch(value: float, golden: float) -> bool:
    return not abs(value - golden) <= EXACT_TOL * max(1.0, abs(golden))


def golden_exact(instance, schedule) -> float:
    """The scalar golden engine's exact expected makespan."""
    return evaluate(instance, schedule, mode="exact", engine="scalar").makespan


# ----------------------------------------------------------------------
# Library workloads (pipeline_mc, exact_regimen, adaptive_mc)
# ----------------------------------------------------------------------
def _solve(instance, seed: int, index: int):
    return solve(instance, rng=_rng(seed, 1_000, index))


def _registry_build(solver: str, instance):
    # Looks the record's ``build`` up per call, so the traced run's timer
    # on ``Solver.build`` sees items made before it was installed.
    return resolve_solver(solver).build(instance)


def _item(name, kind, instance, build, request, golden=False) -> Item:
    return Item(
        name=name,
        kind=kind,
        instance=instance,
        build=build,
        request=request,
        lower_bound=lower_bounds(instance).best,
        golden=golden,
    )


def pipeline_items(seed: int) -> list[Item]:
    items = []
    for k in range(PIPELINE_ROUNDS):
        for ki, kind in enumerate(PIPELINE_ROUND):
            inst = random_instance(40, 8, kind, rng=_rng(seed, ki, k))
            i = len(items)
            items.append(
                _item(
                    f"{kind}/{k}", kind, inst,
                    functools.partial(_solve, inst, seed, i),
                    {"mode": "mc", "reps": PIPELINE_REPS, "seed": _request_seed(seed, i)},
                )
            )
    return items


def exact_items(seed: int) -> list[Item]:
    items = []
    for k in range(EXACT_ROUNDS):
        for ki, (solver, n, m) in enumerate(EXACT_ROUND):
            inst = random_instance(n, m, "chains", rng=_rng(seed, ki, k))
            items.append(
                _item(
                    f"{solver}/{k}.{ki}", solver, inst,
                    functools.partial(_registry_build, solver, inst),
                    {"mode": "exact"},
                    golden=k < EXACT_GOLDEN_ROUNDS,
                )
            )
    return items


def adaptive_items(seed: int) -> list[Item]:
    items = []
    for k in range(ADAPTIVE_ROUNDS):
        pairs = (
            (
                "adaptive",
                random_instance(32, 8, "independent", rng=_rng(seed, 0, k), lo=0.05, hi=0.5),
            ),
            ("msm_eligible", random_instance(24, 8, "out_tree", rng=_rng(seed, 1, k))),
        )
        for solver, inst in pairs:
            i = len(items)
            items.append(
                _item(
                    f"{solver}/{k}", solver, inst,
                    functools.partial(_registry_build, solver, inst),
                    {"mode": "mc", "reps": ADAPTIVE_REPS, "seed": _request_seed(seed, i)},
                )
            )
    return items


class LibraryRun:
    """A pool of in-process items, timed pass after pass."""

    def __init__(self, items: list[Item]):
        self.items = items
        self._golden: dict[int, float] = {}
        self._schedules: dict[int, object] = {}

    def warm_up(self) -> None:
        self.run_item(0)

    def close(self) -> None:
        pass

    def run_item(self, index: int) -> Op:
        item = self.items[index]
        t0 = time.perf_counter()
        op = Op(index=index, kind=item.kind, seconds=0.0, lower_bound=item.lower_bound)
        try:
            result = item.build()
            t1 = time.perf_counter()
            report = evaluate(item.instance, result, **item.request)
            t2 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a raising item is a failed op
            op.seconds = time.perf_counter() - t0
            op.error = f"{type(exc).__name__}: {exc}"
            return op
        op.seconds, op.solve_s, op.evaluate_s = t2 - t0, t1 - t0, t2 - t1
        op.makespan = report.makespan
        bad = certificate_errors(result, item.instance)
        if report.mode == "mc":
            bad += mc_errors(report.makespan, report.std_err, report.truncated, item.lower_bound)
        else:
            cert = result.certificates.get("expected_makespan")
            if cert is not None and exact_mismatch(report.makespan, cert):
                bad.append(f"certificate {cert} != exact value {report.makespan}")
            if item.golden:
                self._schedules.setdefault(index, result.schedule)
        op.error = "; ".join(bad) or None
        return op

    def run_pass(self) -> tuple[list[Op], float]:
        """Every item once, each after a reference-kernel sample.

        Returns the outcomes and the host's slowdown over the pass.
        """
        ops, kernel = [], []
        for index in range(len(self.items)):
            kernel.append(hostspeed.kernel_seconds())
            ops.append(self.run_item(index))
        return ops, hostspeed.slowdown(kernel)

    def timed(self, seconds: float) -> tuple[list[tuple[list[Op], float]], float]:
        """Complete passes within ``seconds`` (at least one).

        A pass starts only if it would end in time at the pace of the
        slowest pass so far, so no pass is cut short.
        """
        passes: list[tuple[list[Op], float]] = []
        start = time.perf_counter()
        longest = 0.0
        while not passes or time.perf_counter() - start + longest <= seconds:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            longest = max(longest, time.perf_counter() - t0)
        return passes, time.perf_counter() - start

    def verify(self, ops: list[Op]) -> None:
        """Golden items' exact values must equal the scalar engine's (computed once)."""
        for op in ops:
            if op.error or op.index not in self._schedules:
                continue
            if op.index not in self._golden:
                item = self.items[op.index]
                self._golden[op.index] = golden_exact(item.instance, self._schedules[op.index])
            if exact_mismatch(op.makespan, self._golden[op.index]):
                op.error = f"exact {op.makespan!r} != scalar golden {self._golden[op.index]!r}"


# ----------------------------------------------------------------------
# serve_mix: an in-process EvaluationServer behind its HTTP codec
# ----------------------------------------------------------------------
def serving_path(provenance: dict) -> str:
    """How the server answered: ``cache``, ``dedup`` or ``computed``."""
    if provenance["cache_hit"]:
        return "cache"
    return "computed" if provenance["deduped_with"] is None else "dedup"


def start_server() -> HttpServerThread:
    """An ``EvaluationServer`` + HTTP codec on an ephemeral loopback port."""
    return HttpServerThread(ServerConfig(cache_dir=None, workers=SERVE_WORKERS)).__enter__()


def stop_server(handle: HttpServerThread) -> None:
    handle.__exit__(None, None, None)


@dataclass(frozen=True)
class Request:
    kind: str  # a SERVE_ROUND slot kind
    base: str  # the kind that decides the checks ("mc" | "solver" | "exact")
    instance: int
    schedule: object  # table dict or registry solver name
    kwargs: dict


#: The slots of a serve_mix round.  ``dup`` resends the ``mc`` request
#: just before it: the other closed-loop client sends it while the first
#: copy waits in the batch window, so it joins that computation (in-flight
#: dedup) or, when the first copy has already finished, hits the cache.
SERVE_ROUND = ("mc", "dup", "repeat", "mc", "repeat", "solver", "exact", "repeat")
#: Index of each ``repeat`` slot among the round's repeats.
_REPEAT_RANK = {s: r for r, s in enumerate(i for i, k in enumerate(SERVE_ROUND) if k == "repeat")}


class ServeRun:
    """The serve_mix request stream against an in-process server.

    The stream repeats in rounds of the ``SERVE_ROUND`` slots: half the
    requests are repeats (three of a small hot set, answered from the
    cache, and one in-flight duplicate), two are oblivious MC requests at
    fresh seeds on the round's shared instance (they meet in the batch
    window), one names a registry solver for that instance and one asks
    for the exact value of a cyclic schedule.  Every schedule is cyclic,
    so no MC replication is ever censored.
    """

    def __init__(self, seed: int):
        shared = range(SERVE_SHARED)
        pool = range(SERVE_EXACT_POOL)
        self.instances = [
            *(random_instance(12, 4, "chains", rng=_rng(seed, 0, k)) for k in shared),
            *(random_instance(8, 3, "chains", rng=_rng(seed, 1, k)) for k in pool),
        ]
        self.instance_dicts = [inst.to_dict() for inst in self.instances]
        self.lower_bounds = [lower_bounds(inst).best for inst in self.instances]
        self.tables = [
            resolve_solver("round_robin").build(inst).schedule.to_dict() for inst in self.instances
        ]
        self.seed = seed
        self.hot = [
            self._fresh(kind, rnd, _request_seed(seed, 10**6 + 8 * rnd + slot))
            for rnd in range(2)
            for slot, kind in enumerate(("mc", "solver", "exact"))
        ]
        self._golden: dict[int, float] = {}
        self.handle = start_server()

    def _fresh(self, kind: str, rnd: int, seed: int) -> Request:
        shared = rnd % SERVE_SHARED
        if kind == "mc":
            kwargs = {"mode": "mc", "reps": SERVE_MC_REPS, "seed": seed}
            return Request("mc", "mc", shared, self.tables[shared], kwargs)
        if kind == "solver":
            kwargs = {"mode": "mc", "reps": SERVE_MC_REPS, "seed": seed}
            name = SERVE_SOLVERS[rnd % len(SERVE_SOLVERS)]
            return Request("solver", "solver", shared, name, kwargs)
        k = SERVE_SHARED + rnd % SERVE_EXACT_POOL
        return Request("exact", "exact", k, self.tables[k], {"mode": "exact", "seed": seed})

    def request(self, i: int) -> Request:
        slot, rnd = i % len(SERVE_ROUND), i // len(SERVE_ROUND)
        kind = SERVE_ROUND[slot]
        if kind == "repeat":
            hot = self.hot[(len(_REPEAT_RANK) * rnd + _REPEAT_RANK[slot]) % len(self.hot)]
            return Request("repeat", hot.base, hot.instance, hot.schedule, hot.kwargs)
        if kind == "dup":
            first = self.request(i - 1)
            return Request("dup", first.base, first.instance, first.schedule, first.kwargs)
        return self._fresh(kind, rnd, _request_seed(self.seed, i))

    def warm_up(self) -> None:
        self.drive(self.handle, limit=1)

    def close(self) -> None:
        stop_server(self.handle)

    def drive(
        self, handle: HttpServerThread, deadline: float | None = None, limit: int | None = None
    ) -> list[Op]:
        """Closed loop: each client sends its next request after a reply."""
        lock = threading.Lock()
        counter = itertools.count()

        def client() -> list[Op]:
            cli = ServeClient(port=handle.port, timeout=30)
            out = []
            while True:
                with lock:
                    i = next(counter)
                if (limit is not None and i >= limit) or (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return out
                req = self.request(i)
                op = Op(i, req.kind, 0.0, lower_bound=self.lower_bounds[req.instance])
                t0 = time.perf_counter()
                try:
                    envelope = cli.evaluate_raw(
                        self.instance_dicts[req.instance], req.schedule, req.kwargs
                    )
                except (AdmissionError, ServeError, OSError) as exc:
                    envelope, op.error = None, f"{type(exc).__name__}: {exc}"
                op.t_end = time.perf_counter()
                op.seconds = op.t_end - t0
                if envelope is not None:
                    self._check(op, req, envelope)
                out.append(op)

        with ThreadPoolExecutor(SERVE_CLIENTS, thread_name_prefix="perfbench-client") as pool:
            futures = [pool.submit(client) for _ in range(SERVE_CLIENTS)]
            ops = [op for fut in futures for op in fut.result()]
        return sorted(ops, key=lambda op: op.index)

    def _check(self, op: Op, req: Request, envelope: dict) -> None:
        report = envelope.get("report")
        if envelope.get("status") != "done" or report is None:
            op.error = f"envelope {envelope.get('status')}: {envelope.get('error')}"
            return
        op.makespan = report["makespan"]
        op.payload = {"report": report, "provenance": envelope["provenance"]}
        bad = list(envelope.get("warnings") or [])
        if req.base != "exact":
            bad += mc_errors(
                report["makespan"], report["std_err"], report["truncated"], op.lower_bound
            )
        op.error = "; ".join(bad) or None

    def timed(self, seconds: float) -> tuple[list[Op], float]:
        start = time.perf_counter()
        ops = self.drive(self.handle, deadline=start + seconds)
        return ops, time.perf_counter() - start

    def fixed_block(self) -> tuple[list[Op], dict]:
        """The first SERVE_FIXED_BLOCK requests against a fresh server.

        Returns their outcomes and the server's counters after them.
        """
        handle = start_server()
        try:
            ops = self.drive(handle, limit=SERVE_FIXED_BLOCK)
            return ops, ServeClient(port=handle.port, timeout=30).metrics()
        finally:
            stop_server(handle)

    def verify(self, ops: list[Op]) -> None:
        """Exact values against the scalar golden engine; served parity."""
        for op in ops:
            req = self.request(op.index)
            if op.error or req.base != "exact":
                continue
            if req.instance not in self._golden:
                sched = decode_schedule(self.tables[req.instance])
                self._golden[req.instance] = golden_exact(self.instances[req.instance], sched)
            if exact_mismatch(op.makespan, self._golden[req.instance]):
                op.error = f"exact {op.makespan!r} != scalar golden {self._golden[req.instance]!r}"
        # The first report of each request kind down each serving path
        # (computed, in-flight dedup, cache replay).
        first: dict[tuple[str, str], Op] = {}
        for op in ops:
            if op.error is None:
                first.setdefault((op.kind, serving_path(op.payload["provenance"])), op)
        for op in first.values():
            if not self.matches_solo(op):
                op.error = "served report differs from solo evaluate()"

    def matches_solo(self, op: Op) -> bool:
        """Is the served report bitwise the solo ``evaluate()`` report?"""
        req = self.request(op.index)
        schedule = decode_schedule(req.schedule)
        solo = evaluate(
            self.instances[req.instance], schedule, request=EvaluationRequest(**req.kwargs)
        ).to_dict()
        solo = json.loads(json.dumps(solo))
        served = dict(op.payload["report"])
        # Timings differ by nature; telemetry (traced runs only) is timings.
        for key in ("wall_time_s", "telemetry"):
            solo.pop(key)
            served.pop(key)
        return served == solo


RUNNERS = {
    "pipeline_mc": lambda seed: LibraryRun(pipeline_items(seed)),
    "exact_regimen": lambda seed: LibraryRun(exact_items(seed)),
    "adaptive_mc": lambda seed: LibraryRun(adaptive_items(seed)),
    "serve_mix": ServeRun,
}
