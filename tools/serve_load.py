#!/usr/bin/env python
"""Mixed-load smoke for the evaluation server (the CI ``serve-smoke`` job).

Boots a real ``EvaluationServer`` + HTTP codec on an ephemeral port in a
daemon thread, then drives a mixed workload through the stdlib
:class:`~repro.serve.client.ServeClient` from a client thread pool:

* duplicate requests (same instance/schedule/seed) that must coalesce,
* same-instance Monte Carlo requests at distinct seeds,
* exact-route (cyclic) requests,
* registry-solver-name sugar,

and checks the serving contracts from the outside: every envelope
resolves, ``serve.dedup_total`` is positive, ``/healthz`` and
``/metrics`` answer with the documented shapes, and one spot-checked
served report is bitwise what solo ``evaluate()`` produces.

Writes a JSON summary (throughput, latency percentiles, dedup rate,
server counters) to ``--out`` and exits non-zero on any violated check.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import PrecedenceDAG, SUUInstance
from repro.core.schedule import CyclicSchedule, ObliviousSchedule
from repro.evaluate import EvaluationRequest, evaluate
from repro.serve import EvaluationServer, ServeClient, ServerConfig, start_http_server


class HttpServerThread:
    """An EvaluationServer + HTTP codec on an ephemeral port, off-thread."""

    def __init__(self, config: ServerConfig):
        self._config = config
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.port = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with EvaluationServer(self._config) as server:
            http_srv = await start_http_server(server, port=0)
            self.port = http_srv.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            http_srv.close()
            await http_srv.wait_closed()

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("server thread failed to start")
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=15)


def _workload(n_requests: int):
    """The mixed request stream: (schedule payload, request kwargs) pairs."""
    rng = np.random.default_rng(101)
    inst = SUUInstance(
        rng.uniform(0.3, 0.9, size=(2, 6)),
        PrecedenceDAG(6, [(0, 2), (1, 2), (3, 5)]),
        name="serve-load",
    )
    table = rng.integers(0, inst.n, size=(40, inst.m)).astype(np.int32)
    oblivious = ObliviousSchedule(table)
    cycle = np.tile(np.arange(inst.n, dtype=np.int32)[:, None], (1, inst.m))
    cyclic = CyclicSchedule(ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle))

    stream = []
    for i in range(n_requests):
        kind = i % 4
        if kind == 0:  # duplicates: must coalesce in flight or via cache
            stream.append((oblivious.to_dict(), {"mode": "mc", "reps": 60, "seed": 7}))
        elif kind == 1:  # same instance, distinct seeds: computed apart
            stream.append((oblivious.to_dict(), {"mode": "mc", "reps": 40, "seed": i}))
        elif kind == 2:  # exact route through the same front door
            stream.append((cyclic.to_dict(), {"mode": "exact"}))
        else:  # registry-solver-name sugar
            stream.append(("serial", {"mode": "mc", "reps": 30, "seed": 3}))
    return inst, oblivious, stream


def run_load(n_requests: int = 64, clients: int = 8) -> dict:
    """Drive the mixed load; returns the summary dict (see module doc)."""
    inst, oblivious, stream = _workload(n_requests)
    config = ServerConfig(cache_dir=None)
    failures: list[str] = []

    with HttpServerThread(config) as handle:
        client = ServeClient(port=handle.port)

        def one(item):
            schedule_payload, req_kwargs = item
            t0 = time.perf_counter()
            envelope = client.evaluate_raw(inst.to_dict(), schedule_payload, req_kwargs)
            return time.perf_counter() - t0, envelope

        t_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            results = list(pool.map(one, stream))
        wall_s = time.perf_counter() - t_start

        health = client.healthz()
        metrics = client.metrics()

    latencies = np.array([r[0] for r in results])
    envelopes = [r[1] for r in results]

    # -- contract checks ------------------------------------------------
    bad = [e["job_id"] for e in envelopes if e["status"] != "done"]
    if bad:
        failures.append(f"unresolved envelopes: {bad}")
    if health.get("status") != "ok":
        failures.append(f"healthz not ok: {health}")
    if metrics.get("serve.requests") != n_requests:
        failures.append(
            f"serve.requests={metrics.get('serve.requests')} != {n_requests}"
        )
    if not metrics.get("serve.dedup_total", 0) > 0:
        failures.append("no dedup observed on a duplicate-heavy load")
    for key in (
        "serve.jobs_computed",
        "serve.dedup_hits",
        "serve.cache_hits",
        "serve.shed",
        "serve.errors",
        "serve.pending",
    ):
        if key not in metrics:
            failures.append(f"/metrics is missing {key}")
    if metrics.get("serve.errors"):
        failures.append(f"serve.errors={metrics['serve.errors']}")

    # Spot-check bitwise parity on the duplicated request.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solo = evaluate(
            inst, oblivious, request=EvaluationRequest(mode="mc", reps=60, seed=7)
        ).to_dict()
    served = dict(envelopes[0]["report"])
    solo.pop("wall_time_s"), served.pop("wall_time_s")
    if served != solo:
        failures.append("served report differs from solo evaluate() at the same seed")

    dedup_rate = metrics["serve.dedup_total"] / max(n_requests, 1)
    return {
        "requests": n_requests,
        "clients": clients,
        "wall_s": wall_s,
        "throughput_rps": n_requests / wall_s,
        "latency_p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "dedup_hit_rate": dedup_rate,
        "metrics": metrics,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--out", default=None, help="write the JSON summary here")
    args = parser.parse_args(argv)

    summary = run_load(n_requests=args.requests, clients=args.clients)
    print(
        f"serve-load: {summary['requests']} requests, "
        f"{summary['throughput_rps']:.1f} req/s, "
        f"p50 {summary['latency_p50_ms']:.1f} ms, "
        f"p99 {summary['latency_p99_ms']:.1f} ms, "
        f"dedup rate {summary['dedup_hit_rate']:.2f}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.out}")
    if summary["failures"]:
        for failure in summary["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all serving contracts held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
