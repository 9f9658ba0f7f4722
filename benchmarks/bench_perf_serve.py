"""PERF — evaluation server throughput, latency, and dedup effectiveness.

Replays the ``serve-smoke`` mixed load (duplicates + distinct-seed MC +
exact route + solver-name sugar, see ``tools/serve_load.py``) against a
real in-process server over HTTP and records throughput, latency
percentiles, and the dedup hit-rate into
``benchmarks/results/perf_serve.json``.

The asserted claims are the *structural* serving contracts — every
envelope resolves, a duplicate-heavy load coalesces, the spot-checked
served report is bitwise the solo ``evaluate()`` answer — plus a
deliberately loose throughput floor to absorb CI machine noise; the
measured numbers are what the results JSON reports.

Sizing via environment (CI keeps the defaults)::

    REPRO_PERF_SERVE_REQUESTS=96  REPRO_PERF_SERVE_CLIENTS=8

A resized run writes its own record (``perf_serve.r48c4.json`` for 48
requests from 4 clients) and leaves the committed one alone.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.analysis import Table

REPO = Path(__file__).resolve().parent.parent

N_REQUESTS = int(os.environ.get("REPRO_PERF_SERVE_REQUESTS", "96"))
N_CLIENTS = int(os.environ.get("REPRO_PERF_SERVE_CLIENTS", "8"))
#: Results file: the committed record is the default 96-request, 8-client run.
RECORD = (
    "perf_serve"
    if (N_REQUESTS, N_CLIENTS) == (96, 8)
    else f"perf_serve.r{N_REQUESTS}c{N_CLIENTS}"
)


def _load_runner():
    """Import tools/serve_load.py regardless of test order."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import serve_load

        return serve_load
    finally:
        sys.path.remove(str(REPO / "tools"))


def test_perf_serve_mixed_load(benchmark, recorder):
    serve_load = _load_runner()
    summary = benchmark.pedantic(
        lambda: serve_load.run_load(n_requests=N_REQUESTS, clients=N_CLIENTS),
        rounds=1,
        iterations=1,
    )

    table = Table(
        ["requests", "clients", "req/s", "p50 (ms)", "p99 (ms)", "dedup rate"],
        title=f"PERF  evaluation server, mixed load over HTTP (x{N_CLIENTS} clients)",
    )
    table.add_row(
        [
            summary["requests"],
            summary["clients"],
            summary["throughput_rps"],
            summary["latency_p50_ms"],
            summary["latency_p99_ms"],
            summary["dedup_hit_rate"],
        ]
    )
    print("\n" + table.render())

    counters = summary["metrics"]
    recorder.add(
        requests=summary["requests"],
        clients=summary["clients"],
        wall_s=summary["wall_s"],
        throughput_rps=summary["throughput_rps"],
        latency_p50_ms=summary["latency_p50_ms"],
        latency_p99_ms=summary["latency_p99_ms"],
        dedup_hit_rate=summary["dedup_hit_rate"],
        jobs_computed=counters["serve.jobs_computed"],
        dedup_hits=counters["serve.dedup_hits"],
        cache_hits=counters["serve.cache_hits"],
    )
    recorder.claim("all_contracts_held", not summary["failures"])
    recorder.claim("dedup_coalesces_duplicates", summary["dedup_hit_rate"] >= 0.25)
    recorder.claim(
        "fewer_computations_than_requests",
        counters["serve.jobs_computed"] < summary["requests"],
    )
    recorder.claim("throughput_floor_20rps", summary["throughput_rps"] >= 20.0)

    assert not summary["failures"], summary["failures"]
    assert summary["dedup_hit_rate"] >= 0.25
    assert counters["serve.jobs_computed"] < summary["requests"]
    # Loose floor: the mixed load is dominated by tiny MC runs, so even a
    # noisy CI box clears this by an order of magnitude.
    assert summary["throughput_rps"] >= 5.0
