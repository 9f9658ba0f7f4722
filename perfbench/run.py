"""One benchmark for the whole solve -> evaluate -> serve path.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline_mc --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out perfbench/history/new.json
    python3 perfbench/run.py --compare perfbench/history/1e81df6.json perfbench/history/new.json

A single run sets its workload up three times (imports once, then
instances, lower bounds and one warm-up item each time), times the
workload for at most ``--seconds`` (complete passes over the pool on the
in-process workloads), checks every output, and prints each metric
of ``BENCHMARK.json`` by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.  The line before
it, ``details: {...}``, carries the environment record, the sample
counts and the full per-layer breakdown.

``--workload all`` runs each workload in a process of its own,
``--runs`` times at consecutive seeds plus one traced run, and writes a
result file; ``--compare`` labels every (metric, workload) pair of two
result files as improved, unchanged, regressed or unresolved.

Metric definitions (the item of each workload is described in
``perfbench/workloads.py``):

* ``e2e_s`` / ``solve_s`` / ``evaluate_s`` -- each item's median time
  over the passes (whole item / ``build()`` / ``evaluate()``), averaged
  over the pool, so every instance weighs alike.  On serve_mix they are
  the median over blocks of 96 requests in reply order of the block's
  mean request time as its client saw it; ``solve_s`` covers the
  requests that name a registry solver (the server builds the schedule)
  and ``evaluate_s`` the ones that send a schedule table.
* The in-process timings -- ``setup_s`` everywhere, every timing of the
  three library workloads -- are host-normalized (``hostspeed.py``):
  scaled by a reference kernel timed alongside, so the shared host's
  drifting speed cancels.  serve_mix's request timings are as measured:
  they wait on the batch window and loopback more than on the CPU, and
  hold steady without it.
* ``serve_rps`` -- requests completed per second, median over blocks, on
  serve_mix; ``1 / e2e_s`` items per second on the other workloads.
* ``serve_p90_ms`` / ``serve_p99_ms`` -- 90th/99th percentile item
  latency.  On serve_mix p90 is the median over blocks of each block's
  p90 and p99 is over every request of the run; on the other workloads
  both are over the pool's items, each at its kind's median latency.
* ``makespan_ratio`` -- mean of E[makespan] divided by
  ``lower_bounds(instance).best`` (computed in set-up), over the first
  pass, or on serve_mix over the fresh requests among the first 256.
* ``success_rate`` -- operations that neither raised, were refused nor
  failed a check, over operations attempted (one minus the error rate).
* ``setup_s`` -- import time plus the median of the three set-ups;
  golden reference values are computed after timing and excluded.
* ``peak_rss_mb`` -- the process's peak resident memory after timing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_REPEATS = 3
#: Reference-kernel samples taken before each set-up.
SETUP_KERNEL_SAMPLES = 20
#: Per-layer metrics of the serving layer; 0 on the in-process workloads.
SERVE_LAYER = (
    "serve.jobs_computed", "serve.cache_hits", "serve.dedup_hits", "serve.batch_groups",
    "serve.compute_frac", "serve.queue_wait_ms", "serve.compute_ms", "serve.p50_ms",
)


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _chunks(sequences, size: int) -> list[list]:
    """Every complete run of ``size`` consecutive elements of each sequence."""
    return [seq[i : i + size] for seq in sequences for i in range(0, len(seq) - size + 1, size)]


def _mean_of_item_medians(passes, key) -> float:
    """Mean over the pool's items of each item's median ``key`` over the passes."""
    return statistics.fmean(
        statistics.median(key(p[i]) for p in passes) for i in range(len(passes[0]))
    )


def _median_of_means(blocks, key) -> float:
    """Median over blocks of the mean of ``key(op)`` (``None`` skips an op)."""
    means = []
    for block in blocks:
        values = [v for v in map(key, block) if v is not None]
        if values:
            means.append(statistics.fmean(values))
    return statistics.median(means)


@dataclass
class Outcome:
    """Everything one run measured, checked and traced."""

    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def _ratio(ops) -> float:
    return statistics.fmean(op.makespan / op.lower_bound for op in ops if op.makespan is not None)


def _library(run, seconds: float, trace: bool, out: Outcome) -> None:
    from repro import obs

    from perfbench import hostspeed, tracing

    timed, elapsed = run.timed(seconds)
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    passes = [p for p, _ in timed]
    ops = [op for p in passes for op in p]
    run.verify(ops)
    out.ops.extend(ops)
    raw_e2e_s = _mean_of_item_medians(passes, lambda op: op.seconds)
    for p, slowdown in timed:
        for op in p:
            op.seconds, op.solve_s, op.evaluate_s = (
                op.seconds / slowdown, op.solve_s / slowdown, op.evaluate_s / slowdown
            )
    # A pool of a few dozen instances is too small for a per-item 99th
    # percentile: each item counts at its kind's median latency, so the
    # tail is the slowest item class.
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op.seconds * 1e3)
    kind_ms = {kind: statistics.median(v) for kind, v in by_kind.items()}
    ms = [kind_ms[item.kind] for item in run.items]
    e2e_s = _mean_of_item_medians(passes, lambda op: op.seconds)
    out.metrics.update(
        e2e_s=e2e_s,
        solve_s=_mean_of_item_medians(passes, lambda op: op.solve_s),
        evaluate_s=_mean_of_item_medians(passes, lambda op: op.evaluate_s),
        makespan_ratio=_ratio(passes[0]),
        serve_rps=1.0 / e2e_s,
        serve_p90_ms=_percentile(ms, 90),
        serve_p99_ms=_percentile(ms, 99),
    )
    out.details.update(
        items=len(ops), passes=len(passes), pool=len(run.items), elapsed_s=elapsed,
        raw_e2e_s=raw_e2e_s, slowdowns=[slowdown for _, slowdown in timed],
    )
    if not trace:
        return

    with tracing.layer_timers(), obs.capture() as tel:
        traced, kernel = [], []
        for index, item in enumerate(run.items):
            kernel.append(hostspeed.kernel_seconds())
            with obs.span("item", item=item.name):
                traced.append(run.run_item(index))
    snapshot = tel.snapshot()
    run.verify(traced)
    out.ops.extend(traced)
    layer = tracing.per_layer_metrics(snapshot)
    traced_e2e = statistics.fmean(op.seconds for op in traced) / hostspeed.slowdown(kernel)
    layer["trace.overhead"] = traced_e2e / e2e_s
    layer["trace.unattributed_frac"] = tracing.unattributed_fraction(snapshot["spans"])

    # Memory is traced on the first item of each kind only: tracemalloc
    # slows allocation-heavy code several-fold.
    firsts: dict[str, int] = {}
    for index, item in enumerate(run.items):
        firsts.setdefault(item.kind, index)
    memory, peaks = [], {}
    tracemalloc.start()
    try:
        for index in firsts.values():
            item = run.items[index]
            tracemalloc.reset_peak()
            memory.append(run.run_item(index))
            peaks[item.name] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    run.verify(memory)
    out.ops.extend(memory)
    layer["trace.peak_alloc_mb"] = max(peaks.values())
    layer.update(dict.fromkeys(SERVE_LAYER, 0))
    out.metrics.update(layer)
    out.details["breakdown"] = {
        "layer_self_s": tracing.layer_self_seconds(snapshot["spans"]),
        "counters": snapshot["counters"],
        "peak_alloc_mb_per_root": peaks,
    }


def _serve(run, seconds: float, trace: bool, out: Outcome) -> None:
    from repro import obs

    from perfbench import tracing, workloads

    ops, elapsed = run.timed(seconds)
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    run.verify(ops)
    out.ops.extend(ops)
    blocks = _chunks([sorted(ops, key=lambda op: op.t_end)], workloads.SERVE_BLOCK)
    ms = [op.seconds * 1e3 for op in ops]
    out.metrics.update(
        e2e_s=_median_of_means(blocks, lambda op: op.seconds),
        solve_s=_median_of_means(blocks, lambda op: op.seconds if op.kind == "solver" else None),
        evaluate_s=_median_of_means(blocks, lambda op: None if op.kind == "solver" else op.seconds),
        makespan_ratio=_ratio([
            op for op in ops
            if op.index < workloads.SERVE_RATIO_PREFIX and op.kind not in workloads.SERVE_REPEATS
        ]),
        serve_rps=statistics.median(
            len(b) / (b[-1].t_end - a[-1].t_end) for a, b in zip(blocks, blocks[1:])
        ),
        serve_p90_ms=statistics.median(
            _percentile([op.seconds * 1e3 for op in b], 90) for b in blocks
        ),
        serve_p99_ms=_percentile(ms, 99),
    )
    out.details.update(requests=len(ops), blocks=len(blocks), elapsed_s=elapsed)
    if not trace:
        return

    # Latency split of the computed (not cached, not deduplicated) jobs.
    computed = [
        op.payload["provenance"] for op in ops
        if op.payload and workloads.serving_path(op.payload["provenance"]) == "computed"
    ]
    layer = {
        "serve.queue_wait_ms": 1e3 * statistics.fmean(p["queue_time_s"] for p in computed),
        "serve.compute_ms": 1e3 * statistics.fmean(p["compute_time_s"] for p in computed),
        "serve.p50_ms": statistics.median(ms),
    }
    # Counts come from a fixed block against a fresh server, so they repeat.
    reference, _ = run.fixed_block()
    with tracing.layer_timers() as submit_ns, obs.capture() as tel:
        traced, counts = run.fixed_block()
    snapshot = tel.snapshot()
    tracemalloc.start()
    try:
        memory, _ = run.fixed_block()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    for block in (reference, traced, memory):
        run.verify(block)
        out.ops.extend(block)
    counts.pop("obs", None)
    traced_s = sum(op.seconds for op in traced)
    layer.update(tracing.per_layer_metrics(snapshot))
    for name in ("jobs_computed", "cache_hits", "dedup_hits", "batch_groups"):
        layer[f"serve.{name}"] = counts[f"serve.{name}"]
    layer.update({
        "serve.compute_frac": counts["serve.jobs_computed"] / counts["serve.requests"],
        "trace.overhead": traced_s / sum(op.seconds for op in reference),
        "trace.unattributed_frac": 1.0 - sum(submit_ns) / 1e9 / traced_s,
        "trace.peak_alloc_mb": peak,
    })
    out.metrics.update(layer)
    out.details["breakdown"] = {
        "layer_self_s": tracing.layer_self_seconds(snapshot["spans"]),
        "counters": snapshot["counters"],
        "server": counts,
        "peak_alloc_mb_per_root": {"fixed_block": peak},
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0
) -> Outcome:
    """Set up, time, check and (optionally) trace one workload in-process."""
    from repro.errors import CensoredEstimateWarning

    from perfbench import hostspeed, workloads

    out = Outcome()
    with warnings.catch_warnings():
        warnings.simplefilter("error", CensoredEstimateWarning)
        setups, kernel, run = [], [], None
        try:
            for _ in range(SETUP_REPEATS):
                if run is not None:
                    run.close()
                    run = None
                kernel.extend(hostspeed.kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES))
                t0 = time.perf_counter()
                run = workloads.RUNNERS[name](seed)
                run.warm_up()
                setups.append(time.perf_counter() - t0)
            (_serve if name == "serve_mix" else _library)(run, seconds, trace, out)
        finally:
            if run is not None:
                run.close()
    failed = sum(op.error is not None for op in out.ops)
    raw_setup_s = import_s + statistics.median(setups)
    out.metrics["setup_s"] = raw_setup_s / hostspeed.slowdown(kernel)
    out.metrics["success_rate"] = 1.0 - failed / len(out.ops)
    out.details.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        import_s=import_s, setups_s=setups, raw_setup_s=raw_setup_s,
        failures=[f"{op.kind}#{op.index}: {op.error}" for op in out.ops if op.error][:10],
    )
    return out


def _run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]
    import scipy.optimize  # noqa: F401 - the LP layer's first solve imports it

    from perfbench import results, workloads  # noqa: F401 - imports repro

    import_s = time.perf_counter() - _T0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    out.details["env"] = results.environment(ROOT)
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    failed = sum(op.error is not None for op in out.ops)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{len(out.ops)} operations, {failed} failed")
    for m in specs:
        print(f"  {m['name']:26s} {out.metrics[m['name']]:>16.6g} {m['unit']}")
    print("details: " + json.dumps(out.details))
    record = {
        "correct": failed == 0,
        "attempted": len(out.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    if args.out:
        run = dict(
            record, workload=args.workload, seed=args.seed, trace=args.trace, details=out.details
        )
        results.write(Path(args.out), out.details["env"], args.seconds, [run], SPEC)
    print(json.dumps(record))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    details = json.loads(next(ln for ln in lines if ln.startswith("details: "))[len("details: "):])
    return dict(json.loads(lines[-1]), workload=workload, seed=seed, trace=trace, details=details)


def _run_all(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import results

    runs = []
    for wl in WORKLOADS:
        for r in range(args.runs):
            runs.append(_child(wl, args.seed + r, args.seconds, 0))
        runs.append(_child(wl, args.seed, args.seconds, 1))
        summary = results.summarize([r for r in runs if r["workload"] == wl], SPEC)[wl]
        print(f"{wl}: {args.runs} runs from seed {args.seed}, medians")
        for m in SPEC["end_to_end"]:
            print(f"  {m['name']:26s} {summary[m['name']]['median']:>16.6g} {m['unit']}")
    if args.out:
        results.write(Path(args.out), runs[0]["details"]["env"], args.seconds, runs, SPEC)
        print(f"results written to {args.out}")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="solve -> evaluate -> serve benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=3, help="untraced runs per workload with --workload all"
    )
    parser.add_argument("--out", help="write a result file")
    parser.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two result files"
    )
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(ROOT))
        from perfbench import results

        print("\n".join(results.compare(*args.compare, SPEC)))
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
