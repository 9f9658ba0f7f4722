"""PERF — sharded process executor vs in-process and single-worker execution.

Scaling study for the parallel backend (`repro/parallel/`): a 1000-rep
suite over the four A3 failure regimes, estimated with the *randomized*
baseline policy.  Randomized policies are the workload class the batched
engine cannot take (sharing draws across replications would correlate
them), so every replication runs through the scalar reference engine —
exactly the regime where fanning replication shards out to worker
processes is the only remaining speedup axis.

Each spec's 1000 replications split into 16 `SeedSequence.spawn`-seeded
shards; the in-process run (`run_suite` with no executor), `workers=1` and
`workers=N` execute the *same* shards and merge in the same order, so the
benchmark first asserts that every row produces identical numbers, then
measures wall-clock.  The in-process row is the baseline a pool has to
beat: a one-process pool only adds task shipping to it.

The ≥2.5x speedup claim at ``workers=4`` is only assertable on hardware
with ≥4 usable cores — process parallelism cannot beat physics on a 1-core
container.  The measurement always runs and is recorded (with the core
count) in ``benchmarks/results/perf_parallel.json``; the assertion is
gated on the cores actually available.

A final traced run (telemetry captured through ``repro.obs``) records the
per-shard and per-phase wall-clock breakdown into the same results file,
so the JSON shows *where* suite time goes, not just the totals.
``REPRO_PERF_PARALLEL_REPS`` overrides the replication count for quick
local runs, which write their own record (``perf_parallel.reps200.json``
at 200) instead of the committed one.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.analysis import Table
from repro.experiments import ExperimentSpec, run_suite
from repro.experiments.suites import A3_REGIMES
from repro.parallel import ProcessExecutor, default_workers, make_shard_plan
from repro.parallel.worker import _clear_worker_caches

REPS = int(os.environ.get("REPRO_PERF_PARALLEL_REPS", "1000"))
#: Results file: the committed record is the 1000-replication run.
RECORD = "perf_parallel" if REPS == 1000 else f"perf_parallel.reps{REPS}"
MAX_STEPS = 300_000
WORKER_COUNTS = (1, 2, 4)
REQUIRED_SPEEDUP = 2.5


def _suite() -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            name=f"perf-parallel-{regime}",
            generator="random",
            generator_params={
                "n": 16,
                "m": 6,
                "dag_kind": "independent",
                "prob_model": "uniform",
                "lo": lo,
                "hi": hi,
            },
            instance_seed=seed,
            algorithm="random_policy",
            reps=REPS,
            max_steps=MAX_STEPS,
            sim_seed=20070611,
        )
        for regime, lo, hi, seed in A3_REGIMES
    ]


def _timed_run(workers: int | None) -> tuple[float, list]:
    """One suite run: in-process when ``workers`` is None, else on a pool."""
    specs = _suite()
    # Every run rebuilds its schedules: an in-process run would otherwise
    # leave them cached in this process for the forked pools to inherit.
    _clear_worker_caches()
    if workers is None:
        t0 = time.perf_counter()
        results = run_suite(specs, cache_dir=None)
        return time.perf_counter() - t0, results
    with ProcessExecutor(workers=workers) as exe:
        t0 = time.perf_counter()
        results = run_suite(specs, cache_dir=None, executor=exe)
        wall = time.perf_counter() - t0
    return wall, results


def _measure():
    # Warm-up: the first suite execution pays one-time costs (allocator
    # growth, code paths becoming hot) that would otherwise be billed to
    # whichever row happens to run first.  It runs in this process, so
    # the pools' forked workers start warm too.
    _timed_run(None)
    runs = {None: _timed_run(None)}
    for workers in WORKER_COUNTS:
        runs[workers] = _timed_run(workers)
    return runs


def _walk_spans(node, depth=0):
    yield node, depth
    for child in node.get("children", ()):
        yield from _walk_spans(child, depth + 1)


def _traced_breakdown(workers: int) -> dict:
    """One traced suite run → per-shard and per-phase wall-clock rows.

    Workers ship their span trees back through the task protocol; the
    runner grafts them in deterministic order, so the ``parallel.shard``
    spans below carry each shard's own in-worker duration.
    """
    specs = _suite()
    with obs.capture() as tel:
        with ProcessExecutor(workers=workers) as exe:
            run_suite(specs, cache_dir=None, executor=exe)
    snapshot = tel.snapshot()
    shards = []
    phase_ms: dict[str, list[float]] = {}
    for root in snapshot["spans"]:
        for span, _ in _walk_spans(root):
            phase_ms.setdefault(span["name"], []).append(span["dur_ns"] / 1e6)
            if span["name"] == "parallel.shard":
                shards.append(
                    {
                        "shard": span["attrs"].get("shard"),
                        "reps": span["attrs"].get("reps"),
                        "pid": span["pid"],
                        "wall_ms": span["dur_ns"] / 1e6,
                    }
                )
    phases = [
        {
            "phase": name,
            "count": len(durs),
            "total_ms": sum(durs),
            "mean_ms": sum(durs) / len(durs),
        }
        for name, durs in sorted(
            phase_ms.items(), key=lambda kv: -sum(kv[1])
        )
    ]
    return {"counters": snapshot["counters"], "shards": shards, "phases": phases}


def test_perf_parallel_scaling(benchmark, recorder):
    runs = benchmark.pedantic(_measure, rounds=1, iterations=1)
    cores = default_workers()
    base_wall, base_results = runs[WORKER_COUNTS[0]]
    in_process_wall = runs[None][0]

    table = Table(
        ["workers", "wall (s)", "speedup", "vs in-process", "spec/s"],
        title=(
            f"PERF  process-sharded suite, random_policy "
            f"(n=16, m=6, reps={REPS}, {len(base_results)} specs, {cores} cores)"
        ),
    )
    invariant = True
    for workers, (wall, results) in runs.items():
        speedup = base_wall / wall
        invariant &= all(
            (a.mean, a.std_err, a.min, a.max, a.truncated)
            == (b.mean, b.std_err, b.min, b.max, b.truncated)
            for a, b in zip(base_results, results)
        )
        label = "in-process" if workers is None else workers
        table.add_row(
            [label, wall, speedup, in_process_wall / wall, len(results) / wall]
        )
        recorder.add(
            workers=label,
            wall_s=wall,
            speedup=speedup,
            speedup_vs_in_process=in_process_wall / wall,
            means=[r.mean for r in results],
        )
    print("\n" + table.render())

    speedup_at_4 = base_wall / runs[4][0]
    recorder.add(
        kind="summary",
        cpu_count=cores,
        reps=REPS,
        speedup_at_4_workers=speedup_at_4,
        in_process_wall_s=in_process_wall,
        required_speedup=REQUIRED_SPEEDUP,
        speedup_assertable=cores >= 4,
    )
    recorder.claim("worker_count_invariant", invariant)
    assert invariant, "worker counts disagreed on the merged estimates"

    # Per-shard / per-phase timing breakdown from one traced run: where
    # the suite's wall-clock actually goes, shard by shard.
    breakdown = _traced_breakdown(workers=min(2, cores))
    recorder.add(kind="telemetry", **breakdown)
    n_shards = len(breakdown["shards"])
    slowest = max(breakdown["shards"], key=lambda s: s["wall_ms"])
    print(
        f"\ntraced run: {n_shards} shard spans, slowest shard "
        f"{slowest['shard']} at {slowest['wall_ms']:.1f} ms; counters: "
        f"{breakdown['counters']}"
    )
    planned = sum(len(make_shard_plan(s.reps, s.sim_seed).shards) for s in _suite())
    recorder.claim("telemetry_covers_every_shard", n_shards == planned)
    assert n_shards == planned, (
        f"traced run has {n_shards} shard spans, the plan {planned}"
    )

    if cores >= 4:
        recorder.claim(
            "speedup_at_4_workers_ge_2.5x", speedup_at_4 >= REQUIRED_SPEEDUP
        )
        assert speedup_at_4 >= REQUIRED_SPEEDUP, (
            f"workers=4 gave {speedup_at_4:.2f}x over workers=1 "
            f"(need >= {REQUIRED_SPEEDUP}x on {cores} cores)"
        )
    else:
        # Record the environment limitation loudly instead of skipping the
        # whole measurement: the invariance claim above still holds, and
        # the wall-clock rows document what this box can show.
        recorder.claim("speedup_measured_on_sufficient_cores", False)
        print(
            f"\nonly {cores} core(s) visible - the >= {REQUIRED_SPEEDUP}x "
            "speedup criterion needs >= 4; recorded measurements only"
        )
