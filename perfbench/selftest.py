"""Self-tests of the benchmark: ``python3 -m pytest perfbench/selftest.py``.

Not named ``test_*.py`` on purpose: the repository's tier-1 run does not
collect the benchmark, whose runs start servers and take a while.  The
pools are shrunk so each run here takes seconds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]

import pytest  # noqa: E402

from perfbench import results, run, workloads  # noqa: E402
from repro.serve.keys import instance_hash  # noqa: E402

#: Counts that must repeat exactly at one seed, per workload.
REPEATING_COUNTS = {
    "pipeline_mc": ("lp.rows", "lp.nnz", "lp.calls", "mc.rep_steps"),
    "exact_regimen": ("exact.states", "regimen.states", "opt.states"),
    "adaptive_mc": ("batch.policy_queries",),
    "serve_mix": ("serve.jobs_computed",),
}


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(workloads, "PIPELINE_ROUNDS", 1)
    small_exact = (("state_round_robin", 10, 3), ("exact", 7, 2), ("round_robin", 8, 3))
    monkeypatch.setattr(workloads, "EXACT_ROUND", small_exact)
    monkeypatch.setattr(workloads, "EXACT_ROUNDS", 1)
    monkeypatch.setattr(workloads, "ADAPTIVE_ROUNDS", 1)
    monkeypatch.setattr(workloads, "ADAPTIVE_REPS", 200)
    monkeypatch.setattr(workloads, "SERVE_FIXED_BLOCK", 48)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", sorted(REPEATING_COUNTS))
def test_counts_repeat_exactly_at_one_seed(small_pools, workload):
    # serve_mix needs two blocks of requests for its per-block figures.
    seconds = 2.0 if workload == "serve_mix" else 0.2
    first, second = (run.run_workload(workload, 3, seconds, trace=True) for _ in range(2))
    assert {m["name"] for m in run.SPEC["per_layer"]} <= set(first.metrics)
    assert first.metrics["success_rate"] == second.metrics["success_rate"] == 1.0
    for name in REPEATING_COUNTS[workload]:
        assert first.metrics[name] > 0
        assert first.metrics[name] == second.metrics[name]
    if workload == "serve_mix":
        # Each round's duplicate finds its first copy in flight.
        assert first.metrics["serve.dedup_hits"] > 0
        assert first.metrics["serve.cache_hits"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_different_seed_changes_the_instances(small_pools, workload):
    def instance_hashes(seed):
        runner = workloads.RUNNERS[workload](seed)
        try:
            instances = getattr(runner, "instances", None) or [i.instance for i in runner.items]
            return [instance_hash(inst) for inst in instances]
        finally:
            runner.close()

    first = instance_hashes(3)
    assert instance_hashes(3) == first
    assert set(instance_hashes(4)).isdisjoint(first)


def test_a_wrong_exact_value_raises_the_error_rate(small_pools, monkeypatch):
    golden = workloads.golden_exact
    monkeypatch.setattr(workloads, "golden_exact", lambda inst, sched: golden(inst, sched) + 1e-6)
    out = run.run_workload("exact_regimen", seed=3, seconds=0.2, trace=False)
    assert out.metrics["success_rate"] < 1.0
    assert out.details["failures"]
    assert all("scalar golden" in failure for failure in out.details["failures"])


def test_compare_labels():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert results.label(parent, [v * 0.80 for v in parent], "lower", 0.1)[0] == "improved"
    assert results.label(parent, [v * 1.20 for v in parent], "lower", 0.1)[0] == "regressed"
    assert results.label(parent, [v * 1.20 for v in parent], "higher", 0.1)[0] == "improved"
    assert results.label(parent, [v * 1.005 for v in parent], "lower", 0.1)[0] == "unchanged"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert results.label(noisy, [v * 1.01 for v in noisy], "lower", 0.1)[0] == "unresolved"
