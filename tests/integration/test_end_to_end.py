"""End-to-end integration: every pipeline on every workload class."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance, solve
from repro.algorithms import LEAN, PRACTICAL, resolve_solver
from repro.analysis import compare_algorithms
from repro.evaluate import evaluate
from repro.sim import simulate
from repro.workloads import (
    grid_computing,
    project_management,
    random_instance,
)


class TestSolveAcrossClasses:
    @pytest.mark.parametrize(
        "dag_kind", ["independent", "chains", "out_tree", "in_tree", "mixed_forest"]
    )
    @pytest.mark.parametrize("prob_model", ["uniform", "sparse"])
    def test_full_pipeline_completes(self, dag_kind, prob_model):
        rng = np.random.default_rng(42)
        inst = random_instance(14, 5, dag_kind=dag_kind, prob_model=prob_model, rng=rng)
        result = solve(inst, constants=PRACTICAL, rng=rng)
        res = simulate(inst, result.schedule, rng=rng, max_steps=500_000)
        assert res.finished
        for (u, v) in inst.dag.edges:
            assert res.completion[u] < res.completion[v]

    @pytest.mark.parametrize("dag_kind", ["independent", "chains", "out_tree"])
    def test_lean_constants_shorter_cores(self, dag_kind):
        rng = np.random.default_rng(7)
        inst = random_instance(16, 5, dag_kind=dag_kind, rng=7)
        lean = solve(inst, constants=LEAN, rng=rng)
        practical = solve(inst, constants=PRACTICAL, rng=rng)
        if lean.finite_core is not None and practical.finite_core is not None:
            assert (
                lean.finite_core.replicate_steps(1).length
                <= practical.finite_core.length * 4
            )


class TestScenarios:
    def test_project_management_end_to_end(self):
        rng = np.random.default_rng(0)
        inst = project_management(workstreams=4, tasks_per_stream=3, workers=5, rng=rng)
        result = solve(inst, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=40, seed=rng, max_steps=300_000)
        assert est.truncated == 0

    def test_grid_computing_end_to_end(self):
        rng = np.random.default_rng(1)
        inst = grid_computing(num_workflows=2, stages=3, fanout=2, machines=6, rng=rng)
        result = solve(inst, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=30, seed=rng, max_steps=300_000)
        assert est.truncated == 0

    def test_comparison_harness_runs_on_scenario(self):
        rng = np.random.default_rng(2)
        inst = project_management(workstreams=3, tasks_per_stream=2, workers=4, rng=rng)
        results = {"paper": solve(inst, rng=rng)}
        for name in ("serial", "round_robin", "greedy", "random_policy"):
            results[name] = resolve_solver(name).build(inst)
        records = compare_algorithms(inst, results, reps=25, rng=rng, max_steps=300_000)
        assert len(records) == 5
        assert all(rec.ratio > 0 for rec in records)


class TestSerializationRoundTrips:
    def test_schedule_roundtrip_preserves_makespan_distribution(self):
        from repro import CyclicSchedule

        rng = np.random.default_rng(3)
        inst = random_instance(10, 4, dag_kind="chains", rng=3)
        result = solve(inst, rng=rng)
        sched = result.schedule
        clone = CyclicSchedule.from_dict(sched.to_dict())
        e1 = evaluate(inst, sched, mode="mc", reps=50, seed=11, max_steps=300_000)
        e2 = evaluate(inst, clone, mode="mc", reps=50, seed=11, max_steps=300_000)
        assert e1.makespan == e2.makespan  # identical schedule + seed => identical runs

    def test_instance_roundtrip_same_solution(self):
        inst = random_instance(8, 3, dag_kind="chains", rng=5)
        clone = SUUInstance.from_json(inst.to_json())
        r1 = solve(inst, rng=1)
        r2 = solve(clone, rng=1)
        assert r1.finite_core == r2.finite_core
