"""Tests for the general-DAG layered extension."""

from __future__ import annotations

import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.algorithms import PRACTICAL, depth_layers, solve, solve_layered
from repro.evaluate import evaluate
from repro.sim import simulate
from repro.workloads import layered_dag, probability_matrix


@pytest.fixture
def diamond_instance(rng):
    # the classic diamond: 0 -> {1, 2} -> 3 (a GENERAL dag)
    dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    return SUUInstance(probability_matrix(3, 4, rng=rng), dag)


class TestDepthLayers:
    def test_diamond_layers(self, diamond_instance):
        layers = depth_layers(diamond_instance)
        assert layers == [[0], [1, 2], [3]]

    def test_independent_single_layer(self, medium_independent):
        layers = depth_layers(medium_independent)
        assert len(layers) == 1
        assert sorted(layers[0]) == list(range(medium_independent.n))

    def test_chain_one_layer_per_job(self, tiny_chain):
        layers = depth_layers(tiny_chain)
        assert layers == [[0], [1], [2]]

    def test_layers_are_antichains(self, rng):
        dag = layered_dag(20, layers=5, rng=rng)
        inst = SUUInstance(probability_matrix(4, 20, rng=rng), dag)
        for layer in depth_layers(inst):
            layer_set = set(layer)
            for j in layer:
                assert not (set(dag.descendants(j)) & layer_set)

    def test_partition(self, rng):
        dag = layered_dag(25, layers=4, rng=rng)
        inst = SUUInstance(probability_matrix(3, 25, rng=rng), dag)
        layers = depth_layers(inst)
        all_jobs = sorted(j for layer in layers for j in layer)
        assert all_jobs == list(range(25))


class TestSolveLayered:
    def test_diamond_completes_and_respects_dag(self, diamond_instance, rng):
        result = solve_layered(diamond_instance, PRACTICAL, rng=rng)
        assert result.certificates["layers"] == 3
        for rep in range(5):
            res = simulate(diamond_instance, result.schedule, rng=rep, max_steps=200_000)
            assert res.finished
            for (u, v) in diamond_instance.dag.edges:
                assert res.completion[u] < res.completion[v]

    def test_general_dag_end_to_end(self, rng):
        dag = layered_dag(18, layers=4, rng=rng)
        inst = SUUInstance(probability_matrix(5, 18, rng=rng), dag)
        result = solve_layered(inst, PRACTICAL, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=40, seed=rng, max_steps=300_000)
        assert est.truncated == 0

    def test_per_layer_certificates(self, diamond_instance, rng):
        result = solve_layered(diamond_instance, PRACTICAL, rng=rng)
        per_layer = result.certificates["per_layer"]
        assert len(per_layer) == 3
        assert all(c["min_mass"] >= 0.5 - 1e-9 for c in per_layer)

    def test_works_on_paper_classes_too(self, small_chains_instance, rng):
        result = solve_layered(small_chains_instance, PRACTICAL, rng=rng)
        est = evaluate(
            small_chains_instance, result.schedule, mode="mc", reps=30, seed=rng, max_steps=300_000
        )
        assert est.truncated == 0


class TestPipelineIntegration:
    def test_solve_fallback_uses_layered(self, diamond_instance, rng):
        result = solve(diamond_instance, rng=rng, allow_fallback=True)
        assert result.algorithm == "solve_layered"

    def test_solve_method_layered(self, medium_independent, rng):
        result = solve(medium_independent, rng=rng, method="layered")
        assert result.algorithm == "solve_layered"
        assert result.certificates["layers"] == 1
