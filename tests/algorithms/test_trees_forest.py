"""Tests for Theorem 4.7/4.8 — tree and forest block scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance, UnsupportedDagError
from repro.algorithms import PRACTICAL, solve_forest, solve_tree
from repro.decomp import lemma46_width_bound
from repro.evaluate import evaluate
from repro.sim import simulate
from repro.workloads import (
    in_tree_dag,
    mixed_forest_dag,
    out_tree_dag,
    probability_matrix,
)


def tree_instance(n=14, m=5, seed=0, kind="out"):
    rng = np.random.default_rng(seed)
    p = probability_matrix(m, n, rng=rng)
    if kind == "out":
        dag = out_tree_dag(n, rng=rng)
    elif kind == "in":
        dag = in_tree_dag(n, rng=rng)
    else:
        dag = mixed_forest_dag(n, rng=rng, num_trees=2)
    return SUUInstance(p, dag, name=f"{kind}-tree-{n}")


class TestSolveTree:
    @pytest.mark.parametrize("kind", ["out", "in"])
    def test_completes_all_jobs(self, kind, rng):
        inst = tree_instance(kind=kind)
        result = solve_tree(inst, PRACTICAL, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=40, seed=rng, max_steps=300_000)
        assert est.truncated == 0

    def test_width_within_lemma_bound(self, rng):
        inst = tree_instance(n=30)
        result = solve_tree(inst, PRACTICAL, rng=rng)
        assert result.certificates["decomposition_width"] <= lemma46_width_bound(30)

    def test_block_certificates_present(self, rng):
        inst = tree_instance()
        result = solve_tree(inst, PRACTICAL, rng=rng)
        blocks = result.certificates["blocks"]
        assert len(blocks) == result.certificates["decomposition_width"]
        for cert in blocks:
            assert cert["min_mass"] >= 0.5 - 1e-9

    def test_rejects_mixed_forest(self, rng):
        inst = tree_instance(kind="mixed")
        with pytest.raises(UnsupportedDagError):
            solve_tree(inst, PRACTICAL, rng=rng)

    def test_accepts_chains(self, small_chains_instance, rng):
        result = solve_tree(small_chains_instance, PRACTICAL, rng=rng)
        assert result.certificates["decomposition_width"] == 1


class TestSolveForest:
    def test_completes_all_jobs(self, rng):
        inst = tree_instance(kind="mixed")
        result = solve_forest(inst, PRACTICAL, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=40, seed=rng, max_steps=300_000)
        assert est.truncated == 0

    def test_rejects_general_dag(self, rng):
        from repro import PrecedenceDAG

        dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        p = probability_matrix(3, 4, rng=rng)
        with pytest.raises(UnsupportedDagError):
            solve_forest(SUUInstance(p, dag), PRACTICAL, rng=rng)

    def test_handles_out_trees_too(self, rng):
        inst = tree_instance(kind="out")
        result = solve_forest(inst, PRACTICAL, rng=rng)
        assert result.certificates["core_length"] > 0


class TestPrecedenceSoundness:
    """The concatenated block schedule must never complete a job before
    its predecessors, on any sample path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["out", "in", "mixed"])
    def test_completion_order_respects_dag(self, seed, kind):
        inst = tree_instance(n=10, m=4, seed=seed, kind=kind)
        solver = solve_tree if kind in ("out", "in") else solve_forest
        result = solver(inst, PRACTICAL, rng=seed)
        for rep in range(5):
            res = simulate(inst, result.schedule, rng=1000 + rep, max_steps=300_000)
            assert res.finished
            for (u, v) in inst.dag.edges:
                assert res.completion[u] < res.completion[v]
