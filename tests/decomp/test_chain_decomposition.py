"""Tests for repro.decomp — Lemma 4.6 chain decompositions."""

from __future__ import annotations

import pytest

from repro import DagClass, PrecedenceDAG, UnsupportedDagError
from repro.decomp import ChainDecomposition, decompose_forest, lemma46_width_bound
from repro.workloads import in_tree_dag, mixed_forest_dag, out_tree_dag


class TestBound:
    def test_bound_values(self):
        assert lemma46_width_bound(1) == 2
        assert lemma46_width_bound(2) == 4
        assert lemma46_width_bound(1024) == 22

    def test_bound_monotone(self):
        vals = [lemma46_width_bound(n) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSpecialCases:
    def test_independent(self):
        deco = decompose_forest(PrecedenceDAG.independent(5))
        assert deco.width == 1
        assert sorted(j for c in deco.blocks[0] for j in c) == list(range(5))

    def test_chains_single_block(self):
        dag = PrecedenceDAG.from_chains([[0, 1, 2], [3, 4]])
        deco = decompose_forest(dag)
        assert deco.width == 1

    def test_empty_dag(self):
        deco = decompose_forest(PrecedenceDAG(0))
        assert deco.width == 0

    def test_general_rejected(self):
        dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        with pytest.raises(UnsupportedDagError):
            decompose_forest(dag)

    def test_path_is_one_block(self):
        dag = PrecedenceDAG.from_chains([[0, 1, 2, 3, 4, 5]])
        assert decompose_forest(dag).width == 1

    def test_star_out_tree(self):
        # root with k children: 2 blocks (root, then leaves)
        edges = [(0, j) for j in range(1, 8)]
        deco = decompose_forest(PrecedenceDAG(8, edges))
        assert deco.width == 2

    def test_caterpillar(self):
        # spine + leaf per spine node; the dyadic construction keeps the
        # width logarithmic even though every spine node branches
        k = 16
        edges = [(i, i + 1) for i in range(k - 1)]
        edges += [(i, k + i) for i in range(k)]
        dag = PrecedenceDAG(2 * k, edges)
        deco = decompose_forest(dag)
        assert deco.width <= lemma46_width_bound(2 * k)


class TestRandomForests:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [10, 40, 90])
    def test_out_trees_width_within_bound(self, seed, n):
        dag = out_tree_dag(n, rng=seed)
        deco = decompose_forest(dag)
        deco.validate()
        assert deco.width <= lemma46_width_bound(n)

    @pytest.mark.parametrize("seed", range(6))
    def test_in_trees_width_within_bound(self, seed):
        n = 50
        dag = in_tree_dag(n, rng=seed)
        assert dag.classify() == DagClass.IN_FOREST
        deco = decompose_forest(dag)
        deco.validate()
        assert deco.width <= lemma46_width_bound(n)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_forests_validate(self, seed):
        n = 60
        dag = mixed_forest_dag(n, rng=seed, num_trees=3)
        deco = decompose_forest(dag)
        deco.validate()
        assert deco.width <= lemma46_width_bound(n)

    def test_every_job_in_exactly_one_chain(self):
        dag = out_tree_dag(70, rng=3)
        deco = decompose_forest(dag)
        jobs = [j for block in deco.blocks for chain in block for j in chain]
        assert sorted(jobs) == list(range(70))


class TestValidation:
    def test_validate_rejects_cross_chain_edge_in_block(self):
        dag = PrecedenceDAG(2, [(0, 1)])
        bad = ChainDecomposition(dag, [[[0], [1]]])  # same block, two chains
        with pytest.raises(Exception):
            bad.validate()

    def test_validate_rejects_backwards_blocks(self):
        dag = PrecedenceDAG(2, [(0, 1)])
        bad = ChainDecomposition(dag, [[[1]], [[0]]])
        with pytest.raises(Exception):
            bad.validate()

    def test_validate_rejects_non_edge_chain(self):
        dag = PrecedenceDAG(3, [(0, 1)])
        bad = ChainDecomposition(dag, [[[0, 2]], [[1]]])
        with pytest.raises(Exception):
            bad.validate()

    def test_validate_rejects_missing_job(self):
        dag = PrecedenceDAG(3, [(0, 1)])
        bad = ChainDecomposition(dag, [[[0, 1]]])
        with pytest.raises(Exception):
            bad.validate()

    def test_block_of_and_chain_of(self):
        dag = PrecedenceDAG(3, [(0, 1), (0, 2)])
        deco = decompose_forest(dag)
        block_of = deco.block_of()
        chain_of = deco.chain_of()
        assert set(block_of) == {0, 1, 2}
        assert block_of[0] <= min(block_of[1], block_of[2])
        assert len(set(chain_of.values())) >= 2
