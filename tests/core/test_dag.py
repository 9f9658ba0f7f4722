"""Tests for repro.core.dag: construction, classification, queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CycleError, DagClass, PrecedenceDAG, ValidationError


class TestConstruction:
    def test_empty_dag(self):
        dag = PrecedenceDAG.independent(5)
        assert dag.n == 5
        assert dag.num_edges == 0
        assert dag.classify() == DagClass.INDEPENDENT

    def test_zero_jobs(self):
        dag = PrecedenceDAG(0)
        assert dag.n == 0
        assert dag.topological_order() == []

    def test_edges_are_sorted_and_deduped_on_read(self):
        dag = PrecedenceDAG(4, [(2, 3), (0, 1)])
        assert dag.edges == ((0, 1), (2, 3))

    def test_rejects_negative_n(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(-1)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(3, [(0, 1), (0, 1)])

    def test_rejects_cycle(self):
        with pytest.raises(CycleError):
            PrecedenceDAG(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            PrecedenceDAG(2, [(0, 1), (1, 0)])

    def test_from_chains(self):
        dag = PrecedenceDAG.from_chains([[0, 1, 2], [3, 4]])
        assert dag.n == 5
        assert dag.classify() == DagClass.CHAINS
        assert dag.edges == ((0, 1), (1, 2), (3, 4))

    def test_from_chains_rejects_shared_job(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG.from_chains([[0, 1], [1, 2]])

    def test_from_chains_with_explicit_n_allows_isolated_jobs(self):
        dag = PrecedenceDAG.from_chains([[0, 1]], n=4)
        assert dag.n == 4
        assert dag.predecessors(3) == ()

    def test_from_parents(self):
        dag = PrecedenceDAG.from_parents([-1, 0, 0, 1])
        assert dag.classify() == DagClass.OUT_FOREST
        assert dag.predecessors(3) == (1,)

    def test_equality_and_hash(self):
        a = PrecedenceDAG(3, [(0, 1)])
        b = PrecedenceDAG(3, [(0, 1)])
        c = PrecedenceDAG(3, [(0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_class(self):
        assert "chains" in repr(PrecedenceDAG.from_chains([[0, 1]]))


class TestTopologicalOrder:
    def test_respects_edges(self):
        dag = PrecedenceDAG(5, [(3, 1), (1, 0), (4, 2)])
        order = dag.topological_order()
        pos = {j: k for k, j in enumerate(order)}
        for u, v in dag.edges:
            assert pos[u] < pos[v]

    def test_deterministic_smallest_first(self):
        dag = PrecedenceDAG(4, [(2, 3)])
        assert dag.topological_order() == [0, 1, 2, 3]

    def test_covers_all_jobs(self):
        dag = PrecedenceDAG(6, [(0, 5), (5, 3)])
        assert sorted(dag.topological_order()) == list(range(6))


class TestClassification:
    def test_chains(self):
        dag = PrecedenceDAG(4, [(0, 1), (2, 3)])
        assert dag.classify() == DagClass.CHAINS

    def test_single_chain(self):
        dag = PrecedenceDAG(3, [(0, 1), (1, 2)])
        assert dag.classify() == DagClass.CHAINS

    def test_out_forest(self):
        dag = PrecedenceDAG(4, [(0, 1), (0, 2), (2, 3)])
        assert dag.classify() == DagClass.OUT_FOREST

    def test_in_forest(self):
        dag = PrecedenceDAG(4, [(1, 0), (2, 0), (3, 2)])
        assert dag.classify() == DagClass.IN_FOREST

    def test_mixed_forest(self):
        # 0 -> 1 <- 2, 0 -> 3: node 1 has in-degree 2, node 0 out-degree 2.
        dag = PrecedenceDAG(4, [(0, 1), (2, 1), (0, 3)])
        assert dag.classify() == DagClass.MIXED_FOREST

    def test_general_diamond(self):
        dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert dag.classify() == DagClass.GENERAL

    def test_is_forest_flags(self):
        assert PrecedenceDAG.independent(3).is_forest()
        assert PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).is_forest() is False

    def test_underlying_forest_detects_undirected_cycle(self):
        dag = PrecedenceDAG(3, [(0, 1), (0, 2), (1, 2)])
        assert not dag.underlying_is_forest()


class TestChains:
    def test_chains_extraction(self):
        dag = PrecedenceDAG.from_chains([[2, 0], [1, 3, 4]], n=5)
        chains = dag.chains()
        assert sorted(map(tuple, chains)) == [(1, 3, 4), (2, 0)]

    def test_independent_jobs_are_singletons(self):
        chains = PrecedenceDAG.independent(3).chains()
        assert chains == [[0], [1], [2]]

    def test_chains_rejects_tree(self):
        dag = PrecedenceDAG(3, [(0, 1), (0, 2)])
        with pytest.raises(ValidationError):
            dag.chains()


class TestReachability:
    @pytest.fixture
    def dag(self):
        return PrecedenceDAG(6, [(0, 1), (1, 2), (1, 3), (4, 5)])

    def test_descendants(self, dag):
        assert dag.descendants(0) == [1, 2, 3]
        assert dag.descendants(4) == [5]
        assert dag.descendants(2) == []

    def test_ancestors(self, dag):
        assert dag.ancestors(3) == [0, 1]
        assert dag.ancestors(0) == []

    def test_counts(self, dag):
        assert dag.descendant_counts().tolist() == [3, 2, 0, 0, 1, 0]

    def test_sources_and_sinks(self, dag):
        assert dag.sources() == [0, 4]
        assert dag.sinks() == [2, 3, 5]

    def test_pred_mask(self, dag):
        assert dag.pred_mask(2) == 1 << 1
        assert dag.pred_mask(0) == 0


class TestPaths:
    def test_longest_path_unweighted(self):
        dag = PrecedenceDAG(5, [(0, 1), (1, 2), (3, 4)])
        assert dag.longest_path_length() == 3.0

    def test_longest_path_weighted(self):
        dag = PrecedenceDAG(3, [(0, 1)])
        w = np.array([1.0, 1.0, 5.0])
        assert dag.longest_path_length(w) == 5.0

    def test_longest_path_vertices(self):
        dag = PrecedenceDAG(4, [(0, 1), (1, 2)])
        path = dag.longest_path()
        assert path == [0, 1, 2]

    def test_longest_path_empty_dag(self):
        assert PrecedenceDAG(0).longest_path_length() == 0.0
        assert PrecedenceDAG(0).longest_path() == []

    def test_weight_shape_validated(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(3).longest_path_length(np.ones(2))


class TestWidth:
    def test_independent_width_is_n(self):
        assert PrecedenceDAG.independent(7).width() == 7

    def test_single_chain_width_is_one(self):
        assert PrecedenceDAG.from_chains([[0, 1, 2, 3]]).width() == 1

    def test_two_chains(self):
        assert PrecedenceDAG.from_chains([[0, 1], [2, 3]]).width() == 2

    def test_diamond_width(self):
        dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert dag.width() == 2

    def test_empty(self):
        assert PrecedenceDAG(0).width() == 0


class TestTransforms:
    def test_induced_keeps_internal_edges(self):
        dag = PrecedenceDAG(5, [(0, 1), (1, 2), (3, 4)])
        sub, mapping = dag.induced([1, 2, 3])
        assert sub.n == 3
        assert sub.edges == ((mapping[1], mapping[2]),)

    def test_induced_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            PrecedenceDAG(3).induced([1, 1])

    def test_reversed_swaps_classes(self):
        out = PrecedenceDAG(3, [(0, 1), (0, 2)])
        assert out.reversed().classify() == DagClass.IN_FOREST

    def test_reversed_involution(self):
        dag = PrecedenceDAG(4, [(0, 1), (1, 3)])
        assert dag.reversed().reversed() == dag

    def test_roundtrip_dict(self):
        dag = PrecedenceDAG(4, [(0, 2), (1, 3)])
        assert PrecedenceDAG.from_dict(dag.to_dict()) == dag
