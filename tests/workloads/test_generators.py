"""Tests for the workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DagClass, ValidationError
from repro.workloads import (
    chains_dag,
    diamond_dag,
    in_tree_dag,
    layered_dag,
    mixed_forest_dag,
    out_tree_dag,
    probability_matrix,
    random_instance,
)


class TestProbabilityMatrix:
    @pytest.mark.parametrize(
        "model",
        ["uniform", "machine_speed", "specialist", "power_law", "sparse", "heterogeneous"],
    )
    def test_valid_matrices(self, model):
        p = probability_matrix(5, 12, model=model, rng=0)
        assert p.shape == (5, 12)
        assert np.all((p >= 0) & (p <= 1))
        assert np.all(p.max(axis=0) > 0)

    def test_range_respected(self):
        p = probability_matrix(4, 8, rng=1, lo=0.2, hi=0.4)
        pos = p[p > 0]
        assert pos.min() >= 0.2 - 1e-12 and pos.max() <= 0.4 + 1e-12

    def test_sparse_has_zeros(self):
        p = probability_matrix(6, 20, model="sparse", rng=2, zero_fraction=0.7)
        assert (p == 0).mean() > 0.3

    def test_deterministic(self):
        a = probability_matrix(3, 5, rng=7)
        b = probability_matrix(3, 5, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            probability_matrix(0, 3)

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            probability_matrix(2, 2, lo=0.0)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValidationError):
            probability_matrix(2, 2, model="magic")

    def test_heterogeneous_rows_share_speed_structure(self):
        # p_ij = clip(speed_i * difficulty_j): with clipping disabled by a
        # wide range, rows of equal speed class are exact multiples of the
        # shared difficulty vector.
        p = probability_matrix(
            8, 30, model="heterogeneous", rng=3, lo=1e-6, hi=1.0,
            speed_classes=(1.0, 0.5),
        )
        scale = p.max(axis=1)  # per-row speed * max difficulty
        ratio = p / p[np.argmax(scale)][None, :]
        # Every row is a constant multiple of the fastest row.
        assert np.allclose(ratio, ratio[:, :1])
        assert set(np.round(np.unique(ratio[:, 0]), 6)) <= {0.5, 1.0}

    def test_heterogeneous_has_a_fast_machine(self):
        for seed in range(5):
            p = probability_matrix(
                6, 10, model="heterogeneous", rng=seed, lo=0.05, hi=0.9,
                speed_classes=(1.0, 0.3, 0.1),
            )
            # The pinned fastest machine carries the unattenuated difficulty
            # vector, so the matrix maximum sits in the U[lo, hi] range top.
            assert p.max() > 0.3

    def test_heterogeneous_rejects_bad_classes(self):
        with pytest.raises(ValidationError):
            probability_matrix(3, 4, model="heterogeneous", speed_classes=(1.5,))
        with pytest.raises(ValidationError):
            probability_matrix(3, 4, model="heterogeneous", speed_classes=())


class TestDagGenerators:
    def test_chains_dag_partition(self):
        dag = chains_dag(20, 5, rng=0)
        assert dag.classify() in (DagClass.CHAINS, DagClass.INDEPENDENT)
        assert len(dag.chains()) == 5
        assert sorted(j for c in dag.chains() for j in c) == list(range(20))

    def test_chains_dag_bad_count(self):
        with pytest.raises(ValidationError):
            chains_dag(5, 9, rng=0)

    def test_out_tree(self):
        dag = out_tree_dag(25, rng=1)
        assert dag.classify() == DagClass.OUT_FOREST
        assert len(dag.sources()) == 1

    def test_out_tree_max_children(self):
        dag = out_tree_dag(40, rng=2, max_children=2)
        assert int(dag.out_degrees.max()) <= 2

    def test_in_tree(self):
        dag = in_tree_dag(25, rng=3)
        assert dag.classify() == DagClass.IN_FOREST

    def test_mixed_forest_trees(self):
        dag = mixed_forest_dag(30, rng=4, num_trees=3)
        assert dag.underlying_is_forest()
        assert dag.num_edges == 27

    def test_mixed_forest_flip_extremes(self):
        out = mixed_forest_dag(20, rng=5, flip_prob=0.0)
        assert out.classify() in (DagClass.OUT_FOREST, DagClass.CHAINS)
        inn = mixed_forest_dag(20, rng=5, flip_prob=1.0)
        assert inn.classify() in (DagClass.IN_FOREST, DagClass.CHAINS)

    def test_layered_is_dag(self):
        dag = layered_dag(30, layers=5, rng=6)
        assert dag.n == 30
        dag.topological_order()  # no cycle

    def test_diamond_block_structure(self):
        # n=6, width=4: 0 -> {1..4} -> 5, one full diamond.
        dag = diamond_dag(6, width=4)
        assert sorted(dag.successors(0)) == [1, 2, 3, 4]
        assert sorted(dag.predecessors(5)) == [1, 2, 3, 4]
        dag.topological_order()  # no cycle

    def test_diamond_chains_blocks(self):
        # Repeated fan-out/fan-in: every sink is the next source, so the
        # DAG has exactly one source and one sink and depth grows with n.
        dag = diamond_dag(14, width=2)
        assert len(dag.sources()) == 1
        assert len(dag.sinks()) == 1
        assert int(dag.out_degrees.max()) == 2

    def test_diamond_tail_degenerates_to_chain(self):
        # Too few jobs for a fan-out + sink: the remainder is a chain.
        dag = diamond_dag(3, width=5)
        assert dag.num_edges == 2
        assert len(dag.sources()) == 1 and len(dag.sinks()) == 1

    def test_diamond_deterministic_without_jitter(self):
        assert diamond_dag(12, width=3, rng=0).edges == diamond_dag(12, width=3, rng=99).edges

    def test_diamond_jitter_seeded(self):
        a = diamond_dag(20, width=4, rng=5, jitter=True)
        b = diamond_dag(20, width=4, rng=5, jitter=True)
        assert a.edges == b.edges
        a.topological_order()

    def test_diamond_validation(self):
        with pytest.raises(ValidationError):
            diamond_dag(0)
        with pytest.raises(ValidationError):
            diamond_dag(5, width=0)


class TestRandomInstance:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("independent", DagClass.INDEPENDENT),
            ("out_tree", DagClass.OUT_FOREST),
            ("in_tree", DagClass.IN_FOREST),
        ],
    )
    def test_kinds(self, kind, expected):
        inst = random_instance(12, 4, dag_kind=kind, rng=0)
        assert inst.classify() == expected
        assert inst.n == 12 and inst.m == 4

    def test_chains_kind(self):
        inst = random_instance(12, 4, dag_kind="chains", num_chains=3, rng=1)
        assert len(inst.dag.chains()) == 3

    def test_kwargs_split(self):
        inst = random_instance(10, 3, dag_kind="chains", num_chains=2, lo=0.3, hi=0.5, rng=2)
        pos = inst.p[inst.p > 0]
        assert pos.min() >= 0.3 - 1e-12

    def test_diamond_kind(self):
        inst = random_instance(11, 4, dag_kind="diamond", width=3, rng=5)
        assert inst.n == 11 and inst.m == 4
        assert len(inst.dag.sources()) == 1
        assert int(inst.dag.out_degrees.max()) <= 3

    def test_heterogeneous_model_kind(self):
        inst = random_instance(
            10, 5, prob_model="heterogeneous", speed_classes=(1.0, 0.4), rng=6
        )
        assert inst.p.shape == (5, 10)
        assert np.all(inst.p.max(axis=0) > 0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            random_instance(5, 2, dag_kind="hypercube")

    def test_name_set(self):
        inst = random_instance(5, 2, rng=3)
        assert "n=5" in inst.name


class TestGreedyTrap:
    def test_separation_between_greedy_and_msm(self):
        from repro.algorithms import greedy_prob_policy, msm_eligible_policy
        from repro.evaluate import evaluate
        from repro.workloads import greedy_trap

        inst = greedy_trap(12, 4)
        greedy = evaluate(
            inst, greedy_prob_policy(inst).schedule, mode="mc", reps=60, seed=0, max_steps=10_000
        ).makespan
        msm = evaluate(
            inst, msm_eligible_policy(inst).schedule, mode="mc", reps=60, seed=0, max_steps=10_000
        ).makespan
        # greedy completes ~1 job/step, MSM ~m jobs/step
        assert greedy > 2.5 * msm

    def test_validation(self):
        from repro import ValidationError
        from repro.workloads import greedy_trap

        with pytest.raises(ValidationError):
            greedy_trap(0, 2)
        with pytest.raises(ValidationError):
            greedy_trap(10, 2, p_high=0.5, step=0.1)

    def test_probabilities_strictly_decreasing(self):
        from repro.workloads import greedy_trap

        inst = greedy_trap(6, 3)
        assert np.all(np.diff(inst.p[0]) < 0)
