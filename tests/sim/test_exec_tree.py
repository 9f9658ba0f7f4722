"""Tests for repro.sim.exec_tree — the Figure 1 execution tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule, PrecedenceDAG, SUUInstance
from repro.errors import ExactSolverLimitError
from repro.evaluate import evaluate
from repro.sim import build_execution_tree


def cyc(table):
    arr = np.asarray(table, dtype=np.int32)
    return CyclicSchedule(ObliviousSchedule.empty(arr.shape[1]), ObliviousSchedule(arr))


class TestTreeStructure:
    def test_leaf_probabilities_sum_to_one(self, tiny_independent):
        tree = build_execution_tree(
            tiny_independent, cyc([[0, 1, 2]]), depth=4, job=0
        )
        assert sum(leaf.prob for leaf in tree.leaves()) == pytest.approx(1.0)

    def test_depth_zero(self, tiny_independent):
        tree = build_execution_tree(tiny_independent, cyc([[0, 1, 2]]), depth=0, job=0)
        assert tree.num_nodes() == 1
        assert tree.prob_job_finished() == 0.0

    def test_certain_instance_single_path(self):
        inst = SUUInstance(np.ones((2, 2)))
        tree = build_execution_tree(inst, cyc([[0, 1]]), depth=2, job=0)
        # deterministic: all jobs done after step 1, execution stops
        assert tree.prob_all_finished() == 1.0

    def test_node_guard(self):
        inst = SUUInstance(np.full((3, 4), 0.5))
        with pytest.raises(ExactSolverLimitError):
            build_execution_tree(inst, cyc([[0, 1, 2]]), depth=12, job=0, max_nodes=50)

    def test_bad_job_rejected(self, tiny_independent):
        with pytest.raises(ValueError):
            build_execution_tree(tiny_independent, cyc([[0, 1, 2]]), depth=1, job=9)


class TestExactProbabilities:
    def test_single_job_finish_probability(self):
        p = 0.3
        inst = SUUInstance(np.array([[p]]))
        tree = build_execution_tree(inst, cyc([[0]]), depth=3, job=0)
        assert tree.prob_job_finished() == pytest.approx(1 - (1 - p) ** 3)

    def test_mass_accumulation_simple(self):
        p = 0.3
        inst = SUUInstance(np.array([[p]]))
        tree = build_execution_tree(inst, cyc([[0]]), depth=3, job=0)
        # mass >= 0.6 requires surviving (unfinished) for >= 2 steps
        assert tree.prob_mass_at_least(0.6) == pytest.approx((1 - p))

    def test_expected_mass_formula(self):
        # E[mass after 2 steps] = p*(p) + (1-p)*(2p)  (stop accruing on finish)
        p = 0.4
        inst = SUUInstance(np.array([[p]]))
        tree = build_execution_tree(inst, cyc([[0]]), depth=2, job=0)
        assert tree.expected_mass() == pytest.approx(p * p + (1 - p) * 2 * p)

    def test_precedence_blocks_mass(self):
        dag = PrecedenceDAG(2, [(0, 1)])
        inst = SUUInstance(np.array([[0.5, 0.5]]), dag)
        # schedule assigns machine to job 1 first; ineligible => no mass
        tree = build_execution_tree(inst, cyc([[1]]), depth=1, job=1)
        assert tree.expected_mass() == 0.0

    def test_finish_prob_consistent_with_markov(self, tiny_independent):
        sched = cyc([[0, 1, 2], [2, 0, 1]])
        # P(all finished by depth d) from the tree must be below 1 and the
        # expected makespan from the Markov solver must exceed the depth
        # where the tree's all-finished probability is far from 1.
        tree = build_execution_tree(tiny_independent, sched, depth=2, job=0)
        p_done2 = tree.prob_all_finished()
        exact = evaluate(tiny_independent, sched, mode="exact").makespan
        assert 0 < p_done2 < 1
        assert exact > 2 * (1 - p_done2)  # Markov E >= contribution of slow paths
