"""Tests for repro.opt.malewicz — the exact DP must be truly optimal."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.errors import ExactSolverLimitError
from repro.evaluate import evaluate
from repro.opt import optimal_expected_makespan, optimal_regimen


class TestClosedForms:
    def test_single_job_single_machine(self):
        inst = SUUInstance(np.array([[0.2]]))
        assert optimal_expected_makespan(inst) == pytest.approx(5.0)

    def test_single_job_two_machines(self):
        p1, p2 = 0.5, 0.4
        inst = SUUInstance(np.array([[p1], [p2]]))
        q = 1 - (1 - p1) * (1 - p2)
        assert optimal_expected_makespan(inst) == pytest.approx(1 / q)

    def test_certain_jobs_chain(self):
        dag = PrecedenceDAG(3, [(0, 1), (1, 2)])
        inst = SUUInstance(np.ones((2, 3)), dag)
        assert optimal_expected_makespan(inst) == pytest.approx(3.0)

    def test_certain_independent_with_enough_machines(self):
        inst = SUUInstance(np.ones((3, 3)))
        assert optimal_expected_makespan(inst) == pytest.approx(1.0)

    def test_two_jobs_one_machine_certain(self):
        inst = SUUInstance(np.ones((1, 2)))
        assert optimal_expected_makespan(inst) == pytest.approx(2.0)


class TestOptimality:
    def test_beats_all_fixed_regimens(self, rng):
        """The DP value is <= the exact value of 50 random regimens."""
        from repro.core.schedule import Regimen
        from repro.sim.exact.scalar import eligible_bitmask

        p = rng.uniform(0.1, 0.9, size=(2, 3))
        inst = SUUInstance(p)
        sol = optimal_regimen(inst)
        opt_val = sol.expected_makespan
        for _ in range(50):
            assignments = {}
            for state in range(1, 8):
                elig = [j for j in range(3) if (eligible_bitmask(inst, state) >> j) & 1]
                assignments[state] = np.asarray(
                    [elig[int(rng.integers(0, len(elig)))] for _ in range(2)],
                    dtype=np.int32,
                )
            val = evaluate(inst, Regimen(3, 2, assignments), mode="exact").makespan
            assert opt_val <= val + 1e-9

    def test_dp_value_matches_markov_reevaluation(self, tiny_tree):
        sol = optimal_regimen(tiny_tree)
        val = evaluate(tiny_tree, sol.regimen, mode="exact").makespan
        assert val == pytest.approx(sol.expected_makespan)

    def test_dp_value_matches_monte_carlo(self, tiny_chain, rng):
        sol = optimal_regimen(tiny_chain)
        est = evaluate(
            tiny_chain, sol.regimen.as_policy(), mode="mc", reps=3000, seed=rng, max_steps=10_000
        )
        assert est.makespan == pytest.approx(sol.expected_makespan, rel=0.08)

    def test_precedence_makes_things_slower(self, rng):
        p = rng.uniform(0.2, 0.9, size=(2, 4))
        free = SUUInstance(p)
        chained = SUUInstance(p, PrecedenceDAG.from_chains([[0, 1, 2, 3]]))
        assert optimal_expected_makespan(chained) >= optimal_expected_makespan(free) - 1e-9

    def test_more_machines_never_hurt(self, rng):
        p = rng.uniform(0.1, 0.9, size=(3, 3))
        full = SUUInstance(p)
        fewer = SUUInstance(p[:2])
        assert optimal_expected_makespan(full) <= optimal_expected_makespan(fewer) + 1e-9


class TestGuards:
    def test_state_guard(self):
        inst = SUUInstance(np.full((2, 20), 0.5))
        with pytest.raises(ExactSolverLimitError):
            optimal_regimen(inst, max_states=1 << 10)

    def test_assignment_guard(self):
        inst = SUUInstance(np.full((8, 8), 0.5))
        with pytest.raises(ExactSolverLimitError):
            optimal_regimen(inst, max_assignments_per_state=100)

    def test_states_solved_counted(self, tiny_independent):
        sol = optimal_regimen(tiny_independent)
        assert sol.states_solved == 7  # 2^3 - 1 nonempty states
