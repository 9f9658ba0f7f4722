"""Tests for the SUU-I algorithms (§3, Thm 4.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, SUUInstance, UnsupportedDagError
from repro.algorithms import (
    PAPER,
    PRACTICAL,
    suu_i_adaptive,
    suu_i_lp,
    suu_i_oblivious,
)
from repro.evaluate import evaluate
from repro.opt import optimal_expected_makespan
from repro.workloads import probability_matrix


class TestSUUIAdaptive:
    def test_requires_independent(self, tiny_chain):
        with pytest.raises(UnsupportedDagError):
            suu_i_adaptive(tiny_chain)

    def test_finishes(self, medium_independent, rng):
        result = suu_i_adaptive(medium_independent)
        est = evaluate(
            medium_independent, result.schedule, mode="mc", reps=50, seed=rng, max_steps=5000
        )
        assert est.truncated == 0

    def test_near_optimal_on_tiny(self, tiny_independent, rng):
        result = suu_i_adaptive(tiny_independent)
        est = evaluate(
            tiny_independent, result.schedule, mode="mc", reps=2000, seed=rng, max_steps=5000
        )
        topt = optimal_expected_makespan(tiny_independent)
        # Thm 3.3 allows O(log n); on 3 friendly jobs it is much closer
        assert est.makespan <= 3 * topt

    def test_policy_assigns_only_unfinished(self, tiny_independent, rng):
        policy = suu_i_adaptive(tiny_independent).schedule
        a = policy.assignment_for(
            tiny_independent, frozenset({2}), frozenset({2}), 0, rng
        )
        assert set(int(j) for j in a if j >= 0) <= {2}


class TestSUUIOblivious:
    def test_requires_independent(self, tiny_chain):
        with pytest.raises(UnsupportedDagError):
            suu_i_oblivious(tiny_chain)

    def test_every_job_reaches_threshold(self, medium_independent):
        result = suu_i_oblivious(medium_independent, PRACTICAL)
        cert = result.certificates
        assert cert["min_mass"] >= cert["mass_threshold"] - 1e-9

    def test_cycle_structure(self, medium_independent):
        result = suu_i_oblivious(medium_independent, PRACTICAL)
        assert isinstance(result.schedule, CyclicSchedule)
        assert result.schedule.prefix_length == 0
        assert result.schedule.cycle_length == result.finite_core.length

    def test_finishes_and_bounded(self, medium_independent, rng):
        result = suu_i_oblivious(medium_independent, PRACTICAL)
        est = evaluate(
            medium_independent, result.schedule, mode="mc", reps=100, seed=rng, max_steps=100_000
        )
        assert est.truncated == 0

    def test_doubling_terminates_with_hard_instance(self):
        # very small probabilities force several doublings
        p = np.full((2, 6), 0.03)
        inst = SUUInstance(p)
        result = suu_i_oblivious(inst, PRACTICAL)
        assert result.certificates["doublings"] >= 1
        assert result.certificates["min_mass"] >= PRACTICAL.obl_mass_threshold - 1e-9

    def test_paper_constants_longer_schedule(self, medium_independent):
        prac = suu_i_oblivious(medium_independent, PRACTICAL)
        paper = suu_i_oblivious(medium_independent, PAPER)
        assert paper.finite_core.length >= prac.finite_core.length

    def test_deterministic(self, medium_independent):
        a = suu_i_oblivious(medium_independent, PRACTICAL)
        b = suu_i_oblivious(medium_independent, PRACTICAL)
        assert a.finite_core == b.finite_core


class TestSUUILP:
    def test_requires_independent(self, tiny_chain):
        with pytest.raises(UnsupportedDagError):
            suu_i_lp(tiny_chain)

    def test_core_mass_at_least_half(self, medium_independent):
        result = suu_i_lp(medium_independent, PRACTICAL)
        assert result.certificates["min_core_mass"] >= 0.5 - 1e-9

    def test_core_feasible_by_construction(self, medium_independent):
        result = suu_i_lp(medium_independent, PRACTICAL)
        # one job per machine-step is inherent to the table representation;
        # verify the machine loads match the integral solution
        core = result.finite_core
        assert core.length == result.certificates["core_length"]

    def test_finishes(self, medium_independent, rng):
        result = suu_i_lp(medium_independent, PRACTICAL)
        est = evaluate(
            medium_independent, result.schedule, mode="mc", reps=100, seed=rng, max_steps=100_000
        )
        assert est.truncated == 0

    def test_lp_value_recorded(self, medium_independent):
        result = suu_i_lp(medium_independent, PRACTICAL)
        assert result.certificates["lp_value"] > 0

    def test_sigma_scales_with_n(self):
        p_small = probability_matrix(4, 4, rng=0)
        p_large = probability_matrix(4, 64, rng=0)
        r_small = suu_i_lp(SUUInstance(p_small), PRACTICAL)
        r_large = suu_i_lp(SUUInstance(p_large), PRACTICAL)
        assert r_large.certificates["sigma"] >= r_small.certificates["sigma"]
