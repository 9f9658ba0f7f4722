"""Tests for the baseline schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms import (
    exact_baseline,
    greedy_prob_policy,
    random_policy,
    round_robin_baseline,
    serial_baseline,
)
from repro.algorithms.baselines import state_round_robin_regimen
from repro.core.schedule import IDLE
from repro.evaluate import evaluate
from repro.opt import optimal_expected_makespan
from repro.sim import simulate
from repro.sim.engine import eligible_mask
from repro.workloads import random_instance


class TestSerial:
    def test_finishes_chain(self, tiny_chain, rng):
        result = serial_baseline(tiny_chain)
        res = simulate(tiny_chain, result.schedule, rng=rng, max_steps=50_000)
        assert res.finished

    def test_expected_value_single_job(self):
        inst = SUUInstance(np.array([[0.5], [0.5]]))
        result = serial_baseline(inst)
        # all machines on the one job: E = 1/(1-0.25) = 4/3
        exact = evaluate(inst, result.schedule, mode="exact").makespan
        assert exact == pytest.approx(1 / 0.75)

    def test_never_violates_precedence(self, tiny_tree, rng):
        result = serial_baseline(tiny_tree)
        for rep in range(5):
            res = simulate(tiny_tree, result.schedule, rng=rep, max_steps=50_000)
            assert res.finished
            for (u, v) in tiny_tree.dag.edges:
                assert res.completion[u] < res.completion[v]


class TestRoundRobin:
    def test_cycle_length_n(self, medium_independent):
        result = round_robin_baseline(medium_independent)
        assert result.schedule.cycle_length == medium_independent.n

    def test_every_pair_appears(self, tiny_independent):
        result = round_robin_baseline(tiny_independent)
        table = result.schedule.cycle.table
        for i in range(tiny_independent.m):
            assert sorted(set(table[:, i].tolist())) == [0, 1, 2]

    def test_finishes(self, tiny_chain, rng):
        result = round_robin_baseline(tiny_chain)
        res = simulate(tiny_chain, result.schedule, rng=rng, max_steps=50_000)
        assert res.finished


class TestGreedyAndRandom:
    def test_greedy_is_deterministic(self, medium_independent, rng):
        policy = greedy_prob_policy(medium_independent).schedule
        a1 = policy.assignment_for(
            medium_independent, frozenset(range(5)), frozenset(range(5)), 0, rng
        )
        a2 = policy.assignment_for(
            medium_independent, frozenset(range(5)), frozenset(range(5)), 0, rng
        )
        assert a1.tolist() == a2.tolist()

    def test_greedy_picks_argmax(self, tiny_independent, rng):
        policy = greedy_prob_policy(tiny_independent).schedule
        a = policy.assignment_for(
            tiny_independent, frozenset({0, 1, 2}), frozenset({0, 1, 2}), 0, rng
        )
        # machine 0's best job is 0 (p=0.9), machine 1's is 1 (0.8),
        # machine 2's is 2 (0.7)
        assert a.tolist() == [0, 1, 2]

    def test_random_assigns_eligible_only(self, tiny_chain, rng):
        policy = random_policy(tiny_chain).schedule
        a = policy.assignment_for(
            tiny_chain, frozenset({0, 1, 2}), frozenset({0}), 0, rng
        )
        assert set(int(j) for j in a if j >= 0) <= {0}

    def test_both_finish(self, tiny_tree, rng):
        for factory in (greedy_prob_policy, random_policy):
            result = factory(tiny_tree)
            est = evaluate(
                tiny_tree, result.schedule, mode="mc", reps=30, seed=rng, max_steps=50_000
            )
            assert est.truncated == 0


class TestExactBaseline:
    def test_matches_dp_value(self, tiny_independent):
        result = exact_baseline(tiny_independent)
        assert result.certificates["expected_makespan"] == pytest.approx(
            optimal_expected_makespan(tiny_independent)
        )

    def test_beats_other_baselines(self, tiny_independent, rng):
        exact = exact_baseline(tiny_independent)
        topt = exact.certificates["expected_makespan"]
        for baseline in (
            serial_baseline,
            round_robin_baseline,
            greedy_prob_policy,
            random_policy,
        ):
            result = baseline(tiny_independent)
            est = evaluate(
                tiny_independent, result.schedule, mode="mc", reps=800, seed=rng, max_steps=50_000
            )
            assert est.makespan >= topt - 3 * est.std_err - 0.05, result.algorithm


class TestMSMEligible:
    def test_restricts_to_eligible(self, tiny_chain, rng):
        from repro.algorithms import msm_eligible_policy

        policy = msm_eligible_policy(tiny_chain).schedule
        a = policy.assignment_for(
            tiny_chain, frozenset({0, 1, 2}), frozenset({0}), 0, rng
        )
        assert set(int(j) for j in a if j >= 0) <= {0}

    def test_never_livelocks_on_chains(self, tiny_chain, rng):
        from repro.algorithms import msm_eligible_policy
        from repro.sim import simulate

        policy = msm_eligible_policy(tiny_chain).schedule
        res = simulate(tiny_chain, policy, rng=rng, max_steps=50_000)
        assert res.finished

    def test_matches_suu_i_alg_on_independent(self, tiny_independent, rng):
        from repro.algorithms import msm_eligible_policy, suu_i_adaptive

        a = msm_eligible_policy(tiny_independent).schedule.assignment_for(
            tiny_independent, frozenset({0, 1, 2}), frozenset({0, 1, 2}), 0, rng
        )
        b = suu_i_adaptive(tiny_independent).schedule.assignment_for(
            tiny_independent, frozenset({0, 1, 2}), frozenset({0, 1, 2}), 0, rng
        )
        assert a.tolist() == b.tolist()


class TestStateRoundRobin:
    def test_sparse_probabilities_still_make_progress(self):
        # Round-robin over every eligible job put all machines of state
        # {0, 1, 3} on jobs they cannot complete: exact evaluation raised
        # "makes no progress".
        inst = random_instance(10, 8, "independent", "sparse", rng=2)
        regimen = state_round_robin_regimen(inst).schedule
        sparse = evaluate(inst, regimen, mode="exact")
        scalar = evaluate(inst, regimen, mode="exact", engine="scalar")
        assert (sparse.engine, scalar.engine) == ("markov-sparse", "markov-scalar")
        assert np.isfinite(sparse.makespan)
        assert sparse.makespan == scalar.makespan

    @pytest.mark.parametrize("kind", ["independent", "out_tree", "layered"])
    def test_each_machine_cycles_the_eligible_jobs_it_serves(self, kind):
        inst = random_instance(9, 5, kind, "sparse", rng=4)
        regimen = state_round_robin_regimen(inst).schedule
        for state, row in zip(regimen.states.tolist(), regimen.rows.tolist()):
            unfinished = np.array([(state >> j) & 1 for j in range(inst.n)], dtype=bool)
            open_jobs = np.flatnonzero(eligible_mask(inst, ~unfinished) & unfinished)
            for i, job in enumerate(row):
                served = [j for j in open_jobs.tolist() if inst.p[i, j] > 0.0]
                assert job == (served[i % len(served)] if served else IDLE)
