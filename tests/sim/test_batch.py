"""Tests for repro.sim.batch — the lockstep engine for adaptive policies.

The two load-bearing guarantees:

* **statistical equivalence** — the batched engine samples the same
  makespan distribution as the scalar reference engine (checked against
  the scalar engine's CI and against exact Markov values);
* **memoization transparency** — frontier-state memoization never changes
  results: same seed, memo on vs. off, bitwise-identical makespans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AdaptivePolicy, CyclicSchedule, ObliviousSchedule, SUUInstance
from repro.algorithms import (
    greedy_prob_policy,
    msm_eligible_policy,
    random_policy,
    suu_i_adaptive,
)
from repro.errors import ScheduleError
from repro.evaluate import evaluate
from repro.sim import simulate_batch
from repro.sim.batch import batchable


def _flaky_instance(n=12, m=4, lo=0.05, hi=0.4, seed=3):
    p = np.random.default_rng(seed).uniform(lo, hi, size=(m, n))
    return SUUInstance(p, name="batch-test")


class TestBatchable:
    def test_deterministic_policy_batchable(self, tiny_independent):
        assert batchable(suu_i_adaptive(tiny_independent).schedule)
        assert batchable(greedy_prob_policy(tiny_independent).schedule)

    def test_randomized_policy_not_batchable(self, tiny_independent):
        assert not batchable(random_policy(tiny_independent).schedule)

    def test_unflagged_policy_defaults_to_scalar_safety(self):
        # A policy constructed without flags gets the conservative defaults
        # (stationary=False, randomized=True) and must NOT be batched: the
        # engine cannot know whether the rule depends on t or consumes rng.
        policy = AdaptivePolicy(lambda i, u, e, t, r: np.full(i.m, -1, dtype=np.int32))
        assert policy.randomized and not policy.stationary
        assert not batchable(policy)

    def test_regimen_batchable(self, tiny_independent):
        from repro.opt import optimal_regimen

        assert batchable(optimal_regimen(tiny_independent).regimen)

    def test_oblivious_not_batchable(self):
        assert not batchable(ObliviousSchedule(np.array([[0, 1]])))


class TestRejections:
    def test_oblivious_rejected(self, tiny_independent):
        sched = CyclicSchedule(
            ObliviousSchedule.empty(3), ObliviousSchedule(np.array([[0, 1, 2]]))
        )
        with pytest.raises(ScheduleError):
            simulate_batch(tiny_independent, sched, reps=4, rng=0)

    def test_randomized_policy_rejected(self, tiny_independent):
        with pytest.raises(ScheduleError):
            simulate_batch(
                tiny_independent, random_policy(tiny_independent).schedule, reps=4, rng=0
            )

    def test_reps_validated(self, tiny_independent):
        policy = suu_i_adaptive(tiny_independent).schedule
        with pytest.raises(ValueError):
            simulate_batch(tiny_independent, policy, reps=0, rng=0)


class TestSemantics:
    def test_certain_instance_deterministic(self):
        # p = 1 everywhere: greedy gangs both machines on the lowest
        # eligible job id each step, finishing exactly one job per step.
        inst = SUUInstance(np.ones((2, 4)), name="certain")
        res = simulate_batch(inst, greedy_prob_policy(inst).schedule, reps=16, rng=0)
        assert res.finished.all()
        assert res.truncated == 0
        assert (res.makespans == 4).all()

    def test_censoring_at_budget(self):
        inst = SUUInstance(np.full((1, 1), 0.05))

        def idle_rule(inst_, unfinished, eligible, t, rng_):
            return np.full(inst_.m, -1, dtype=np.int32)

        policy = AdaptivePolicy(idle_rule, name="idler", stationary=True, randomized=False)
        res = simulate_batch(inst, policy, reps=8, rng=0, max_steps=10)
        assert res.truncated == 8
        assert (res.makespans == 10).all()
        assert res.steps_executed == 10

    def test_precedence_respected(self, tiny_chain):
        # Chain 0 -> 1 -> 2: completions must be ordered in every rep.
        policy = msm_eligible_policy(tiny_chain).schedule
        res = simulate_batch(tiny_chain, policy, reps=64, rng=5, max_steps=10_000)
        assert res.finished.all()
        # The makespan of a 3-chain is at least 3 steps.
        assert (res.makespans >= 3).all()

    def test_seeded_determinism(self, medium_independent):
        policy = suu_i_adaptive(medium_independent).schedule
        r1 = simulate_batch(medium_independent, policy, reps=40, rng=11)
        r2 = simulate_batch(medium_independent, policy, reps=40, rng=11)
        assert np.array_equal(r1.makespans, r2.makespans)

    def test_query_count_below_rep_steps(self):
        # The whole point: far fewer policy queries than reps x steps.
        inst = _flaky_instance()
        policy = suu_i_adaptive(inst).schedule
        res = simulate_batch(inst, policy, reps=200, rng=7)
        assert res.finished.all()
        total_rep_steps = 200 * res.steps_executed
        assert res.policy_queries < total_rep_steps / 5
        assert res.memo_entries == res.policy_queries


class TestStatisticalEquivalence:
    """Batched and scalar engines agree on the mean makespan within CI."""

    @pytest.mark.parametrize("factory", [suu_i_adaptive, greedy_prob_policy])
    def test_mean_matches_scalar_engine(self, factory):
        inst = _flaky_instance()
        policy = factory(inst).schedule
        scalar = evaluate(
            inst, policy, mode="mc", reps=600, seed=101, max_steps=100_000, engine="scalar"
        )
        batched = evaluate(
            inst, policy, mode="mc", reps=600, seed=202, max_steps=100_000, engine="batched"
        )
        # Two independent estimators of the same mean: the gap is normal
        # with s.e. = hypot(se1, se2); 4 sigma keeps the seeded test stable.
        gap_se = float(np.hypot(scalar.std_err, batched.std_err))
        assert abs(scalar.makespan - batched.makespan) <= 4.0 * gap_se

    def test_mean_matches_exact_regimen_value(self, tiny_independent):
        from repro.opt import optimal_regimen

        sol = optimal_regimen(tiny_independent)
        exact = evaluate(tiny_independent, sol.regimen, mode="exact").makespan
        est = evaluate(
            tiny_independent, sol.regimen, mode="mc", reps=4000, seed=17, engine="batched"
        )
        lo, hi = est.ci95
        slack = 3 * est.std_err
        assert lo - slack <= exact <= hi + slack

    def test_chain_instance_matches_scalar(self, small_chains_instance):
        policy = msm_eligible_policy(small_chains_instance).schedule
        scalar, batched = (
            evaluate(
                small_chains_instance,
                policy,
                mode="mc",
                reps=400,
                seed=seed,
                max_steps=100_000,
                engine=engine,
            )
            for seed, engine in ((1, "scalar"), (2, "batched"))
        )
        gap_se = float(np.hypot(scalar.std_err, batched.std_err))
        assert abs(scalar.makespan - batched.makespan) <= 4.0 * gap_se


class TestMemoizationTransparency:
    @pytest.mark.parametrize(
        "factory", [suu_i_adaptive, greedy_prob_policy, msm_eligible_policy]
    )
    def test_memo_never_changes_results(self, factory):
        inst = _flaky_instance()
        policy = factory(inst).schedule
        with_memo = simulate_batch(inst, policy, reps=80, rng=42, memoize=True)
        without = simulate_batch(inst, policy, reps=80, rng=42, memoize=False)
        assert np.array_equal(with_memo.makespans, without.makespans)
        assert np.array_equal(with_memo.finished, without.finished)
        # Memoization strictly reduces (or keeps) the query count.
        assert with_memo.policy_queries <= without.policy_queries

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_memo_invariance_property(self, n, m, seed):
        gen = np.random.default_rng(seed)
        p = gen.uniform(0.1, 0.9, size=(m, n))
        inst = SUUInstance(p)
        policy = suu_i_adaptive(inst).schedule
        a = simulate_batch(inst, policy, reps=16, rng=seed, max_steps=5_000)
        b = simulate_batch(inst, policy, reps=16, rng=seed, max_steps=5_000, memoize=False)
        assert np.array_equal(a.makespans, b.makespans)


class TestEstimatorRouting:
    def test_auto_equals_batched_for_deterministic_policy(self, medium_independent):
        policy = suu_i_adaptive(medium_independent).schedule
        auto = evaluate(medium_independent, policy, mode="mc", reps=60, seed=9)
        forced = evaluate(medium_independent, policy, mode="mc", reps=60, seed=9, engine="batched")
        assert auto.engine_used == forced.engine_used == "batched"
        assert auto.makespan == forced.makespan
        assert auto.std_err == forced.std_err

    def test_randomized_policy_takes_scalar_path(self, tiny_independent):
        policy = random_policy(tiny_independent).schedule
        auto = evaluate(tiny_independent, policy, mode="mc", reps=30, seed=9)
        forced = evaluate(tiny_independent, policy, mode="mc", reps=30, seed=9, engine="scalar")
        assert auto.engine_used == forced.engine_used == "scalar"
        assert auto.makespan == forced.makespan

    def test_unknown_engine_rejected(self, tiny_independent):
        policy = suu_i_adaptive(tiny_independent).schedule
        with pytest.raises(ValueError):
            evaluate(tiny_independent, policy, mode="mc", reps=10, seed=0, engine="warp")
