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

from repro import AdaptivePolicy, CyclicSchedule, ObliviousSchedule, SUUInstance, obs
from repro.algorithms import (
    greedy_prob_policy,
    msm_eligible_policy,
    online_greedy,
    random_policy,
    suu_i_adaptive,
)
from repro.algorithms.baselines import state_round_robin_regimen
from repro.algorithms.msm import MSMGreedy
from repro.core.mass import assignment_success_prob
from repro.errors import ScheduleError, ValidationError
from repro.evaluate import evaluate
from repro.sim import simulate_batch
from repro.sim.batch import batchable, frontier_eligible, frontier_success_prob
from repro.sim.engine import effective_assignment, eligible_mask
from repro.workloads import DAG_KINDS, random_instance


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

    def test_regimen_of_another_size_rejected(self, tiny_independent):
        other = SUUInstance(np.full((3, 4), 0.5))
        regimen = state_round_robin_regimen(other).schedule
        with pytest.raises(ScheduleError, match="regimen is for n=4"):
            simulate_batch(tiny_independent, regimen, reps=4, rng=0)

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
        batched = evaluate(inst, policy, mode="mc", reps=600, seed=202, max_steps=100_000)
        assert batched.engine == "batched"
        # Two independent estimators of the same mean: the gap is normal
        # with s.e. = hypot(se1, se2); 4 sigma keeps the seeded test stable.
        gap_se = float(np.hypot(scalar.std_err, batched.std_err))
        assert abs(scalar.makespan - batched.makespan) <= 4.0 * gap_se

    def test_mean_matches_exact_regimen_value(self, tiny_independent):
        from repro.opt import optimal_regimen

        sol = optimal_regimen(tiny_independent)
        exact = evaluate(tiny_independent, sol.regimen, mode="exact").makespan
        est = evaluate(tiny_independent, sol.regimen, mode="mc", reps=4000, seed=17)
        assert est.engine == "batched"
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
            for seed, engine in ((1, "scalar"), (2, "auto"))
        )
        assert batched.engine == "batched"
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
        auto = evaluate(
            medium_independent, policy, mode="mc", reps=60, seed=9, keep_samples=True
        )
        direct = simulate_batch(medium_independent, policy, reps=60, rng=9)
        assert auto.engine_used == "batched"
        assert np.array_equal(auto.samples, direct.makespans)

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


def _per_state_suu_i(inst: SUUInstance) -> AdaptivePolicy:
    """SUU-I-ALG as a per-state rule: one ``MSMGreedy.assign`` per state."""
    greedy = MSMGreedy(inst.p)
    return AdaptivePolicy(
        lambda i, unfinished, e, t, r: greedy.assign(unfinished),
        name="suu-i-per-state",
        stationary=True,
        randomized=False,
    )


class TestRuleCalls:
    def test_frontier_rule_matches_its_per_state_rule(self):
        inst = _flaky_instance()
        frontier = simulate_batch(inst, suu_i_adaptive(inst).schedule, reps=120, rng=3)
        per_state = simulate_batch(inst, _per_state_suu_i(inst), reps=120, rng=3)
        assert np.array_equal(frontier.makespans, per_state.makespans)
        assert frontier.policy_queries == per_state.policy_queries
        # One call per step that meets new states, against one per state.
        assert per_state.rule_calls == per_state.policy_queries
        assert frontier.rule_calls <= frontier.steps_executed < frontier.policy_queries

    @pytest.mark.parametrize("factory", [msm_eligible_policy, online_greedy])
    def test_counters_flush_rule_calls_beside_queries(self, factory):
        inst = random_instance(12, 4, "out_tree", rng=10)
        with obs.capture() as tel:
            res = simulate_batch(inst, factory(inst).schedule, reps=50, rng=1)
        assert tel.counters["batch.rule_calls"] == res.rule_calls
        assert tel.counters["batch.policy_queries"] == res.policy_queries
        per_state = factory is online_greedy
        assert (res.rule_calls == res.policy_queries) == per_state


def _bad_answers():
    """``(policy, message)`` pairs: rules whose answers fail validation.

    The out-of-range answers appear only once a job has finished, so they
    sit inside multi-row blocks, not in the first step's single state.
    """

    def per_state(rule):
        return AdaptivePolicy(rule, stationary=True, randomized=False)

    def frontier(rule):
        return AdaptivePolicy(stationary=True, randomized=False, frontier_rule=rule)

    def late(unfinished, n):
        return np.where(unfinished.all(axis=-1, keepdims=True), 0, n)

    shape, entries = "assignment must have shape", "IDLE or a job id"
    return [
        pytest.param(
            per_state(lambda i, u, e, t, r: np.zeros(i.m + 1, dtype=np.int32)),
            shape,
            id="per-state-shape",
        ),
        pytest.param(
            per_state(lambda i, u, e, t, r: np.full(i.m, 0 if len(u) == i.n else i.n)),
            entries,
            id="per-state-job",
        ),
        pytest.param(
            frontier(lambda i, u, e, t: np.zeros((len(u), i.m + 1), dtype=np.int32)),
            shape,
            id="frontier-shape",
        ),
        pytest.param(
            frontier(lambda i, u, e, t: np.broadcast_to(late(u, i.n), (len(u), i.m))),
            entries,
            id="frontier-job",
        ),
        pytest.param(
            frontier(lambda i, u, e, t: np.zeros((len(u) + 1, i.m), dtype=np.int32)),
            shape,
            id="frontier-rows",
        ),
    ]


class TestRuleValidation:
    """A bad answer raises ``validate_assignment``'s error on either path."""

    @pytest.mark.parametrize("policy, message", _bad_answers())
    def test_bad_answers_raise_through_evaluate(self, policy, message):
        inst = _flaky_instance()
        assert batchable(policy)
        with pytest.raises(ValidationError, match=message):
            evaluate(inst, policy, mode="mc", reps=40, seed=0)


def _certain_and_impossible(inst: SUUInstance, seed: int) -> SUUInstance:
    """``inst`` with some ``p == 1`` and some ``p == 0`` entries planted.

    Machine 0 is certain on every third job; machine 1 (when there is a
    second machine) is useless on every other job, which keeps every job
    with a positive machine.
    """
    p = inst.p.copy()
    p[0, seed % 3 :: 3] = 1.0
    if inst.m > 1:
        p[1, ::2] = 0.0
        p[0, ::2] = np.maximum(p[0, ::2], 0.05)
    return SUUInstance(p, inst.dag)


class TestFrontierStepParity:
    """Each row of the vectorized step is bitwise the scalar helpers' row."""

    @pytest.mark.parametrize("kind", DAG_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_scalar_helpers(self, kind, seed):
        inst = _certain_and_impossible(random_instance(10, 6, kind, rng=seed), seed)
        gen = np.random.default_rng(seed)
        k = 128
        finished = gen.random((k, inst.n)) < gen.random((k, 1))
        finished[0], finished[1] = False, True
        # A rule that names anything: idle, finished, ineligible or open
        # jobs.  In half the states every machine piles onto one of two
        # jobs, so a job's log terms come from several machines and the
        # order they are summed in shows in the last bits.
        raw = gen.integers(-1, inst.n, size=(k, inst.m)).astype(np.int32)
        piles = gen.integers(0, inst.n, size=(k, 2))
        crowded = piles[np.arange(k)[:, None], gen.integers(0, 2, size=(k, inst.m))]
        raw[k // 2 :] = crowded[k // 2 :]
        elig = frontier_eligible(inst, finished)
        q = frontier_success_prob(inst, raw, finished, elig)
        assert q.shape == (k, inst.n)
        for s in range(k):
            mask = eligible_mask(inst, finished[s])
            assert np.array_equal(elig[s], mask)
            expected = assignment_success_prob(
                inst.p, effective_assignment(inst, raw[s], finished[s], mask)
            )
            assert q[s].tobytes() == expected.tobytes()

    def test_hand_worked_rows(self):
        p = np.array([[1.0, 0.3], [0.5, 0.0]])
        inst = SUUInstance(p)
        finished = np.zeros((2, 2), dtype=bool)
        finished[1, 1] = True
        raw = np.array([[0, 1], [1, 0]], dtype=np.int32)
        q = frontier_success_prob(inst, raw, finished, frontier_eligible(inst, finished))
        # State 0: a certain machine on job 0, a useless one on job 1.
        assert q[0].tolist() == [1.0, 0.0]
        # State 1: machine 0 names finished job 1 and idles.
        assert q[1].tolist() == [0.5, 0.0]


#: Seeded ``evaluate(mode="mc", reps=300, seed=2024)`` results, recorded
#: when the engine still queried one frontier state at a time and MSM-ALG
#: sorted its pairs on every call.  Equality is exact: the sample streams
#: are pinned, so cached results and the request/spec hash salts stay valid.
PINNED_MC = {
    "suu_i_adaptive": (6.24, 0.11316467219203166),
    "suu_i_adaptive_tied": (4.963333333333333, 0.05652484055179126),
    "msm_eligible": (6.296666666666667, 0.07319714728639258),
    "msm_eligible_tied": (5.2, 0.05486377169695912),
    "greedy_prob": (25.586666666666666, 0.752481933224353),
    "online_greedy": (6.986666666666666, 0.05172031235185377),
    "regimen": (7.97, 0.07648419951806863),
}


def _tied(kind: str, n: int, m: int, seed: int) -> SUUInstance:
    """Probabilities on the 0.1 grid (greedy ties), with ``p == 1`` entries."""
    inst = random_instance(n, m, kind, rng=seed)
    p = np.round(inst.p, 1)
    p[0, :] = np.maximum(p[0, :], 0.1)
    p[-1, ::3] = 1.0
    return SUUInstance(p, inst.dag)


def _pinned_case(name: str):
    return {
        "suu_i_adaptive": lambda: (
            suu_i_adaptive,
            random_instance(14, 5, "independent", "sparse", rng=7),
        ),
        "suu_i_adaptive_tied": lambda: (suu_i_adaptive, _tied("independent", 12, 4, 3)),
        "msm_eligible": lambda: (msm_eligible_policy, random_instance(12, 4, "layered", rng=8)),
        "msm_eligible_tied": lambda: (msm_eligible_policy, _tied("mixed_forest", 12, 4, 4)),
        "greedy_prob": lambda: (
            greedy_prob_policy,
            random_instance(12, 3, "chains", "sparse", rng=9),
        ),
        "online_greedy": lambda: (online_greedy, random_instance(12, 4, "out_tree", rng=10)),
        "regimen": lambda: (
            state_round_robin_regimen,
            random_instance(8, 3, "diamond", rng=11),
        ),
    }[name]()


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_MC))
    def test_seeded_mc_is_unchanged(self, name):
        factory, inst = _pinned_case(name)
        report = evaluate(inst, factory(inst).schedule, mode="mc", reps=300, seed=2024)
        assert report.engine_used == "batched"
        assert (report.makespan, report.std_err) == PINNED_MC[name]

    def test_precision_loop_is_unchanged(self):
        inst = random_instance(12, 4, "layered", rng=8)
        report = evaluate(
            inst, msm_eligible_policy(inst).schedule,
            mode="mc", reps=50, seed=5, rtol=0.01, budget=400,
        )
        assert (report.n_reps, report.rounds) == (400, 4)
        assert (report.makespan, report.std_err) == (6.1625, 0.06304896752338147)
