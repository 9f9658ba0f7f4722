"""Monte Carlo estimation correctness, through ``evaluate(mode="mc")``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule, PrecedenceDAG, SUUInstance
from repro.errors import CensoredEstimateWarning, SimulationLimitError
from repro.evaluate import evaluate
from repro.sim.montecarlo import mean_std_err


def geometric_instance(p=0.5):
    return SUUInstance(np.array([[p]]))


def mc(instance, schedule, **kwargs):
    return evaluate(instance, schedule, mode="mc", **kwargs)


def mc_curve(instance, schedule, horizon, **kwargs):
    return mc(instance, schedule, metrics="completion_curve", horizon=horizon, **kwargs).completion_curve


def single_job_cycle(m=1):
    return CyclicSchedule(
        ObliviousSchedule.empty(m), ObliviousSchedule(np.zeros((1, m), dtype=np.int32))
    )


class TestAgainstClosedForms:
    def test_geometric_mean(self):
        # single job, single machine, p=0.5 => E[makespan] = 2
        inst = geometric_instance(0.5)
        est = mc(inst, single_job_cycle(), reps=4000, seed=0)
        assert est.makespan == pytest.approx(2.0, abs=0.12)

    def test_certain_completion(self):
        inst = geometric_instance(1.0)
        est = mc(inst, single_job_cycle(), reps=50, seed=0)
        assert est.makespan == 1.0
        assert est.std_err == 0.0

    def test_matches_exact_markov(self, tiny_independent, rng):
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(3),
            ObliviousSchedule(np.array([[0, 1, 2], [1, 2, 0]])),
        )
        exact = evaluate(tiny_independent, cyc, mode="exact").makespan
        est = mc(tiny_independent, cyc, reps=4000, seed=rng)
        lo, hi = est.ci95
        # widen the CI slightly: 95% interval fails 1 in 20 seeds otherwise
        slack = 3 * est.std_err
        assert lo - slack <= exact <= hi + slack

    def test_matches_exact_markov_with_chain(self, tiny_chain, rng):
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(2),
            ObliviousSchedule(np.array([[0, 1], [1, 2], [2, 0]])),
        )
        exact = evaluate(tiny_chain, cyc, mode="exact").makespan
        est = mc(tiny_chain, cyc, reps=4000, seed=rng)
        assert est.makespan == pytest.approx(exact, rel=0.08)


class TestVectorizedVsScalarPath:
    def test_adaptive_routes_to_batched_engine(self, tiny_independent, rng):
        from repro.algorithms import suu_i_adaptive

        policy = suu_i_adaptive(tiny_independent).schedule
        est = mc(tiny_independent, policy, reps=50, seed=rng, max_steps=5000)
        assert est.truncated == 0
        assert est.makespan > 0

    def test_precedence_respected_in_vectorized_path(self):
        # chain 0 -> 1 with p = 1: schedule assigns both every step; job 1
        # can only finish the step *after* job 0.
        dag = PrecedenceDAG(2, [(0, 1)])
        inst = SUUInstance(np.ones((2, 2)), dag)
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(2),
            ObliviousSchedule(np.array([[0, 1]])),
        )
        est = mc(inst, cyc, reps=50, seed=0)
        assert est.makespan == 2.0

    def test_finite_oblivious_truncation_counted_and_warned(self):
        inst = geometric_instance(0.3)
        sched = ObliviousSchedule(np.zeros((2, 1), dtype=np.int32))  # only 2 tries
        with pytest.warns(CensoredEstimateWarning, match="lower bound"):
            est = mc(inst, sched, reps=500, seed=1, max_steps=100)
        assert est.truncated > 0

    def test_batched_truncation_warned(self, tiny_independent):
        from repro.algorithms import suu_i_adaptive

        policy = suu_i_adaptive(tiny_independent).schedule
        with pytest.warns(CensoredEstimateWarning):
            est = mc(tiny_independent, policy, reps=200, seed=3, max_steps=1)
        assert est.truncated > 0

    def test_no_warning_when_all_finish(self, tiny_independent, recwarn):
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(3),
            ObliviousSchedule(np.array([[0, 1, 2]])),
        )
        mc(tiny_independent, cyc, reps=50, seed=0)
        assert not [w for w in recwarn.list if issubclass(w.category, CensoredEstimateWarning)]

    def test_require_finished_raises(self):
        inst = geometric_instance(0.3)
        sched = ObliviousSchedule(np.zeros((1, 1), dtype=np.int32))
        with pytest.raises(SimulationLimitError):
            mc(inst, sched, reps=200, seed=1, max_steps=100, require_finished=True)

    def test_keep_samples(self):
        inst = geometric_instance(0.9)
        est = mc(inst, single_job_cycle(), reps=64, seed=2, keep_samples=True)
        assert est.samples is not None and est.samples.shape == (64,)
        assert est.min <= est.makespan <= est.max

    def test_reps_validated(self, tiny_independent):
        with pytest.raises(ValueError):
            mc(tiny_independent, single_job_cycle(3), reps=0)

    def test_scalar_engine_still_validates_schedule(self, tiny_independent):
        from repro.errors import ScheduleError

        bad = ObliviousSchedule(np.array([[7, 7, 7]]))  # job id beyond instance
        with pytest.raises(ScheduleError):
            mc(tiny_independent, bad, reps=5, seed=0, engine="scalar")

    def test_seeded_determinism(self, tiny_independent):
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(3),
            ObliviousSchedule(np.array([[0, 1, 2]])),
        )
        e1 = mc(tiny_independent, cyc, reps=100, seed=9)
        e2 = mc(tiny_independent, cyc, reps=100, seed=9)
        assert e1.makespan == e2.makespan


class TestCompletionCurve:
    def test_monotone_and_bounded(self):
        inst = geometric_instance(0.6)
        curve = mc_curve(inst, single_job_cycle(), 30, reps=300, seed=3)
        assert curve.shape == (30,)
        assert np.all(np.diff(curve) >= 0)
        assert 0.0 <= curve[0] <= 1.0
        assert curve[-1] > 0.9

    def test_certain_instance_hits_one_immediately(self):
        inst = geometric_instance(1.0)
        curve = mc_curve(inst, single_job_cycle(), 5, reps=50, seed=4)
        assert curve[0] == 1.0

    def test_max_steps_below_one_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            mc_curve(geometric_instance(0.5), single_job_cycle(), 0)

    def test_censored_runs_do_not_count_as_completed(self):
        """Regression (corpus: curve-censored-tail).

        Censored replications are recorded at ``max_steps``; the curve's
        final point must report the *finished* fraction, not jump to 1.0
        as if the budget-capped runs had completed there.
        """
        inst = geometric_instance(0.5)
        reps, max_steps = 400, 4
        with pytest.warns(CensoredEstimateWarning):
            curve = mc_curve(inst, single_job_cycle(), max_steps, reps=reps, seed=11)
        with pytest.warns(CensoredEstimateWarning):
            est = mc(
                inst,
                single_job_cycle(),
                reps=reps,
                seed=11,
                max_steps=max_steps,
                keep_samples=True,
            )
        assert est.truncated > 0
        assert curve[-1] == pytest.approx((reps - est.truncated) / reps)
        # Interior points agree with the raw samples.
        for t in range(1, max_steps):
            assert curve[t - 1] == pytest.approx(float((est.samples <= t).mean()))


class TestMeanStdErr:
    def test_matches_the_float64_formula_bitwise(self):
        samples = np.random.default_rng(4).integers(1, 60, size=257)
        values = samples.astype(np.float64)
        expected = (float(values.mean()), float(values.std(ddof=1) / np.sqrt(257)))
        assert mean_std_err(samples) == expected

    def test_single_sample_has_zero_std_err(self):
        assert mean_std_err(np.array([7])) == (7.0, 0.0)
