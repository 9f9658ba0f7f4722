"""The 1-based completion-step convention, pinned across every engine.

A job that finishes in the very first simulated step has completion step
1 — in ``ExecutionResult.completion``, in every estimator path's makespan
samples, in ``completion_curve`` (whose first entry is ``Pr[done by step
1]``), and in the exact Markov oracles.  A deterministic 1-job/1-machine
instance with p = 1 makes any off-by-one an exact, non-statistical
failure.
"""

from __future__ import annotations

import numpy as np

from repro import (
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    Regimen,
    SUUInstance,
)
from repro.evaluate import evaluate
from repro.experiments import ExperimentSpec, run_experiment
from repro.sim import simulate
from repro.sim.batch import simulate_batch


def certain_instance() -> SUUInstance:
    return SUUInstance(np.array([[1.0]]), name="one-certain-job")


def one_job_cycle() -> CyclicSchedule:
    return CyclicSchedule(
        ObliviousSchedule.empty(1),
        ObliviousSchedule(np.zeros((1, 1), dtype=np.int32)),
    )


def one_job_policy() -> AdaptivePolicy:
    def rule(inst, unfinished, eligible, t, rng):
        return np.zeros(1, dtype=np.int32)

    return AdaptivePolicy(rule, name="one-job", stationary=True, randomized=False)


def one_job_regimen() -> Regimen:
    return Regimen(1, 1, {1: np.zeros(1, dtype=np.int32)})


class TestOneBasedConvention:
    def test_scalar_engine_completion_is_step_one(self):
        res = simulate(certain_instance(), one_job_cycle(), rng=0)
        assert res.finished
        assert res.completion.tolist() == [1]
        assert res.makespan == 1
        assert res.steps_executed == 1

    def test_scalar_engine_adaptive_completion_is_step_one(self):
        res = simulate(certain_instance(), one_job_policy(), rng=0)
        assert res.completion.tolist() == [1]
        assert res.makespan == 1

    def test_batched_engine_makespan_is_step_one(self):
        batch = simulate_batch(certain_instance(), one_job_policy(), reps=16, rng=0)
        assert batch.makespans.tolist() == [1] * 16
        assert batch.truncated == 0
        assert batch.steps_executed == 1

    def test_every_estimator_route_reports_one(self):
        inst = certain_instance()
        routes = [
            (one_job_cycle(), {}),  # oblivious lockstep
            (one_job_cycle(), {"engine": "scalar"}),
            (one_job_policy(), {}),  # auto → batched
            (one_job_policy(), {"engine": "scalar"}),
            (one_job_regimen(), {}),  # auto → batched
        ]
        for schedule, kwargs in routes:
            est = evaluate(inst, schedule, mode="mc", reps=20, seed=0, keep_samples=True, **kwargs)
            assert est.samples is not None
            assert est.samples.tolist() == [1] * 20, kwargs
            assert est.makespan == 1.0
            assert est.min == est.max == 1.0
        # The experiment runner's sharded process route (2 shards of 25).
        spec = ExperimentSpec(
            name="one-certain-job",
            generator_params={"n": 1, "m": 1, "lo": 1.0, "hi": 1.0},
            algorithm="serial",
            reps=50,
        )
        res = run_experiment(spec, cache_dir=None, workers=2)
        assert res.min == res.max == res.mean == 1.0

    def test_completion_curve_first_entry_is_step_one(self):
        # curve[0] is Pr[all done by step 1] — not a phantom "step 0".
        curve = evaluate(
            certain_instance(),
            one_job_cycle(),
            mode="mc",
            metrics="completion_curve",
            horizon=4,
            reps=20,
            seed=0,
        ).completion_curve
        assert curve.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_exact_oracles_agree(self):
        inst = certain_instance()
        assert evaluate(inst, one_job_cycle(), mode="exact").makespan == 1.0
        assert evaluate(inst, one_job_regimen(), mode="exact").makespan == 1.0

    def test_two_step_chain_counts_from_one(self):
        # Chain 0 → 1 with certain completions: job 0 at step 1, job 1 at
        # step 2 (eligibility unlocks only on the *next* step).
        from repro import PrecedenceDAG

        inst = SUUInstance(
            np.array([[1.0, 1.0]]), PrecedenceDAG(2, [(0, 1)]), name="chain-2"
        )

        def rule(instance, unfinished, eligible, t, rng):
            return np.array([min(eligible)], dtype=np.int32)

        policy = AdaptivePolicy(rule, name="first", stationary=True, randomized=False)
        res = simulate(inst, policy, rng=0)
        assert res.completion.tolist() == [1, 2]
        assert res.makespan == 2
        batch = simulate_batch(inst, policy, reps=8, rng=0)
        assert batch.makespans.tolist() == [2] * 8
