"""Shard-invariance and statistical-equivalence tests for the parallel backend.

The backend's contract (ISSUE 2 / docs/architecture.md):

* **worker-count invariance** — the same ``sim_seed`` produces *identical*
  merged mean/std_err for ``workers=1``, ``workers=4``, and the serial
  executor, both through ``evaluate()`` and through the experiment
  runner;
* **statistical equivalence** — the sharded estimator samples the same
  makespan distribution as the single-stream engines (checked with the
  same 4-sigma two-estimator criterion the batched engine uses).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms import PRACTICAL, suu_i_adaptive, suu_i_oblivious
from repro.errors import (
    CensoredEstimateWarning,
    ScheduleError,
    SimulationLimitError,
)
from repro.evaluate import evaluate
from repro.experiments import ExperimentSpec, run_experiment


def _instance(n=12, m=4, lo=0.1, hi=0.8, seed=3) -> SUUInstance:
    p = np.random.default_rng(seed).uniform(lo, hi, size=(m, n))
    return SUUInstance(p, name="parallel-test")


def mc(instance, schedule, **kwargs):
    return evaluate(instance, schedule, mode="mc", **kwargs)


def _stats(est):
    return (est.makespan, est.std_err, est.min, est.max, est.truncated)


class TestWorkerCountInvariance:
    def test_estimate_identical_serial_vs_process(self):
        inst = _instance()
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        kwargs = dict(reps=200, seed=17, max_steps=100_000)
        serial = mc(inst, sched, executor="serial", **kwargs)
        proc1 = mc(inst, sched, executor="process", workers=1, **kwargs)
        proc4 = mc(inst, sched, workers=4, **kwargs)
        assert _stats(serial) == _stats(proc1) == _stats(proc4)

    def test_estimate_sharded_is_deterministic(self):
        inst = _instance()
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        a = mc(inst, sched, reps=150, seed=5, executor="serial")
        b = mc(inst, sched, reps=150, seed=5, executor="serial")
        assert _stats(a) == _stats(b)

    def test_runner_identical_serial_vs_process(self):
        spec = ExperimentSpec(
            name="invariance",
            generator="random",
            generator_params={"n": 10, "m": 3, "dag_kind": "independent"},
            instance_seed=2,
            algorithm="adaptive",
            reps=120,
            max_steps=50_000,
            sim_seed=8,
        )
        serial = run_experiment(spec, cache_dir=None)
        proc = run_experiment(spec, cache_dir=None, executor="process", workers=4)
        assert serial.engine_used == proc.engine_used == "batched"
        assert (serial.mean, serial.std_err, serial.min, serial.max) == (
            proc.mean,
            proc.std_err,
            proc.min,
            proc.max,
        )

    def test_keep_samples_concatenates_in_shard_order(self):
        inst = _instance()
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        est4 = mc(inst, sched, reps=120, seed=5, workers=4, keep_samples=True)
        est_serial = mc(inst, sched, reps=120, seed=5, executor="serial", keep_samples=True)
        assert est4.samples is not None and est_serial.samples is not None
        assert np.array_equal(est4.samples, est_serial.samples)
        assert est4.samples.size == 120


class TestStatisticalEquivalence:
    def test_sharded_matches_single_stream_adaptive(self):
        inst = _instance()
        policy = suu_i_adaptive(inst).schedule
        single = mc(inst, policy, reps=600, seed=101, max_steps=100_000)
        sharded = mc(inst, policy, reps=600, seed=202, max_steps=100_000, executor="serial")
        assert single.engine_used == sharded.engine_used == "batched"
        # Two independent estimators of the same mean: the gap is normal
        # with s.e. = hypot(se1, se2); 4 sigma keeps the seeded test stable.
        gap_se = float(np.hypot(single.std_err, sharded.std_err))
        assert abs(single.makespan - sharded.makespan) <= 4.0 * gap_se

    def test_shard_count_statistically_equivalent(self):
        # Overriding the shard count changes the stream structure but not
        # the sampled distribution.
        inst = _instance()
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        coarse = mc(inst, sched, reps=600, seed=7, executor="serial", shards=2)
        fine = mc(inst, sched, reps=600, seed=7, executor="serial", shards=12)
        gap_se = float(np.hypot(coarse.std_err, fine.std_err))
        assert abs(coarse.makespan - fine.makespan) <= 4.0 * gap_se


class TestCensoringAndErrors:
    def test_truncation_counts_merge_and_warn_once(self):
        inst = SUUInstance(np.full((1, 2), 0.02), name="hopeless")
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        with pytest.warns(CensoredEstimateWarning) as record:
            est = mc(inst, sched, reps=100, seed=0, max_steps=3, executor="serial")
        assert est.truncated == 100
        assert est.makespan == 3.0
        # One merged warning, not one per shard.
        censored = [w for w in record if issubclass(w.category, CensoredEstimateWarning)]
        assert len(censored) == 1

    def test_single_shard_truncation_warns_with_merged_count(self):
        """Censoring on only one shard must still surface after the merge.

        Workers only count censored replications, so if the merge lost a
        shard's count, a run whose censored replications all fall in one
        shard would come back silently biased.  Seed 3
        splits 40 reps into 2 shards where (verified below) only the
        second shard truncates.
        """
        import warnings

        from repro.algorithms.baselines import serial_baseline
        from repro.parallel.sharding import make_shard_plan

        inst = SUUInstance(np.array([[0.45]]), name="one-slow-job")
        sched = serial_baseline(inst).schedule
        reps, max_steps, seed = 40, 6, 3

        # Establish the premise: per-shard runs truncate on exactly one shard.
        per_shard = []
        for shard in make_shard_plan(reps, seed, n_shards=2).shards:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CensoredEstimateWarning)
                part = mc(inst, sched, reps=shard.reps, seed=shard.rng(), max_steps=max_steps)
            per_shard.append(part.truncated)
        assert per_shard[0] == 0 and per_shard[1] > 0

        with pytest.warns(CensoredEstimateWarning) as record:
            est = mc(
                inst,
                sched,
                reps=reps,
                seed=seed,
                max_steps=max_steps,
                executor="serial",
                shards=2,
            )
        merged = sum(per_shard)
        assert est.truncated == merged
        censored = [w for w in record if issubclass(w.category, CensoredEstimateWarning)]
        assert len(censored) == 1
        # The warning text reports the *merged* count, exactly as the
        # serial (unsharded) estimator would word it.
        assert f"{merged}/{reps} replications were censored" in str(censored[0].message)

    def test_require_finished_raises_after_merge(self):
        inst = SUUInstance(np.full((1, 2), 0.02), name="hopeless")
        sched = suu_i_oblivious(inst, PRACTICAL).schedule
        with pytest.raises(SimulationLimitError):
            mc(
                inst,
                sched,
                reps=50,
                seed=0,
                max_steps=3,
                executor="serial",
                require_finished=True,
            )

    def test_unpicklable_schedule_rejected_with_guidance(self):
        inst = _instance(n=6, m=2)
        policy = suu_i_adaptive(inst).schedule  # closure-based rule
        with pytest.raises(ScheduleError, match="ExperimentSpec"):
            mc(inst, policy, reps=60, seed=0, workers=2)

    def test_unpicklable_schedule_fine_on_serial_executor(self):
        inst = _instance(n=6, m=2)
        policy = suu_i_adaptive(inst).schedule
        est = mc(inst, policy, reps=60, seed=0, executor="serial")
        assert est.n_reps == 60 and est.engine_used == "batched"
