"""Shard-invariance and statistical-equivalence tests for the parallel backend.

The backend's contract (docs/architecture.md):

* **worker-count invariance** — the same ``sim_seed`` produces *identical*
  merged mean/std_err for a serial run and a process pool of the
  experiment runner;
* **statistical equivalence** — a spec's sharded estimate samples the same
  makespan distribution as the single-stream engines behind
  ``evaluate(mode="mc")`` (checked with the same 4-sigma two-estimator
  criterion the batched engine uses);
* **censoring survives the merge** — shards only count censored
  replications, and the runner warns once per spec with the merged count.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import CensoredEstimateWarning
from repro.evaluate import evaluate
from repro.experiments import ExperimentSpec, run_experiment
from repro.parallel import make_shard_plan


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="parallel-test",
        generator="random",
        generator_params={"n": 12, "m": 4, "dag_kind": "independent"},
        instance_seed=3,
        reps=600,
        max_steps=100_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _single_stream(spec: ExperimentSpec, seed: int):
    """The spec's schedule through in-process ``evaluate(mode="mc")``."""
    instance = spec.build_instance()
    schedule = spec.build_schedule(instance).schedule
    return evaluate(
        instance, schedule, mode="mc", reps=spec.reps, seed=seed, max_steps=spec.max_steps
    )


def _censored(record) -> list:
    return [w for w in record if issubclass(w.category, CensoredEstimateWarning)]


class TestWorkerCountInvariance:
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


class TestStatisticalEquivalence:
    @staticmethod
    def _assert_within_4_sigma(spec: ExperimentSpec, engine: str) -> None:
        sharded = run_experiment(spec, cache_dir=None)
        single = _single_stream(spec, seed=101)
        assert sharded.engine_used == single.engine_used == engine
        # Two independent estimators of the same mean: the gap is normal
        # with s.e. = hypot(se1, se2); 4 sigma keeps the seeded test stable.
        gap_se = float(np.hypot(single.std_err, sharded.std_err))
        assert abs(single.makespan - sharded.mean) <= 4.0 * gap_se

    def test_sharded_matches_single_stream_adaptive(self):
        self._assert_within_4_sigma(_spec(algorithm="adaptive", sim_seed=202), "batched")

    def test_sharded_matches_single_stream_cyclic(self):
        spec = _spec(algorithm="round_robin", sim_seed=202)
        self._assert_within_4_sigma(spec, "oblivious-lockstep")


class TestCensoringAndErrors:
    def test_truncation_counts_merge_and_warn_once(self):
        spec = _spec(
            generator_params={"n": 2, "m": 1, "lo": 0.02, "hi": 0.02},
            algorithm="serial",
            reps=100,  # 4 shards of 25
            max_steps=3,
            sim_seed=0,
        )
        with pytest.warns(CensoredEstimateWarning) as record:
            result = run_experiment(spec, cache_dir=None)
        assert result.truncated == 100
        assert result.mean == 3.0
        # One merged warning, not one per shard.
        assert len(_censored(record)) == 1

    def test_single_shard_truncation_warns_with_merged_count(self):
        """Censoring on only one shard must still surface after the merge.

        Workers only count censored replications, so if the merge lost a
        shard's count, a run whose censored replications all fall in one
        shard would come back silently biased.  Seed 9 splits 50 reps into
        2 shards where (verified below) only the second shard truncates.
        """
        spec = _spec(
            generator_params={"n": 1, "m": 1, "lo": 0.45, "hi": 0.45},
            algorithm="serial",
            reps=50,
            max_steps=6,
            sim_seed=9,
        )
        instance = spec.build_instance()
        schedule = spec.build_schedule(instance).schedule

        # Establish the premise: per-shard runs truncate on exactly one shard.
        per_shard = []
        for shard in make_shard_plan(spec.reps, spec.sim_seed).shards:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CensoredEstimateWarning)
                part = evaluate(
                    instance,
                    schedule,
                    mode="mc",
                    reps=shard.reps,
                    seed=shard.rng(),
                    max_steps=spec.max_steps,
                )
            per_shard.append(part.truncated)
        assert per_shard[0] == 0 and per_shard[1] > 0

        with pytest.warns(CensoredEstimateWarning) as record:
            result = run_experiment(spec, cache_dir=None)
        merged = sum(per_shard)
        assert result.truncated == merged
        censored = _censored(record)
        assert len(censored) == 1
        # The warning text reports the *merged* count, exactly as the
        # single-stream estimator would word it.
        assert f"{merged}/{spec.reps} replications were censored" in str(
            censored[0].message
        )
