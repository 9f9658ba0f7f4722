"""Tests for repro.experiments.runner and the built-in suites."""

from __future__ import annotations

import json
import warnings

import pytest

from repro import obs
from repro.errors import CensoredEstimateWarning, ExperimentError, StaleCacheWarning
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    get_suite,
    run_experiment,
    run_suite,
    suite_names,
)
from repro.parallel import PartialEstimate, ProcessExecutor, make_shard_plan
from repro.store import SCHEMA_VERSION


def _tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny",
        generator="random",
        generator_params={"n": 6, "m": 2, "dag_kind": "independent"},
        instance_seed=3,
        algorithm="adaptive",
        reps=20,
        max_steps=20_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _write_task_entry(cache, spec, task, outcome, version=SCHEMA_VERSION):
    """Write a task outcome where the runner keeps it,
    ``<cache>/shards/<spec_hash>.<task>.json``; ``version=None`` omits the
    schema version, as a pre-versioning writer did."""
    entry = {"spec_hash": spec.spec_hash(), "task": task, "outcome": outcome}
    if version is not None:
        entry["schema_version"] = version
    path = cache / "shards" / f"{spec.spec_hash()}.{task}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry))
    return path


def _poisoned_shard(shard) -> dict:
    """A shard outcome whose every sample is 1000, so reuse shows in the merge."""
    return {
        "kind": "shard",
        "elapsed_s": 0.0,
        "shard_index": shard.index,
        "partial": PartialEstimate.from_samples([1000.0] * shard.reps).to_dict(),
        "engine_used": "batched",
        "algorithm": "poisoned",
        "certificates": {},
    }


class TestRunExperiment:
    def test_runs_without_cache(self):
        res = run_experiment(_tiny_spec(), cache_dir=None)
        assert isinstance(res, ExperimentResult)
        assert res.mean > 0
        assert res.engine_used == "batched"
        assert not res.cache_hit

    def test_cache_roundtrip(self, tmp_path):
        spec = _tiny_spec()
        first = run_experiment(spec, cache_dir=tmp_path)
        second = run_experiment(spec, cache_dir=tmp_path)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.mean == first.mean
        assert second.spec == spec
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_force_recomputes(self, tmp_path):
        spec = _tiny_spec()
        run_experiment(spec, cache_dir=tmp_path)
        forced = run_experiment(spec, cache_dir=tmp_path, force=True)
        assert not forced.cache_hit

    @pytest.mark.parametrize("damage", ["{not json", "[]", '"x"'])
    def test_corrupt_cache_entry_recomputed(self, tmp_path, damage):
        spec = _tiny_spec()
        first = run_experiment(spec, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(damage)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StaleCacheWarning)  # a quiet miss
            res = run_experiment(spec, cache_dir=tmp_path)
        assert not res.cache_hit
        assert res.mean == first.mean  # same seeds -> same numbers
        # the entry was repaired
        assert json.loads(entry.read_text())["mean"] == first.mean

    def test_renamed_spec_hit_reports_its_new_name(self, tmp_path):
        first = run_experiment(_tiny_spec(name="old-name"), cache_dir=tmp_path)
        renamed = _tiny_spec(name="new-name")
        res = run_experiment(renamed, cache_dir=tmp_path)
        assert res.cache_hit
        assert res.spec == renamed
        assert res.mean == first.mean

    def test_entry_under_another_specs_hash_recomputed(self, tmp_path):
        seven = _tiny_spec(instance_seed=7)
        eight = _tiny_spec(instance_seed=8)
        run_experiment(seven, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        misfiled = tmp_path / f"{eight.spec_hash()}.json"
        data = json.loads(entry.read_text())
        data["mean"] = -1.0  # poison: serving the misfiled entry shows here
        misfiled.write_text(json.dumps(data))
        res = run_experiment(eight, cache_dir=tmp_path)
        assert not res.cache_hit
        assert res.spec == eight
        assert res.mean == run_experiment(eight, cache_dir=None).mean

    def test_different_specs_different_entries(self, tmp_path):
        run_experiment(_tiny_spec(), cache_dir=tmp_path)
        run_experiment(_tiny_spec(sim_seed=9), cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_reference_ratio(self):
        res = run_experiment(
            _tiny_spec(compute_reference=True, exact_limit=0), cache_dir=None
        )
        assert res.reference is not None and res.reference > 0
        assert res.reference_kind == "lower_bound"
        assert res.ratio == pytest.approx(res.mean / res.reference)

    def test_certificates_jsonable(self, tmp_path):
        res = run_experiment(_tiny_spec(algorithm="lp"), cache_dir=tmp_path)
        json.dumps(res.to_dict())  # must not raise
        assert res.engine_used == "oblivious-lockstep"
        assert "guarantee" in res.certificates


class TestResultSchemaVersion:
    def test_to_dict_carries_version(self):
        res = run_experiment(_tiny_spec(), cache_dir=None)
        assert res.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_stale_cache_entry_warns_and_recomputes(self, tmp_path):
        spec = _tiny_spec()
        first = run_experiment(spec, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        data = json.loads(entry.read_text())
        data["schema_version"] = SCHEMA_VERSION - 1
        data["mean"] = -1.0  # poison: silent reuse would surface this
        entry.write_text(json.dumps(data))
        with pytest.warns(StaleCacheWarning, match="stale experiment result"):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert not res.cache_hit
        assert res.mean == first.mean
        # the entry was upgraded in place
        assert json.loads(entry.read_text())["schema_version"] == SCHEMA_VERSION


class TestParallelExecution:
    def test_process_suite_matches_serial(self, tmp_path):
        specs = [
            _tiny_spec(reps=60, sim_seed=1),
            _tiny_spec(algorithm="lp", reps=60, sim_seed=2),
            _tiny_spec(compute_reference=True, exact_limit=0, reps=60, sim_seed=3),
        ]
        serial = run_suite(specs, cache_dir=None)
        with ProcessExecutor(workers=2) as exe:
            parallel = run_suite(specs, cache_dir=None, executor=exe)
        for s, p in zip(serial, parallel):
            assert (s.mean, s.std_err, s.min, s.max, s.truncated) == (
                p.mean,
                p.std_err,
                p.min,
                p.max,
                p.truncated,
            )
            assert s.ratio == p.ratio
            assert s.engine_used == p.engine_used
            assert s.certificates == p.certificates

    def test_process_progress_called_per_spec(self, tmp_path):
        specs = [_tiny_spec(sim_seed=s) for s in (1, 2, 3)]
        seen = []
        with ProcessExecutor(workers=2) as exe:
            run_suite(
                specs,
                cache_dir=None,
                executor=exe,
                progress=lambda spec, res: seen.append(spec.sim_seed),
            )
        assert sorted(seen) == [1, 2, 3]

    def test_corrupt_reference_partial_is_a_miss(self, tmp_path):
        spec = _tiny_spec(compute_reference=True, exact_limit=0)
        # Parseable but missing reference_kind/elapsed_s: must recompute,
        # not crash.
        _write_task_entry(tmp_path, spec, "ref", {"kind": "reference", "value": 3.0})
        res = run_experiment(spec, cache_dir=tmp_path)
        assert res.reference is not None and res.reference_kind == "lower_bound"

    def test_shard_partials_cached_and_reused(self, tmp_path):
        # Replications shard at reps >= 50 (two shards of 25+).  Seed a
        # poisoned partial for shard 0 into the task cache: if the runner
        # really reuses cached partials, the poison shows up in the merge.
        spec = _tiny_spec(reps=50, sim_seed=5)
        fresh = run_experiment(spec, cache_dir=None)
        plan = make_shard_plan(spec.reps, spec.sim_seed)
        assert plan.n_shards == 2
        shard = plan.shards[0]
        path = _write_task_entry(tmp_path, spec, "s000of002", _poisoned_shard(shard))
        res = run_experiment(spec, cache_dir=tmp_path)
        assert res.mean > fresh.mean  # shard 0 came from the poisoned cache
        assert res.max == 1000.0
        # task entries are cleaned up once the spec-level entry is written
        assert not path.exists()
        # force=True ignores the task cache (file is gone anyway)
        forced = run_experiment(spec, cache_dir=tmp_path, force=True)
        assert forced.mean == fresh.mean

    def test_exact_outcome_cached_and_reused(self, tmp_path):
        # An exact task's outcome is a task entry like a shard's: a
        # poisoned one reaches the result, so an interrupted sweep keeps
        # its finished exact solves.  Telemetry is no part of an entry, so
        # a malformed one written into the file is never grafted.
        spec = _tiny_spec(algorithm="serial", evaluation={"mode": "exact"})
        fresh = run_experiment(spec, cache_dir=None)
        outcome = {"kind": "exact", "elapsed_s": 0.0, "value": 999.0, "engine_used": "markov-sparse"}
        path = _write_task_entry(
            tmp_path, spec, "exact", {**outcome, "telemetry": {"spans": [1]}}
        )
        with obs.capture() as tel:
            res = run_experiment(spec, cache_dir=tmp_path)
        assert tel.counters["experiments.task_cache.hits"] == 1
        assert res.mean == res.min == res.max == 999.0 != fresh.mean
        assert res.std_err == 0.0 and res.engine_used == "markov-sparse"
        assert not path.exists()
        # the spec-level entry was assembled from the cached outcome
        assert run_experiment(spec, cache_dir=tmp_path).mean == 999.0

    @pytest.mark.parametrize(
        "key, value", [("spec_hash", "0" * 16), ("task", "s001of003"), ("shard_index", 0)]
    )
    def test_outcome_of_another_task_is_a_miss(self, tmp_path, key, value):
        # An entry at shard 1's path that names another spec, another shard
        # plan or another shard must not be merged in shard 1's place.
        spec = _tiny_spec(reps=50, sim_seed=5)
        fresh = run_experiment(spec, cache_dir=None)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[1]
        path = _write_task_entry(tmp_path, spec, "s001of002", _poisoned_shard(shard))
        entry = json.loads(path.read_text())
        (entry["outcome"] if key == "shard_index" else entry)[key] = value
        path.write_text(json.dumps(entry))
        assert run_experiment(spec, cache_dir=tmp_path).mean == fresh.mean


class TestStalePartials:
    """Version-mismatched task entries must never be resumed.

    Regression: task entries under ``<cache>/shards/`` are schema-versioned
    like top-level results; a ``store.SCHEMA_VERSION`` bump warns with
    :class:`StaleCacheWarning` and recomputes instead of silently merging
    stale numbers into a resumed sweep.
    """

    def test_stale_shard_partial_warns_and_recomputes(self, tmp_path):
        spec = _tiny_spec(reps=50, sim_seed=5)
        fresh = run_experiment(spec, cache_dir=None)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        _write_task_entry(
            tmp_path, spec, "s000of002", _poisoned_shard(shard), SCHEMA_VERSION - 1
        )
        with pytest.warns(StaleCacheWarning, match="stale shard task"):
            res = run_experiment(spec, cache_dir=tmp_path)
        # recomputed from scratch: the poisoned partial never reached the merge
        assert res.mean == fresh.mean
        assert res.max == fresh.max != 1000.0

    def test_unversioned_shard_partial_is_stale_too(self, tmp_path):
        spec = _tiny_spec(reps=50, sim_seed=6)
        fresh = run_experiment(spec, cache_dir=None)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        _write_task_entry(tmp_path, spec, "s000of002", _poisoned_shard(shard), None)
        with pytest.warns(StaleCacheWarning, match="schema_version=None"):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert res.mean == fresh.mean

    def test_stale_reference_partial_warns_and_recomputes(self, tmp_path):
        spec = _tiny_spec(compute_reference=True, exact_limit=0)
        fresh = run_experiment(spec, cache_dir=None)
        _write_task_entry(
            tmp_path,
            spec,
            "ref",
            {
                "kind": "reference",
                "elapsed_s": 0.0,
                "value": 999.0,  # poison: silent resume would surface it
                "reference_kind": "exact",
            },
            SCHEMA_VERSION - 1,
        )
        with pytest.warns(StaleCacheWarning, match="stale reference task"):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert res.reference == fresh.reference != 999.0
        assert res.reference_kind == "lower_bound"

    def test_current_version_shard_partial_still_resumes(self, tmp_path):
        # The loud staleness path must not break legitimate resume: a
        # current-version partial is merged without warnings.
        spec = _tiny_spec(reps=50, sim_seed=7)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        _write_task_entry(tmp_path, spec, "s000of002", _poisoned_shard(shard))
        with warnings.catch_warnings():
            warnings.simplefilter("error", StaleCacheWarning)
            res = run_experiment(spec, cache_dir=tmp_path)
        assert res.max == 1000.0  # the cached partial really was reused


class TestCensoring:
    def test_censored_spec_warns_once_with_the_merged_count(self):
        """Shards only count censored replications; the runner warns once
        per spec, for the merged estimate."""
        spec = _tiny_spec(reps=100, max_steps=4)  # 4 shards of 25
        with pytest.warns(CensoredEstimateWarning) as record:
            (result,) = run_suite([spec], cache_dir=None, executor="serial")
        censored = [w for w in record if issubclass(w.category, CensoredEstimateWarning)]
        assert len(censored) == 1
        assert 0 < result.truncated < spec.reps
        assert f"{result.truncated}/{spec.reps} replications" in str(censored[0].message)


class TestRunSuite:
    def test_progress_callback(self, tmp_path):
        seen = []
        specs = [_tiny_spec(), _tiny_spec(sim_seed=4)]
        results = run_suite(
            specs, cache_dir=tmp_path, progress=lambda s, r: seen.append(s.name)
        )
        assert len(results) == 2
        assert seen == ["tiny", "tiny"]


class TestSuites:
    def test_names_and_unknown(self):
        assert "smoke" in suite_names()
        with pytest.raises(ExperimentError):
            get_suite("imaginary")

    @pytest.mark.parametrize(
        "name",
        [
            "smoke",
            "adaptivity_gap",
            "adaptive_ratio",
            "oblivious_ratio",
            "scenarios",
            "families",
        ],
    )
    def test_builtin_suites_wellformed(self, name):
        specs = get_suite(name)
        assert specs
        names = [s.name for s in specs]
        assert len(set(names)) == len(names), "suite spec names must be unique"
        hashes = [s.spec_hash() for s in specs]
        assert len(set(hashes)) == len(hashes), "suite specs must be distinct"

    def test_smoke_suite_runs(self, tmp_path):
        # The CI gate: the whole smoke suite must execute end to end.
        results = run_suite(get_suite("smoke"), cache_dir=tmp_path)
        # One spec per evaluation route: the three MC engines plus the
        # exact Markov route driven by the evaluation: block.
        assert {r.engine_used for r in results} == {
            "batched",
            "oblivious-lockstep",
            "scalar",
            "markov-sparse",
        }
        assert all(r.mean > 0 for r in results)
