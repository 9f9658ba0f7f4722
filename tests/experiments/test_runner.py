"""Tests for repro.experiments.runner and the built-in suites."""

from __future__ import annotations

import json

import pytest

from repro.errors import CensoredEstimateWarning, ExperimentError, StaleCacheWarning
from repro.experiments import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    get_suite,
    run_experiment,
    run_suite,
    suite_names,
)
from repro.parallel import ProcessExecutor


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

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = _tiny_spec()
        first = run_experiment(spec, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json")
        res = run_experiment(spec, cache_dir=tmp_path)
        assert not res.cache_hit
        assert res.mean == first.mean  # same seeds -> same numbers
        # the entry was repaired
        assert json.loads(entry.read_text())["mean"] == first.mean

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
        assert res.to_dict()["schema_version"] == RESULT_SCHEMA_VERSION

    def test_from_dict_rejects_other_versions(self):
        data = run_experiment(_tiny_spec(), cache_dir=None).to_dict()
        data["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ExperimentError, match="schema_version"):
            ExperimentResult.from_dict(data)
        data.pop("schema_version")  # pre-versioned entries are stale too
        with pytest.raises(ExperimentError, match="schema_version"):
            ExperimentResult.from_dict(data)

    def test_stale_cache_entry_warns_and_recomputes(self, tmp_path):
        spec = _tiny_spec()
        first = run_experiment(spec, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        data = json.loads(entry.read_text())
        data["schema_version"] = RESULT_SCHEMA_VERSION - 1
        data["mean"] = -1.0  # poison: silent reuse would surface this
        entry.write_text(json.dumps(data))
        with pytest.warns(StaleCacheWarning):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert not res.cache_hit
        assert res.mean == first.mean
        # the entry was upgraded in place
        assert json.loads(entry.read_text())["schema_version"] == RESULT_SCHEMA_VERSION


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
        from repro.experiments.runner import _reference_cache_path

        spec = _tiny_spec(compute_reference=True, exact_limit=0)
        path = _reference_cache_path(tmp_path, spec.spec_hash())
        path.parent.mkdir(parents=True, exist_ok=True)
        # Parseable but missing reference_kind/elapsed_s: must recompute,
        # not crash.
        path.write_text(
            json.dumps(
                {
                    "schema_version": RESULT_SCHEMA_VERSION,
                    "spec_hash": spec.spec_hash(),
                    "reference": 3.0,
                }
            )
        )
        res = run_experiment(spec, cache_dir=tmp_path)
        assert res.reference is not None and res.reference_kind == "lower_bound"

    def test_shard_partials_cached_and_reused(self, tmp_path):
        # Replications shard at reps >= 50 (two shards of 25+).  Seed a
        # poisoned partial for shard 0 into the shard cache: if the runner
        # really reuses cached partials, the poison shows up in the merge.
        from repro.experiments.runner import _shard_cache_path
        from repro.parallel import PartialEstimate, make_shard_plan

        spec = _tiny_spec(reps=50, sim_seed=5)
        fresh = run_experiment(spec, cache_dir=None)
        plan = make_shard_plan(spec.reps, spec.sim_seed)
        assert plan.n_shards == 2
        shard = plan.shards[0]
        poison = PartialEstimate.from_samples([1000.0] * shard.reps)
        path = _shard_cache_path(tmp_path, spec.spec_hash(), shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "schema_version": RESULT_SCHEMA_VERSION,
                    "spec_hash": spec.spec_hash(),
                    "shard_index": shard.index,
                    "n_shards": shard.n_shards,
                    "partial": poison.to_dict(),
                    "engine_used": "batched",
                    "algorithm": "poisoned",
                    "certificates": {},
                    "elapsed_s": 0.0,
                }
            )
        )
        res = run_experiment(spec, cache_dir=tmp_path)
        assert res.mean > fresh.mean  # shard 0 came from the poisoned cache
        assert res.max == 1000.0
        # partials are cleaned up once the spec-level entry is written
        assert not path.exists()
        # force=True ignores the shard cache (file is gone anyway)
        forced = run_experiment(spec, cache_dir=tmp_path, force=True)
        assert forced.mean == fresh.mean


class TestStalePartials:
    """Version-mismatched shard/reference partials must never be resumed.

    Regression: partials under ``<cache>/shards/`` are schema-versioned
    like top-level results; a ``RESULT_SCHEMA_VERSION`` bump warns with
    :class:`StaleCacheWarning` and recomputes instead of silently merging
    stale numbers into a resumed sweep.
    """

    @staticmethod
    def _poisoned_shard_entry(spec, shard, version):
        from repro.parallel import PartialEstimate

        poison = PartialEstimate.from_samples([1000.0] * shard.reps)
        return {
            "schema_version": version,
            "spec_hash": spec.spec_hash(),
            "shard_index": shard.index,
            "n_shards": shard.n_shards,
            "partial": poison.to_dict(),
            "engine_used": "batched",
            "algorithm": "poisoned",
            "certificates": {},
            "elapsed_s": 0.0,
        }

    def test_stale_shard_partial_warns_and_recomputes(self, tmp_path):
        from repro.experiments.runner import _shard_cache_path
        from repro.parallel import make_shard_plan

        spec = _tiny_spec(reps=50, sim_seed=5)
        fresh = run_experiment(spec, cache_dir=None)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        path = _shard_cache_path(tmp_path, spec.spec_hash(), shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                self._poisoned_shard_entry(spec, shard, RESULT_SCHEMA_VERSION - 1)
            )
        )
        with pytest.warns(StaleCacheWarning, match="stale shard partial"):
            res = run_experiment(spec, cache_dir=tmp_path)
        # recomputed from scratch: the poisoned partial never reached the merge
        assert res.mean == fresh.mean
        assert res.max == fresh.max != 1000.0

    def test_unversioned_shard_partial_is_stale_too(self, tmp_path):
        from repro.experiments.runner import _shard_cache_path
        from repro.parallel import make_shard_plan

        spec = _tiny_spec(reps=50, sim_seed=6)
        fresh = run_experiment(spec, cache_dir=None)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        entry = self._poisoned_shard_entry(spec, shard, RESULT_SCHEMA_VERSION)
        entry.pop("schema_version")  # pre-versioning writer
        path = _shard_cache_path(tmp_path, spec.spec_hash(), shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry))
        with pytest.warns(StaleCacheWarning, match="schema_version=None"):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert res.mean == fresh.mean

    def test_stale_reference_partial_warns_and_recomputes(self, tmp_path):
        from repro.experiments.runner import _reference_cache_path

        spec = _tiny_spec(compute_reference=True, exact_limit=0)
        fresh = run_experiment(spec, cache_dir=None)
        path = _reference_cache_path(tmp_path, spec.spec_hash())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "schema_version": RESULT_SCHEMA_VERSION - 1,
                    "spec_hash": spec.spec_hash(),
                    "reference": 999.0,  # poison: silent resume would surface it
                    "reference_kind": "exact",
                    "elapsed_s": 0.0,
                }
            )
        )
        with pytest.warns(StaleCacheWarning, match="stale reference solve"):
            res = run_experiment(spec, cache_dir=tmp_path)
        assert res.reference == fresh.reference != 999.0
        assert res.reference_kind == "lower_bound"

    def test_current_version_shard_partial_still_resumes(self, tmp_path):
        # The loud staleness path must not break legitimate resume: a
        # current-version partial is merged without warnings.
        import warnings as _warnings

        from repro.experiments.runner import _shard_cache_path
        from repro.parallel import make_shard_plan

        spec = _tiny_spec(reps=50, sim_seed=7)
        shard = make_shard_plan(spec.reps, spec.sim_seed).shards[0]
        path = _shard_cache_path(tmp_path, spec.spec_hash(), shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self._poisoned_shard_entry(spec, shard, RESULT_SCHEMA_VERSION))
        )
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", StaleCacheWarning)
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
