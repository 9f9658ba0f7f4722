"""``repro.store``: the one cache-entry format, staleness rule and digest."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance, store
from repro.core.schedule import ObliviousSchedule
from repro.errors import StaleCacheWarning
from repro.evaluate import EvaluationRequest
from repro.experiments import ExperimentSpec
from repro.serve.keys import instance_hash, schedule_hash


class TestRead:
    @pytest.mark.parametrize("data", [None, b"{not json", b"\xff", b"[]", b'"x"', b"1"])
    def test_damage_is_a_quiet_miss(self, tmp_path, data):
        path = tmp_path / "entry.json"
        if data is not None:  # None: the file is missing
            path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.read(path, "test entry") is None

    @pytest.mark.parametrize("version", [store.SCHEMA_VERSION - 1, "3", None])
    def test_other_schema_warns_and_misses(self, tmp_path, version):
        path = tmp_path / "entry.json"
        entry = {"value": 1}
        if version is not None:  # None: written before entries were versioned
            entry["schema_version"] = version
        path.write_text(json.dumps(entry))
        with pytest.warns(StaleCacheWarning, match="discarding stale test entry entry.json"):
            assert store.read(path, "test entry") is None

    def test_write_then_read_round_trips(self, tmp_path):
        path = tmp_path / "nested" / "entry.json"
        entry = {"key": "abc", "report": {"makespan": 4.5, "curve": [0.25, 1.0]}}
        store.write(path, entry)
        assert store.read(path, "test entry") == {
            "schema_version": store.SCHEMA_VERSION,
            **entry,
        }


class TestKeys:
    def test_digest_keeps_its_values(self):
        # Literals computed before the digest moved into repro.store: the
        # serving layer's content digests must not change with it.
        assert store.digest({"kind": "solver", "name": "round_robin"}) == "dcc334adaf42658a"
        inst = SUUInstance(
            np.array([[0.5, 0.25], [0.75, 1.0]]), PrecedenceDAG(2, [(0, 1)]), name="x"
        )
        assert instance_hash(inst) == "400d026a46ad05ec"
        table = np.array([[0, 1], [1, 0]], dtype=np.int32)
        assert schedule_hash(ObliviousSchedule(table)) == "974c51447a826741"
        assert schedule_hash("round_robin") == "dcc334adaf42658a"

    def test_results_version_salts_every_result_key(self, monkeypatch):
        payload = {"reps": 10}
        spec = ExperimentSpec(name="salted")
        request = EvaluationRequest(seed=7)
        before = (store.result_key(payload), spec.spec_hash(), request.request_hash())
        monkeypatch.setattr(store, "RESULTS_VERSION", store.RESULTS_VERSION + 1)
        after = (store.result_key(payload), spec.spec_hash(), request.request_hash())
        assert all(b != a for b, a in zip(before, after))
        assert store.digest(payload) == store.digest({"reps": 10})  # unsalted
