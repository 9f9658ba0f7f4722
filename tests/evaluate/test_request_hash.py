"""``EvaluationRequest.request_hash``: spelling-insensitive, knob-sensitive.

Satellite acceptance: the digest ignores construction spelling (the
validator already normalized metrics), changes with every knob that
changes the numbers, refuses irreproducible requests, and is salted with
:data:`repro.store.RESULTS_VERSION` so semantic changes invalidate at-rest
served results wholesale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro import store
from repro.evaluate import EvaluationRequest


class TestStability:
    def test_deterministic_across_instances(self):
        a = EvaluationRequest(mode="mc", reps=100, seed=7)
        b = EvaluationRequest(mode="mc", reps=100, seed=7)
        assert a.request_hash() == b.request_hash()

    def test_metric_spelling_is_invisible(self):
        hyphens = EvaluationRequest(metrics=("completion-curve",), horizon=10)
        unders = EvaluationRequest(metrics=("completion_curve",), horizon=10)
        assert hyphens.request_hash() == unders.request_hash()

    def test_bare_string_metric_matches_tuple(self):
        assert (
            EvaluationRequest(metrics="makespan").request_hash()
            == EvaluationRequest(metrics=("makespan",)).request_hash()
        )

    def test_numpy_seed_matches_python_int(self):
        assert (
            EvaluationRequest(seed=np.int64(7)).request_hash()
            == EvaluationRequest(seed=7).request_hash()
        )


class TestSensitivity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 8},
            {"reps": 201},
            {"max_steps": 999},
            {"mode": "mc"},
            {"rtol": 0.05},
            {"engine": "scalar"},
            {"max_states": 4096},
            {"target_ci": 0.5},
            {"keep_samples": True},
            {"require_finished": True},
        ],
    )
    def test_every_knob_changes_the_digest(self, kwargs):
        base = EvaluationRequest(seed=7)
        varied = EvaluationRequest(**{"seed": 7, **kwargs})
        assert varied.request_hash() != base.request_hash()

    def test_version_salt_invalidates_wholesale(self, monkeypatch):
        before = EvaluationRequest(seed=7).request_hash()
        monkeypatch.setattr(store, "RESULTS_VERSION", store.RESULTS_VERSION + 1)
        assert EvaluationRequest(seed=7).request_hash() != before


class TestReproducibilityGuard:
    def test_none_seed_still_hashes(self):
        # A None seed is hashable request *content* (the server separately
        # declines to dedup it); only live generators are refused.
        assert len(EvaluationRequest(seed=None).request_hash()) == 16

    def test_generator_seed_is_refused(self):
        req = EvaluationRequest(seed=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="no stable content"):
            req.request_hash()
