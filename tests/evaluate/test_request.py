"""EvaluationRequest: the one shared validator (satellite: uniform
argument validation at the front door, rejecting conflicts every legacy
path used to accept silently or reject inconsistently)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.evaluate import EvaluationRequest, evaluate


class TestNormalization:
    def test_defaults_are_valid(self):
        req = EvaluationRequest()
        assert req.metrics == ("makespan",)
        assert req.mode == "auto"

    def test_bare_string_metric(self):
        assert EvaluationRequest(metrics="makespan").metrics == ("makespan",)

    def test_hyphens_normalize(self):
        req = EvaluationRequest(metrics=("completion-curve",), horizon=5)
        assert req.metrics == ("completion_curve",)

    def test_effective_budget_defaults_to_multiple_of_reps(self):
        req = EvaluationRequest(reps=100, rtol=0.1)
        assert req.effective_budget() == 32 * 100
        assert EvaluationRequest(reps=100, rtol=0.1, budget=500).effective_budget() == 500


class TestRejections:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"metrics": ()}, "at least one metric"),
            ({"metrics": ("makespans",)}, "unknown metric"),
            ({"metrics": ("makespan", "makespan")}, "duplicate"),
            ({"mode": "montecarlo"}, "unknown mode"),
            ({"engine": "gpu"}, "unknown engine"),
            ({"reps": 2.5}, "reps must be an integer"),
            ({"reps": True}, "reps must be an integer"),
            ({"reps": 0}, "reps must be >= 1"),
            ({"reps": -3}, "reps must be >= 1"),
            ({"max_steps": 0}, "max_steps must be >= 1"),
            ({"rtol": 0.0}, "rtol must be > 0"),
            ({"target_ci": -1.0}, "target_ci must be > 0"),
            ({"budget": 0, "rtol": 0.1}, "budget must be >= 1"),
            ({"budget": 1000}, "no effect without a precision target"),
            ({"budget": 50, "reps": 100, "rtol": 0.1}, "cover at least the initial"),
            ({"max_states": 0}, "max_states must be >= 1"),
            ({"mode": "exact", "engine": "scalar", "rtol": 0.1}, "no effect on the exact route"),
            (
                {"metrics": ("state_distribution",), "horizon": 5, "target_ci": 0.5},
                "no effect on the exact route",
            ),
            ({"metrics": 5}, "metrics must be a metric name"),
            ({"metrics": ("completion_curve",)}, "require horizon"),
            ({"metrics": ("state_distribution",)}, "require horizon"),
            ({"metrics": ("completion_curve",), "horizon": 0}, "horizon must be >= 1"),
            ({"horizon": 10}, "horizon has no effect"),
            (
                {"metrics": ("state_distribution",), "horizon": 5, "mode": "mc"},
                "exact-only metric",
            ),
            (
                {
                    "metrics": ("makespan", "completion_curve"),
                    "horizon": 50,
                    "max_steps": 10,
                },
                "must cover horizon",
            ),
            ({"max_steps": 100.5}, "max_steps must be an integer"),
            (
                {"metrics": ("completion_curve",), "horizon": 2.5},
                "horizon must be an integer",
            ),
            ({"budget": 20.5, "rtol": 0.1}, "budget must be an integer"),
            ({"max_states": 1e6}, "max_states must be an integer"),
            ({"max_states": False}, "max_states must be an integer"),
            ({"reps": None}, "reps must be an integer"),
        ],
    )
    def test_invalid_requests(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            EvaluationRequest(**kwargs)

    @pytest.mark.parametrize("engine", ["sparse", "batched"])
    @pytest.mark.parametrize("mode", ["auto", "exact", "mc"])
    def test_engine_aliases_are_unknown(self, engine, mode):
        # ``mode`` picks the route; ``engine`` only names auto or the
        # scalar golden reference.
        with pytest.raises(
            ValidationError,
            match=rf"unknown engine '{engine}'; expected one of \('auto', 'scalar'\)",
        ):
            EvaluationRequest(mode=mode, engine=engine)

    def test_numpy_integers_are_integers(self):
        req = EvaluationRequest(
            metrics=("makespan", "completion_curve"),
            reps=np.int64(50),
            max_steps=np.int32(400),
            horizon=np.int64(20),
            rtol=0.1,
            budget=np.int64(200),
            max_states=np.int64(1 << 10),
        )
        assert req.effective_budget() == 200
        plain = EvaluationRequest(
            metrics=("makespan", "completion_curve"),
            reps=50,
            max_steps=400,
            horizon=20,
            rtol=0.1,
            budget=200,
            max_states=1 << 10,
        )
        assert req == plain
        assert req.request_hash() == plain.request_hash()

    @pytest.mark.parametrize("knob", ["workers", "executor", "shards"])
    def test_process_pool_knobs_are_not_request_fields(self, knob):
        # Spreading replications over processes is the experiment
        # runner's job (run_experiment(spec, workers=N)), not a request's.
        with pytest.raises(TypeError, match=knob):
            EvaluationRequest(mode="mc", **{knob: 2})

    @pytest.mark.parametrize(
        "precision", [{"rtol": 0.1}, {"target_ci": 0.5}, {"rtol": 0.1, "budget": 400}]
    )
    def test_exact_mode_rejects_precision_targets(self, precision):
        with pytest.raises(ValidationError, match="no effect on the exact route"):
            EvaluationRequest(mode="exact", **precision)

    def test_request_and_kwargs_are_mutually_exclusive(self, tiny_independent):
        from repro.algorithms.baselines import serial_baseline

        sched = serial_baseline(tiny_independent).schedule
        with pytest.raises(ValidationError, match="not both"):
            evaluate(
                tiny_independent, sched, request=EvaluationRequest(), reps=10
            )
