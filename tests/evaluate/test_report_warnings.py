"""Censoring/limit semantics and report rendering through the facade.

Satellite acceptance: ``CensoredEstimateWarning`` and
``ExactSolverLimitError`` surface identically through ``evaluate()`` for
all routes (lockstep, batched, scalar) — regression tests included.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms.baselines import (
    greedy_prob_policy,
    random_policy,
    serial_baseline,
)
from repro.errors import (
    CensoredEstimateWarning,
    ExactSolverLimitError,
    SimulationLimitError,
)
from repro.evaluate import evaluate


@pytest.fixture
def hopeless():
    """An instance that cannot finish within a 3-step budget."""
    return SUUInstance(np.full((1, 3), 0.02), name="hopeless")


def _routes(inst):
    """(label, schedule, extra-kwargs) triples covering every MC route."""
    return [
        ("oblivious-lockstep", serial_baseline(inst).schedule, {}),
        ("batched", greedy_prob_policy(inst).schedule, {}),
        ("scalar", random_policy(inst).schedule, {}),
    ]


class TestCensoringParity:
    def test_every_route_warns_exactly_once_with_same_wording(self, hopeless):
        messages = {}
        for label, sched, extra in _routes(hopeless):
            with pytest.warns(CensoredEstimateWarning) as record:
                report = evaluate(
                    hopeless, sched, mode="mc", reps=50, seed=0, max_steps=3, **extra
                )
            censored = [
                w for w in record if issubclass(w.category, CensoredEstimateWarning)
            ]
            assert len(censored) == 1, f"route {label}: {len(censored)} warnings"
            messages[label] = str(censored[0].message)
            assert report.truncated == 50
            assert report.censored
            assert report.makespan == 3.0  # censored mean = lower bound
        # Identical wording across routes (the counts are all 50/50).
        assert len(set(messages.values())) == 1
        assert "lower bound" in next(iter(messages.values()))

    def test_adaptive_precision_loop_warns_once_total(self):
        # Partial censoring: a coin-flip job under a tight budget, so some
        # replications finish (nonzero variance keeps the loop running)
        # while others censor in every round.
        inst = SUUInstance(np.array([[0.5]]), name="coin")
        sched = serial_baseline(inst).schedule
        with pytest.warns(CensoredEstimateWarning) as record:
            report = evaluate(
                inst,
                sched,
                mode="mc",
                reps=20,
                seed=0,
                max_steps=4,
                target_ci=1e-9,
                budget=80,
            )
        censored = [
            w for w in record if issubclass(w.category, CensoredEstimateWarning)
        ]
        assert len(censored) == 1
        assert report.rounds > 1
        assert report.n_reps == 80
        assert 0 < report.truncated < report.n_reps
        assert f"{report.truncated}/{report.n_reps}" in str(censored[0].message)

    def test_warning_is_attributed_to_the_caller(self, hopeless):
        """Regression: the censoring warning points at the evaluate() call
        site, not at facade internals."""
        import warnings as _warnings

        sched = serial_baseline(hopeless).schedule
        with _warnings.catch_warnings(record=True) as record:
            _warnings.simplefilter("always")
            evaluate(hopeless, sched, mode="mc", reps=10, seed=0, max_steps=3)
        censored = [
            w for w in record if issubclass(w.category, CensoredEstimateWarning)
        ]
        assert len(censored) == 1
        assert censored[0].filename == __file__

    @pytest.mark.parametrize("extra", [{}, {"engine": "scalar"}])
    def test_require_finished_raises_identically(self, hopeless, extra):
        sched = serial_baseline(hopeless).schedule
        with pytest.raises(SimulationLimitError, match="step budget"):
            evaluate(
                hopeless,
                sched,
                mode="mc",
                reps=20,
                seed=0,
                max_steps=3,
                require_finished=True,
                **extra,
            )


class TestExactLimitParity:
    def test_exact_mode_guard_raises(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        with pytest.raises(ExactSolverLimitError):
            evaluate(tiny_independent, sched, mode="exact", max_states=2)

    def test_forced_exact_metric_guard_raises(self, tiny_independent):
        # state_distribution cannot fall back to MC, so the guard error
        # surfaces even in auto mode.
        sched = serial_baseline(tiny_independent).schedule
        with pytest.raises(ExactSolverLimitError):
            evaluate(
                tiny_independent,
                sched,
                metrics=("state_distribution",),
                horizon=10,
                max_states=4,
            )

    @pytest.mark.parametrize("engine", ["auto", "scalar"], ids=["sparse", "scalar"])
    def test_both_exact_engines_raise_the_same_error_type(self, tiny_independent, engine):
        sched = serial_baseline(tiny_independent).schedule
        with pytest.raises(ExactSolverLimitError):
            evaluate(tiny_independent, sched, mode="exact", engine=engine, max_states=2)


class TestPrecisionLoop:
    def test_meets_target_and_reports_rounds(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(
            tiny_independent, sched, mode="mc", reps=50, seed=1, rtol=0.05
        )
        assert report.precision_met
        assert 1.96 * report.std_err <= 0.05 * report.makespan + 1e-12
        assert report.n_reps >= 50

    def test_budget_caps_and_reports_unmet(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(
            tiny_independent,
            sched,
            mode="mc",
            reps=20,
            seed=1,
            target_ci=1e-9,
            budget=60,
        )
        assert report.precision_met is False
        assert report.n_reps == 60
        assert report.rounds == 3  # 20 + 20 + 20 (doubling capped by budget)


class TestReportShape:
    def test_curve_only_mc_request_leaves_makespan_none(self, tiny_independent):
        """Regression: a curve-only run observes only `horizon` steps, so
        its sample mean is E[min(makespan, horizon)] and must not be
        reported as the makespan — matching the exact route's contract."""
        sched = serial_baseline(tiny_independent).schedule
        with pytest.warns(CensoredEstimateWarning):
            mc = evaluate(
                tiny_independent,
                sched,
                mode="mc",
                metrics="completion_curve",
                horizon=4,
                reps=20,
                seed=0,
            )
        assert mc.makespan is None and mc.mean is None
        assert mc.min is None and mc.max is None
        assert mc.ci95 is None
        assert mc.completion_curve.shape == (4,)
        exact = evaluate(
            tiny_independent,
            sched,
            mode="exact",
            metrics="completion_curve",
            horizon=4,
        )
        assert exact.makespan is None  # same contract on both routes

    def test_accepts_schedule_result(self, tiny_independent):
        result = serial_baseline(tiny_independent)
        report = evaluate(tiny_independent, result, seed=0)
        assert report.schedule_kind == "cyclic"

    def test_to_json_round_trips(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(
            tiny_independent,
            sched,
            metrics=("makespan", "completion_curve"),
            mode="mc",
            horizon=12,
            reps=10,
            seed=0,
        )
        data = json.loads(report.to_json())
        assert data["mode"] == "mc"
        assert data["engine"] == "oblivious-lockstep"
        assert len(data["completion_curve"]) == 12
        assert data["request"]["reps"] == 10
        assert data["ci95"][0] <= data["makespan"] <= data["ci95"][1]

    def test_repr_carries_provenance(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        exact = repr(evaluate(tiny_independent, sched))
        assert "exact" in exact and "markov-sparse" in exact
        mc = repr(evaluate(tiny_independent, sched, mode="mc", reps=10, seed=0))
        assert "ci95" in mc and "oblivious-lockstep" in mc

    def test_wall_time_recorded(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        assert evaluate(tiny_independent, sched).wall_time_s > 0.0
