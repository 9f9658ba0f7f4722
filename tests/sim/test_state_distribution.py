"""Tests for the exact forward state-distribution solver (both engines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule, SUUInstance
from repro.errors import ExactSolverLimitError
from repro.evaluate import evaluate


# Test ids name the exact engine that runs.
@pytest.fixture(params=["auto", "scalar"], ids=["sparse", "scalar"])
def engine(request):
    return request.param


def exact_dist(instance, schedule, horizon, engine, **kwargs):
    return evaluate(
        instance,
        schedule,
        metrics="state_distribution",
        horizon=horizon,
        engine=engine,
        **kwargs,
    ).state_distribution


def exact_curve(instance, schedule, horizon, engine):
    return evaluate(
        instance,
        schedule,
        mode="exact",
        metrics="completion_curve",
        horizon=horizon,
        engine=engine,
    ).completion_curve


def cyc(table):
    arr = np.asarray(table, dtype=np.int32)
    return CyclicSchedule(ObliviousSchedule.empty(arr.shape[1]), ObliviousSchedule(arr))


class TestStateDistribution:
    def test_rows_are_distributions(self, tiny_independent, engine):
        dist = exact_dist(
            tiny_independent, cyc([[0, 1, 2]]), horizon=6, engine=engine
        )
        assert dist.shape == (7, 8)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0)

    def test_initial_point_mass(self, tiny_independent, engine):
        dist = exact_dist(
            tiny_independent, cyc([[0, 1, 2]]), horizon=1, engine=engine
        )
        assert dist[0, 0b111] == 1.0

    def test_absorbing_empty_state(self, engine):
        inst = SUUInstance(np.array([[1.0]]))
        dist = exact_dist(inst, cyc([[0]]), horizon=4, engine=engine)
        assert dist[1, 0] == 1.0
        assert dist[4, 0] == 1.0

    def test_mass_moves_downward_only(self, tiny_chain, engine):
        dist = exact_dist(
            tiny_chain, cyc([[0, 0], [1, 1], [2, 2]]), horizon=8, engine=engine
        )
        done = dist[:, 0]
        assert np.all(np.diff(done) >= -1e-12)

    def test_guard(self, engine):
        inst = SUUInstance(np.full((1, 20), 0.5))
        with pytest.raises(ExactSolverLimitError):
            exact_dist(
                inst, cyc([[0]]), horizon=2, max_states=1 << 8, engine=engine
            )


class TestExactCompletionCurve:
    def test_matches_monte_carlo(self, tiny_independent, rng, engine):
        sched = cyc([[0, 1, 2], [2, 0, 1]])
        exact = exact_curve(
            tiny_independent, sched, horizon=10, engine=engine
        )
        emp = evaluate(
            tiny_independent,
            sched,
            mode="mc",
            metrics="completion_curve",
            horizon=10,
            reps=4000,
            seed=rng,
        ).completion_curve
        assert np.abs(exact - emp).max() < 0.04

    def test_consistent_with_expected_makespan(self, tiny_independent, engine):
        # E[C] = sum_t Pr[C > t] = sum_t (1 - F(t)); truncated sum must
        # lower-bound the exact expectation and converge toward it.
        sched = cyc([[0, 1, 2]])
        horizon = 200
        curve = exact_curve(
            tiny_independent, sched, horizon=horizon, engine=engine
        )
        partial = float(np.sum(1.0 - curve)) + 1.0  # +1 for the t=0 term
        exact = evaluate(tiny_independent, sched, mode="exact", engine=engine).makespan
        assert partial == pytest.approx(exact, abs=1e-3)

    def test_respects_precedence(self, tiny_chain, engine):
        curve = exact_curve(
            tiny_chain, cyc([[0, 0], [1, 1], [2, 2]]), horizon=3, engine=engine
        )
        # a 3-chain cannot be done before step 3
        assert curve[0] == 0.0 and curve[1] == 0.0
