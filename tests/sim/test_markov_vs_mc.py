"""Markov-vs-Monte-Carlo agreement on small instances (≤ 4 jobs).

The exact expected makespan from ``evaluate(mode="exact")`` must sit inside
the 99% confidence interval of every Monte Carlo engine path: the scalar
reference engine, the batched frontier-memoized engine, and the
experiment runner's sharded route with two worker processes.  A regimen
exercises all three paths (it is batchable and scalar-executable, and the
runner's workers rebuild it from its spec).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SUUInstance
from repro.evaluate import evaluate
from repro.experiments import GENERATORS, ExperimentSpec, run_experiment
from repro.opt.malewicz import optimal_regimen

#: 99% two-sided normal quantile.
Z99 = 2.576

#: (fixture name, reps) — reps sized so the CI is tight but the scalar
#: path stays fast.
CASES = ["tiny_independent", "tiny_chain", "tiny_tree"]


@pytest.fixture(params=CASES)
def small_case(request):
    instance = request.getfixturevalue(request.param)
    assert instance.n <= 4
    sol = optimal_regimen(instance)
    return instance, sol


@pytest.fixture(params=["auto", "scalar"], ids=["sparse", "scalar"])
def exact_engine(request):
    """Both exact Markov engines must anchor the same Monte Carlo CIs
    (test ids name the engine that runs)."""
    return request.param


def exact_makespan(instance, regimen, engine) -> float:
    return evaluate(instance, regimen, mode="exact", engine=engine).makespan


class TestMarkovVsMonteCarlo:
    def _assert_in_ci(self, est, exact, label):
        half = Z99 * est.std_err + 1e-9
        assert abs(est.mean - exact) <= half, (
            f"{label}: mean {est.mean:.4f} outside exact {exact:.4f} ± {half:.4f}"
        )

    def test_scalar_engine_inside_99_ci(self, small_case, exact_engine):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        est = evaluate(instance, sol.regimen, mode="mc", reps=2000, seed=42, engine="scalar")
        self._assert_in_ci(est, exact, "scalar")

    def test_batched_engine_inside_99_ci(self, small_case, exact_engine):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        est = evaluate(instance, sol.regimen, mode="mc", reps=4000, seed=43)
        assert est.engine_used == "batched"
        self._assert_in_ci(est, exact, "batched")

    def test_workers2_inside_99_ci(self, small_case, exact_engine, monkeypatch):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        # Runner workers rebuild the instance from spec JSON, so the fixture
        # travels as generator params; forked workers inherit the entry.
        monkeypatch.setitem(
            GENERATORS, "fixture", lambda rng, instance: SUUInstance.from_dict(instance)
        )
        spec = ExperimentSpec(
            name="markov-vs-runner",
            generator="fixture",
            generator_params={"instance": instance.to_dict()},
            algorithm="exact",
            reps=4000,
            sim_seed=44,
        )
        est = run_experiment(spec, cache_dir=None, workers=2)
        assert est.engine_used == "batched"
        self._assert_in_ci(est, exact, "workers=2")

    def test_workers2_state_round_robin_inside_99_ci(self, exact_engine):
        # A larger spec whose exact value comes from its own instance and
        # schedule; the runner's evaluation block must agree with it.
        spec = ExperimentSpec(
            name="markov-vs-runner",
            generator_params={"n": 6, "m": 2, "dag_kind": "chains"},
            algorithm="state_round_robin",
            reps=4000,
            sim_seed=44,
        )
        instance = spec.build_instance()
        regimen = spec.build_schedule(instance).schedule
        exact = exact_makespan(instance, regimen, exact_engine)
        if exact_engine == "auto":
            exact_spec = replace(spec, evaluation={"mode": "exact"})
            assert run_experiment(exact_spec, cache_dir=None).mean == exact
        est = run_experiment(spec, cache_dir=None, workers=2)
        assert est.engine_used == "batched"
        self._assert_in_ci(est, exact, "workers=2")

    def test_dp_value_matches_markov_evaluator(self, small_case, exact_engine):
        # The Malewicz DP's reported optimum and the independent Markov
        # chain evaluation of its regimen are two exact solvers for the
        # same number; they must agree to float precision, not to a CI.
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        assert exact == pytest.approx(sol.expected_makespan, rel=1e-9)
        # Both engines' means also straddle this one value, tying the
        # whole triangle together (regression anchor for the fuzzer's
        # `markov` oracle).
        assert np.isfinite(exact) and exact >= 1.0
