"""Markov-vs-Monte-Carlo agreement on small instances (≤ 4 jobs).

The exact expected makespan from :mod:`repro.sim.markov` must sit inside
the 99% confidence interval of every Monte Carlo engine path: the scalar
reference engine, the batched frontier-memoized engine, and the sharded
parallel backend with two worker processes.  A regimen exercises all
three paths with one schedule object (it is batchable, scalar-executable,
and pickles to worker processes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluate import evaluate
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


@pytest.fixture(params=["sparse", "scalar"])
def exact_engine(request):
    """Both exact Markov engines must anchor the same Monte Carlo CIs."""
    return request.param


def exact_makespan(instance, regimen, engine) -> float:
    return evaluate(instance, regimen, mode="exact", engine=engine).makespan


class TestMarkovVsMonteCarlo:
    def _assert_in_ci(self, est, exact, label):
        half = Z99 * est.std_err + 1e-9
        assert abs(est.makespan - exact) <= half, (
            f"{label}: mean {est.makespan:.4f} outside exact {exact:.4f} ± {half:.4f}"
        )

    def test_scalar_engine_inside_99_ci(self, small_case, exact_engine):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        est = evaluate(instance, sol.regimen, mode="mc", reps=2000, seed=42, engine="scalar")
        self._assert_in_ci(est, exact, "scalar")

    def test_batched_engine_inside_99_ci(self, small_case, exact_engine):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        est = evaluate(instance, sol.regimen, mode="mc", reps=4000, seed=43, engine="batched")
        self._assert_in_ci(est, exact, "batched")

    def test_workers2_inside_99_ci(self, small_case, exact_engine):
        instance, sol = small_case
        exact = exact_makespan(instance, sol.regimen, exact_engine)
        est = evaluate(instance, sol.regimen, mode="mc", reps=4000, seed=44, workers=2)
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
