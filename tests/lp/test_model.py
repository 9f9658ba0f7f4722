"""Tests for repro.lp.model — the LP wrapper."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import LPError, ValidationError
from repro.lp import LinearProgram, VariableIndexer


class TestVariableIndexer:
    def test_dense_indices(self):
        idx = VariableIndexer()
        assert idx.add("a") == 0
        assert idx.add(("x", 1)) == 1
        assert idx["a"] == 0
        assert ("x", 1) in idx
        assert len(idx) == 2

    def test_duplicate_rejected(self):
        idx = VariableIndexer()
        idx.add("a")
        with pytest.raises(ValidationError):
            idx.add("a")


class TestLinearProgram:
    def test_simple_minimization(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0, obj=1.0)
        lp.add_ge({"x": 1.0}, 3.0)
        sol = lp.solve()
        assert sol.value == pytest.approx(3.0)
        assert sol["x"] == pytest.approx(3.0)

    def test_two_variable_lp(self):
        # min x + y  s.t.  x + 2y >= 4,  3x + y >= 6
        lp = LinearProgram()
        lp.add_var("x", obj=1.0)
        lp.add_var("y", obj=1.0)
        lp.add_ge({"x": 1.0, "y": 2.0}, 4.0)
        lp.add_ge({"x": 3.0, "y": 1.0}, 6.0)
        sol = lp.solve()
        assert sol.value == pytest.approx(2.8)  # x=1.6, y=1.2

    def test_upper_bounds(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0, ub=2.0, obj=-1.0)  # maximize x
        sol = lp.solve()
        assert sol["x"] == pytest.approx(2.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0, ub=1.0)
        lp.add_ge({"x": 1.0}, 5.0)
        with pytest.raises(LPError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0, obj=-1.0)
        with pytest.raises(LPError):
            lp.solve()

    def test_empty_lp(self):
        sol = LinearProgram().solve()
        assert sol.value == 0.0

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        lp.add_var("x", obj=1.0)
        row = lp.add_le({"x": 0.0}, 1.0)
        assert lp.num_rows == 1
        lp.solve()

    def test_row_names(self):
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_le({"x": 1.0}, 1.0, name="cap")
        assert lp.row_names == ["cap"]


def _two_variable_lp(a10: float = 3.0, rhs0: float = 4.0, obj0: float = 1.0, lb0: float = 0.0):
    """``min x + y  s.t.  x + 2y >= 4,  3x + y >= 6`` (optimum x=1.6, y=1.2)."""
    lp = LinearProgram()
    lp.add_var("x", lb=lb0, obj=obj0)
    lp.add_var("y", obj=1.0)
    lp.add_ge({"x": 1.0, "y": 2.0}, rhs0)
    lp.add_ge({"x": a10, "y": 1.0}, 6.0)
    return lp


class TestFiniteGuard:
    """Non-finite input is a ValidationError before HiGHS sees the problem.

    ``scipy.optimize.milp`` validates only the objective: with a NaN in
    the constraint matrix HiGHS reports success at a wrong optimum.
    """

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"a10": np.nan}, "constraint coefficients"),
            ({"a10": np.inf}, "constraint coefficients"),
            ({"a10": -np.inf}, "constraint coefficients"),
            ({"rhs0": np.nan}, "right-hand sides"),
            ({"rhs0": np.inf}, "right-hand sides"),
            ({"obj0": np.nan}, "objective"),
            ({"obj0": np.inf}, "objective"),
            ({"lb0": np.nan}, "bounds"),
        ],
    )
    def test_rejects_non_finite(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            _two_variable_lp(**kwargs).solve()

    def test_nan_upper_bound(self):
        lp = LinearProgram()
        lp.add_var("x", ub=np.nan, obj=-1.0)
        with pytest.raises(ValidationError, match="bounds"):
            lp.solve()

    def test_infinite_bounds_allowed(self):
        lp = LinearProgram()
        lp.add_var("x", lb=-np.inf, ub=np.inf, obj=1.0)
        lp.add_ge({"x": 1.0}, -2.0)
        assert lp.solve()["x"] == pytest.approx(-2.0)

    def test_bulk_rows_checked(self):
        lp = LinearProgram()
        idx = lp.add_vars(["a", "b"])
        lp.add_var("t", obj=1.0)
        lp.add_le_rows([0, 0], idx, [1.0, np.nan], [1.0])
        with pytest.raises(ValidationError, match="constraint coefficients"):
            lp.solve()


_FIRST_SOLVE = textwrap.dedent(
    """
    import json, sys, time
    import repro
    from repro import obs
    from repro.lp import LinearProgram

    fresh = "scipy.optimize" not in sys.modules
    lp = LinearProgram()
    lp.add_var("x", obj=1.0)
    lp.add_ge({"x": 1.0}, 3.0)
    with obs.capture() as tel:
        t0 = time.perf_counter_ns()
        lp.solve()
        wall_ns = time.perf_counter_ns() - t0
    (span,) = [s for s in tel.snapshot()["spans"] if s["name"] == "lp.solve"]
    print(json.dumps({"fresh": fresh, "wall_ns": wall_ns, "span_ns": span["dur_ns"]}))
    """
)


def test_first_solve_imports_inside_its_span():
    """The first solve's one-off ``scipy.optimize`` import is attributed.

    In a fresh interpreter the import dominates the first solve, so a span
    opened after it would leave most of that wall time unattributed.
    """
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_SOLVE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["fresh"], "import repro / repro.lp already loads scipy.optimize"
    assert out["span_ns"] >= 0.9 * out["wall_ns"], out
