"""Tests for the statistics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import fit_log_growth, loglog_slope


class TestFits:
    def test_loglog_slope_power_law(self):
        xs = np.array([1, 2, 4, 8, 16], dtype=float)
        ys = xs**2
        assert loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_loglog_slope_constant(self):
        xs = np.array([1, 2, 4, 8], dtype=float)
        assert loglog_slope(xs, np.ones(4)) == pytest.approx(0.0)

    def test_fit_log_growth_recovers_coefficients(self):
        ns = np.array([2, 4, 8, 16, 32], dtype=float)
        ys = 3.0 * np.log2(ns) + 1.0
        a, b = fit_log_growth(ns, ys)
        assert a == pytest.approx(3.0)
        assert b == pytest.approx(1.0)

    def test_need_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_log_growth([1.0], [1.0])
