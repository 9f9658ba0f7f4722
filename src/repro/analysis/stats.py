"""Small statistics helpers for the experiment harness."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["loglog_slope", "fit_log_growth"]


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Slope ≈ k suggests ``y = Θ(x^k)``; the polylog experiments check the
    slope of ratio-vs-n stays well below 1 (sub-polynomial growth).
    """
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if lx.size < 2:
        raise ValueError("need at least two points")
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def fit_log_growth(ns: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Fit ``y ≈ a·log2(n) + b``; returns ``(a, b)``.

    Used to check O(log n)-shaped ratio growth (experiments E5/E6).
    """
    ln = np.log2(np.asarray(ns, dtype=np.float64))
    y = np.asarray(ys, dtype=np.float64)
    if ln.size < 2:
        raise ValueError("need at least two points")
    A = np.vstack([ln, np.ones_like(ln)]).T
    a, b = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(a), float(b)
