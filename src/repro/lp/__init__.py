"""Linear programming layer: generic model plus the AccMass LPs.

The AccMass builders/solvers in :mod:`repro.lp.acc_mass` use sparse
COO-block construction; the original per-variable loops stay in
:mod:`repro.lp.scalar` as the golden reference that tests, the ``lpflow``
oracle and the LP perf bench call directly.
"""

from .acc_mass import (
    DEFAULT_TARGET_MASS,
    FractionalAccMass,
    build_lp1,
    build_lp2,
    check_fractional,
    solve_lp1,
    solve_lp2,
)
from .model import LinearProgram, LPSolution, VariableIndexer

__all__ = [
    "DEFAULT_TARGET_MASS",
    "FractionalAccMass",
    "build_lp1",
    "build_lp2",
    "check_fractional",
    "solve_lp1",
    "solve_lp2",
    "LinearProgram",
    "LPSolution",
    "VariableIndexer",
]
