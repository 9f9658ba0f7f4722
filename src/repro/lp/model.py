"""A small sparse LP modelling layer over HiGHS.

The paper's (LP1)/(LP2) are ordinary linear programs; this layer gives them
named variables and named constraint rows so the builders in
:mod:`repro.lp.acc_mass` read like the paper and the tests can inspect
individual constraints.

Every solve is one call to the public ``scipy.optimize.milp`` with no
integrality, the thinnest public path to HiGHS.  HiGHS's defaults for an
LP (dual simplex, with presolve) are the options ``linprog(method="highs")``
sets explicitly, and the matrix reaches HiGHS in the same canonical CSC
form, so the solved vector is bitwise the one ``linprog`` returns;
``tests/lp/test_highs_parity.py`` keeps ``linprog`` as the golden
reference.

Constraints accumulate as COO triplet blocks (row ids, column ids,
coefficients) rather than per-row dicts, so the vectorized builders can
register thousands of variables and rows with a handful of array appends
(:meth:`LinearProgram.add_vars`, :meth:`LinearProgram.add_le_rows`) while
the original one-call-per-row API (:meth:`LinearProgram.add_le`) keeps
working unchanged for the scalar golden path and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .. import obs
from ..errors import LPError, ValidationError

__all__ = ["VariableIndexer", "LinearProgram", "LPSolution"]


class VariableIndexer:
    """Assigns dense indices to named variables (hashable keys)."""

    def __init__(self) -> None:
        self._index: dict = {}
        self._names: list = []

    def add(self, key) -> int:
        """Register ``key`` and return its index; keys must be unique."""
        if key in self._index:
            raise ValidationError(f"variable {key!r} already defined")
        idx = len(self._names)
        self._index[key] = idx
        self._names.append(key)
        return idx

    def extend(self, keys: list) -> np.ndarray:
        """Register many keys in one shot; returns their dense indices.

        Duplicate keys (within the batch or against existing variables)
        are rejected as a whole — the indexer is left unchanged.
        """
        start = len(self._names)
        self._index.update(zip(keys, range(start, start + len(keys))))
        if len(self._index) != start + len(keys):
            # Roll back to the pre-batch state before reporting.
            self._index = {k: i for i, k in enumerate(self._names)}
            raise ValidationError("duplicate variable keys in bulk add")
        self._names.extend(keys)
        return np.arange(start, start + len(keys))

    def __getitem__(self, key) -> int:
        return self._index[key]

    def __contains__(self, key) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> list:
        return list(self._names)


@dataclass
class LPSolution:
    """Solved LP: optimal value, variable vector, and lookup by name."""

    value: float
    x: np.ndarray
    indexer: VariableIndexer
    status: str = "optimal"

    def __getitem__(self, key) -> float:
        return float(self.x[self.indexer[key]])


def _require_finite(
    c: np.ndarray, A: sparse.csc_array, b: np.ndarray, bounds: np.ndarray
) -> None:
    """Reject what ``milp`` passes through unchecked (it validates ``c`` only).

    Given a NaN coefficient, HiGHS reports success with a wrong optimum.
    Infinite bounds are legitimate (unbounded variables); NaN ones are not.
    """
    for what, values in (
        ("objective", c),
        ("constraint coefficients", A.data),
        ("right-hand sides", b),
    ):
        if not np.isfinite(values).all():
            raise ValidationError(f"LP {what} must be finite")
    if np.isnan(bounds).any():
        raise ValidationError("LP variable bounds must not be NaN")


class LinearProgram:
    """``min c·x  s.t.  A_ub x <= b_ub,  lb <= x <= ub`` with named rows.

    Coefficients are accumulated as COO triplet blocks and assembled into
    one CSC matrix at solve time (duplicate entries in a row sum, matching
    the old per-row dict behaviour).  Equality constraints are expressed
    as paired inequalities by the (few) callers that need them.
    """

    def __init__(self) -> None:
        self.vars = VariableIndexer()
        self._obj: dict[int, float] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        #: COO triplet blocks: (global row ids, column ids, coefficients).
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []

    # -- variables -------------------------------------------------------
    def add_var(self, key, lb: float = 0.0, ub: float = np.inf, obj: float = 0.0) -> int:
        idx = self.vars.add(key)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        if obj:
            self._obj[idx] = float(obj)
        return idx

    def add_vars(self, keys: list, lb: float = 0.0, ub: float = np.inf) -> np.ndarray:
        """Register a batch of variables sharing scalar bounds.

        Returns the dense index array (contiguous).  Objective
        coefficients for bulk variables are set via ``add_var``-style
        callers only when needed; the AccMass LPs put the objective on
        the single ``t`` variable.
        """
        idx = self.vars.extend(keys)
        self._lb.extend([float(lb)] * len(keys))
        self._ub.extend([float(ub)] * len(keys))
        return idx

    # -- constraints -------------------------------------------------------
    def add_le(self, coeffs: dict, rhs: float, name: str = "") -> int:
        """Add ``sum coeffs[key] * x[key] <= rhs``; returns the row id."""
        row = {}
        for key, c in coeffs.items():
            if c == 0.0:
                continue
            row[self.vars[key]] = row.get(self.vars[key], 0.0) + float(c)
        r = len(self._rhs)
        if row:
            cols = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
            data = np.fromiter(row.values(), dtype=np.float64, count=len(row))
            self._blocks.append((np.full(cols.size, r, dtype=np.int64), cols, data))
        self._rhs.append(float(rhs))
        self._row_names.append(name or f"row{r}")
        return r

    def add_ge(self, coeffs: dict, rhs: float, name: str = "") -> int:
        """Add ``sum coeffs[key] * x[key] >= rhs`` (stored negated)."""
        return self.add_le({k: -c for k, c in coeffs.items()}, -float(rhs), name=name)

    def add_le_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        rhs: np.ndarray,
        names: list[str] | None = None,
    ) -> np.ndarray:
        """Add a block of ``<=`` rows from COO triplets in one call.

        ``rows`` holds block-local row ids ``0 .. len(rhs)-1`` (duplicate
        ``(row, col)`` entries sum); ``cols`` holds variable indices (from
        :meth:`add_vars`/:meth:`add_var`).  Returns the global row ids.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise ValidationError("block row ids must lie in [0, len(rhs))")
        if cols.size and (cols.min() < 0 or cols.max() >= len(self.vars)):
            raise ValidationError("block column ids reference unknown variables")
        base = len(self._rhs)
        keep = data != 0.0
        self._blocks.append((rows[keep] + base, cols[keep], data[keep]))
        self._rhs.extend(rhs.tolist())
        if names is None:
            names = [f"row{base + k}" for k in range(rhs.size)]
        elif len(names) != rhs.size:
            raise ValidationError("names must match the number of block rows")
        self._row_names.extend(names)
        return np.arange(base, base + rhs.size)

    def add_ge_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        rhs: np.ndarray,
        names: list[str] | None = None,
    ) -> np.ndarray:
        """Add a block of ``>=`` rows (stored negated, like :meth:`add_ge`)."""
        return self.add_le_rows(
            rows,
            cols,
            -np.asarray(data, dtype=np.float64),
            -np.asarray(rhs, dtype=np.float64),
            names=names,
        )

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @property
    def num_rows(self) -> int:
        return len(self._rhs)

    @property
    def row_names(self) -> list[str]:
        return list(self._row_names)

    # -- assembly and solving ----------------------------------------------
    def assemble(self) -> tuple[np.ndarray, sparse.csc_array, np.ndarray, np.ndarray]:
        """``(c, A_ub, b_ub, bounds)`` with duplicate COO entries summed.

        ``A_ub`` is built straight from the COO triplets into CSC, the
        column-wise layout HiGHS stores, so the solve converts nothing;
        its canonical (sorted, summed) form is the one a COO→CSR→CSC
        round trip gives.  ``bounds`` is an ``(num_vars, 2)`` float array
        of ``(lb, ub)`` pairs with ``np.inf`` marking unbounded-above.
        """
        nv = self.num_vars
        c = np.zeros(nv)
        for idx, v in self._obj.items():
            c[idx] = v
        if self._blocks:
            rows = np.concatenate([b[0] for b in self._blocks])
            cols = np.concatenate([b[1] for b in self._blocks])
            data = np.concatenate([b[2] for b in self._blocks])
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            data = np.zeros(0, dtype=np.float64)
        A = sparse.csc_array(
            (data, (rows, cols)), shape=(self.num_rows, nv), dtype=np.float64
        )
        b = np.asarray(self._rhs, dtype=np.float64)
        bounds = np.column_stack(
            (
                np.asarray(self._lb, dtype=np.float64),
                np.asarray(self._ub, dtype=np.float64),
            )
        )
        return c, A, b, bounds

    def solve(self) -> LPSolution:
        """Solve with HiGHS through one ``scipy.optimize.milp`` call.

        Raises :class:`ValidationError` on a non-finite objective,
        coefficient or right-hand side, or a NaN bound, before HiGHS sees
        the problem, and :class:`LPError` on any non-optimal status.
        """
        if self.num_vars == 0:
            return LPSolution(value=0.0, x=np.zeros(0), indexer=self.vars)
        c, A, b, bounds = self.assemble()
        _require_finite(c, A, b, bounds)
        obs.add("lp.vars", self.num_vars)
        obs.add("lp.rows", self.num_rows)
        obs.add("lp.nnz", int(A.nnz))
        with obs.span(
            "lp.solve", rows=self.num_rows, vars=self.num_vars, nnz=int(A.nnz)
        ):
            # Imported inside the span: the first solve in a process pays
            # for loading scipy.optimize, and the trace should say so.
            from scipy.optimize import Bounds, LinearConstraint, milp

            res = milp(
                c,
                bounds=Bounds(bounds[:, 0], bounds[:, 1]),
                constraints=LinearConstraint(A, -np.inf, b) if self.num_rows else None,
            )
        if not res.success:
            raise LPError(f"LP solve failed: status={res.status} ({res.message})")
        return LPSolution(value=float(res.fun), x=res.x, indexer=self.vars)
