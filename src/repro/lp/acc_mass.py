"""The AccMass linear programs: (LP1) for chains, (LP2) for independent jobs.

(LP1), §4.1 of the paper::

    min t
    s.t.  Σ_i p_ij x_ij >= 1/2          ∀ j          (mass)
          Σ_j x_ij      <= t            ∀ i          (machine load)
          Σ_{j∈C_k} d_j <= t            ∀ chain C_k  (chain length)
          0 <= x_ij <= d_j              ∀ i, j       (window)
          d_j >= 1                      ∀ j

Variables ``x_ij`` exist only for pairs with ``p_ij > 0``.  (LP2), used by
Theorem 4.5 for independent jobs, drops the chain and window constraints.

The LP optimum ``T*`` relates to the optimal expected makespan through
Lemma 4.2: ``T* <= 16 T^OPT`` — which is also how the package derives its
LP lower bound ``T^OPT >= T*/16``.

Production builds both programs with sparse-matrix construction: the
positive ``(i, j)`` pairs come from one ``np.nonzero``, variables register
in bulk, and each constraint family lands as a single COO block
(:meth:`~repro.lp.model.LinearProgram.add_le_rows`).  The original
per-variable Python loops stay verbatim in :mod:`repro.lp.scalar` as the
golden reference; ``tests/lp/test_lp_engines_equiv.py`` asserts that both
produce the same variables and named rows in the same order and the same
matrices, and the ``lpflow`` oracle of :mod:`repro.verify` fuzzes their
optima (≤1e-9) continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .. import obs
from ..core.instance import SUUInstance
from ..errors import ValidationError
from .model import LinearProgram, LPSolution

__all__ = [
    "FractionalAccMass",
    "build_lp1",
    "build_lp2",
    "solve_lp1",
    "solve_lp2",
    "check_fractional",
]

#: Target mass per job in the LP (the paper's 1/2).
DEFAULT_TARGET_MASS = 0.5


@dataclass
class FractionalAccMass:
    """A fractional AccMass solution.

    ``x`` is dense ``(m, n)`` (zero where ``p_ij = 0``), ``d`` the per-job
    window lengths (all ones for LP2, where the constraint is absent),
    ``t`` the LP optimum ``T*``, and ``masses`` the per-job fractional mass
    ``Σ_i p_ij x_ij``.  Build one with :meth:`from_arrays`, which derives
    ``masses`` from the instance.
    """

    x: np.ndarray
    d: np.ndarray
    t: float
    target_mass: float
    chains: list[list[int]]
    masses: np.ndarray

    @classmethod
    def from_arrays(
        cls,
        instance: SUUInstance,
        x: np.ndarray,
        d: np.ndarray,
        t: float,
        target_mass: float,
        chains: list[list[int]],
    ) -> FractionalAccMass:
        """The solution ``(x, d, t)`` read out of a solved (LP1)/(LP2)."""
        return cls(
            x=x,
            d=d,
            t=float(t),
            target_mass=target_mass,
            chains=chains,
            masses=(instance.p * x).sum(axis=0),
        )


def _validate_chains(instance: SUUInstance, chains: list[list[int]]) -> None:
    seen: set[int] = set()
    for chain in chains:
        for j in chain:
            if not (0 <= j < instance.n):
                raise ValidationError(f"chain job {j} out of range")
            if j in seen:
                raise ValidationError(f"job {j} appears in two chains")
            seen.add(j)
    if len(seen) != instance.n:
        missing = set(range(instance.n)) - seen
        raise ValidationError(f"chains do not cover jobs {sorted(missing)}")


def _chain_labels(n: int, chains: list[list[int]]) -> np.ndarray:
    """Per-job chain index (chains partition the jobs, validated upstream)."""
    labels = np.zeros(n, dtype=np.int64)
    for k, chain in enumerate(chains):
        labels[np.asarray(chain, dtype=np.int64)] = k
    return labels


# ----------------------------------------------------------------------
# Builders and solvers
# ----------------------------------------------------------------------
def _pair_index(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major ``(i, j)`` arrays of the positive pairs — the x variables."""
    return np.nonzero(p > 0.0)


def _x_keys(ii: np.ndarray, jj: np.ndarray) -> list:
    # zip() assembles the ("x", i, j) tuples in C — measurably faster than
    # a comprehension at the tens-of-thousands of pairs the perf bench runs.
    return list(zip(repeat("x"), ii.tolist(), jj.tolist()))


def _add_mass_and_load_rows(
    lp: LinearProgram,
    instance: SUUInstance,
    ii: np.ndarray,
    jj: np.ndarray,
    t_idx: int,
    x_idx: np.ndarray,
    target_mass: float,
) -> None:
    """The two constraint families (LP1) and (LP2) share."""
    m, n = instance.m, instance.n
    # (1) mass: -Σ_i p_ij x_ij <= -target (one row per job, ge stored negated)
    lp.add_ge_rows(
        rows=jj,
        cols=x_idx,
        data=instance.p[ii, jj],
        rhs=np.full(n, target_mass),
        names=[f"mass[{j}]" for j in range(n)],
    )
    # (2) machine load: Σ_j x_ij - t <= 0 (one row per machine)
    lp.add_le_rows(
        rows=np.concatenate([ii, np.arange(m)]),
        cols=np.concatenate([x_idx, np.full(m, t_idx)]),
        data=np.concatenate([np.ones(ii.size), -np.ones(m)]),
        rhs=np.zeros(m),
        names=[f"load[{i}]" for i in range(m)],
    )


def build_lp1(
    instance: SUUInstance,
    chains: list[list[int]] | None = None,
    target_mass: float = DEFAULT_TARGET_MASS,
) -> LinearProgram:
    """Assemble (LP1) for ``instance`` with the given chain partition.

    ``chains`` defaults to the instance DAG's own chains (requires a
    disjoint-chains DAG).  Singleton chains are allowed, so the same
    builder covers independent jobs with window semantics.
    """
    if chains is None:
        chains = instance.dag.chains()
    _validate_chains(instance, chains)
    n = instance.n
    with obs.span("lp.build", lp="lp1", n=n, m=instance.m):
        ii, jj = _pair_index(instance.p)
        lp = LinearProgram()
        t_idx = lp.add_var("t", lb=0.0, obj=1.0)
        d_idx = lp.add_vars([("d", j) for j in range(n)], lb=1.0)
        x_idx = lp.add_vars(_x_keys(ii, jj), lb=0.0)
        _add_mass_and_load_rows(lp, instance, ii, jj, t_idx, x_idx, target_mass)
        # (3) chain length: Σ_{j∈C_k} d_j - t <= 0 (one row per chain)
        num_chains = len(chains)
        labels = _chain_labels(n, chains)
        lp.add_le_rows(
            rows=np.concatenate([labels, np.arange(num_chains)]),
            cols=np.concatenate([d_idx, np.full(num_chains, t_idx)]),
            data=np.concatenate([np.ones(n), -np.ones(num_chains)]),
            rhs=np.zeros(num_chains),
            names=[f"chain[{k}]" for k in range(num_chains)],
        )
        # (4) windows: x_ij - d_j <= 0 (one row per positive pair)
        pair_rows = np.arange(ii.size)
        lp.add_le_rows(
            rows=np.concatenate([pair_rows, pair_rows]),
            cols=np.concatenate([x_idx, d_idx[jj]]),
            data=np.concatenate([np.ones(ii.size), -np.ones(ii.size)]),
            rhs=np.zeros(ii.size),
            names=[f"win[{i},{j}]" for i, j in zip(ii.tolist(), jj.tolist())],
        )
        return lp


def build_lp2(
    instance: SUUInstance, target_mass: float = DEFAULT_TARGET_MASS
) -> LinearProgram:
    """Assemble (LP2): (LP1) without chain/window constraints (Thm 4.5)."""
    with obs.span("lp.build", lp="lp2", n=instance.n, m=instance.m):
        ii, jj = _pair_index(instance.p)
        lp = LinearProgram()
        t_idx = lp.add_var("t", lb=0.0, obj=1.0)
        x_idx = lp.add_vars(_x_keys(ii, jj), lb=0.0)
        _add_mass_and_load_rows(lp, instance, ii, jj, t_idx, x_idx, target_mass)
        return lp


def _extract(
    instance: SUUInstance,
    sol: LPSolution,
    chains: list[list[int]],
    target_mass: float,
    has_d: bool,
) -> FractionalAccMass:
    """Array readout of ``(x, d)`` using the builders' variable layout.

    The builders register ``t``, then (for LP1) the ``d`` block, then the
    ``x`` block in row-major pair order — so the solved vector slices
    directly into the dense matrices with two fancy-index writes.
    """
    m, n = instance.m, instance.n
    ii, jj = _pair_index(instance.p)
    x = np.zeros((m, n), dtype=np.float64)
    offset = 1 + (n if has_d else 0)
    x[ii, jj] = np.maximum(0.0, sol.x[offset : offset + ii.size])
    if has_d:
        d = np.maximum(1.0, sol.x[1 : 1 + n])
    else:
        d = np.maximum(1.0, x.max(axis=0, initial=0.0))
    return FractionalAccMass.from_arrays(instance, x, d, sol.value, target_mass, chains)


def solve_lp1(
    instance: SUUInstance,
    chains: list[list[int]] | None = None,
    target_mass: float = DEFAULT_TARGET_MASS,
) -> FractionalAccMass:
    """Solve (LP1); always feasible (assign enough steps to every job)."""
    if chains is None:
        chains = instance.dag.chains()
    lp = build_lp1(instance, chains, target_mass)
    return _extract(instance, lp.solve(), chains, target_mass, has_d=True)


def solve_lp2(
    instance: SUUInstance, target_mass: float = DEFAULT_TARGET_MASS
) -> FractionalAccMass:
    """Solve (LP2) for independent jobs."""
    chains = [[j] for j in range(instance.n)]
    lp = build_lp2(instance, target_mass)
    return _extract(instance, lp.solve(), chains, target_mass, has_d=False)


# ----------------------------------------------------------------------
# Vectorized accumulated-mass check
# ----------------------------------------------------------------------
def check_fractional(
    instance: SUUInstance,
    frac: FractionalAccMass,
    tol: float = 1e-7,
    windows: bool = True,
) -> dict:
    """Vectorized feasibility certificate for an AccMass solution.

    Re-verifies every (LP1) inequality against the instance with array
    arithmetic — per-job accumulated mass ``Σ_i p_ij x_ij`` at least the
    target, machine loads and chain window sums at most ``t``, windows
    ``x_ij <= d_j`` — and reports each margin plus an overall ``"ok"``
    flag.  ``windows=False`` drops the chain-sum and window gates from
    ``ok``: (LP2) has neither constraint family, and its synthesized
    ``d_j = max(1, max_i x_ij)`` may legitimately exceed ``t`` when
    ``t < 1``.  Shared by the solvers' callers, the ``lpflow``
    differential oracle, and the equivalence property tests; accepts any
    object with ``x``/``d``/``t``/``target_mass``/``chains`` fields, so
    integral solutions can be re-checked through the same code path.
    """
    p = instance.p
    x = np.asarray(frac.x, dtype=np.float64)
    d = np.asarray(frac.d, dtype=np.float64)
    masses = (p * x).sum(axis=0)
    loads = x.sum(axis=1)
    labels = _chain_labels(instance.n, frac.chains)
    chain_sums = (
        np.bincount(labels, weights=d, minlength=len(frac.chains))
        if instance.n
        else np.zeros(len(frac.chains))
    )
    min_mass = float(masses.min()) if masses.size else 0.0
    max_load = float(loads.max()) if loads.size else 0.0
    max_chain = float(chain_sums.max()) if chain_sums.size else 0.0
    windows_ok = bool(np.all(x <= d[None, :] + tol)) if windows else True
    chain_ok = (max_chain <= frac.t + tol) if windows else True
    ok = (
        min_mass + tol >= frac.target_mass
        and max_load <= frac.t + tol
        and chain_ok
        and windows_ok
        and bool(np.all(x >= -tol))
        and bool(np.all(d >= 1.0 - tol))
    )
    return {
        "ok": ok,
        "min_mass": min_mass,
        "target_mass": frac.target_mass,
        "max_machine_load": max_load,
        "max_chain_window_sum": max_chain,
        "t": float(frac.t),
        "windows_ok": windows_ok,
    }
