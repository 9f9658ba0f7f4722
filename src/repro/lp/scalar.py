"""Golden-reference (LP1)/(LP2) builders: the original per-variable loops.

This module preserves the first-generation AccMass LP construction code
verbatim (the same way ``sim/exact/scalar.py`` keeps the dict-DP exact
engine): one ``add_var``/``add_le`` call per variable and constraint, a
Python loop over every ``(i, j)`` pair, and a per-entry extraction of the
solved vector.  Production never runs it; it exists so the vectorized
builders of :mod:`repro.lp.acc_mass` always have an independent
implementation to triangulate against.  ``tests/lp/test_lp_engines_equiv.py``
compares the assembled programs, and the fuzzer's ``lpflow`` oracle, the
Lemma 4.2 sandwich test and ``benchmarks/bench_perf_lp_rounding.py`` call
:func:`solve_lp1_scalar` / :func:`solve_lp2_scalar` directly.

Do not optimize this module; its slowness is the benchmark baseline and
its simplicity is the verification anchor.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import SUUInstance
from .acc_mass import DEFAULT_TARGET_MASS, FractionalAccMass
from .model import LinearProgram, LPSolution


def build_lp1_scalar(
    instance: SUUInstance,
    chains: list[list[int]],
    target_mass: float,
) -> LinearProgram:
    """Assemble (LP1) with one Python-level call per variable and row."""
    m, n = instance.m, instance.n
    p = instance.p
    lp = LinearProgram()
    t_var = "t"
    lp.add_var(t_var, lb=0.0, obj=1.0)
    for j in range(n):
        lp.add_var(("d", j), lb=1.0)
    pairs: list[tuple[int, int]] = []
    for i in range(m):
        for j in range(n):
            if p[i, j] > 0.0:
                lp.add_var(("x", i, j), lb=0.0)
                pairs.append((i, j))
    # (1) mass
    for j in range(n):
        coeffs = {("x", i, j): p[i, j] for i in range(m) if p[i, j] > 0.0}
        lp.add_ge(coeffs, target_mass, name=f"mass[{j}]")
    # (2) machine load
    for i in range(m):
        coeffs = {("x", i, j): 1.0 for j in range(n) if p[i, j] > 0.0}
        coeffs[t_var] = -1.0
        lp.add_le(coeffs, 0.0, name=f"load[{i}]")
    # (3) chain length
    for k, chain in enumerate(chains):
        coeffs = {("d", j): 1.0 for j in chain}
        coeffs[t_var] = -1.0
        lp.add_le(coeffs, 0.0, name=f"chain[{k}]")
    # (4) windows
    for (i, j) in pairs:
        lp.add_le({("x", i, j): 1.0, ("d", j): -1.0}, 0.0, name=f"win[{i},{j}]")
    return lp


def build_lp2_scalar(instance: SUUInstance, target_mass: float) -> LinearProgram:
    """Assemble (LP2): (LP1) without chain/window constraints (Thm 4.5)."""
    m, n = instance.m, instance.n
    p = instance.p
    lp = LinearProgram()
    lp.add_var("t", lb=0.0, obj=1.0)
    for i in range(m):
        for j in range(n):
            if p[i, j] > 0.0:
                lp.add_var(("x", i, j), lb=0.0)
    for j in range(n):
        coeffs = {("x", i, j): p[i, j] for i in range(m) if p[i, j] > 0.0}
        lp.add_ge(coeffs, target_mass, name=f"mass[{j}]")
    for i in range(m):
        coeffs = {("x", i, j): 1.0 for j in range(n) if p[i, j] > 0.0}
        coeffs["t"] = -1.0
        lp.add_le(coeffs, 0.0, name=f"load[{i}]")
    return lp


def extract_scalar(
    instance: SUUInstance,
    sol: LPSolution,
    has_d: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry readout of ``(x, d)`` from a solved (LP1)/(LP2)."""
    m, n = instance.m, instance.n
    x = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            if ("x", i, j) in sol.indexer:
                x[i, j] = max(0.0, sol[("x", i, j)])
    if has_d:
        d = np.array([max(1.0, sol[("d", j)]) for j in range(n)])
    else:
        d = np.maximum(1.0, x.max(axis=0))
    return x, d


def solve_lp1_scalar(
    instance: SUUInstance,
    chains: list[list[int]] | None = None,
    target_mass: float = DEFAULT_TARGET_MASS,
) -> FractionalAccMass:
    """Build, solve and read out (LP1) on the golden path."""
    if chains is None:
        chains = instance.dag.chains()
    sol = build_lp1_scalar(instance, chains, target_mass).solve()
    x, d = extract_scalar(instance, sol, has_d=True)
    return FractionalAccMass.from_arrays(instance, x, d, sol.value, target_mass, chains)


def solve_lp2_scalar(
    instance: SUUInstance, target_mass: float = DEFAULT_TARGET_MASS
) -> FractionalAccMass:
    """Build, solve and read out (LP2) on the golden path."""
    chains = [[j] for j in range(instance.n)]
    sol = build_lp2_scalar(instance, target_mass).solve()
    x, d = extract_scalar(instance, sol, has_d=False)
    return FractionalAccMass.from_arrays(instance, x, d, sol.value, target_mass, chains)
