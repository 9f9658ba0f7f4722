"""The LP builders against their golden reference.

Property tests over fuzzer-generated instances: every DAG kind crossed
with every probability model (the same 42 families `repro.verify` draws
from, mirroring ``tests/sim/test_exact_engines_equiv.py``).  The sparse
builders (`repro.lp.acc_mass`) and the per-variable golden builders
(`repro.lp.scalar`) must produce structurally identical programs (same
variables, same named rows in the same order, same assembled matrices),
optima within 1e-9, feasible `check_fractional` certificates — and,
downstream, a Theorem 4.1 rounding of the production (LP1) solution that
succeeds with a valid certificate.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.lp.acc_mass import (
    DEFAULT_TARGET_MASS,
    build_lp1,
    build_lp2,
    check_fractional,
    solve_lp1,
    solve_lp2,
)
from repro.lp.scalar import (
    build_lp1_scalar,
    build_lp2_scalar,
    solve_lp1_scalar,
    solve_lp2_scalar,
)
from repro.rounding.round_lp import round_acc_mass
from repro.verify.cases import CaseSpec, build_instance
from repro.workloads import DAG_KINDS, PROB_MODELS

FAMILIES = [f"{dag}/{prob}" for dag in DAG_KINDS for prob in PROB_MODELS]
#: Families the (LP1) → rounding pipeline applies to (chain-shaped DAGs).
CHAIN_FAMILIES = [
    f"{dag}/{prob}"
    for dag in ("independent", "chains")
    for prob in PROB_MODELS
]


def _instance(family: str, trial: int):
    """A deterministic fuzzer-family instance (sized for fast LP solves)."""
    dag_kind = family.partition("/")[0]
    digest = hashlib.sha256(f"lp:{family}#{trial}".encode()).digest()
    seed = int.from_bytes(digest[:4], "little")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 5))
    params = {}
    if dag_kind == "chains":
        params["num_chains"] = int(rng.integers(1, n + 1))
    elif dag_kind == "layered":
        params["layers"] = int(rng.integers(1, n + 1))
    elif dag_kind == "diamond":
        params["width"] = int(rng.integers(1, 4))
    spec = CaseSpec(
        family=family,
        schedule="round_robin",
        n=n,
        m=m,
        instance_seed=int(rng.integers(0, 2**31)),
        sim_seed=0,
        params=params,
    )
    return build_instance(spec)


def _assert_same_structure(lp_vector, lp_scalar):
    """Both builders emit the *same program*: variables, rows, matrices."""
    assert lp_vector.num_vars == lp_scalar.num_vars
    assert lp_vector.num_rows == lp_scalar.num_rows
    assert lp_vector.vars.names == lp_scalar.vars.names
    assert lp_vector.row_names == lp_scalar.row_names
    c_v, a_v, b_v, bounds_v = lp_vector.assemble()
    c_s, a_s, b_s, bounds_s = lp_scalar.assemble()
    np.testing.assert_array_equal(c_v, c_s)
    np.testing.assert_array_equal(b_v, b_s)
    np.testing.assert_array_equal(bounds_v, bounds_s)
    np.testing.assert_array_equal(a_v.toarray(), a_s.toarray())


@pytest.mark.parametrize("family", FAMILIES)
def test_lp2_engines_match_on_fuzzer_families(family):
    for trial in range(2):
        instance = _instance(family, trial)
        _assert_same_structure(
            build_lp2(instance), build_lp2_scalar(instance, DEFAULT_TARGET_MASS)
        )
        fracs = {"vector": solve_lp2(instance), "scalar": solve_lp2_scalar(instance)}
        t_v, t_s = fracs["vector"].t, fracs["scalar"].t
        assert abs(t_v - t_s) <= 1e-9 * max(1.0, abs(t_s)), (
            f"{family} trial {trial}: vector {t_v!r} vs scalar {t_s!r}"
        )
        for eng, frac in fracs.items():
            cert = check_fractional(instance, frac, windows=False)
            assert cert["ok"], f"{family} trial {trial} {eng}: {cert}"


@pytest.mark.parametrize("family", CHAIN_FAMILIES)
def test_lp1_and_rounding_engines_match(family):
    for trial in range(2):
        instance = _instance(family, trial)
        chains = instance.dag.chains()
        _assert_same_structure(
            build_lp1(instance, chains),
            build_lp1_scalar(instance, chains, DEFAULT_TARGET_MASS),
        )
        fracs = {"vector": solve_lp1(instance), "scalar": solve_lp1_scalar(instance)}
        t_v, t_s = fracs["vector"].t, fracs["scalar"].t
        assert abs(t_v - t_s) <= 1e-9 * max(1.0, abs(t_s))
        for eng, frac in fracs.items():
            cert = check_fractional(instance, frac)
            assert cert["ok"], f"{family} trial {trial} {eng}: {cert}"
        # The production rounding of the production solution must succeed
        # (a RoundingError here is a bug, as in the `rounding` oracle) and
        # certify itself.
        integral = round_acc_mass(instance, fracs["vector"])
        integral.check(instance)


def test_solutions_share_extraction_layout(tiny_independent):
    """Dense (x, d) readouts agree entrywise, not just the optimum."""
    for vector, golden in ((solve_lp1, solve_lp1_scalar), (solve_lp2, solve_lp2_scalar)):
        frac_v = vector(tiny_independent)
        frac_s = golden(tiny_independent)
        np.testing.assert_allclose(frac_v.x, frac_s.x, atol=1e-9)
        np.testing.assert_allclose(frac_v.d, frac_s.d, atol=1e-9)
        np.testing.assert_allclose(frac_v.masses, frac_s.masses, atol=1e-9)
