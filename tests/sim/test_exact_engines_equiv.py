"""Sparse-vs-scalar equivalence of the exact Markov engines.

Property tests over fuzzer-generated instances: every DAG kind crossed
with every probability model (the same families `repro.verify` draws
from), evaluated as both a cyclic schedule and an explicit regimen.  The
vectorized sparse engine (`repro.sim.exact.sparse`) and the scalar golden
path (`repro.sim.exact.scalar`) must agree to ≤1e-9 — including on
*which* cases are infeasible (no-progress ``ScheduleError``) — and the
exact completion curve must be a CDF prefix: monotone nondecreasing and
ending at most 1.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.baselines import (
    round_robin_baseline,
    serial_baseline,
    state_round_robin_regimen,
)
from repro._util import iterable_from_bitmask
from repro.core.schedule import Regimen
from repro.errors import ScheduleError, ValidationError
from repro.sim.markov import (
    EXACT_ENGINES,
    eligible_bitmask,
    exact_completion_curve,
    expected_makespan_cyclic,
    expected_makespan_regimen,
    state_distribution,
)
from repro.verify.cases import DAG_KINDS, PROB_MODELS, CaseSpec, build_instance

FAMILIES = [f"{dag}/{prob}" for dag in DAG_KINDS for prob in PROB_MODELS]


def _instance(family: str, trial: int):
    """A deterministic fuzzer-family instance, sized for exact solving."""
    dag_kind = family.partition("/")[0]
    digest = hashlib.sha256(f"{family}#{trial}".encode()).digest()
    seed = int.from_bytes(digest[:4], "little")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, 4))
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


def _solve_both(fn):
    """Run ``fn(engine)`` on both engines; outcomes must have the same kind."""
    outcomes = {}
    for engine in EXACT_ENGINES:
        try:
            outcomes[engine] = ("ok", fn(engine))
        except ScheduleError:
            outcomes[engine] = ("no-progress", None)
    kinds = {kind for kind, _ in outcomes.values()}
    assert len(kinds) == 1, f"engines disagree on feasibility: {outcomes}"
    return outcomes


@pytest.mark.parametrize("family", FAMILIES)
def test_sparse_matches_scalar_on_fuzzer_families(family):
    for trial in range(2):
        instance = _instance(family, trial)
        cyclic = round_robin_baseline(instance).schedule
        serial = serial_baseline(instance).schedule
        regimen = state_round_robin_regimen(instance).schedule
        # The vectorized table against its per-state definition.
        expected = np.full((1 << instance.n, instance.m), Regimen.UNDEFINED)
        for state in range(1, 1 << instance.n):
            jobs = iterable_from_bitmask(eligible_bitmask(instance, state))
            expected[state] = [jobs[i % len(jobs)] for i in range(instance.m)]
        np.testing.assert_array_equal(
            regimen.table, expected, err_msg=f"{family} trial {trial}"
        )
        for label, fn in [
            ("cyclic/rr", lambda e: expected_makespan_cyclic(instance, cyclic, engine=e)),
            ("cyclic/serial", lambda e: expected_makespan_cyclic(instance, serial, engine=e)),
            ("regimen", lambda e: expected_makespan_regimen(instance, regimen, engine=e)),
        ]:
            outcomes = _solve_both(fn)
            if outcomes["sparse"][0] == "ok":
                sparse, scalar = outcomes["sparse"][1], outcomes["scalar"][1]
                assert abs(sparse - scalar) <= 1e-9 * max(1.0, abs(scalar)), (
                    f"{family} trial {trial} {label}: sparse {sparse!r} vs "
                    f"scalar {scalar!r}"
                )


@pytest.mark.parametrize("family", FAMILIES[:: 7])
def test_state_distribution_engines_agree(family):
    instance = _instance(family, 0)
    cyclic = round_robin_baseline(instance).schedule
    sparse = state_distribution(instance, cyclic, horizon=10, engine="sparse")
    scalar = state_distribution(instance, cyclic, horizon=10, engine="scalar")
    np.testing.assert_allclose(sparse, scalar, atol=1e-12)
    np.testing.assert_allclose(sparse.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_completion_curve_is_a_cdf_prefix(family):
    instance = _instance(family, 0)
    cyclic = round_robin_baseline(instance).schedule
    for engine in EXACT_ENGINES:
        curve = exact_completion_curve(instance, cyclic, horizon=12, engine=engine)
        assert curve.shape == (12,)
        assert np.all(np.diff(curve) >= -1e-12), f"{engine}: curve not monotone"
        assert curve[-1] <= 1.0 + 1e-12, f"{engine}: curve exceeds 1"
        assert curve[0] >= -1e-12
    sparse = exact_completion_curve(instance, cyclic, horizon=12, engine="sparse")
    scalar = exact_completion_curve(instance, cyclic, horizon=12, engine="scalar")
    np.testing.assert_allclose(sparse, scalar, atol=1e-12)


def test_unknown_engine_rejected(tiny_independent):
    regimen = state_round_robin_regimen(tiny_independent).schedule
    with pytest.raises(ValidationError, match="unknown exact engine"):
        expected_makespan_regimen(tiny_independent, regimen, engine="warp")


def test_sparse_reaches_beyond_old_scalar_ceiling():
    # n = 17 has 2^17 states — past the old practical ceiling (2^16).  The
    # sparse engine solves it in well under a second and agrees with the
    # independent serial-schedule expectation: all machines gang up on one
    # job at a time, so E = sum over jobs of geometric means.
    rng = np.random.default_rng(3)
    n = 17
    p = rng.uniform(0.2, 0.9, size=(2, n))
    from repro import SUUInstance

    instance = SUUInstance(p, name="n17")
    serial = serial_baseline(instance).schedule
    value = expected_makespan_cyclic(instance, serial, engine="sparse")
    q = 1.0 - (1.0 - p[0]) * (1.0 - p[1])
    # The serial cycle works each job for several consecutive steps then
    # moves on; cross-check against Monte Carlo instead of a closed form.
    from repro.sim import estimate_makespan

    est = estimate_makespan(instance, serial, reps=600, rng=7, max_steps=10_000)
    assert q.min() > 0
    assert abs(est.mean - value) <= 5 * est.std_err + 1e-6
