"""Sparse-vs-scalar equivalence of the exact Markov engines.

Property tests over fuzzer-generated instances: every DAG kind crossed
with every probability model (the same families `repro.verify` draws
from), evaluated as both a cyclic schedule and an explicit regimen.  The
vectorized sparse engine (`repro.sim.exact.sparse`) and the scalar golden
path (`repro.sim.exact.scalar`) must agree to ≤1e-9 — including on
*which* cases are infeasible (no-progress ``ScheduleError``) — and the
exact completion curve must be a CDF prefix: monotone nondecreasing and
ending at most 1.

The lattice kernels the sparse engine, ``state_round_robin`` and the
Malewicz DP share are held *bitwise* to the bit-matrix kernels they
replaced, kept here as the golden reference: eligibility masks, active-bit
positions, and every transition block's states, deltas, weights and layer
pointers.
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
from repro.evaluate import evaluate
from repro.opt.malewicz import optimal_regimen
from repro.sim.exact.lattice import (
    assignment_success,
    bit_positions,
    build_position_structures,
    build_regimen_structure,
    eligibility_masks,
    popcount_array,
)
from repro.evaluate.request import ENGINES
from repro.sim.exact.scalar import eligible_bitmask
from repro.verify.cases import DAG_KINDS, PROB_MODELS, CaseSpec, build_instance
from repro.workloads import random_instance

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


def _exact(instance, schedule, engine, **kwargs):
    return evaluate(instance, schedule, mode="exact", engine=engine, **kwargs)


def _curve(instance, schedule, horizon, engine):
    return _exact(
        instance, schedule, engine, metrics="completion_curve", horizon=horizon
    ).completion_curve


def _solve_both(fn):
    """Run ``fn(engine)`` on both engines; outcomes must have the same kind."""
    outcomes = {}
    for engine in ENGINES:
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
            ("cyclic/rr", lambda e: _exact(instance, cyclic, e).makespan),
            ("cyclic/serial", lambda e: _exact(instance, serial, e).makespan),
            ("regimen", lambda e: _exact(instance, regimen, e).makespan),
        ]:
            outcomes = _solve_both(fn)
            if outcomes["auto"][0] == "ok":
                sparse, scalar = outcomes["auto"][1], outcomes["scalar"][1]
                assert abs(sparse - scalar) <= 1e-9 * max(1.0, abs(scalar)), (
                    f"{family} trial {trial} {label}: sparse {sparse!r} vs "
                    f"scalar {scalar!r}"
                )


@pytest.mark.parametrize("family", FAMILIES[:: 7])
def test_state_distribution_engines_agree(family):
    instance = _instance(family, 0)
    cyclic = round_robin_baseline(instance).schedule
    sparse, scalar = (
        _exact(
            instance, cyclic, e, metrics="state_distribution", horizon=10
        ).state_distribution
        for e in ENGINES
    )
    np.testing.assert_allclose(sparse, scalar, atol=1e-12)
    np.testing.assert_allclose(sparse.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_completion_curve_is_a_cdf_prefix(family):
    instance = _instance(family, 0)
    cyclic = round_robin_baseline(instance).schedule
    for engine in ENGINES:
        curve = _curve(instance, cyclic, 12, engine)
        assert curve.shape == (12,)
        assert np.all(np.diff(curve) >= -1e-12), f"{engine}: curve not monotone"
        assert curve[-1] <= 1.0 + 1e-12, f"{engine}: curve exceeds 1"
        assert curve[0] >= -1e-12
    sparse = _curve(instance, cyclic, 12, "auto")
    scalar = _curve(instance, cyclic, 12, "scalar")
    np.testing.assert_allclose(sparse, scalar, atol=1e-12)


def test_unknown_engine_rejected(tiny_independent):
    regimen = state_round_robin_regimen(tiny_independent).schedule
    with pytest.raises(ValidationError, match="unknown engine"):
        _exact(tiny_independent, regimen, "warp")


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
    value = _exact(instance, serial, "auto").makespan
    q = 1.0 - (1.0 - p[0]) * (1.0 - p[1])
    # The serial cycle works each job for several consecutive steps then
    # moves on; cross-check against Monte Carlo instead of a closed form.
    est = evaluate(instance, serial, mode="mc", reps=600, seed=7, max_steps=10_000)
    assert q.min() > 0
    assert abs(est.makespan - value) <= 5 * est.std_err + 1e-6


# ----------------------------------------------------------------------
# Golden lattice kernels: the boolean-scatter eligibility masks, the
# bit-matrix active-bit positions, and blocks built with a matmul for the
# deltas, one full-width ``np.where`` per bit for the weights and one
# argsort per block.
# ----------------------------------------------------------------------
def _golden_eligibility_masks(instance):
    n = instance.n
    states = np.arange(1 << n, dtype=np.int64)
    elig = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        ok = ((states >> j) & 1).astype(bool)
        pm = instance.dag.pred_mask(j)
        if pm:
            ok &= (states & pm) == 0
        elig[ok] |= 1 << j
    return elig


def _golden_bit_positions(act, k, n):
    if k == 0:
        return np.zeros((act.size, 0), dtype=np.int64)
    bitmat = ((act[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(bool)
    return np.nonzero(bitmat)[1].reshape(act.size, k)


def _golden_block(sel, bits, qbits, pc, n):
    order = np.argsort(pc[sel], kind="stable")
    sel, bits, qbits = sel[order], bits[order], qbits[order]
    k = bits.shape[1]
    incl = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(bool)
    deltas = (np.left_shift(np.int64(1), bits)) @ incl.T.astype(np.int64)
    weights = np.ones((sel.size, 1 << k), dtype=np.float64)
    for b in range(k):
        qb = qbits[:, b : b + 1]
        weights *= np.where(incl[:, b][None, :], qb, 1.0 - qb)
    layer_ptr = np.searchsorted(pc[sel], np.arange(n + 2))
    return sel, deltas, weights, layer_ptr


def _golden_step_structure(instance, assignment, elig, pc):
    n = instance.n
    q, served = assignment_success(instance.p, assignment)
    act = elig & served
    karr = popcount_array(act)
    states = np.arange(1 << n, dtype=np.int64)
    blocks = []
    for kk in np.unique(karr):
        sel = states[karr == kk]
        bits = _golden_bit_positions(act[sel], int(kk), n)
        qbits = q[bits] if kk else np.zeros((sel.size, 0), dtype=np.float64)
        blocks.append(_golden_block(sel, bits, qbits, pc, n))
    return blocks


def _golden_regimen_structure(instance, table, elig, pc):
    p = instance.p
    n, m = instance.n, instance.m
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    served = np.zeros(size, dtype=np.int64)
    for i in range(m):
        j = table[:, i].astype(np.int64)
        jn = np.maximum(j, 0)
        positive = (j >= 0) & (p[i, jn] > 0.0)
        served |= np.where(positive, np.left_shift(np.int64(1), jn), np.int64(0))
    act = elig & served
    act[0] = 0
    karr = popcount_array(act)
    blocks = []
    for kk in np.unique(karr):
        sel = states[karr == kk]
        bits = _golden_bit_positions(act[sel], int(kk), n)
        if kk:
            failb = np.ones((sel.size, kk), dtype=np.float64)
            for i in range(m):
                j = table[sel, i].astype(np.int64)
                failb *= np.where(j[:, None] == bits, 1.0 - p[i, bits], 1.0)
            qbits = 1.0 - failb
        else:
            qbits = np.zeros((sel.size, 0), dtype=np.float64)
        blocks.append(_golden_block(sel, bits, qbits, pc, n))
    return blocks


def _assert_blocks_identical(blocks, golden, label):
    assert len(blocks) == len(golden), label
    for i, (block, (states, deltas, weights, layer_ptr)) in enumerate(zip(blocks, golden)):
        for name, got, want in [
            ("states", block.states, states),
            ("deltas", block.deltas, deltas),
            ("weights", block.weights.view(np.int64), weights.view(np.int64)),
            ("layer_ptr", block.layer_ptr, layer_ptr),
        ]:
            assert got.dtype == want.dtype, f"{label} block {i} {name} dtype"
            # The sweeps' einsum sums in layout order: keep (G, 2^k) C order.
            assert got.flags.c_contiguous, f"{label} block {i} {name} layout"
            np.testing.assert_array_equal(got, want, err_msg=f"{label} block {i} {name}")


#: Every fuzzer family at two trials, plus one n=16, m=4 chains instance
#: (``family`` None), whose lattice has popcount classes up to 9 wide.
KERNEL_CASES = [(family, trial) for family in FAMILIES for trial in range(2)] + [(None, 0)]


def _kernel_instance(family, trial):
    if family is None:
        return random_instance(16, 4, "chains", rng=7)
    return _instance(family, trial)


@pytest.mark.parametrize(
    "family,trial",
    KERNEL_CASES,
    ids=[f"{f}#{t}" if f else "chains-n16-m4" for f, t in KERNEL_CASES],
)
def test_lattice_kernels_match_golden_bitwise(family, trial):
    instance = _kernel_instance(family, trial)
    label = f"{family}#{trial}"
    n = instance.n
    elig = eligibility_masks(instance)
    golden_elig = _golden_eligibility_masks(instance)
    assert elig.dtype == golden_elig.dtype
    np.testing.assert_array_equal(elig, golden_elig)
    count = popcount_array(elig)
    for k in np.unique(count):
        act = elig[count == k]
        np.testing.assert_array_equal(
            bit_positions(act, int(k)), _golden_bit_positions(act, int(k), n)
        )
    pc = popcount_array(np.arange(1 << n, dtype=np.int64))
    for name, schedule in [
        ("round_robin", round_robin_baseline(instance).schedule),
        ("serial", serial_baseline(instance).schedule),
    ]:
        P = schedule.prefix_length
        assignments = [
            schedule.prefix.table[tau] if tau < P else schedule.cycle.table[tau - P]
            for tau in range(P + schedule.cycle_length)
        ]
        structures = build_position_structures(instance, assignments, elig, pc)
        for tau, (a, blocks) in enumerate(zip(assignments, structures)):
            _assert_blocks_identical(
                blocks,
                _golden_step_structure(instance, a, elig, pc),
                f"{label} {name} position {tau}",
            )
    regimens = [("state_round_robin", state_round_robin_regimen(instance).schedule)]
    if n <= 8:
        regimens.append(("optimal", optimal_regimen(instance).regimen))
    for name, regimen in regimens:
        _assert_blocks_identical(
            build_regimen_structure(instance, regimen.table, elig, pc),
            _golden_regimen_structure(instance, regimen.table, elig, pc),
            f"{label} {name}",
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_eligibility_masks_match_definition(family):
    instance = _instance(family, 0)
    elig = eligibility_masks(instance)
    assert elig.shape == (1 << instance.n,)
    for state in range(1 << instance.n):
        assert elig[state] == eligible_bitmask(instance, state), f"state {state:#x}"
