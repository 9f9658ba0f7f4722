"""Sparse-vs-scalar equivalence of the exact Markov engines.

Property tests over fuzzer-generated instances: every DAG kind crossed
with every probability model (the same families `repro.verify` draws
from), evaluated as cyclic schedules and as an explicit regimen.  The
vectorized sparse engine (`repro.sim.exact.sparse`) and the scalar golden
path (`repro.sim.exact.scalar`) must agree — including on *which* cases
are infeasible (no-progress ``ScheduleError``) — and the exact completion
curve must be a CDF prefix: monotone nondecreasing and ending at most 1.

Every makespan must agree *bitwise*: the sparse engine and the Malewicz
DP build their subset tables with one builder and add their terms in the
scalar engine's order.  Round-robin, serial and ``solve()`` cyclic
schedules, chunked cyclic sweeps and a long prefix of repeated
assignments, ``state_round_robin`` regimens, DP optima (whose value must
also equal the exact evaluation of their own regimen), chunked regimen
sweeps and random regimens with idle machines and machines on ineligible
or finished jobs are checked; on a no-progress schedule or regimen both
engines must raise the same message.

The lattice kernels the sparse engine, ``state_round_robin`` and the
Malewicz DP share are held *bitwise* to the bit-matrix kernels they
replaced, kept here as the golden reference: active-bit positions, and
every oblivious transition row's state, targets and weights, at the
reachable states.  The index of reachable (up-closed)
states is held to a scalar filter of all 2^n subsets, and the scalar
forward pass, which sweeps the whole lattice, must put no mass outside
it.  A regimen needs rows, and progress, only at reachable states, in
both engines.

The forward pass is held *bitwise* to the per-position pass it replaced,
also kept here: one block list per schedule position (equal assignments
sharing one), scattered per (step, block).  State distributions and
completion curves must match to the bit on round-robin, serial and
pipeline schedules — the last with a long prefix whose assignments
repeat.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance, solve
from repro.algorithms.baselines import (
    round_robin_baseline,
    serial_baseline,
    state_round_robin_regimen,
)
from repro._util import iterable_from_bitmask
from repro.core.schedule import CyclicSchedule, ObliviousSchedule, Regimen
from repro.errors import ScheduleError, UnsupportedDagError, ValidationError
from repro.evaluate import evaluate
from repro.opt.malewicz import optimal_regimen
from repro.sim.exact.lattice import (
    assignment_success,
    bit_positions,
    build_step_structure,
    popcount_array,
    state_index,
    step_rules,
    subset_table_entries,
)
from repro.evaluate.request import ENGINES
from repro.sim.exact.scalar import eligible_bitmask, up_closed
from repro.verify.cases import CaseSpec, build_instance
from repro.workloads import DAG_KINDS, PROB_MODELS, random_instance

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


def _pipeline_schedule(instance):
    """A ``solve()`` schedule: a long prefix that repeats assignments, then a cycle.

    The pipelines reject general DAGs (the ``diamond`` kind); there the
    same shape is built by hand: three serial cycles and one round-robin
    cycle as the prefix, the round-robin cycle after it.
    """
    try:
        schedule = solve(instance, rng=np.random.default_rng(0)).schedule
    except UnsupportedDagError:
        rr = round_robin_baseline(instance).schedule.cycle.table
        serial = serial_baseline(instance).schedule.cycle.table
        prefix = ObliviousSchedule(np.vstack([serial, serial, serial, rr]))
        schedule = CyclicSchedule(prefix, ObliviousSchedule(rr))
    assert isinstance(schedule, CyclicSchedule)
    return schedule


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
        # The vectorized rows against their per-state definition, at the
        # nonempty reachable states and nowhere else.
        states = [s for s in range(1, 1 << instance.n) if up_closed(instance, s)]
        expected = []
        for state in states:
            jobs = iterable_from_bitmask(eligible_bitmask(instance, state))
            expected.append([jobs[i % len(jobs)] for i in range(instance.m)])
        label = f"{family} trial {trial}"
        np.testing.assert_array_equal(regimen.states, states, err_msg=label)
        np.testing.assert_array_equal(regimen.rows, expected, err_msg=label)
        pipeline = _pipeline_schedule(instance)
        for label, fn in [
            ("cyclic/rr", lambda e: _exact(instance, cyclic, e).makespan),
            ("cyclic/serial", lambda e: _exact(instance, serial, e).makespan),
            ("cyclic/pipeline", lambda e: _exact(instance, pipeline, e).makespan),
            ("regimen", lambda e: _exact(instance, regimen, e).makespan),
        ]:
            outcomes = _solve_both(fn)
            if outcomes["auto"][0] == "ok":
                sparse, scalar = outcomes["auto"][1], outcomes["scalar"][1]
                assert _bits(sparse) == _bits(scalar), (
                    f"{family} trial {trial} {label}: sparse {sparse!r} vs "
                    f"scalar {scalar!r}"
                )


@pytest.mark.parametrize("family", FAMILIES)
def test_regimen_values_match_scalar_bitwise(family):
    for trial in range(2):
        instance = _instance(family, trial)
        label = f"{family} trial {trial}"
        optimum = optimal_regimen(instance)
        for name, regimen in [
            ("state_round_robin", state_round_robin_regimen(instance).schedule),
            ("optimal", optimum.regimen),
        ]:
            outcomes = _solve_both(lambda e: _exact(instance, regimen, e).makespan)
            if outcomes["auto"][0] != "ok":
                continue
            sparse, scalar = outcomes["auto"][1], outcomes["scalar"][1]
            assert _bits(sparse) == _bits(scalar), (
                f"{label} {name}: sparse {sparse!r} vs scalar {scalar!r}"
            )
        # The DP's optimum is the exact value of its own regimen.
        value = _exact(instance, optimum.regimen, "auto").makespan
        assert _bits(optimum.expected_makespan) == _bits(value), (
            f"{label}: DP {optimum.expected_makespan!r} vs its regimen {value!r}"
        )


@pytest.mark.parametrize("family", FAMILIES[::7])
def test_chunked_regimen_sweep_matches_scalar_bitwise(family, monkeypatch):
    # Under a 2-entry budget every popcount layer with a job to finish is
    # split into one-state chunks, and no value may move a bit.
    from repro.sim.exact import sparse

    chunks = []
    real = sparse.first_passage

    def recorded(states, q, bits, expect):
        chunks.append((states.size, q.shape[0]))
        return real(states, q, bits, expect)

    monkeypatch.setattr(sparse, "first_passage", recorded)
    instance = _instance(family, 0)
    for regimen in (
        state_round_robin_regimen(instance).schedule,
        optimal_regimen(instance).regimen,
    ):
        chunks.clear()
        whole = _makespan(instance, regimen)
        if whole == np.inf:
            continue  # no progress: the sweep stops at the first stuck layer
        groups = list(chunks)
        chunks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sparse, "CHUNK_ENTRIES", 2)
            split = _makespan(instance, regimen)
        # Every layer is cut into as many chunks as it has reachable states
        # (pairs when nothing is active); a layer of one state stays whole.
        assert len(chunks) == sum(-(-rows // max(2 >> k, 1)) for rows, k in groups), family
        assert all(rows == 1 or rows << k <= 2 for rows, k in chunks), family
        scalar = _exact(instance, regimen, "scalar").makespan
        assert _bits(split) == _bits(whole) == _bits(scalar), family


def _random_regimen(instance, rng, progress):
    """A regimen whose machines idle or sit on any job, finished or not.

    Every entry is IDLE or a uniformly drawn job, so machines land on
    ineligible and finished jobs as often as on eligible ones.  With
    ``progress``, machine 0 takes the eligible job it serves best in every
    state instead.
    """
    n, m = instance.n, instance.m
    table = rng.integers(-1, n, size=(1 << n, m))
    if progress:
        for state in range(1, 1 << n):
            jobs = iterable_from_bitmask(eligible_bitmask(instance, state))
            table[state, 0] = max(jobs, key=lambda j: instance.p[0, j])
    # A row at every nonempty state; the empty one has none.
    return Regimen.from_rows(n, np.arange(1, 1 << n), table[1:])


def _regimen_outcome(instance, regimen, engine):
    try:
        return "ok", _bits(_exact(instance, regimen, engine).makespan)
    except ScheduleError as exc:
        return "no-progress", str(exc)


@pytest.mark.parametrize("seed", range(10))
def test_random_regimens_match_scalar_bitwise(seed):
    # Zero probabilities on every machine but 0 make some assigned jobs
    # inactive, and 1e-17 ones active with a self-loop that rounds to 1:
    # without machine 0's help most random tables leave some state stuck,
    # with or without an active job, and both engines must name the same
    # one (the first in popcount order).
    rng = np.random.default_rng(seed)
    kinds = set()
    for _ in range(6):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        dag = _instance(FAMILIES[int(rng.integers(len(FAMILIES)))], 0).dag
        if dag.n != n:
            dag = None
        p = rng.uniform(0.05, 0.95, size=(m, n))
        p[1:] = np.where(rng.random((m - 1, n)) < 0.3, rng.choice([0.0, 1e-17]), p[1:])
        instance = SUUInstance(p, dag)
        for progress in (True, False):
            regimen = _random_regimen(instance, rng, progress)
            got, want = (_regimen_outcome(instance, regimen, e) for e in ENGINES)
            assert got == want, f"seed {seed} n={n} m={m} progress={progress}"
            kinds.add(got[0])
    assert kinds == {"ok", "no-progress"}, seed


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
# Golden lattice kernels: the bit-matrix active-bit positions, and blocks
# built with a matmul for the deltas, one full-width ``np.where`` per bit
# for the weights and one argsort per block, over the eligible set of
# every state (a boolean scatter).
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


def _assert_rows_identical(block, rows, golden, label):
    """``block``'s rows ``rows`` against one golden block, bit for bit.

    The golden rows are ``(R, 2^k)``; the stored tables are subset-major
    ``(2^k, R)`` and C-contiguous, so rows are read through the transpose.
    """
    states, deltas, weights, _ = golden
    for name, got, want in [
        ("states", block.states[rows], states),
        ("targets", block.targets.T[rows], states[:, None] ^ deltas),
        ("weights", block.weights.T[rows].view(np.int64), weights.view(np.int64)),
    ]:
        assert got.dtype == want.dtype, f"{label} {name} dtype"
        np.testing.assert_array_equal(got, want, err_msg=f"{label} {name}")
    for name, table in [("targets", block.targets), ("weights", block.weights)]:
        assert table.shape == (1 << block.k, block.states.size), f"{label} {name} shape"
        assert table.flags.c_contiguous, f"{label} {name} layout"


def _assert_step_structure(structure, table, golden_of, pc, reachable, rule_major, label):
    """A stacked structure against the golden per-position blocks.

    Rules dedupe the table's rows exactly; each position's golden blocks,
    cut to the ``reachable`` states, are the rows of its rule, in popcount
    order; rows are sorted and pointed at by layer (layer-major) or by
    rule (rule-major).
    """
    n = pc.size.bit_length() - 1
    keys = [a.tobytes() for a in table]
    D = len(set(keys))
    assert sorted(set(structure.rule_of.tolist())) == list(range(D)), label
    for key, rule in zip(keys, structure.rule_of):
        assert keys[int(np.flatnonzero(structure.rule_of == rule)[0])] == key, label
    # One block per active-count class: the sweeps run at most m + 1 (or
    # n + 1) passes per layer, however many positions the schedule has.
    assert len(structure.blocks) <= min(n, table.shape[1]) + 1, label
    assert [b.k for b in structure.blocks] == sorted({b.k for b in structure.blocks}), label
    for block in structure.blocks:
        order = (
            np.lexsort((block.states, pc[block.states], block.rules))
            if rule_major
            else np.lexsort((block.rules, block.states, pc[block.states]))
        )
        np.testing.assert_array_equal(order, np.arange(block.states.size), err_msg=label)
        group = block.rules if rule_major else pc[block.states]
        groups = D if rule_major else n + 1
        np.testing.assert_array_equal(
            block.ptr, np.searchsorted(group, np.arange(groups + 1)), err_msg=label
        )
    by_k = {block.k: block for block in structure.blocks}
    for rule in range(D):
        tau = int(np.flatnonzero(structure.rule_of == rule)[0])
        rows_of_rule = sum(int(np.sum(block.rules == rule)) for block in structure.blocks)
        assert rows_of_rule == np.count_nonzero(reachable), f"{label} position {tau}"
        for i, want in enumerate(golden_of(table[tau])):
            k = want[1].shape[1].bit_length() - 1
            keep = reachable[want[0]]
            if not keep.any():
                assert k not in by_k or not np.any(by_k[k].rules == rule), label
                continue
            block = by_k[k]
            _assert_rows_identical(
                block,
                np.flatnonzero(block.rules == rule),
                tuple(part[keep] for part in want[:3]) + want[3:],
                f"{label} position {tau} block {i}",
            )


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
    elig = _golden_eligibility_masks(instance)
    count = popcount_array(elig)
    for k in np.unique(count):
        act = elig[count == k]
        np.testing.assert_array_equal(
            bit_positions(act, int(k)), _golden_bit_positions(act, int(k), n)
        )
    pc = popcount_array(np.arange(1 << n, dtype=np.int64))
    reachable = np.array([up_closed(instance, s) for s in range(1 << n)])
    index = state_index(instance)
    schedules = [
        ("round_robin", round_robin_baseline(instance).schedule),
        ("serial", serial_baseline(instance).schedule),
    ]
    if family is not None:
        schedules.append(("pipeline", _pipeline_schedule(instance)))
    golden = {}

    def golden_of(a):
        key = a.tobytes()
        if key not in golden:
            golden[key] = _golden_step_structure(instance, a, elig, pc)
        return golden[key]

    for name, schedule in schedules:
        table = schedule.truncate(schedule.prefix_length + schedule.cycle_length).table
        for rule_major in (False, True):
            _assert_step_structure(
                build_step_structure(instance, table, index, rule_major=rule_major),
                table,
                golden_of,
                pc,
                reachable,
                rule_major,
                f"{label} {name} rule_major={rule_major}",
            )


@pytest.mark.parametrize(
    "family,trial",
    KERNEL_CASES,
    ids=[f"{f}#{t}" if f else "chains-n16-m4" for f, t in KERNEL_CASES],
)
def test_state_index_matches_brute_force(family, trial):
    # The index against a filter of all 2^n subsets with the scalar
    # predicate: the same states in popcount order (ties by value), their
    # eligible sets, and a pointer at every layer.
    instance = _kernel_instance(family, trial)
    n = instance.n
    want = [
        s for s in sorted(range(1 << n), key=lambda s: s.bit_count()) if up_closed(instance, s)
    ]
    index = state_index(instance)
    assert index.states.dtype == index.elig.dtype == np.int64
    assert index.states.tolist() == want
    assert index.elig.tolist() == [eligible_bitmask(instance, s) for s in want]
    counts = [s.bit_count() for s in want]
    assert index.ptr.tolist() == [sum(c < layer for c in counts) for layer in range(n + 2)]


@pytest.mark.parametrize("n", [1, 4, 9])
def test_state_index_is_the_lattice_on_edgeless_dags(n):
    index = state_index(SUUInstance(np.full((2, n), 0.5)))
    pc = popcount_array(np.arange(1 << n, dtype=np.int64))
    np.testing.assert_array_equal(index.states, np.argsort(pc, kind="stable"))
    np.testing.assert_array_equal(index.elig, index.states)
    np.testing.assert_array_equal(index.ptr, np.searchsorted(pc[index.states], np.arange(n + 2)))


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_state_distribution_stays_on_the_index(family):
    # The scalar forward pass sweeps the whole lattice; its mass must never
    # leave the states the index holds.
    instance = _instance(family, 0)
    outside = np.ones(1 << instance.n, dtype=bool)
    outside[state_index(instance).states] = False
    for schedule in (round_robin_baseline(instance).schedule, _pipeline_schedule(instance)):
        dist = _exact(
            instance, schedule, "scalar", metrics="state_distribution", horizon=12
        ).state_distribution
        assert not dist[:, outside].any(), family


def test_missing_state_named_alike_by_both_engines():
    # States 0b100 and 0b011 have no row: the first missing state in
    # popcount order is 0x4, though 0x3 has the lower number.
    instance = SUUInstance(np.full((1, 3), 0.5))
    regimen = Regimen.from_rows(3, np.array([1, 2, 5, 6, 7]), np.array([[0], [1], [0], [1], [0]]))
    messages = []
    for engine in ENGINES:
        with pytest.raises(ScheduleError, match="no assignment for state 0x4") as info:
            _exact(instance, regimen, engine)
        messages.append(str(info.value))
    assert messages[0] == messages[1], messages


@pytest.mark.parametrize("unreachable_row", [None, 1], ids=["undefined", "stuck"])
def test_regimen_needs_rows_only_at_reachable_states(unreachable_row):
    # Job 0 precedes job 1, so {0} is unreachable: whatever its row holds,
    # no row or a machine on the finished job 1, the regimen is worth its
    # reachable part, E[{1}] = 1 / 0.25 and E[{0, 1}] = (1 + 0.5 · 4) / 0.5.
    instance = SUUInstance(np.array([[0.5, 0.25]]), PrecedenceDAG(2, [(0, 1)]))
    rows = {0b10: np.array([1]), 0b11: np.array([0])}
    if unreachable_row is not None:
        rows[0b01] = np.array([unreachable_row])
    for engine in ENGINES:
        assert _exact(instance, Regimen(2, 1, rows), engine).makespan == 6.0
    del rows[0b10]
    for engine in ENGINES:
        with pytest.raises(ScheduleError, match="no assignment for state 0x2"):
            _exact(instance, Regimen(2, 1, rows), engine)


# ----------------------------------------------------------------------
# Golden forward pass: the per-position structure (one block list per
# schedule position, equal assignments sharing one) and the scatter that
# ran per (step, block), as it was before the stacked structure.  Blocks
# are the golden kernels' tuples above.
# ----------------------------------------------------------------------
def _golden_position_structures(instance, schedule, positions, elig, pc):
    shared = {}
    structures = []
    for tau in range(positions):
        a = schedule.assignment_at(tau)
        key = a.tobytes()
        if key not in shared:
            shared[key] = _golden_step_structure(instance, a, elig, pc)
        structures.append(shared[key])
    return structures


def _golden_state_distribution(instance, schedule, horizon):
    """The per-step forward pass over each position's block list."""
    n = instance.n
    size = 1 << n
    P, L = schedule.prefix_length, schedule.cycle_length
    elig = _golden_eligibility_masks(instance)
    pc = popcount_array(np.arange(size, dtype=np.int64))
    structures = _golden_position_structures(
        instance, schedule, min(horizon, P + L), elig, pc
    )
    dist = np.zeros((horizon + 1, size), dtype=np.float64)
    dist[0, size - 1] = 1.0
    for t in range(horizon):
        tau = t if t < P else P + (t - P) % L
        for states, deltas, weights, _ in structures[tau]:
            targets = states[:, None] ^ deltas
            dist[t + 1] += np.bincount(
                targets.ravel(),
                weights=(dist[t][states][:, None] * weights).ravel(),
                minlength=size,
            )
    return dist


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _makespan(instance, schedule, engine="auto"):
    try:
        return _exact(instance, schedule, engine).makespan
    except ScheduleError:
        return np.inf


@pytest.mark.parametrize("family", FAMILIES)
def test_cyclic_solvers_match_per_position_golden_bitwise(family):
    instance = _instance(family, 0)
    for name, schedule in [
        ("round_robin", round_robin_baseline(instance).schedule),
        ("serial", serial_baseline(instance).schedule),
        ("pipeline", _pipeline_schedule(instance)),
    ]:
        label = f"{family} {name}"
        got = _makespan(instance, schedule)
        want = _makespan(instance, schedule, "scalar")
        assert _bits(got) == _bits(want), f"{label}: {got!r} != scalar {want!r}"
        # Horizons that wrap the cycle (twice, plus a step).
        horizon = schedule.prefix_length + 2 * schedule.cycle_length + 1
        golden = _golden_state_distribution(instance, schedule, horizon)
        dist = _exact(
            instance, schedule, "auto", metrics="state_distribution", horizon=horizon
        ).state_distribution
        np.testing.assert_array_equal(_bits(dist), _bits(golden), err_msg=label)
        curve = _curve(instance, schedule, horizon, "auto")
        np.testing.assert_array_equal(
            _bits(curve), _bits(golden[1:, 0]), err_msg=f"{label} curve"
        )


@pytest.mark.parametrize("family", FAMILIES[::7])
def test_chunked_cyclic_sweep_matches_golden_bitwise(family, monkeypatch):
    # A (layer, k) pass gathering more subset-table entries than the chunk
    # is split; a small chunk splits the passes of these schedules, and no
    # value may move a bit off the scalar engine's.
    from repro.sim.exact import sparse

    monkeypatch.setattr(sparse, "_CHUNK", 256)
    instance = _instance(family, 0)
    for schedule in (round_robin_baseline(instance).schedule, _pipeline_schedule(instance)):
        got = _makespan(instance, schedule)
        assert _bits(got) == _bits(_makespan(instance, schedule, "scalar")), family


def test_no_progress_cyclic_schedule_raises_like_the_scalar_engine():
    # A cycle that never serves job 1 never finishes once the prefix has
    # failed on it: both engines see an infinite expectation and raise
    # the same message.
    instance = SUUInstance(np.full((2, 2), 0.5))
    schedule = CyclicSchedule(
        ObliviousSchedule(np.array([[0, 1]], dtype=np.int32)),
        ObliviousSchedule(np.array([[0, 0]], dtype=np.int32)),
    )
    messages = []
    for engine in ENGINES:
        with pytest.raises(ScheduleError, match="makes no progress") as info:
            _exact(instance, schedule, engine)
        messages.append(str(info.value))
    assert messages[0] == messages[1], messages


def test_repeated_assignments_share_their_subset_tables():
    # 200 prefix positions and a 3-step cycle go through 3 assignments,
    # each serving 6 of 8 independent jobs.  Counted per position the subset tables would
    # pass the 8 x max_states budget at the DP table's own size; counted
    # per distinct assignment they fit, and the solve is admitted.
    rng = np.random.default_rng(11)
    n, m = 8, 6
    instance = SUUInstance(rng.uniform(0.2, 0.8, size=(m, n)))
    rules = np.array([[0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1]])
    prefix = ObliviousSchedule(rules[np.arange(200) % 3].astype(np.int32))
    schedule = CyclicSchedule(prefix, ObliviousSchedule(rules.astype(np.int32)))
    total = schedule.prefix_length + schedule.cycle_length
    max_states = (1 << n) * total
    # Independent jobs: the index holds every state.
    elig = state_index(instance).elig
    table = schedule.truncate(total).table
    per_position = subset_table_entries(
        popcount_array(elig[None, :] & _served_masks(instance, table)[:, None])
    )
    served = step_rules(instance, table).served
    distinct = subset_table_entries(popcount_array(elig[None, :] & served[:, None]))
    assert distinct <= 8 * max_states < per_position
    report = evaluate(instance, schedule, max_states=max_states)
    assert (report.mode, report.engine) == ("exact", "markov-sparse")
    scalar = _exact(instance, schedule, "scalar", max_states=max_states).makespan
    assert _bits(report.makespan) == _bits(scalar)


def _served_masks(instance, table):
    return np.array([assignment_success(instance.p, a)[1] for a in table], dtype=np.int64)
