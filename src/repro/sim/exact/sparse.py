"""Vectorized sparse exact-Markov solvers (layer-at-a-time sweeps).

Same math as :mod:`repro.sim.exact.scalar` — the Figure-1 DP over the
subset lattice with closed-form self-loops and rho-shaped cycle solving —
but executed as NumPy sweeps instead of per-state Python dict loops.
Every solver runs over the reachable states only, the up-closed sets of
:func:`~repro.sim.exact.lattice.state_index`, processed one popcount
layer at a time: every XOR target of a nonempty completion subset is a
reachable state in a strictly lower layer, so a gather ``E[S ^ T]``
reads only finished values.  The DP tables stay dense, one entry per
lattice state read by state value; entries of unreachable states are
never written or read.

Subset tables come from one builder and subset terms add through one
ordered sum (:mod:`~repro.sim.exact.lattice`), in the scalar engine's
order, so every makespan here is the scalar engine's bit for bit.  A
regimen stores no subset tables: each popcount layer goes, in chunks,
through :func:`~repro.sim.exact.lattice.first_passage`, the kernel the
Malewicz DP uses too.  A cyclic schedule's
:class:`~repro.sim.exact.lattice.TransitionBlock` blocks are built once per
solve and stack the rows of every distinct assignment
(:func:`~repro.sim.exact.lattice.build_step_structure`); positions that
repeat an assignment are expanded by an index built once per solve, and
the gathers read the ``(positions × 2^n)`` DP table through flat indices.
So the makespan sweep runs one gather + ordered sum per (popcount layer,
active count ``k``) — at most ``m + 1`` per layer — however many positions
the schedule has; only a pass that would gather more than ``2^20``
subset-table entries at once is split into chunks of that size.

The forward solver (:func:`state_distribution`) reads the same blocks in
assignment-major row order, copied row-major once per solve, and scatters
each step with ``np.bincount`` over the XOR targets.

Bitwise agreement with the scalar golden reference is property-tested
across all workload families in ``tests/sim/test_exact_engines_equiv.py``;
the measured speedup is recorded by
``benchmarks/bench_perf_exact_markov.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ... import obs
from ..._util import iterable_from_bitmask
from ...core.instance import SUUInstance
from ...core.schedule import CyclicSchedule, Regimen
from ...errors import ScheduleError
from .lattice import (
    _STAY_EPS,
    CHUNK_ENTRIES,
    DEFAULT_MAX_STATES,
    StateIndex,
    StepStructure,
    TransitionBlock,
    build_step_structure,
    check_state_budget,
    first_passage,
    ordered_sum,
    regimen_slots,
    state_index,
)

__all__ = [
    "expected_makespan_regimen",
    "expected_makespan_cyclic",
    "state_distribution",
    "exact_completion_curve",
]

#: Most subset-table entries one cyclic-sweep gather reads at once.  A
#: block's rows expand by the positions of their assignment, so a long
#: prefix would otherwise gather a copy of its tables per position.
_CHUNK = 1 << 20


def _regimen_table(
    instance: SUUInstance, regimen: Regimen, index: StateIndex
) -> np.ndarray:
    """The regimen's table, checked to fit ``instance`` and cover every
    reachable state.

    A missing row is named as the scalar engine names it: the first
    nonempty reachable state in popcount order.
    """
    if (regimen.n, regimen.m) != (instance.n, instance.m):
        raise ScheduleError(
            f"regimen is for n={regimen.n}, m={regimen.m}; "
            f"the instance has n={instance.n}, m={instance.m}"
        )
    missing = regimen.table[index.states[1:], 0] == Regimen.UNDEFINED
    if missing.any():
        raise ScheduleError(
            f"regimen has no assignment for state "
            f"{int(index.states[1 + np.argmax(missing)]):#x}"
        )
    return regimen.table


def expected_makespan_regimen(
    instance: SUUInstance,
    regimen: Regimen,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of ``regimen``, vectorized per layer.

    Reads the regimen's dense table at the reachable states and solves
    each popcount layer, in chunks, through one
    :func:`~repro.sim.exact.lattice.first_passage` call, so each value is
    the scalar engine's bit for bit.  Raises :class:`ScheduleError` when
    some reachable state has no assignment or makes no progress (infinite
    expectation), naming the state the scalar engine names: the first in
    popcount order.
    """
    n = instance.n
    check_state_budget(n, 1, max_states)
    if n == 0:
        return 0.0
    size = 1 << n
    obs.add("exact.states_allocated", size)
    with obs.span("exact.lattice.build", states=size, op="regimen") as span:
        index = state_index(instance)
        span.set(reachable=index.states.size)
        table = _regimen_table(instance, regimen, index)
        q, bits, slots = regimen_slots(instance, table, index, max_states=max_states)
    obs.add("exact.states_solved", index.states.size)
    states, ptr = index.states, index.ptr
    with obs.span("exact.layer_sweep", layers=n, op="regimen"):
        expect = np.zeros(size, dtype=np.float64)
        for c in range(1, n + 1):
            k = int(slots[c])
            step = max(CHUNK_ENTRIES >> k, 1)
            for lo in range(ptr[c], ptr[c + 1], step):
                rows = slice(lo, min(lo + step, ptr[c + 1]))
                sel = states[rows]
                e = expect[sel] = first_passage(sel, q[:k, rows], bits[:k, rows], expect)
                # Chunks run in popcount order: the first stuck state
                # found is the one the scalar engine names.
                if np.isinf(e).any():
                    raise ScheduleError(
                        f"regimen makes no progress from state "
                        f"{iterable_from_bitmask(int(sel[np.argmax(np.isinf(e))]))}; "
                        "expected makespan is infinite"
                    )
    return float(expect[size - 1])


class _Expansion(NamedTuple):
    """One layer-major block's rows expanded to (row, schedule position) entries.

    Entries follow the block's rows, each row once per position of its
    assignment in ascending order, so ``ptr`` (per popcount layer) is the
    block's layer pointer in entry units.
    """

    #: Block row of each entry, or None when no assignment repeats (one
    #: entry per row, so an entry's index is its row's).
    rows: np.ndarray | None
    #: Flat index of each entry in its layer's ``(positions, G)`` tables.
    dest: np.ndarray
    #: Flat offset of the entry's next position's row in the DP table.
    nxt: np.ndarray
    ptr: np.ndarray


def _expand_positions(
    structure: StepStructure, index: StateIndex, size: int, prefix: int
) -> list[_Expansion]:
    """Map every block row to the schedule positions that use its assignment.

    Built once per solve.  A layer's ``G`` reachable states are ranked in
    popcount order, so the entry for state ``S`` at position ``τ`` lands at
    ``τ · G + rank(S)`` of its layer's ``(positions, G)`` tables, and its
    successors are read at ``next(τ) · 2^n + (S ^ T)`` of the DP table.
    """
    rule_of = structure.rule_of
    total = rule_of.size
    per_rule = np.bincount(rule_of)
    by_rule = np.argsort(rule_of, kind="stable")
    first = np.cumsum(per_rule) - per_rule
    next_row = np.arange(1, total + 1, dtype=np.int64) * size
    next_row[-1] = prefix * size
    # Layer width and rank in the layer, by state value; only the index's
    # states are written or read.
    layer_size = np.diff(index.ptr)
    layer = np.repeat(np.arange(layer_size.size), layer_size)
    width = np.empty(size, dtype=np.int64)
    width[index.states] = layer_size[layer]
    rank = np.empty(size, dtype=np.int64)
    rank[index.states] = np.arange(index.states.size) - index.ptr[layer]
    shared = bool(np.any(per_rule > 1))
    expansions = []
    for block in structure.blocks:
        if shared:
            counts = per_rule[block.rules]
            ends = np.cumsum(counts)
            rows = np.repeat(np.arange(counts.size), counts)
            tau = np.repeat(first[block.rules] - (ends - counts), counts)
            tau += np.arange(rows.size)
            tau = by_rule[tau]
            ptr = np.concatenate(([0], ends))[block.ptr]
            states = block.states[rows]
        else:
            rows = None
            tau = by_rule[block.rules]
            ptr = block.ptr
            states = block.states
        dest = width[states]
        dest *= tau
        dest += rank[states]
        expansions.append(_Expansion(rows, dest, next_row[tau], ptr))
    return expansions


def expected_makespan_cyclic(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of a prefix+cycle schedule, vectorized.

    Identical recurrence and rho-shape closed form as the scalar engine
    (see :func:`repro.sim.exact.scalar.expected_makespan_cyclic`), and the
    same value bit for bit.  For one popcount layer, the coefficients
    ``a_τ = 1 + Σ_{T≠∅} w_T E[S^T, next(τ)]`` and ``b_τ = w_∅`` of every
    (state, position) pair come from one gather + ordered sum per
    active-count block; the cycle closed form runs as sequential
    ``accumulate`` calls over the layer's cycle positions and the backward
    substitution as a loop over positions, each vectorized across the
    layer's states.
    """
    n = instance.n
    schedule.validate_against(instance)
    P = schedule.prefix_length
    L = schedule.cycle_length
    total = P + L
    check_state_budget(n, total, max_states)
    if n == 0:
        return 0.0
    size = 1 << n
    obs.add("exact.states_allocated", size * total)
    with obs.span(
        "exact.lattice.build", states=size, positions=total, op="cyclic"
    ) as span:
        index = state_index(instance)
        span.set(reachable=index.states.size)
        structure = build_step_structure(
            instance, schedule.truncate(total).table, index, max_states
        )
        expansions = _expand_positions(structure, index, size, P)
    obs.add("exact.states_solved", index.states.size * total)
    # Position-major DP table: row τ holds E[·, τ], so a layer's
    # successors are one flat gather at next(τ) · 2^n + (S ^ T).
    expect = np.zeros((total, size), dtype=np.float64)
    flat = expect.reshape(-1)
    with obs.span("exact.layer_sweep", layers=n, positions=total, op="cyclic"):
        for c in range(1, n + 1):
            lay = index.states[index.ptr[c] : index.ptr[c + 1]]
            a = np.empty(total * lay.size, dtype=np.float64)
            b = np.empty(total * lay.size, dtype=np.float64)
            for block, ex in zip(structure.blocks, expansions):
                step = max(_CHUNK >> block.k, 1)
                for lo in range(ex.ptr[c], ex.ptr[c + 1], step):
                    hi = min(lo + step, ex.ptr[c + 1])
                    # Without repeats an entry is its block row.
                    rows = slice(lo, hi) if ex.rows is None else ex.rows[lo:hi]
                    dest = ex.dest[lo:hi]
                    weights = block.weights[:, rows]
                    b[dest] = weights[0]
                    if block.k == 0:
                        a[dest] = 1.0
                        continue
                    w = weights[1:]
                    succ = flat[block.targets[1:, rows] + ex.nxt[lo:hi]]
                    # Zero-weight subsets may point at dead (E = inf)
                    # states; mask them so 0 * inf never produces NaN (the
                    # scalar engine drops zero-probability branches).
                    terms = np.where(w > 0.0, succ, 0.0)
                    terms *= w
                    a[dest] = ordered_sum(terms)
            a = a.reshape(total, lay.size)
            b = b.reshape(total, lay.size)
            with np.errstate(invalid="ignore"):
                # Cycle closed form: E_P = A + B E_P around the loop (rho
                # shape), A = Σ_i (Π_{j<i} b_{P+j}) a_{P+i} and B = Π b,
                # both accumulated left to right like the scalar loop.
                prods = np.multiply.accumulate(b[P:], axis=0)
                terms = a[P:].copy()
                terms[1:] *= prods[:-1]
                A = np.add.accumulate(terms, axis=0)[-1]
                B = prods[-1]
                dead = (B >= 1.0 - _STAY_EPS) | ~np.isfinite(A)
                e_next = np.where(dead, np.inf, A / np.where(dead, 1.0, 1.0 - B))
                # Backward substitution in place; b == 0 short-circuits so
                # that a dead successor (E = inf) does not poison a
                # zero-probability link.
                live = b != 0.0
                for tau in range(total - 1, -1, -1):
                    np.add(a[tau], b[tau] * e_next, out=a[tau], where=live[tau])
                    e_next = a[tau]
            expect[:, lay] = a
    value = float(expect[0, size - 1])
    if not np.isfinite(value):
        raise ScheduleError(
            "cyclic schedule makes no progress from some reachable state; "
            "expected makespan is infinite"
        )
    return value


def _row_major(block: TransitionBlock) -> tuple[np.ndarray, ...]:
    """A block's ``(states, targets, weights, ptr)``, tables copied ``(R, 2^k)``."""
    targets, weights = (np.ascontiguousarray(t.T) for t in (block.targets, block.weights))
    return block.states, targets, weights, block.ptr


def state_distribution(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Exact forward state distribution, scattered with ``bincount``.

    Row ``t`` is the distribution of the unfinished set after ``t`` steps,
    dense over the lattice, with mass only at reachable states; each step
    pushes every reachable state's mass along its block's subset table in
    one flattened ``np.bincount`` per active count (weights sum to 1 per
    state, so each row remains a distribution exactly as in the scalar
    engine).  The blocks are rule-major, so a step's rows are contiguous
    slices of its assignment, and their tables are copied ``(R, 2^k)``:
    each step adds in (row, subset) order.
    """
    n = instance.n
    check_state_budget(n, horizon + 1, max_states)
    schedule.validate_against(instance)
    size = 1 << n
    obs.add("exact.states_allocated", size * (horizon + 1))
    dist = np.zeros((horizon + 1, size), dtype=np.float64)
    dist[0, size - 1] = 1.0
    P = schedule.prefix_length
    L = schedule.cycle_length
    positions = min(horizon, P + L)
    with obs.span(
        "exact.lattice.build", states=size, positions=positions, op="forward"
    ) as span:
        index = state_index(instance)
        span.set(reachable=index.states.size)
        rule_of, blocks = build_step_structure(
            instance,
            schedule.truncate(positions).table,
            index,
            max_states,
            rule_major=True,
        )
        # The scatter adds in (row, subset) order: copy each block's tables
        # row-major, dropping its subset-major ones before the next copy.
        for i in range(len(blocks)):
            blocks[i] = _row_major(blocks[i])
    obs.add("exact.states_solved", index.states.size * (horizon + 1))
    with obs.span("exact.layer_sweep", steps=horizon, op="forward"):
        for t in range(horizon):
            rule = rule_of[t if t < P else P + (t - P) % L]
            row = dist[t]
            nxt = dist[t + 1]
            for states, targets, weights, ptr in blocks:
                lo, hi = ptr[rule], ptr[rule + 1]
                if lo == hi:
                    continue
                nxt += np.bincount(
                    targets[lo:hi].ravel(),
                    weights=(row[states[lo:hi]][:, None] * weights[lo:hi]).ravel(),
                    minlength=size,
                )
    return dist


def exact_completion_curve(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Exact ``Pr[all jobs done by step t]`` for ``t = 1..horizon``."""
    dist = state_distribution(instance, schedule, horizon, max_states=max_states)
    return dist[1:, 0].copy()
