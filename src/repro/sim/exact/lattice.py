"""Vectorized subset-lattice kernels shared by the exact solvers.

The Figure-1 Markov chain lives on the lattice of unfinished-job subsets:
state ``S`` is a bitmask, transitions only *remove* jobs, and the jobs that
can leave in one step are the *active* ones — eligible (no unfinished
predecessor) **and** served by a machine with positive success probability.
A job finishes only after its predecessors, so the chain only ever visits
*up-closed* sets, which hold every successor of each of their jobs: on a
DAG of width ``w`` there are ``O(n^w)`` of them, not ``2^n``.  This module
turns that structure into flat NumPy arrays, so the solvers in
:mod:`repro.sim.exact.sparse` and the Malewicz DP sweep the chain one
popcount layer at a time without any per-state Python:

* :func:`state_index` — the one index of reachable states: the up-closed
  sets in popcount order with their eligible sets and a layer pointer.
  Every exact solver runs over it; on an edgeless DAG it is the whole
  lattice, returned without enumerating.
* :func:`eligibility_masks` — the eligible-set bitmask of every state, as
  one ``(2^n,)`` int64 array, doubled over the highest job (``2^n`` work):
  what auto dispatch prices the full lattice with.
* :func:`subset_tables` — the one builder of subset tables: per row, the
  ``2^k`` completion subsets ``T`` of its active set as XOR ``targets``
  (``S ^ T``) with their product-measure ``weights``, subset-major, row 0
  the empty subset (the self-loop).
* :func:`ordered_sum` — the one way subset terms are added: ``1 +
  Σ_{T≠∅}`` in the order of the scalar engines' transition dicts, so
  every exact makespan is theirs bit for bit.
* :func:`first_passage` — ``E[S] = (1 + Σ_{T≠∅} w_T E[S ^ T]) / (1 -
  w_∅)`` through those two, over rows that are states (a regimen, whose
  slots :func:`regimen_slots` lays out) or (state, assignment signature)
  pairs (the Malewicz DP).
* :class:`TransitionBlock` — an oblivious schedule's rows with the same
  active count ``k``: their states and ``(2^k, R)`` subset tables, grouped
  by a row pointer ``ptr``.
* :func:`build_step_structure` — an oblivious schedule's blocks, one per
  ``k``, whose rows are (distinct assignment, reachable state) pairs: an
  assignment that many positions repeat is stored once.  Rows come
  grouped by popcount layer (the backward makespan sweep) or by
  assignment (the forward pass).

Every kernel costs about the size of what it returns: active-bit
positions are peeled lowest bit first and the ``2^k`` subset tables
double bit by bit, so no step builds a bit matrix or a full-width
temporary per bit.  :func:`subset_table_entries` counts those tables
before any is built: the engine's guard counts its reachable rows, and
auto dispatch's pricing counts every state of the lattice, an upper
bound of the engine's count.

Because a job set can only shrink, ``S ^ T`` always lands in a strictly
lower layer (for ``T != 0``), which is what makes the layer-at-a-time
backward sweep well-founded; removing eligible jobs from an up-closed
set leaves an up-closed set, so it also lands in the index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..._util import bitmask_from_iterable
from ...core.instance import SUUInstance
from ...errors import ExactSolverLimitError

__all__ = [
    "DEFAULT_MAX_STATES",
    "SUBSET_TABLE_FACTOR",
    "CHUNK_ENTRIES",
    "check_state_budget",
    "subset_table_entries",
    "popcount_array",
    "popcount_order",
    "StateIndex",
    "state_index",
    "eligibility_masks",
    "assignment_success",
    "bit_positions",
    "subset_tables",
    "ordered_sum",
    "first_passage",
    "RegimenSlots",
    "regimen_slots",
    "TransitionBlock",
    "StepRules",
    "StepStructure",
    "step_rules",
    "regimen_active_sets",
    "build_step_structure",
]

#: Default cap on the number of DP entries an exact solver may allocate
#: (``2^n`` states times the number of schedule positions / time steps).
#: At float64 this is a 32 MiB table — regimens up to n ≈ 20–22 and cyclic
#: schedules up to n ≈ 14–16 with short periods fit comfortably.
DEFAULT_MAX_STATES = 1 << 22

#: The sparse engine's subset tables may hold this many entries per
#: ``max_states`` DP entry (see :func:`subset_table_entries`).
SUBSET_TABLE_FACTOR = 8

#: Entry budget of one :func:`first_passage` call's subset tables (its
#: weights, targets and terms, 16 MiB each); callers chunk their rows to it.
CHUNK_ENTRIES = 1 << 21

#: A self-loop of at least ``1 - _STAY_EPS`` makes no progress, as in the scalar engines.
_STAY_EPS = 1e-15


def check_state_budget(n: int, width: int, max_states: int) -> None:
    """Guard the *full* DP allocation, not just the subset count.

    ``width`` is the number of DP entries per unfinished set: 1 for a
    regimen, ``P + L`` for a cyclic schedule (the chain's true states are
    ``(S, τ)`` pairs), ``horizon + 1`` for the forward state distribution.
    """
    if n > 62:
        raise ExactSolverLimitError(f"bitmask solver limited to 62 jobs, got {n}")
    width = max(int(width), 1)
    total = (1 << n) * width
    if total > max_states:
        shape = f"2^{n}" if width == 1 else f"2^{n} x {width}"
        raise ExactSolverLimitError(
            f"exact Markov solver would need {shape} = {total} states "
            f"(limit {max_states}); use Monte Carlo instead"
        )


def subset_table_entries(counts: np.ndarray) -> int:
    """Subset-table entries of the rows with active counts ``counts``.

    Each row has ``2^k`` completion subsets (``k`` = its active-job count,
    up to ``m``), so a solve works through ``Σ 2^k`` entries — independent
    of the DP-table size the ``max_states`` guard covers.  ``counts`` has
    one entry per row: per state for a regimen (whose tables live one
    chunk at a time, so this prices work), per (distinct assignment,
    state) pair for an oblivious schedule (whose blocks store them all).
    The sparse engine allows ``SUBSET_TABLE_FACTOR × max_states`` entries
    (the same order as the DP table at typical ``m``).  Its guard counts
    the rows of the reachable states with this function, and auto
    dispatch's pricing the rows of every lattice state: the same rows and
    more, so auto never admits a solve the guard refuses.
    """
    return int(np.sum(np.left_shift(np.int64(1), counts)))


def _check_subset_budget(counts: np.ndarray, max_states: int) -> None:
    """Refuse a solve past ``SUBSET_TABLE_FACTOR × max_states`` entries.

    Checked before any subset table is built.  Past the budget, the scalar
    engine — whose per-state dicts are transient — is the right tool.
    """
    entries = subset_table_entries(counts)
    limit = SUBSET_TABLE_FACTOR * int(max_states)
    if entries > limit:
        raise ExactSolverLimitError(
            f"sparse transition structure would need {entries} subset-table "
            f"entries (limit {limit} = {SUBSET_TABLE_FACTOR} x max_states); too "
            'many jobs are active per state — use engine="scalar" or raise max_states'
        )


def popcount_array(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 array."""
    return np.bitwise_count(np.asarray(x, dtype=np.int64)).astype(np.int64)


def eligibility_masks(instance: SUUInstance) -> np.ndarray:
    """Eligible-job bitmask for every unfinished set, as a ``(2^n,)`` array.

    Auto dispatch prices the whole lattice with it; the solvers read the
    eligible sets of :func:`state_index` instead.  Vectorized counterpart
    of :func:`repro.sim.exact.scalar.eligible_bitmask`:
    job ``j`` is eligible in state ``S`` iff it is unfinished and none of
    its predecessors is (``S & pred_mask(j) == 0``).  Built by doubling
    over the highest job: for every set ``S`` of jobs below ``j``, the set
    ``S | 1<<j`` keeps the eligible jobs of ``S`` except ``j``'s direct
    successors, and adds ``j`` itself when ``S`` holds none of its
    predecessors — ``2^n`` work in total.
    """
    n = instance.n
    dag = instance.dag
    elig = np.zeros(1 << n, dtype=np.int64)
    lower = np.arange(1 << max(n - 1, 0), dtype=np.int64)
    for j in range(n):
        half = 1 << j
        upper = elig[half : 2 * half]
        np.bitwise_and(elig[:half], ~bitmask_from_iterable(dag.successors(j)), out=upper)
        pm = dag.pred_mask(j)
        if pm:
            np.bitwise_or(upper, 1 << j, out=upper, where=(lower[:half] & pm) == 0)
        else:
            upper |= 1 << j
    return elig


def assignment_success(
    p: np.ndarray, assignment: np.ndarray
) -> tuple[np.ndarray, int]:
    """``(q, served_mask)`` for one assignment vector.

    ``q[j] = 1 - prod_{i: a_i = j} (1 - p_ij)`` is job ``j``'s one-step
    success probability when eligible; ``served_mask`` has a bit for every
    job with ``q > 0`` (jobs with zero probability can never leave a state
    and are treated exactly like unassigned ones, matching the scalar
    engine's ``_per_job_success``).
    """
    m, n = p.shape
    fail = np.ones(n, dtype=np.float64)
    for i in range(m):
        j = int(assignment[i])
        if j >= 0:
            fail[j] *= 1.0 - p[i, j]
    q = 1.0 - fail
    served = 0
    for j in np.flatnonzero(q > 0.0):
        served |= 1 << int(j)
    return q, served


@dataclass(frozen=True)
class TransitionBlock:
    """Rows with the same active count ``k``, grouped by a row pointer.

    Row ``r`` is one state ``states[r]`` under one step rule; the
    subset-major ``(2^k, R)`` tables of :func:`subset_tables` enumerate
    the completion subsets ``T`` of its active set, ``targets[t, r] =
    states[r] ^ T``.  Subset 0 is always the empty one: ``targets[0] ==
    states`` and ``weights[0]`` is the self-loop (stay) probability.
    Columns of ``weights`` sum to 1 (a product measure).  Group ``g`` is
    rows ``ptr[g]:ptr[g + 1]``: a popcount layer for a layer-major
    :class:`StepStructure`, a distinct assignment for a rule-major one.
    ``rules`` gives each row's distinct assignment.
    """

    states: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    ptr: np.ndarray
    rules: np.ndarray

    @property
    def k(self) -> int:
        """Active jobs per row (``targets`` has ``2^k`` rows)."""
        return int(self.targets.shape[0]).bit_length() - 1


def _make_block(
    states: np.ndarray,
    bits: np.ndarray,
    qbits: np.ndarray,
    ptr: np.ndarray,
    rules: np.ndarray,
) -> TransitionBlock:
    """One block from its rows' states, their ``(R, k)`` active-bit
    positions and the bits' success probabilities: each active bit is a
    :func:`subset_tables` slot."""
    weights, targets = subset_tables(states, qbits.T, np.left_shift(np.int64(1), bits.T))
    return TransitionBlock(states, targets, weights, ptr, rules)


def bit_positions(act: np.ndarray, k: int) -> np.ndarray:
    """``(G, k)`` positions of the set bits of each mask in ``act``, ascending.

    Every mask has exactly ``k`` bits set.  The lowest set bit is peeled
    ``k`` times: ``low = rest & -rest`` is a power of two whose position
    is the popcount of ``low - 1``, so the work is ``O(G·k)``.
    """
    out = np.empty((act.size, k), dtype=np.int64)
    rest = np.array(act, dtype=np.int64)
    for b in range(k):
        low = rest & -rest
        out[:, b] = popcount_array(low - 1)
        rest ^= low
    return out


@functools.cache
def _sum_order(slots: int) -> np.ndarray:
    """Rows of a nonempty-subset table in the order the scalar engines add them.

    Row ``t - 1`` holds subset ``t``, which completes slot ``s`` iff bit
    ``s`` of ``t`` is set.  The scalar transition dict lists subsets with
    slot 0 as the leading digit, "completes" before "stays"; the empty
    subset (the self-loop) comes last there and is not summed.
    """
    pos = np.arange((1 << slots) - 1)
    order = np.zeros_like(pos)
    for s in range(slots):
        order |= ((~pos >> (slots - 1 - s)) & 1) << s
    order -= 1
    order.setflags(write=False)  # one cached array serves every caller
    return order


def subset_tables(
    states: np.ndarray, q: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, targets)`` of every row's ``2^slots`` completion subsets.

    Row ``r`` is state ``states[r]`` (broadcast to ``q.shape[1:]``), whose
    slot ``s`` completes with probability ``q[s, r]`` and clears bit
    ``bits[s, r]`` (0 for a padding slot, which has ``q = 0``).  Both
    tables are subset-major, ``(2^slots, *q.shape[1:])``: subset ``t``
    completes slot ``s`` iff bit ``s`` of ``t`` is set, so they double slot
    by slot — the first ``2^s`` subsets give the next ``2^s`` — and each
    weight multiplies its slot factors (``q`` or ``1 - q``) in slot order
    starting from 1.0, as the scalar engines do.  Subset 0 is the
    self-loop: ``targets[0]`` is the state and ``weights[0]`` the stay
    probability.
    """
    slots, shape = q.shape[0], q.shape[1:]
    weights = np.empty((1 << slots, *shape), dtype=np.float64)
    targets = np.empty((1 << slots, *shape), dtype=np.int64)
    weights[0], targets[0] = 1.0, states
    for s in range(slots):
        c = 1 << s
        np.multiply(weights[:c], q[s], out=weights[c : 2 * c])
        weights[:c] *= 1.0 - q[s]
        np.bitwise_xor(targets[:c], bits[s], out=targets[c : 2 * c])
    return weights, targets


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """``1 + Σ_{T≠∅} terms[T]``, added in the scalar engines' order.

    ``terms`` holds the nonempty subsets only: row ``t - 1`` is subset
    ``t`` of a :func:`subset_tables` table.  Every vectorized exact solver
    adds its subset terms here, so each sum is the scalar one bit for bit.
    """
    acc = np.ones(terms.shape[1:], dtype=np.float64)
    for t in _sum_order((terms.shape[0] + 1).bit_length() - 1):
        acc += terms[t]
    return acc


def first_passage(
    states: np.ndarray, q: np.ndarray, bits: np.ndarray, expect: np.ndarray
) -> np.ndarray:
    """``E[S] = (1 + Σ_{T≠∅} w_T E[S ^ T]) / (1 - w_∅)`` per row; ``inf`` if stuck.

    Rows and slots are those of :func:`subset_tables`; ``expect`` holds
    every lower layer.  The terms add through :func:`ordered_sum`, so each
    value is the scalar engines' bit for bit.
    """
    w, targets = subset_tables(states, q, bits)
    terms = expect[targets[1:]]
    terms *= w[1:]
    acc = ordered_sum(terms)
    stay = w[0]
    moves = stay < 1.0 - _STAY_EPS
    return np.where(moves, acc / np.where(moves, 1.0 - stay, 1.0), np.inf)


def popcount_order(pc: np.ndarray) -> np.ndarray:
    """Every state sorted by popcount, ties by state (one stable sort)."""
    return np.argsort(pc.astype(np.uint8), kind="stable")


class StateIndex(NamedTuple):
    """The states the chain can reach from "all unfinished", in popcount order.

    These are the up-closed sets: each holds every successor of each of
    its jobs.  Every exact solver runs over them; its dense tables keep
    one entry per lattice state and read them by state value.
    """

    #: ``(R,)`` the states, by popcount, ties by state value; ``states[0]``
    #: is the empty set and ``states[-1]`` the full one.
    states: np.ndarray
    #: ``(R,)`` each state's eligible-job bitmask.
    elig: np.ndarray
    #: ``(n + 2,)`` layer pointer: popcount layer ``c`` is
    #: ``states[ptr[c]:ptr[c + 1]]``, and no layer is empty.
    ptr: np.ndarray


def state_index(instance: SUUInstance) -> StateIndex:
    """The up-closed subsets of ``instance``'s jobs, with their eligible sets.

    Jobs are added in reverse topological order, and a set takes job
    ``j`` only if it already holds all of ``j``'s successors, so every set
    built is up-closed and every up-closed set is built once.  An
    edgeless DAG's sets are the whole lattice, returned in
    :func:`popcount_order` without enumerating, each its own eligible
    set.  Otherwise only jobs with predecessors need an eligibility test.
    """
    n = instance.n
    dag = instance.dag
    if dag.num_edges == 0:
        pc = popcount_array(np.arange(1 << n, dtype=np.int64))
        states = popcount_order(pc)
        ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(pc, minlength=n + 1), out=ptr[1:])
        return StateIndex(states, states, ptr)
    states = np.zeros(1, dtype=np.int64)
    for j in reversed(dag.topological_order()):
        succ = bitmask_from_iterable(dag.successors(j))
        states = np.concatenate((states, states[(states & succ) == succ] | (1 << j)))
    states.sort()
    pc = popcount_array(states)
    order = popcount_order(pc)
    states = states[order]
    elig = states.copy()
    for j in range(n):
        pm = dag.pred_mask(j)
        if pm:
            np.bitwise_and(elig, ~(1 << j), out=elig, where=(states & pm) != 0)
    ptr = np.searchsorted(pc[order], np.arange(n + 2))
    return StateIndex(states, elig, ptr)


class StepRules(NamedTuple):
    """The distinct assignments of an oblivious schedule's positions."""

    #: ``(positions,)`` index of each position's distinct assignment.
    rule_of: np.ndarray
    #: ``(D, n)`` per-job one-step success probability of each assignment.
    q: np.ndarray
    #: ``(D,)`` bitmask of the jobs each assignment serves with ``q > 0``;
    #: a state's active set under rule ``d`` is ``elig & served[d]``.
    served: np.ndarray


def step_rules(instance: SUUInstance, table: np.ndarray) -> StepRules:
    """Dedupe the rows of an oblivious ``(positions, m)`` table into rules.

    Rules are numbered in order of first appearance.
    """
    index: dict[bytes, int] = {}
    distinct = []
    rule_of = np.empty(len(table), dtype=np.int64)
    for tau, a in enumerate(table):
        d = index.setdefault(a.tobytes(), len(index))
        if d == len(distinct):
            distinct.append(assignment_success(instance.p, a))
        rule_of[tau] = d
    q = np.array([q for q, _ in distinct], dtype=np.float64).reshape(-1, instance.n)
    served = np.array([served for _, served in distinct], dtype=np.int64)
    return StepRules(rule_of, q, served)


class StepStructure(NamedTuple):
    """An oblivious schedule's transition blocks, one per active count.

    Each block stacks the (distinct assignment, state) rows with that
    ``k``; ``rule_of`` maps a schedule position to its assignment, so
    positions that repeat an assignment share its rows.
    """

    rule_of: np.ndarray
    blocks: list[TransitionBlock]


def build_step_structure(
    instance: SUUInstance,
    table: np.ndarray,
    index: StateIndex,
    max_states: int = DEFAULT_MAX_STATES,
    *,
    rule_major: bool = False,
) -> StepStructure:
    """Transition blocks of the reachable states for an oblivious step table.

    ``table`` is the ``(positions, m)`` assignment table of the schedule
    positions a solver reads.  All states under one assignment share its
    ``q`` vector; rows are grouped by active count ``k`` so each block has
    rectangular ``(2^k, R)`` subset tables, and states with ``k = 0``
    (nothing progresses, including the absorbing empty state) form the
    one-subset block.  Each distinct assignment is built once, and the
    subset-table budget covers the rows of all of them, checked before
    any block is built.

    Layer-major rows (the default) are sorted by (popcount, state,
    assignment) and ``ptr`` points at popcount layers: the backward sweep
    solves a layer of every position in one pass per block.  Rule-major
    rows are sorted by (assignment, popcount, state) and ``ptr`` points at
    assignments: a forward step reads its assignment's rows as contiguous
    slices.  A row's subset table does not depend on the order.
    """
    rule_of, q, served = step_rules(instance, table)
    D = served.size
    # counts[d, r]: active jobs of the r-th index state under rule d.
    counts = popcount_array(index.elig[None, :] & served[:, None]).astype(np.uint8)
    _check_subset_budget(counts, max_states)
    # Scan a (rule, state) grid for rule-major rows or a (state, rule) grid
    # for layer-major ones.  The minor side is padded to a power of two
    # with a count no row has, so a flat index splits into (major, minor)
    # by shifts.
    grid = counts if rule_major else counts.T
    shift = max(grid.shape[1] - 1, 0).bit_length()
    if grid.shape[1] != 1 << shift:
        padded = np.full((grid.shape[0], 1 << shift), 255, dtype=np.uint8)
        padded[:, : grid.shape[1]] = grid
        grid = padded
    flat = grid.ravel()
    blocks = []
    for k in np.flatnonzero(np.bincount(counts.ravel())):
        k = int(k)
        cell = np.flatnonzero(flat == k)
        major, minor = cell >> shift, cell & ((1 << shift) - 1)
        rules, col = (major, minor) if rule_major else (minor, major)
        if rule_major:
            ptr = np.searchsorted(rules, np.arange(D + 1))
        else:
            ptr = np.searchsorted(col, index.ptr)
        bits = bit_positions(index.elig[col] & served[rules], k)
        blocks.append(
            _make_block(index.states[col], bits, q[rules[:, None], bits], ptr, rules)
        )
    return StepStructure(rule_of, blocks)


def regimen_active_sets(
    instance: SUUInstance, table: np.ndarray, elig: np.ndarray
) -> np.ndarray:
    """Active set of every row of a regimen's ``(R, m)`` table.

    Row ``r`` is the assignment in a state whose eligible set is
    ``elig[r]``; row 0 is the empty state's, which has none.  A job is
    active when it is eligible and some machine of its row serves it with
    positive probability, so an :attr:`~repro.core.schedule.Regimen.UNDEFINED`
    row has none either.
    """
    jobbit, _ = _machine_factors(instance)
    served = np.zeros(len(table), dtype=np.int64)
    for i in range(instance.m):
        served |= jobbit[i, table[:, i]]
    act = elig & served
    act[0] = 0
    return act


def _machine_factors(instance: SUUInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per machine, indexed by table entry: the bit of a job it serves with
    positive probability, and the job's failure factor.  The two padding
    columns at the end are what IDLE (-1) and UNDEFINED (-2) index."""
    p = instance.p
    n, m = instance.n, instance.m
    jobbit = np.zeros((m, n + 2), dtype=np.int64)
    jobbit[:, :n] = np.where(p > 0.0, np.left_shift(np.int64(1), np.arange(n)), 0)
    fail = np.ones((m, n + 2), dtype=np.float64)
    fail[:, :n] = 1.0 - p
    return jobbit, fail


class RegimenSlots(NamedTuple):
    """A regimen's :func:`first_passage` slots at the states of an index."""

    #: ``(K, R)`` success probability of each slot; column ``r`` is index
    #: state ``r``, ``K`` the largest active count.
    q: np.ndarray
    #: ``(K, R)`` the job bit each slot clears.
    bits: np.ndarray
    #: ``(n + 1,)`` largest active count of each popcount layer: the slots
    #: one layer's rows need.
    slots: np.ndarray


def regimen_slots(
    instance: SUUInstance,
    table: np.ndarray,
    index: StateIndex,
    max_states: int = DEFAULT_MAX_STATES,
) -> RegimenSlots:
    """A regimen's slots at every state of ``index``, padded to one width.

    ``table`` is a regimen's dense ``(2^n, m)`` table (row ``S`` is the
    assignment in state ``S``; row 0 is ignored).  A state's slots are its
    active jobs, ascending, then padding slots (``q = 0``, bit 0) that
    complete nothing with weight 0, so one :func:`first_passage` call can
    take a popcount layer whose states differ in active count and still
    add every state's terms as the scalar engine does.  Machine ``i``
    multiplies ``1 - p[i, j]`` into the failure product of the active bit
    it points at, found by its rank among the state's active bits (the
    popcount of the lower ones).
    """
    jobbit, fail = _machine_factors(instance)
    rows = table[index.states]
    act = regimen_active_sets(instance, rows, index.elig)
    karr = popcount_array(act)
    _check_subset_budget(karr, max_states)
    K = int(karr.max())
    cols = np.arange(act.size)
    # A machine on no active job goes to the spare row K.
    failb = np.ones((K + 1, act.size), dtype=np.float64)
    for i in range(instance.m):
        j = rows[:, i]
        hit = act & jobbit[i, j]
        rank = np.where(hit != 0, popcount_array(act & (hit - 1)), K)
        failb[rank, cols] *= fail[i, j]
    bits = np.empty((K, act.size), dtype=np.int64)
    rest = act.copy()
    for s in range(K):
        np.bitwise_and(rest, -rest, out=bits[s])
        rest ^= bits[s]
    slots = np.maximum.reduceat(karr, index.ptr[:-1])
    return RegimenSlots(1.0 - failb[:K], bits, slots)
