"""Vectorized subset-lattice structure shared by the sparse exact solvers.

The Figure-1 Markov chain lives on the lattice of unfinished-job subsets:
state ``S`` is a bitmask, transitions only *remove* jobs, and the jobs that
can leave in one step are the *active* ones — eligible (no unfinished
predecessor) **and** served by a machine with positive success probability.
This module turns that structure into flat NumPy arrays once, so the
solvers in :mod:`repro.sim.exact.sparse` can sweep the chain one popcount
layer at a time without any per-state Python:

* :func:`eligibility_masks` — the eligible-set bitmask of every state, as
  one ``(2^n,)`` int64 array, doubled over the highest job (``2^n`` work).
* :class:`TransitionBlock` — all states with the same *active count* ``k``
  under one assignment rule, stored CSR-style: ``states`` sorted by
  popcount with a ``layer_ptr`` row pointer, and per state the ``2^k``
  completion subsets as XOR ``deltas`` plus their product-measure
  ``weights`` (column 0 is the empty subset — the self-loop probability).
* :func:`build_position_structures` / :func:`build_regimen_structure` —
  group the whole lattice into blocks for each oblivious assignment of a
  schedule (shared ``q`` vector) or for a per-state regimen table
  (per-state ``q`` via a machine sweep, the "assignment signature" of
  each state).

Every kernel costs about the size of what it returns: active-bit
positions are peeled lowest bit first and the ``2^k`` subset tables
double bit by bit, so no step builds a bit matrix or a full-width
temporary per bit.

Because a job set can only shrink, ``S XOR delta`` always lands in a
strictly lower layer (for ``delta != 0``), which is what makes the
layer-at-a-time backward sweep well-founded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..._util import bitmask_from_iterable
from ...core.instance import SUUInstance
from ...errors import ExactSolverLimitError

__all__ = [
    "DEFAULT_MAX_STATES",
    "check_state_budget",
    "popcount_array",
    "eligibility_masks",
    "assignment_success",
    "bit_positions",
    "TransitionBlock",
    "build_position_structures",
    "build_regimen_structure",
]

#: Default cap on the number of DP entries an exact solver may allocate
#: (``2^n`` states times the number of schedule positions / time steps).
#: At float64 this is a 32 MiB table — regimens up to n ≈ 20–22 and cyclic
#: schedules up to n ≈ 14–16 with short periods fit comfortably.
DEFAULT_MAX_STATES = 1 << 22


def check_state_budget(n: int, width: int, max_states: int) -> None:
    """Guard the *full* DP allocation, not just the subset count.

    ``width`` is the number of DP entries per unfinished set: 1 for a
    regimen, ``P + L`` for a cyclic schedule (the chain's true states are
    ``(S, τ)`` pairs), ``horizon + 1`` for the forward state distribution.
    The pre-fix guard only checked ``2^n <= max_states``, so a long cycle
    or horizon could pass the guard and still exhaust memory.
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


def _check_structure_budget(karrs: list[np.ndarray], max_states: int) -> None:
    """Guard the subset tables, the sparse engine's own footprint.

    Each state's block row holds ``2^k`` completion subsets (``k`` = its
    active-job count, up to ``m``), so one structure is ``Σ_S 2^{k(S)}``
    entries — independent of the DP-table size the ``max_states`` guard
    covers, and the dominant allocation when many jobs are active at
    once.  ``karrs`` holds the active-count array of every structure a
    solver keeps alive at once (one per distinct position of a cyclic
    schedule), and the budget covers their sum: ``8 × max_states``
    (the same order as the DP table at typical ``m``).  Past it, the
    scalar engine — whose per-state dicts are transient — is the right
    tool.
    """
    entries = sum(int(np.sum(np.left_shift(np.int64(1), karr))) for karr in karrs)
    limit = 8 * int(max_states)
    if entries > limit:
        raise ExactSolverLimitError(
            f"sparse transition structure would need {entries} subset-table "
            f"entries (limit {limit} = 8 x max_states); too many jobs are "
            'active per state — use engine="scalar" or raise max_states'
        )


_POPCOUNT_LUT: np.ndarray | None = None


def popcount_array(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 array."""
    x = np.asarray(x, dtype=np.int64)
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
        return np.bitwise_count(x).astype(np.int64)
    global _POPCOUNT_LUT  # pragma: no cover - NumPy < 2.0 fallback
    if _POPCOUNT_LUT is None:  # pragma: no cover
        _POPCOUNT_LUT = np.array(
            [bin(i).count("1") for i in range(1 << 16)], dtype=np.int64
        )
    out = np.zeros_like(x)  # pragma: no cover
    for shift in (0, 16, 32, 48):  # pragma: no cover
        out += _POPCOUNT_LUT[(x >> shift) & 0xFFFF]
    return out  # pragma: no cover


def eligibility_masks(instance: SUUInstance) -> np.ndarray:
    """Eligible-job bitmask for every unfinished set, as a ``(2^n,)`` array.

    Vectorized counterpart of :func:`repro.sim.exact.scalar.eligible_bitmask`:
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
    """All states with the same active count ``k`` under one step rule.

    ``states`` is sorted by popcount (CSR rows via ``layer_ptr``); columns
    of ``deltas``/``weights`` enumerate the ``2^k`` completion subsets of
    each state's active set.  Column 0 is always the empty subset:
    ``deltas[:, 0] == 0`` and ``weights[:, 0]`` is the self-loop (stay)
    probability.  Rows of ``weights`` sum to 1 (a product measure).
    """

    states: np.ndarray
    deltas: np.ndarray
    weights: np.ndarray
    layer_ptr: np.ndarray

    @property
    def k(self) -> int:
        """Active jobs per state (``deltas`` has ``2^k`` columns)."""
        return int(self.deltas.shape[1]).bit_length() - 1

    def layer(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block's rows for popcount layer ``c`` (may be empty)."""
        lo, hi = self.layer_ptr[c], self.layer_ptr[c + 1]
        return self.states[lo:hi], self.deltas[lo:hi], self.weights[lo:hi]


def _make_block(
    sel: np.ndarray, bits: np.ndarray, qbits: np.ndarray, pc: np.ndarray, n: int
) -> TransitionBlock:
    """Assemble one block from its states (in popcount order), their
    active-bit positions and the bits' success probabilities.

    The subset tables double bit by bit, as the Malewicz DP's do: subset
    ``t`` completes active bit ``b`` iff bit ``b`` of ``t`` is set, so the
    first ``2^b`` subsets give the next ``2^b`` by adding bit ``b``, and
    each weight multiplies its bit factors (``q`` or ``1 - q``) in bit
    order starting from 1.0.  Each table is doubled subset-major, then
    transposed once into the stored ``(G, 2^k)`` layout, the one the
    sweeps' ``einsum`` sums in; the deltas are transposed before the
    weights are doubled, so at most three tables are alive at once.
    """
    k = bits.shape[1]
    deltas = np.empty((1 << k, sel.size), dtype=np.int64)
    deltas[0] = 0
    for b in range(k):
        c = 1 << b
        np.bitwise_or(deltas[:c], np.left_shift(np.int64(1), bits[:, b]), out=deltas[c : 2 * c])
    deltas = np.ascontiguousarray(deltas.T)
    weights = np.empty((1 << k, sel.size), dtype=np.float64)
    weights[0] = 1.0
    for b in range(k):
        c = 1 << b
        np.multiply(weights[:c], qbits[:, b], out=weights[c : 2 * c])
        weights[:c] *= 1.0 - qbits[:, b]
    weights = np.ascontiguousarray(weights.T)
    layer_ptr = np.searchsorted(pc[sel], np.arange(n + 2))
    return TransitionBlock(sel, deltas, weights, layer_ptr)


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


def _active_classes(act: np.ndarray, karr: np.ndarray, order: np.ndarray):
    """``(sel, bits)`` per active count ``k``, ascending in ``k``.

    ``order`` lists every state in popcount order (see
    :func:`_popcount_order`), so each ``sel`` comes out sorted by popcount
    and, within a popcount, by state.
    """
    korder = karr[order]
    for k in np.flatnonzero(np.bincount(karr)):
        sel = order[korder == k]
        yield sel, bit_positions(act[sel], int(k))


def _popcount_order(pc: np.ndarray) -> np.ndarray:
    """Every state sorted by popcount, ties by state (one stable sort)."""
    return np.argsort(pc.astype(np.uint8), kind="stable")


def build_position_structures(
    instance: SUUInstance,
    assignments: list[np.ndarray],
    elig: np.ndarray,
    pc: np.ndarray,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[list[TransitionBlock]]:
    """Transition blocks of the whole lattice for each oblivious step.

    All states of a step share its assignment's ``q`` vector; they are
    grouped by active count ``k`` so each group has a rectangular
    ``(G, 2^k)`` subset table.  States with ``k = 0`` (nothing progresses,
    including the absorbing empty state) form the ``2^0``-column block.
    Steps that repeat an assignment share one structure — long serial
    tails repeat one for many positions — so construction is linear in
    the number of *distinct* assignments.  A solver keeps every distinct
    structure alive through its sweep, so the subset-table budget covers
    their sum, checked before any block is built.
    """
    n = instance.n
    keys = [a.tobytes() for a in assignments]
    steps = {}
    for key, a in zip(keys, assignments):
        if key not in steps:
            q, served = assignment_success(instance.p, a)
            act = elig & served
            steps[key] = (q, act, popcount_array(act))
    _check_structure_budget([karr for _, _, karr in steps.values()], max_states)
    order = _popcount_order(pc)
    structures = {
        key: [
            _make_block(sel, bits, q[bits], pc, n)
            for sel, bits in _active_classes(act, karr, order)
        ]
        for key, (q, act, karr) in steps.items()
    }
    return [structures[key] for key in keys]


def build_regimen_structure(
    instance: SUUInstance,
    table: np.ndarray,
    elig: np.ndarray,
    pc: np.ndarray,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[TransitionBlock]:
    """Transition blocks for a per-state assignment table (a regimen).

    ``table`` is a regimen's dense ``(2^n, m)`` table (row ``S`` is the
    assignment in state ``S``; row 0 is ignored).  Unlike the oblivious
    case there is no shared ``q`` vector, so per-state success
    probabilities are accumulated machine by machine: machine ``i``
    multiplies ``1 - p[i, j]`` into the failure product of the active bit
    it points at, found by its rank among the state's active bits (the
    popcount of the lower ones).
    """
    p = instance.p
    n, m = instance.n, instance.m
    # Per machine, indexed by table entry: the bit of a job it serves with
    # positive probability, and the job's failure factor.  The two padding
    # columns at the end are what IDLE (-1) and UNDEFINED (-2) index.
    jobbit = np.zeros((m, n + 2), dtype=np.int64)
    jobbit[:, :n] = np.where(p > 0.0, np.left_shift(np.int64(1), np.arange(n)), 0)
    fail = np.ones((m, n + 2), dtype=np.float64)
    fail[:, :n] = 1.0 - p
    served = np.zeros(1 << n, dtype=np.int64)
    for i in range(m):
        served |= jobbit[i, table[:, i]]
    act = elig & served
    act[0] = 0
    karr = popcount_array(act)
    _check_structure_budget([karr], max_states)
    blocks = []
    for sel, bits in _active_classes(act, karr, _popcount_order(pc)):
        k = bits.shape[1]
        act_sel = act[sel]
        rows = np.arange(sel.size)
        # A machine on no active job has hit = 0, so its rank (the
        # popcount of act & -1) is k: the spare column k absorbs it.
        failb = np.ones((sel.size, k + 1), dtype=np.float64)
        for i in range(m):
            j = table[sel, i]
            hit = act_sel & jobbit[i, j]
            failb[rows, popcount_array(act_sel & (hit - 1))] *= fail[i, j]
        blocks.append(_make_block(sel, bits, 1.0 - failb[:, :k], pc, n))
    return blocks
