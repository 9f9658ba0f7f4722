"""Vectorized subset-lattice structure shared by the sparse exact solvers.

The Figure-1 Markov chain lives on the lattice of unfinished-job subsets:
state ``S`` is a bitmask, transitions only *remove* jobs, and the jobs that
can leave in one step are the *active* ones — eligible (no unfinished
predecessor) **and** served by a machine with positive success probability.
This module turns that structure into flat NumPy arrays once, so the
solvers in :mod:`repro.sim.exact.sparse` can sweep the chain one popcount
layer at a time without any per-state Python:

* :func:`eligibility_masks` — the eligible-set bitmask of every state, as
  one ``(2^n,)`` int64 array (``n`` vectorized passes over the lattice).
* :class:`TransitionBlock` — all states with the same *active count* ``k``
  under one assignment rule, stored CSR-style: ``states`` sorted by
  popcount with a ``layer_ptr`` row pointer, and per state the ``2^k``
  completion subsets as XOR ``deltas`` plus their product-measure
  ``weights`` (column 0 is the empty subset — the self-loop probability).
* :func:`build_step_structure` / :func:`build_regimen_structure` — group
  the whole lattice into blocks for one oblivious assignment (shared ``q``
  vector) or a per-state regimen table (per-state ``q`` via a machine
  sweep, the "assignment signature" of each state).

Because a job set can only shrink, ``S XOR delta`` always lands in a
strictly lower layer (for ``delta != 0``), which is what makes the
layer-at-a-time backward sweep well-founded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "build_step_structure",
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


def _check_structure_budget(karr: np.ndarray, max_states: int) -> None:
    """Guard the transient subset tables, the sparse engine's own footprint.

    Each state's block row holds ``2^k`` completion subsets (``k`` = its
    active-job count, up to ``m``), so the structure is ``Σ_S 2^{k(S)}``
    entries — independent of the DP-table size the ``max_states`` guard
    covers, and the dominant allocation when many jobs are active at
    once.  The budget is ``8 × max_states`` (tables are transient and of
    the same order as the DP table at typical ``m``); past it, the scalar
    engine — whose per-state dicts are transient — is the right tool.
    """
    entries = int(np.sum(np.left_shift(np.int64(1), karr)))
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

    Vectorized counterpart of :func:`repro.sim.markov.eligible_bitmask`:
    job ``j`` is eligible in state ``S`` iff it is unfinished and none of
    its predecessors is (``S & pred_mask(j) == 0``).
    """
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
    """Assemble one block from per-state active-bit positions and probs."""
    order = np.argsort(pc[sel], kind="stable")
    sel = sel[order]
    bits = bits[order]
    qbits = qbits[order]
    k = bits.shape[1]
    # Membership table of the 2^k subsets: incl[t, b] = bit b in subset t.
    incl = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(bool)
    deltas = (np.left_shift(np.int64(1), bits)) @ incl.T.astype(np.int64)
    weights = np.ones((sel.size, 1 << k), dtype=np.float64)
    for b in range(k):
        qb = qbits[:, b : b + 1]
        weights *= np.where(incl[:, b][None, :], qb, 1.0 - qb)
    layer_ptr = np.searchsorted(pc[sel], np.arange(n + 2))
    return TransitionBlock(sel, deltas, weights, layer_ptr)


def bit_positions(act: np.ndarray, k: int, n: int) -> np.ndarray:
    """``(G, k)`` column positions of the set bits of each mask in ``act``."""
    if k == 0:
        return np.zeros((act.size, 0), dtype=np.int64)
    bitmat = ((act[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(bool)
    return np.nonzero(bitmat)[1].reshape(act.size, k)


def build_step_structure(
    instance: SUUInstance,
    assignment: np.ndarray,
    elig: np.ndarray,
    pc: np.ndarray,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[TransitionBlock]:
    """Transition blocks of the whole lattice under one oblivious step.

    All states share the assignment's ``q`` vector; they are grouped by
    active count ``k`` so each group has a rectangular ``(G, 2^k)``
    subset table.  States with ``k = 0`` (nothing progresses, including
    the absorbing empty state) form the ``2^0``-column block.
    """
    n = instance.n
    q, served = assignment_success(instance.p, assignment)
    act = elig & served
    karr = popcount_array(act)
    _check_structure_budget(karr, max_states)
    states = np.arange(1 << n, dtype=np.int64)
    blocks = []
    for kk in np.unique(karr):
        sel = states[karr == kk]
        bits = bit_positions(act[sel], int(kk), n)
        qbits = q[bits] if kk else np.zeros((sel.size, 0), dtype=np.float64)
        blocks.append(_make_block(sel, bits, qbits, pc, n))
    return blocks


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
    probabilities are accumulated with one vectorized sweep per machine:
    machine ``i`` contributes ``1 - p[i, j]`` to the failure product of
    the active bit it points at, per state.
    """
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
    _check_structure_budget(karr, max_states)
    blocks = []
    for kk in np.unique(karr):
        sel = states[karr == kk]
        bits = bit_positions(act[sel], int(kk), n)
        if kk:
            failb = np.ones((sel.size, kk), dtype=np.float64)
            for i in range(m):
                j = table[sel, i].astype(np.int64)
                failb *= np.where(j[:, None] == bits, 1.0 - p[i, bits], 1.0)
            qbits = 1.0 - failb
        else:
            qbits = np.zeros((sel.size, 0), dtype=np.float64)
        blocks.append(_make_block(sel, bits, qbits, pc, n))
    return blocks
