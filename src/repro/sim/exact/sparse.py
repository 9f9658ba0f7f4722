"""Vectorized sparse exact-Markov solvers (layer-at-a-time sweeps).

Same math as :mod:`repro.sim.exact.scalar` — the Figure-1 DP over the
subset lattice with closed-form self-loops and rho-shaped cycle solving —
but executed as NumPy sweeps over the CSR-style
:class:`~repro.sim.exact.lattice.TransitionBlock` structure instead of
per-state Python dict loops:

1. the lattice structure (eligibility, active sets, completion-subset
   deltas and weights) is built **once** per assignment rule;
2. states are processed one popcount layer at a time — every XOR target
   of a nonempty completion subset lies in a strictly lower layer, so a
   single gather ``E[S ^ deltas]`` reads only finished values;
3. within a layer, each block solves all its states with one fused
   gather → weighted-sum → divide (regimen) or one rho closed form over
   the schedule positions (cyclic), with no per-state Python at all.

The forward solver (:func:`state_distribution`) reuses the same blocks and
scatters each step with ``np.bincount`` over the XOR targets.

Agreement with the scalar golden reference to ≤1e-9 is property-tested
across all workload families in ``tests/sim/test_exact_engines_equiv.py``;
the measured speedup (≥10× on regimen makespans at n=14) is recorded by
``benchmarks/bench_perf_exact_markov.py``.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._util import iterable_from_bitmask
from ...core.instance import SUUInstance
from ...core.schedule import CyclicSchedule, Regimen
from ...errors import ScheduleError
from .lattice import (
    DEFAULT_MAX_STATES,
    TransitionBlock,
    build_regimen_structure,
    build_step_structure,
    check_state_budget,
    eligibility_masks,
    popcount_array,
)

__all__ = [
    "expected_makespan_regimen",
    "expected_makespan_cyclic",
    "state_distribution",
    "exact_completion_curve",
]

#: Self-loop probabilities at or above this are treated as "no progress",
#: matching the scalar engine's threshold.
_STAY_EPS = 1e-15


def _regimen_table(instance: SUUInstance, regimen: Regimen) -> np.ndarray:
    """The regimen's table, checked to fit ``instance`` and cover every state."""
    if (regimen.n, regimen.m) != (instance.n, instance.m):
        raise ScheduleError(
            f"regimen is for n={regimen.n}, m={regimen.m}; "
            f"the instance has n={instance.n}, m={instance.m}"
        )
    missing = ~regimen.defined()
    missing[0] = False
    if missing.any():
        raise ScheduleError(
            f"regimen has no assignment for state {int(np.argmax(missing)):#x}"
        )
    return regimen.table


def expected_makespan_regimen(
    instance: SUUInstance,
    regimen: Regimen,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of ``regimen``, vectorized per layer.

    Reads the regimen's dense table directly.  For every state block,
    ``E[S] = (1 + Σ_{T≠∅} w_T E[S ^ T]) / (1 - w_∅)`` is evaluated as one
    gather + einsum over the block's subset table.  Raises
    :class:`ScheduleError` when some state has no assignment or makes no
    progress (infinite expectation), like the scalar engine.
    """
    n = instance.n
    check_state_budget(n, 1, max_states)
    if n == 0:
        return 0.0
    size = 1 << n
    table = _regimen_table(instance, regimen)
    obs.add("exact.states_allocated", size)
    with obs.span("exact.lattice.build", states=size, op="regimen"):
        elig = eligibility_masks(instance)
        pc = popcount_array(np.arange(size, dtype=np.int64))
        blocks = build_regimen_structure(
            instance, table, elig, pc, max_states=max_states
        )
    with obs.span("exact.layer_sweep", layers=n, blocks=len(blocks), op="regimen"):
        expect = np.zeros(size, dtype=np.float64)
        for c in range(1, n + 1):
            for block in blocks:
                sel, deltas, weights = block.layer(c)
                if sel.size == 0:
                    continue
                stay = weights[:, 0]
                blocked = stay >= 1.0 - _STAY_EPS
                if np.any(blocked):
                    bad = int(sel[int(np.argmax(blocked))])
                    raise ScheduleError(
                        f"regimen makes no progress from state "
                        f"{iterable_from_bitmask(bad)}; expected makespan is infinite"
                    )
                succ = expect[sel[:, None] ^ deltas[:, 1:]]
                acc = 1.0 + np.einsum("gt,gt->g", weights[:, 1:], succ)
                expect[sel] = acc / (1.0 - stay)
    return float(expect[size - 1])


def _position_assignment(schedule: CyclicSchedule, tau: int) -> np.ndarray:
    P = schedule.prefix_length
    return schedule.prefix.table[tau] if tau < P else schedule.cycle.table[tau - P]


def _position_structures(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    positions: int,
    elig: np.ndarray,
    pc: np.ndarray,
    max_states: int,
) -> list[list[TransitionBlock]]:
    """One block list per schedule position, deduplicated by assignment.

    Long serial tails repeat the same assignment for many consecutive
    positions; sharing one structure keeps construction linear in the
    number of *distinct* assignments.
    """
    cache: dict[bytes, list[TransitionBlock]] = {}
    out = []
    for tau in range(positions):
        a = _position_assignment(schedule, tau)
        key = a.tobytes()
        if key not in cache:
            cache[key] = build_step_structure(
                instance, a, elig, pc, max_states=max_states
            )
        out.append(cache[key])
    return out


def expected_makespan_cyclic(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected makespan of a prefix+cycle schedule, vectorized.

    Identical recurrence and rho-shape closed form as the scalar engine
    (see :func:`repro.sim.exact.scalar.expected_makespan_cyclic`), but the
    per-position coefficients ``a_τ = 1 + Σ_{T≠∅} w_T E[S^T, next(τ)]``
    and ``b_τ = w_∅`` are produced for a whole popcount layer at once,
    and the cycle solve / backward substitution run vectorized over the
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
    with obs.span("exact.lattice.build", states=size, positions=total, op="cyclic"):
        elig = eligibility_masks(instance)
        pc = popcount_array(np.arange(size, dtype=np.int64))
        structures = _position_structures(
            instance, schedule, total, elig, pc, max_states
        )
    expect = np.zeros((size, total), dtype=np.float64)
    with obs.span("exact.layer_sweep", layers=n, positions=total, op="cyclic"):
        for c in range(1, n + 1):
            lay = np.flatnonzero(pc == c)
            G = lay.size
            a = np.empty((G, total), dtype=np.float64)
            b = np.empty((G, total), dtype=np.float64)
            for tau in range(total):
                nxt_tau = tau + 1 if tau + 1 < total else P
                for block in structures[tau]:
                    sel, deltas, weights = block.layer(c)
                    if sel.size == 0:
                        continue
                    pos = np.searchsorted(lay, sel)
                    b[pos, tau] = weights[:, 0]
                    if deltas.shape[1] > 1:
                        w = weights[:, 1:]
                        succ = expect[sel[:, None] ^ deltas[:, 1:], nxt_tau]
                        # Zero-weight subsets may point at dead (E = inf)
                        # states; mask them so 0 * inf never produces NaN
                        # (the scalar engine drops zero-probability branches).
                        a[pos, tau] = 1.0 + np.einsum(
                            "gt,gt->g", w, np.where(w > 0.0, succ, 0.0)
                        )
                    else:
                        a[pos, tau] = 1.0
            # Cycle closed form: E_P = A + B E_P around the loop (rho shape).
            A = np.zeros(G, dtype=np.float64)
            B = np.ones(G, dtype=np.float64)
            with np.errstate(invalid="ignore"):
                for off in range(L):
                    tau = P + off
                    A = A + B * a[:, tau]
                    B = B * b[:, tau]
                dead = (B >= 1.0 - _STAY_EPS) | ~np.isfinite(A)
                e_start = np.where(
                    dead, np.inf, A / np.where(dead, 1.0, 1.0 - B)
                )
                # Backward substitution; b == 0 short-circuits so that a dead
                # successor (E = inf) does not poison a zero-probability link.
                e_next = e_start
                for tau in range(total - 1, -1, -1):
                    e_tau = np.where(
                        b[:, tau] == 0.0, a[:, tau], a[:, tau] + b[:, tau] * e_next
                    )
                    expect[lay, tau] = e_tau
                    e_next = e_tau
    value = float(expect[size - 1, 0])
    if not np.isfinite(value):
        raise ScheduleError(
            "cyclic schedule makes no progress from some reachable state; "
            "expected makespan is infinite"
        )
    return value


def state_distribution(
    instance: SUUInstance,
    schedule: CyclicSchedule,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Exact forward state distribution, scattered with ``bincount``.

    Row ``t`` is the distribution of the unfinished set after ``t`` steps;
    each step pushes every state's mass along its block's subset table in
    one flattened ``np.bincount`` (weights sum to 1 per state, so each row
    remains a distribution exactly as in the scalar engine).
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
    ):
        elig = eligibility_masks(instance)
        pc = popcount_array(np.arange(size, dtype=np.int64))
        structures = _position_structures(
            instance, schedule, positions, elig, pc, max_states
        )
    with obs.span("exact.layer_sweep", steps=horizon, op="forward"):
        for t in range(horizon):
            tau = t if t < P else P + (t - P) % L
            row = dist[t]
            nxt = dist[t + 1]
            for block in structures[tau]:
                mass = row[block.states]
                targets = block.states[:, None] ^ block.deltas
                nxt += np.bincount(
                    targets.ravel(),
                    weights=(mass[:, None] * block.weights).ravel(),
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
