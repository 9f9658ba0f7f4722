"""Deterministic delay selection by the method of conditional expectations.

The paper notes the random delays can be derandomized ([22, 25, 27]).  We
implement the standard pessimistic-estimator argument: for a parameter
``λ > 0`` the potential

    Φ(delays) = Σ_{(machine, step)} exp(λ · load(machine, step))

upper-bounds ``exp(λ · max_load)``.  Delays are fixed one chain at a time,
each time choosing the value minimizing the *exact* conditional expectation
of Φ given the already-fixed chains and uniform random delays for the rest.
Since chains are independent, a cell's conditional expectation factorizes::

    E[exp(λ load(i,t))] = exp(λ fixed(i,t)) · Π_{k undecided} ef_k(i,t)

with ``ef_k(i,t) = E_d[exp(λ · units_k(i, t−d))]``.  The per-cell products
over undecided chains are maintained incrementally in log space, so every
greedy choice is the true argmin and the final potential is at most the
initial expectation — giving a deterministic congestion bound matching the
randomized one up to the constant absorbed in ``λ``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ..core.schedule import PseudoSchedule
from .random_delay import DelayOutcome, ssw_collision_bound

__all__ = ["derandomized_delays"]


def _chain_cells(pseudo: PseudoSchedule) -> list[dict[tuple[int, int], int]]:
    """Unit counts per (machine, step) cell of each (undelayed) chain."""
    cells: list[dict[tuple[int, int], int]] = [
        defaultdict(int) for _ in range(pseudo.num_chains)
    ]
    for k, i, t in zip(pseudo.chain.tolist(), pseudo.machine.tolist(), pseudo.step.tolist()):
        cells[k][(i, t)] += 1
    return [dict(c) for c in cells]


def _expected_factor_cells(
    cells: dict[tuple[int, int], int], window: int, lam: float, grid: int = 1
) -> dict[tuple[int, int], float]:
    """Log of ``ef_k(i, t)`` for every cell the chain can touch.

    For each base cell ``(i, t0)`` with ``u`` units, delays ``d`` with
    ``t = t0 + d`` put ``u`` units on ``(i, t)``; summing over base cells
    gives the shifted-unit function, from which the expectation over the
    uniform delay follows.
    """
    # units_at[(i, t)][d] is implicit: accumulate exp(λu)−1 mass per (cell, d).
    shifted: dict[tuple[int, int], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    choices = list(range(0, window + 1, grid))
    for (i, t0), u in cells.items():
        for d in choices:
            shifted[(i, t0 + d)][d] += u
    log_ef: dict[tuple[int, int], float] = {}
    denom = len(choices)
    for cell, per_delay in shifted.items():
        # E_d[exp(λ·units(cell, d))] with units = 0 for delays not listed.
        total = float(denom - len(per_delay))
        for u in per_delay.values():
            total += math.exp(lam * u)
        log_ef[cell] = math.log(total / denom)
    return log_ef


def derandomized_delays(
    pseudo: PseudoSchedule,
    window: int | None = None,
    lam: float = 1.0,
    n_jobs: int | None = None,
    alpha: float = 4.0,
    grid: int = 1,
) -> DelayOutcome:
    """Choose chain delays deterministically (conditional expectations).

    Returns the same :class:`DelayOutcome` shape as the random sampler with
    ``attempts = 1``.  ``lam`` is the exponential-moment parameter; 1.0
    works well across the workloads here (larger values penalize collisions
    more sharply but saturate sooner).
    """
    if window is None:
        window = pseudo.load()
    if n_jobs is None:
        n_jobs = np.unique(pseudo.job).size
    target = ssw_collision_bound(n_jobs, pseudo.m, alpha=alpha)

    band_cells = _chain_cells(pseudo)
    band_log_ef = [
        _expected_factor_cells(c, window, lam, grid=grid) for c in band_cells
    ]

    # log_weight[(i,t)] = Σ over *undecided* chains of log ef_k(i,t).
    log_weight: dict[tuple[int, int], float] = defaultdict(float)
    for log_ef in band_log_ef:
        for cell, v in log_ef.items():
            log_weight[cell] += v
    fixed_load: dict[tuple[int, int], float] = defaultdict(float)

    delays: list[int] = []
    for k, cells in enumerate(band_cells):
        # Remove this chain's own expectation factor before comparing its
        # candidate (deterministic) placements.
        for cell, v in band_log_ef[k].items():
            log_weight[cell] -= v
        best_d = 0
        best_score = math.inf
        for d in range(0, window + 1, grid):
            score = 0.0
            for (i, t0), u in cells.items():
                cell = (i, t0 + d)
                base = fixed_load[cell]
                w = math.exp(log_weight[cell])
                score += w * (math.exp(lam * (base + u)) - math.exp(lam * base))
            if score < best_score - 1e-15:
                best_score = score
                best_d = d
        delays.append(best_d)
        for (i, t0), u in cells.items():
            fixed_load[(i, t0 + best_d)] += u

    delayed = pseudo.with_delays(delays)
    return DelayOutcome(
        pseudo=delayed,
        delays=delays,
        max_collision=delayed.max_collision(),
        attempts=1,
        window=window,
        target=target,
    )
