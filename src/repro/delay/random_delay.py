"""Random chain delays (§4.1, after Shmoys–Stein–Wein [27]).

The pseudo-schedule produced by Theorem 4.1 may put many jobs on one
machine in one step.  Delaying the start of each chain by an independent
uniform amount from ``[0, Π_max]`` makes the maximum per-(machine, step)
congestion ``O(log(n+m) / log log(n+m))`` with high probability — the
classic job-shop random-delay argument.  This module implements the random
sampler with a retry loop (the derandomized variant lives in
:mod:`repro.delay.derandomize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._util import as_rng
from ..core.schedule import PseudoSchedule
from ..errors import ScheduleError

__all__ = ["ssw_collision_bound", "DelayOutcome", "sample_delays", "find_good_delays"]


def ssw_collision_bound(n: int, m: int, alpha: float = 4.0) -> int:
    """The target congestion ``α · log(n+m) / log log(n+m)``, at least 2.

    ``alpha`` plays the role of the paper's constant; 4 keeps the retry
    loop short across all workload sizes we generate while preserving the
    asymptotic shape (experiment E11 measures the actual congestion).
    """
    x = max(4.0, float(n + m))
    bound = alpha * math.log(x) / math.log(max(math.e, math.log(x)))
    return max(2, int(math.ceil(bound)))


@dataclass
class DelayOutcome:
    """Result of the delay search.

    ``pseudo`` is the delayed pseudo-schedule; ``delays`` the per-chain
    shifts; ``max_collision`` the achieved congestion; ``attempts`` how
    many delay samples the retry loop drew in total (1 for a first-try
    success; ``max_attempts`` when the budget was exhausted, in which case
    the best outcome seen is returned even if it was sampled earlier).
    """

    pseudo: PseudoSchedule
    delays: list[int]
    max_collision: int
    attempts: int
    window: int
    target: int


def sample_delays(
    num_chains: int,
    window: int,
    rng: np.random.Generator | int | None = None,
    grid: int = 1,
) -> list[int]:
    """Independent uniform delays from ``{0, g, 2g, ..., <= window}`` per chain.

    ``grid`` implements the §4.1 "reducing T^OPT" trick: when ``Π_max`` is
    astronomically large the delay choices are coarsened to multiples of
    ``g ≈ Π_max / (nm)`` so that only polynomially many candidates exist;
    the paper rounds the unit counts to the same grid, which our bands keep
    implicit by shifting whole chains on grid multiples.
    """
    rng = as_rng(rng)
    if window < 0:
        raise ScheduleError("delay window must be >= 0")
    if grid < 1:
        raise ScheduleError("delay grid must be >= 1")
    slots = window // grid + 1
    return [int(d) * grid for d in rng.integers(0, slots, size=num_chains)]


def find_good_delays(
    pseudo: PseudoSchedule,
    window: int | None = None,
    target: int | None = None,
    rng: np.random.Generator | int | None = None,
    max_attempts: int = 64,
    alpha: float = 4.0,
    n_jobs: int | None = None,
    grid: int = 1,
) -> DelayOutcome:
    """Sample delays until the congestion target is met (whp: 1–2 tries).

    Parameters
    ----------
    pseudo:
        The undelayed pseudo-schedule; each chain is shifted by its own delay.
    window:
        Delay range; defaults to the paper's ``Π_max`` (the load).  The
        tree algorithm (Thm 4.8) passes ``Π_max / log n`` instead.
    target:
        Congestion to reach; defaults to :func:`ssw_collision_bound`.
    max_attempts:
        Retry budget; with the theorem's failure probability polynomially
        small this is effectively never exhausted, but if it is, the best
        outcome seen is returned rather than looping forever.
    n_jobs:
        Job count used for the default bound (defaults to the number of
        jobs appearing in the pseudo-schedule).
    """
    rng = as_rng(rng)
    if window is None:
        window = pseudo.load()
    if n_jobs is None:
        n_jobs = np.unique(pseudo.job).size
    if target is None:
        target = ssw_collision_bound(n_jobs, pseudo.m, alpha=alpha)
    best: DelayOutcome | None = None
    for attempt in range(1, max_attempts + 1):
        # A fresh independent sample every attempt: the whp guarantee is
        # per-draw, so re-testing a stale sample would never terminate.
        delays = sample_delays(pseudo.num_chains, window, rng, grid=grid)
        delayed = pseudo.with_delays(delays)
        collision = delayed.max_collision()
        outcome = DelayOutcome(
            pseudo=delayed,
            delays=delays,
            max_collision=collision,
            attempts=attempt,
            window=window,
            target=target,
        )
        if collision <= target:
            return outcome
        if best is None or collision < best.max_collision:
            best = outcome
    assert best is not None
    # Budget exhausted: report the true number of samples drawn, not the
    # attempt at which the best (still-above-target) outcome was found.
    best.attempts = max_attempts
    return best
