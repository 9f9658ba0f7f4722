"""SUU-C: scheduling under disjoint-chain precedence constraints (§4.1).

The full Theorem 4.4 pipeline::

    (LP1) ──solve──► fractional (x, d, T*)            repro.lp.acc_mass
      │ round (Thm 4.1: ceil / buckets + integral flow)   repro.rounding
      ▼
    integral (x̂, d̂, t̂),  t̂ = O(log m)·T*
      │ lay out chain bands (windows ψ_j .. ψ_j+L_j)       build_chain_bands
      ▼
    pseudo-schedule Σ_s  (length & load O(log m)·T^OPT)
      │ random delays over [0, Π_max]  (SSW [27])          repro.delay
      ▼
    Σ_{s,1}: congestion O(log(n+m)/log log(n+m))
      │ flatten (expand steps by the congestion)           repro.delay.flatten
      ▼
    oblivious Σ_{o,1}
      │ replicate steps ×σ=O(log n), append serial tail    replication
      ▼
    Σ_o with E[makespan] = O(log m · log n · log(n+m)/log log(n+m)) · T^OPT

Every stage's invariant is checked and recorded in the result certificates.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import PseudoSchedule, ScheduleResult
from ..delay.derandomize import derandomized_delays
from ..delay.flatten import flatten_pseudo
from ..delay.random_delay import find_good_delays, ssw_collision_bound
from ..errors import RoundingError, UnsupportedDagError
from ..lp.acc_mass import solve_lp1
from ..rounding.round_lp import IntegralAccMass, round_acc_mass
from .constants import PRACTICAL, SUUConstants
from .replication import replicate_with_tail

__all__ = ["build_chain_bands", "solve_chains"]


def build_chain_bands(
    instance: SUUInstance,
    integral: IntegralAccMass,
) -> PseudoSchedule:
    """Lay the integral solution out as per-chain job windows (Thm 4.1 proof).

    Chain ``C_k = j_1 ≺ j_2 ≺ ...`` gets consecutive windows: job ``j``
    occupies steps ``ψ_j .. ψ_j + L_j − 1`` with ``L_j = max_i x̂_ij`` and
    ``ψ_j`` the sum of the window lengths of its chain predecessors;
    machine ``i`` works on ``j`` during the first ``x̂_ij`` steps of the
    window.  Jobs of *different* chains may share machine-steps — that is
    the pseudo-schedule slack removed later by delays.  The units come out
    in (chain, window, machine, step) order, the order flattening keeps
    within a cell.
    """
    sizes = np.array([len(c) for c in integral.chains], dtype=np.int64)
    order = np.array([j for c in integral.chains for j in c], dtype=np.int64)
    units = integral.x[:, order].T  # (window, machine) unit counts
    lengths = units.max(axis=1, initial=0)
    if (lengths <= 0).any():
        raise RoundingError(
            f"job {int(order[lengths <= 0][0])} received no machine units "
            "in the integral solution"
        )
    chain_of = np.repeat(np.arange(sizes.size), sizes)
    before = np.cumsum(lengths) - lengths
    start = before - before[(np.cumsum(sizes) - sizes)[chain_of]]
    win, machine = np.nonzero(units > 0)
    count = units[win, machine]
    win, machine = np.repeat(win, count), np.repeat(machine, count)
    offset = np.arange(win.size) - np.repeat(np.cumsum(count) - count, count)
    return PseudoSchedule(
        instance.m, sizes.size, order[win], machine, start[win] + offset, chain_of[win]
    )


def solve_chains(
    instance: SUUInstance,
    constants: SUUConstants = PRACTICAL,
    rng=None,
    chains: list[list[int]] | None = None,
    window_divisor: float | None = None,
    collision_target: int | None = None,
) -> ScheduleResult:
    """Theorem 4.4: oblivious schedule for disjoint-chain precedence.

    Parameters beyond the obvious:

    chains:
        Explicit chain partition (used by the tree/forest block scheduler,
        whose blocks carry their own chain structure); defaults to the
        instance DAG's chains.
    window_divisor / collision_target:
        Overrides for the delay step; the tree algorithm (Thm 4.8) passes
        ``window_divisor = log n`` (window ``Π_max / log n``) and a
        congestion target of ``O(log n)``.
    """
    rng = as_rng(rng)
    if chains is None:
        chains = instance.dag.chains()  # raises for non-chain DAGs
    elif instance.dag.num_edges == 0 and any(len(c) > 1 for c in chains):
        raise UnsupportedDagError(
            "explicit multi-job chains given for an instance without edges"
        )
    # 1. LP relaxation.
    frac = solve_lp1(instance, chains, target_mass=constants.lp_target_mass)
    # 2. Theorem 4.1 rounding.
    integral = round_acc_mass(
        instance, frac, low_scale=constants.rounding_low_scale
    )
    # 3. Pseudo-schedule: one band of consecutive job windows per chain.
    pseudo = build_chain_bands(instance, integral)
    pi_max = pseudo.load()
    window = pi_max
    if window_divisor is not None:
        window = max(1, int(pi_max / max(1.0, window_divisor)))
    # 4. Random (or derandomized) delays.  The delay-candidate grid is
    # coarsened to keep the number of candidate delays polynomial (the
    # paper's "reducing T^OPT" §4.1 trick): with β = n·m candidate slots
    # the union bound in the SSW argument stays intact while the search
    # space stays small.
    grid = max(1, window // max(4, instance.n * instance.m))
    if constants.derandomize_delays:
        outcome = derandomized_delays(
            pseudo, window=window, n_jobs=instance.n, alpha=constants.delay_alpha, grid=grid
        )
    else:
        outcome = find_good_delays(
            pseudo,
            window=window,
            target=collision_target,
            rng=rng,
            alpha=constants.delay_alpha,
            n_jobs=instance.n,
            grid=grid,
        )
    # 5. Flatten into a feasible oblivious schedule.
    core = flatten_pseudo(outcome.pseudo)
    # 6. Replicate and append the serial tail.
    sigma = constants.replication_sigma(instance.n)
    schedule = replicate_with_tail(core, instance, sigma)

    masses = core.masses(instance)
    cert = integral.certificate(instance)
    cert.update(
        {
            "lp_value": frac.t,
            "pi_max": pi_max,
            "delay_window": outcome.window,
            "delay_attempts": outcome.attempts,
            "max_collision": outcome.max_collision,
            "collision_target": outcome.target,
            "ssw_bound": ssw_collision_bound(
                instance.n, instance.m, alpha=constants.delay_alpha
            ),
            "core_length": core.length,
            "sigma": sigma,
            "min_core_mass": float(masses.min()) if masses.size else 0.0,
            "guarantee": "O(log m log n log(n+m)/loglog(n+m)) x TOPT (Thm 4.4)",
        }
    )
    return ScheduleResult(
        schedule=schedule,
        algorithm="solve_chains",
        finite_core=core,
        certificates=cert,
        meta={"constants": constants, "delays": outcome.delays},
    )
