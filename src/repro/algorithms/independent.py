"""Scheduling independent jobs (SUU-I, §3 and Theorem 4.5).

Three algorithms, in increasing order of sophistication:

* :func:`suu_i_adaptive` — **SUU-I-ALG** (Figure 2): each step, run MSM-ALG
  on the currently unfinished jobs.  Adaptive; ``O(log n)``-approximate
  (Theorem 3.3).
* :func:`suu_i_oblivious` — **SUU-I-OBL** (Algorithm 2): guess the horizon
  ``t`` by doubling; per guess, repeatedly call MSM-E-ALG on the jobs still
  below the mass threshold, concatenating the produced blocks; infinitely
  repeating the result is ``O(log² n)``-approximate (Theorem 3.6).
* :func:`suu_i_lp` — the LP-based oblivious schedule of Theorem 4.5: solve
  (LP2), round (Theorem 4.1 / 4.5 variant), lay the integral units out
  per machine, replicate and add the serial tail;
  ``O(log n · log min(n, m))``-approximate.
"""

from __future__ import annotations

import math

from ..core.instance import SUUInstance
from ..core.schedule import (
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    ScheduleResult,
)
from ..errors import UnsupportedDagError
from ..lp.acc_mass import solve_lp2
from ..rounding.round_lp import round_acc_mass
from .constants import PRACTICAL, SUUConstants
from .msm import MSMGreedy
from .replication import replicate_with_tail

__all__ = ["suu_i_adaptive", "suu_i_oblivious", "suu_i_lp"]


def _require_independent(instance: SUUInstance, who: str) -> None:
    if instance.dag.num_edges:
        raise UnsupportedDagError(
            f"{who} requires independent jobs; DAG class is "
            f"{instance.classify().value}"
        )


# ----------------------------------------------------------------------
# SUU-I-ALG (adaptive, Theorem 3.3)
# ----------------------------------------------------------------------
def suu_i_adaptive(instance: SUUInstance) -> ScheduleResult:
    """SUU-I-ALG: per-step MSM-ALG on the unfinished set (Figure 2).

    The returned schedule is an :class:`AdaptivePolicy`; it is stateless
    and deterministic given the unfinished set, i.e. a regimen presented
    implicitly.  Its frontier rule answers every state the batched engine
    has not seen yet in one :meth:`MSMGreedy.assign_rows` call.
    """
    _require_independent(instance, "SUU-I-ALG")
    greedy = MSMGreedy(instance.p)

    def frontier_rule(inst, unfinished, eligible, t):
        return greedy.assign_rows(unfinished.tolist())

    policy = AdaptivePolicy(
        name="suu-i-alg", stationary=True, randomized=False, frontier_rule=frontier_rule
    )
    return ScheduleResult(
        schedule=policy,
        algorithm="suu_i_adaptive",
        certificates={"guarantee": "O(log n) x TOPT (Thm 3.3)"},
    )


# ----------------------------------------------------------------------
# SUU-I-OBL (Algorithm 2, Theorem 3.6)
# ----------------------------------------------------------------------
def suu_i_oblivious(
    instance: SUUInstance,
    constants: SUUConstants = PRACTICAL,
) -> ScheduleResult:
    """SUU-I-OBL (Algorithm 2): combinatorial oblivious schedule.

    Doubles the guess ``t`` until every job accumulates the mass threshold
    within the round budget; the infinite repetition of the concatenated
    blocks is the schedule (Theorem 3.6: ``O(log² n)`` with the paper's
    constants).

    The doubling loop is guaranteed to terminate: for
    ``t >= n / p_min`` a single MSM-E-ALG call can give every job mass 1.
    """
    _require_independent(instance, "SUU-I-OBL")
    n, m = instance.n, instance.m
    p = instance.p
    threshold = constants.obl_mass_threshold
    round_limit = constants.obl_round_limit(n)

    greedy = MSMGreedy(p)
    t = 1
    # Hard terminator: at this horizon one call covers everything.
    t_ceiling = 2 * int(math.ceil(n / instance.p_min_positive)) + 2
    blocks: list[ObliviousSchedule] | None = None
    doublings = 0
    rounds_used = 0
    while True:
        remaining = list(range(n))
        candidate: list[ObliviousSchedule] = []
        rounds = 0
        while remaining and rounds < round_limit:
            res = greedy.extend(t, jobs=remaining)
            candidate.append(res.schedule)
            rounds += 1
            remaining = [j for j in remaining if res.mass[j] < threshold - 1e-12]
        if not remaining:
            blocks = candidate
            rounds_used = rounds
            break
        if t > t_ceiling:  # pragma: no cover - the ceiling provably suffices
            raise RuntimeError("SUU-I-OBL failed to converge below the ceiling")
        t *= 2
        doublings += 1

    core = blocks[0]
    for b in blocks[1:]:
        core = core.concat(b)
    schedule = CyclicSchedule(ObliviousSchedule.empty(m), core)
    masses = core.masses(instance)
    return ScheduleResult(
        schedule=schedule,
        algorithm="suu_i_oblivious",
        finite_core=core,
        certificates={
            "min_mass": float(masses.min()),
            "mass_threshold": threshold,
            "core_length": core.length,
            "final_t": t,
            "rounds": rounds_used,
            "doublings": doublings,
            "guarantee": "O(log^2 n) x TOPT (Thm 3.6)",
        },
        meta={"constants": constants},
    )


# ----------------------------------------------------------------------
# LP-based oblivious schedule (Theorem 4.5)
# ----------------------------------------------------------------------
def suu_i_lp(
    instance: SUUInstance,
    constants: SUUConstants = PRACTICAL,
) -> ScheduleResult:
    """Theorem 4.5: LP2 + rounding + replication, oblivious.

    The rounded integral solution bounds every machine's load by ``t̂``, so
    laying each machine's units out sequentially produces a feasible
    oblivious schedule of length ``t̂`` in which every job has mass at
    least 1/2; per-step replication by ``σ = O(log n)`` plus the serial
    tail gives expected makespan ``O(log n · log min(n,m)) · T^OPT``.
    """
    _require_independent(instance, "Theorem 4.5 scheduler")
    frac = solve_lp2(instance, target_mass=constants.lp_target_mass)
    integral = round_acc_mass(
        instance, frac, independent=True, low_scale=constants.rounding_low_scale
    )
    # Each machine's units in job order; jobs are independent so any
    # within-machine order is valid.
    sequences: list[list[int]] = []
    for i in range(instance.m):
        seq: list[int] = []
        for j in range(instance.n):
            seq.extend([j] * int(integral.x[i, j]))
        sequences.append(seq)
    core = ObliviousSchedule.from_machine_sequences(sequences)
    sigma = constants.replication_sigma(instance.n)
    schedule = replicate_with_tail(core, instance, sigma)
    masses = core.masses(instance)
    cert = integral.certificate(instance)
    cert.update(
        {
            "min_core_mass": float(masses.min()),
            "core_length": core.length,
            "sigma": sigma,
            "lp_value": frac.t,
            "guarantee": "O(log n log min(n,m)) x TOPT (Thm 4.5)",
        }
    )
    return ScheduleResult(
        schedule=schedule,
        algorithm="suu_i_lp",
        finite_core=core,
        certificates=cert,
        meta={"constants": constants},
    )
