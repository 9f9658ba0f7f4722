"""Certified lower bounds on the optimal expected makespan ``T^OPT``.

On instances too large for the exact Malewicz DP, approximation ratios are
reported against a lower bound, making every reported ratio an *upper
bound* on the true ratio.  Five bounds are combined:

* **single job** — with every machine on job ``j`` each step, its one-step
  success probability is ``q_j = 1 − Π_i (1 − p_ij)``; no schedule does
  better, so ``E[C_j] ≥ 1/q_j`` and ``T^OPT ≥ max_j 1/q_j``.
* **critical path** — jobs along a directed path execute sequentially and
  job ``j`` alone needs expected ``≥ 1/q_j`` steps, so ``T^OPT`` is at
  least the maximum path weight under weights ``1/q_j``.
* **LP relaxation** — Lemma 4.2: the (LP1) optimum satisfies
  ``T* ≤ 16 · T^OPT``, hence ``T^OPT ≥ T*/16``.  Valid for any vertex-
  disjoint family of directed paths used as "chains", because the lemma's
  proof only uses that chain jobs execute sequentially under any schedule.
* **throughput** — in any step, the expected number of completions is at
  most ``ρ = Σ_i max_j p_ij``: by Proposition 2.1 the per-job success
  probabilities sum to at most the step's total mass, which is at most
  ``ρ`` for any assignment.  The completion count is a supermartingale-
  bounded process, so by optional stopping ``n ≤ ρ · E[makespan]``, i.e.
  ``T^OPT ≥ n/ρ``.  This is the bound that scales linearly with ``n`` and
  anchors the ratio measurements on wide instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dag import DagClass
from ..core.instance import SUUInstance
from ..lp.acc_mass import solve_lp1

__all__ = ["LowerBounds", "lower_bounds", "lp_lower_bound"]

#: Lemma 4.2 constant: T* <= 16 TOPT.
LEMMA42_FACTOR = 16.0


@dataclass
class LowerBounds:
    """The individual bounds and their maximum."""

    single_job: float
    critical_path: float
    lp: float
    throughput: float
    trivial_steps: float

    @property
    def best(self) -> float:
        return max(
            self.single_job,
            self.critical_path,
            self.lp,
            self.throughput,
            self.trivial_steps,
        )

    def as_dict(self) -> dict:
        return {
            "single_job": self.single_job,
            "critical_path": self.critical_path,
            "lp": self.lp,
            "throughput": self.throughput,
            "trivial_steps": self.trivial_steps,
            "best": self.best,
        }


def _greedy_path_cover(instance: SUUInstance) -> list[list[int]]:
    """A vertex-disjoint family of directed paths covering all jobs.

    Used as the "chains" of (LP1) when the DAG is not already a chain
    collection: peel maximal paths greedily in topological order.  Any
    such family makes Lemma 4.2's proof go through, so the resulting LP
    bound is valid for arbitrary DAGs.
    """
    dag = instance.dag
    used: set[int] = set()
    chains: list[list[int]] = []
    for j in dag.topological_order():
        if j in used:
            continue
        chain = [j]
        used.add(j)
        cur = j
        extended = True
        while extended:
            extended = False
            for s in dag.successors(cur):
                if s not in used:
                    chain.append(s)
                    used.add(s)
                    cur = s
                    extended = True
                    break
        chains.append(chain)
    return chains


def _lp_chains(instance: SUUInstance) -> list[list[int]]:
    """The chains of the Lemma 4.2 bound: the DAG's own, else a path cover."""
    if instance.classify() in (DagClass.INDEPENDENT, DagClass.CHAINS):
        return instance.dag.chains()
    return _greedy_path_cover(instance)


def lp_lower_bound(instance: SUUInstance) -> float:
    """``T*/16`` via Lemma 4.2, with a greedy path cover as the chains."""
    frac = solve_lp1(instance, chains=_lp_chains(instance))
    return frac.t / LEMMA42_FACTOR


def lower_bounds(instance: SUUInstance, include_lp: bool = True) -> LowerBounds:
    """Compute all lower bounds; ``best`` is their maximum.

    ``include_lp=False`` skips the LP solve (the only non-trivial cost).
    """
    q = instance.all_machines_success
    # q_j > 0 by the standing assumption (some p_ij > 0).
    inv_q = 1.0 / q
    single = float(inv_q.max())
    path = float(instance.dag.longest_path_length(weights=inv_q))
    lp = lp_lower_bound(instance) if include_lp else 0.0
    # Per-step expected completions <= rho (Prop 2.1 + optional stopping).
    rho = float(instance.p.max(axis=1).sum())
    throughput = instance.n / max(rho, 1e-12)
    # Any execution needs at least one step, and at least as many steps as
    # the length (in jobs) of the critical path.
    trivial = float(max(1.0, instance.dag.longest_path_length()))
    return LowerBounds(
        single_job=single,
        critical_path=path,
        lp=lp,
        throughput=throughput,
        trivial_steps=trivial,
    )
