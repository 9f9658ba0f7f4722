"""Rounding fractional AccMass solutions to integers (Theorem 4.1).

Given an optimal fractional solution ``(x, d, t)`` of (LP1), produce an
integral solution whose length and load blow up by at most ``O(log m)``.
The procedure follows the proof of Theorem 4.1:

* **Case ``t >= n``** — plain ceiling: rounding up costs at most ``n <= t``
  extra per machine/chain, a factor 2.
* **Case ``t < n``** — per job:

  - if the pairs with ``x_ij >= 1`` already carry half the target mass,
    ceil those (``⌈x⌉ <= 2x`` keeps loads bounded) — a *high* job;
  - otherwise (*low* job) the mass sits in many fractional pieces: keep
    only pairs with ``p_ij >= 1/(8m)``, bucket them by probability into
    ``B = ⌈log2(8m)⌉`` dyadic buckets, drop buckets with tiny totals, pick
    the bucket with the largest mass contribution, scale by 32 so its
    demand ``D_j = ⌊32 · Σ x⌋`` is a positive integer, and round all low
    jobs *simultaneously* with one integral max-flow on the Figure-3
    network (source → jobs (cap ``D_j``) → machines (cap ``⌈32 d_j⌉``) →
    sink (cap ``⌈64 t⌉``)).  The fractional solution certifies the flow is
    feasible; flow integrality hands back integral ``x*``.

* finally every quantity is scaled up by the data-driven factor
  ``κ = ⌈target / min_j mass_j(x*)⌉`` — provably ``O(log m)`` — so every
  job reaches the target mass.

The returned object carries a *certificate* re-verifying every inequality
of the integral program; :meth:`IntegralAccMass.check` raises if any fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.instance import SUUInstance
from ..errors import RoundingError, ValidationError
from ..flow.network import build_rounding_network
from ..lp.acc_mass import FractionalAccMass

__all__ = ["IntegralAccMass", "round_acc_mass"]

#: Scale factor applied to low-job quantities before flooring demands
#: (the paper's "scale all the x_ij's up by a factor of 32").
_LOW_SCALE = 32


@dataclass
class IntegralAccMass:
    """An integral AccMass solution with its verification certificate.

    ``x`` is the ``(m, n)`` integral assignment-count matrix; ``d`` the
    per-job window lengths (``d_j >= max_i x_ij``); ``t`` the integral
    length/load bound actually achieved (max of machine loads and chain
    window sums); ``kappa`` the final scale-up factor.
    """

    x: np.ndarray
    d: np.ndarray
    t: int
    kappa: int
    target_mass: float
    chains: list[list[int]]
    frac_t: float
    meta: dict = field(default_factory=dict)

    def masses(self, instance: SUUInstance) -> np.ndarray:
        """Per-job integral mass ``Σ_i p_ij x̂_ij`` (uncapped)."""
        return (instance.p * self.x).sum(axis=0)

    def machine_loads(self) -> np.ndarray:
        return self.x.sum(axis=1)

    def chain_window_sums(self) -> np.ndarray:
        return np.array(
            [int(self.d[list(chain)].sum()) for chain in self.chains], dtype=np.int64
        )

    @property
    def blowup(self) -> float:
        """Measured length blow-up ``t̂ / T*`` (the Thm 4.1 ``O(log m)``)."""
        return self.t / max(self.frac_t, 1e-12)

    def certificate(self, instance: SUUInstance) -> dict:
        masses = self.masses(instance)
        loads = self.machine_loads()
        chain_sums = self.chain_window_sums()
        return {
            "min_mass": float(masses.min()) if masses.size else 0.0,
            "target_mass": self.target_mass,
            "max_machine_load": int(loads.max()) if loads.size else 0,
            "max_chain_window_sum": int(chain_sums.max()) if chain_sums.size else 0,
            "t_hat": self.t,
            "frac_t": self.frac_t,
            "blowup": self.blowup,
            "kappa": self.kappa,
            "windows_ok": bool(np.all(self.x <= self.d[None, :])),
        }

    def check(self, instance: SUUInstance) -> dict:
        """Verify every integral constraint; raise :class:`RoundingError` if violated."""
        cert = self.certificate(instance)
        eps = 1e-9
        if cert["min_mass"] + eps < self.target_mass:
            raise RoundingError(
                f"job mass {cert['min_mass']:.6f} below target {self.target_mass}"
            )
        if cert["max_machine_load"] > self.t:
            raise RoundingError(
                f"machine load {cert['max_machine_load']} exceeds t̂={self.t}"
            )
        if cert["max_chain_window_sum"] > self.t:
            raise RoundingError(
                f"chain window sum {cert['max_chain_window_sum']} exceeds t̂={self.t}"
            )
        if not cert["windows_ok"]:
            raise RoundingError("some x̂_ij exceeds its window length d̂_j")
        if np.any(self.x < 0) or np.any(self.d < 1):
            raise RoundingError("negative counts or empty windows")
        return cert


def _finalize(
    instance: SUUInstance,
    x_star: np.ndarray,
    d_star: np.ndarray,
    frac: FractionalAccMass,
    meta: dict,
) -> IntegralAccMass:
    """Apply the κ scale-up and compute the achieved t̂."""
    masses = (instance.p * x_star).sum(axis=0)
    if np.any(masses <= 0.0):
        bad = np.flatnonzero(masses <= 0.0).tolist()
        raise RoundingError(f"rounded solution gives zero mass to jobs {bad}")
    kappa = max(1, int(math.ceil(frac.target_mass / float(masses.min()) - 1e-12)))
    x_hat = x_star * kappa
    d_hat = np.maximum(np.maximum(d_star * kappa, x_hat.max(axis=0)), 1)
    loads = x_hat.sum(axis=1)
    chain_sums = [int(d_hat[list(c)].sum()) for c in frac.chains]
    t_hat = int(max(loads.max(initial=0), max(chain_sums, default=0), 1))
    meta = dict(meta, kappa=kappa)
    result = IntegralAccMass(
        x=x_hat.astype(np.int64),
        d=d_hat.astype(np.int64),
        t=t_hat,
        kappa=kappa,
        target_mass=frac.target_mass,
        chains=frac.chains,
        frac_t=frac.t,
        meta=meta,
    )
    result.check(instance)
    return result


def round_acc_mass(
    instance: SUUInstance,
    frac: FractionalAccMass,
    independent: bool = False,
    low_scale: int = _LOW_SCALE,
) -> IntegralAccMass:
    """Round a fractional AccMass solution per Theorem 4.1.

    With ``independent=True`` the Theorem 4.5 variant is used: the bucket
    universe is sized by ``min(n, m)`` rather than ``m`` (the basic
    feasible solution argument), and job→machine flow edges are capped by
    the demand instead of window lengths.

    ``low_scale`` is the paper's factor 32 applied to low jobs before
    flooring their bucket demands; the bucket-drop threshold is its
    reciprocal.  The A2 ablation sweeps it — smaller values give shorter
    schedules at the cost of a larger κ scale-up.

    The Figure-3 network is solved on
    :class:`~repro.flow.arrays.ArrayFlowNetwork`; full demand saturation
    is enforced, and since the source edges cap the flow at ``Σ D_j``,
    saturation certifies a maximum flow.
    """
    if low_scale < 2:
        raise ValidationError("low_scale must be >= 2")
    m, n = instance.m, instance.n
    p = instance.p
    x, d, t = frac.x, frac.d, frac.t
    target = frac.target_mass
    eps = 1e-9

    # ------------------------------------------------------- case t >= n
    if t >= n - eps:
        x_star = np.ceil(x - eps).astype(np.int64)
        d_star = np.ceil(d - eps).astype(np.int64)
        return _finalize(
            instance, x_star, d_star, frac, meta={"case": "ceil", "low_jobs": 0}
        )

    # -------------------------------------------------------- case t < n
    universe = min(n, m) if independent else m
    bucket_count = max(1, int(math.ceil(math.log2(8 * universe))))
    p_floor = 1.0 / (8.0 * universe)

    x_star = np.zeros((m, n), dtype=np.int64)
    d_star = np.ceil(d - eps).astype(np.int64)

    flow_jobs: list[int] = []
    demands: dict[int, int] = {}
    pair_caps: dict[tuple[int, int], int] = {}
    frac_flow_hint: dict[tuple[int, int], float] = {}
    high_jobs = 0

    for j in range(n):
        col = x[:, j]
        big = col >= 1.0 - eps
        high_mass = float((p[big, j] * col[big]).sum())
        if high_mass >= target / 2.0 - eps:
            # High job: integral pieces alone reach half the target.
            x_star[big, j] = np.ceil(col[big] - eps).astype(np.int64)
            high_jobs += 1
            continue
        # Low job: bucket the fractional pieces by probability.
        buckets: dict[int, list[int]] = {}
        for i in range(m):
            if big[i] or col[i] <= eps or p[i, j] < p_floor:
                continue
            # p in (2^-(k+1), 2^-k]  =>  k = floor(-log2 p) unless p is an
            # exact power of two, where -log2 p is integral and p = 2^-k.
            lg = -math.log2(p[i, j])
            k = int(math.ceil(lg)) - 1 if abs(lg - round(lg)) < 1e-12 else int(math.floor(lg))
            k = min(bucket_count - 1, max(0, k))
            buckets.setdefault(k, []).append(i)
        best_k = -1
        best_contrib = -1.0
        for k, machines in buckets.items():
            s_k = float(col[machines].sum())
            if s_k < 1.0 / low_scale:
                continue  # dropped bucket (paper: total loss <= 1/16)
            contrib = (2.0**-k) * s_k
            if contrib > best_contrib:
                best_contrib = contrib
                best_k = k
        if best_k < 0:
            # The fractional solution should always leave a usable bucket;
            # if probabilities are extremely skewed fall back to ceiling
            # this job's largest pieces (costs at most the ceil-case factor
            # on this job alone, preserving correctness).
            order = np.argsort(-(p[:, j] * col))
            need = target
            for i in order:
                if col[i] <= eps:
                    continue
                x_star[i, j] = int(math.ceil(col[i]))
                need -= p[i, j] * x_star[i, j]
                if need <= 0:
                    break
            high_jobs += 1
            continue
        machines = buckets[best_k]
        s_b = float(col[machines].sum())
        D_j = int(math.floor(low_scale * s_b + eps))
        if D_j < 1:
            raise RoundingError(
                f"job {j}: bucket demand floor({low_scale}*{s_b:.4f}) < 1"
            )  # pragma: no cover - excluded by the s_k >= 1/32 filter
        flow_jobs.append(j)
        demands[j] = D_j
        for i in machines:
            if independent:
                cap = D_j
            else:
                cap = int(math.ceil(low_scale * d[j] - eps))
            pair_caps[(j, i)] = cap
            frac_flow_hint[(j, i)] = low_scale * col[i]

    flow_value = 0
    if flow_jobs:
        machine_cap = int(math.ceil(2 * low_scale * t + eps))
        net = build_rounding_network(
            jobs=flow_jobs,
            demands=demands,
            pair_caps=pair_caps,
            machine_cap=machine_cap,
            num_machines=m,
        )
        flow_value = net.solve_or_raise()
        x_flow = net.extract_x(m, n)
        x_star += x_flow
        # Window lengths must cover the flow counts.
        d_star = np.maximum(d_star, x_star.max(axis=0))

    return _finalize(
        instance,
        x_star,
        d_star,
        frac,
        meta={
            "case": "flow",
            "low_jobs": len(flow_jobs),
            "high_jobs": high_jobs,
            "bucket_count": bucket_count,
            "low_scale": low_scale,
            "flow_value": flow_value,
        },
    )
