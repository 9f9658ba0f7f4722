"""The differential-verification oracles.

Each check takes a built case and returns a list of
:class:`Discrepancy` records (empty = pass).  Checks are deterministic
functions of the case spec, which is what makes shrinking and corpus
replay possible.

The oracle table (also in ``docs/architecture.md``):

===================  =======================================================
check                what must agree
===================  =======================================================
``engines``          scalar vs lockstep/batched sample moments, engine
                     routing, sample-range invariants (makespans are
                     1-based, censoring consistent)
``markov``           exact Markov expected makespan vs every applicable
                     engine's Monte Carlo mean (z-gated, two-stage), plus
                     sparse-vs-scalar exact-engine agreement, bitwise
``curve``            ``completion_curve`` vs the estimator's own samples
                     (censoring handling, CDF shape) and vs the exact
                     Markov completion CDF (DKW band)
``opt``              Malewicz DP vs the scalar golden DP (value and table)
                     and vs the Markov re-evaluation of its regimen, all
                     bitwise;
                     ``bounds.lower`` certified bounds ≤ T^OPT; every
                     simulated schedule ≥ T^OPT and ≥ the lower bounds
``msm``              greedy MSM-ALG mass within [OPT/3, OPT] of the
                     brute-force MaxSumMass optimum
``rounding``         ``IntegralAccMass.check`` certificate on the rounded
                     (LP1) solution; κ-scaled mass reaches the target
``lpflow``           production vs golden LP builders (``lp/scalar.py``):
                     identical (LP1)/(LP2) optima (1e-9) and feasible
                     ``check_fractional`` certificates;
                     ``ArrayFlowNetwork`` vs the golden ``FlowNetwork``:
                     equal max-flow value, conservation, and min-cut
                     capacity on an instance-derived network
``delays``           ``find_good_delays`` honours its congestion target and
                     reporting contract; delays preserve pseudo-schedule
                     load; flattening yields a feasible schedule
``portfolio``        the portfolio meta-runner on every cheap capability-
                     admitting solver: no member crashes, the leaderboard
                     is sorted, every entry carries engine provenance and
                     CI-or-exactness, the winner is within every member's
                     upper confidence bound, and certified lower bounds
                     don't exceed any member (z-gated sandwich)
===================  =======================================================

Statistical gates use ``z = 5`` by default (per-check false-positive rate
≈ 3e-7, negligible across fuzz campaigns of thousands of cases) plus a
small absolute epsilon for exact-vs-exact float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..algorithms.chains import build_chain_bands
from ..bounds.lower import lower_bounds
from ..core.dag import DagClass
from ..core.schedule import AdaptivePolicy, CyclicSchedule, ObliviousSchedule, Regimen
from ..delay.flatten import flatten_pseudo
from ..delay.random_delay import find_good_delays
from ..errors import ExactSolverLimitError, ReproError, RoundingError
from ..flow import ArrayFlowNetwork, FlowNetwork
from ..lp.acc_mass import check_fractional, solve_lp1, solve_lp2
from ..lp.scalar import solve_lp1_scalar, solve_lp2_scalar
from ..opt import scalar as golden_dp
from ..opt.bruteforce import count_assignments, max_sum_mass_opt
from ..opt.malewicz import optimal_regimen
from ..rounding.round_lp import round_acc_mass
from ..evaluate import evaluate
from ..evaluate.facade import _evaluate
from ..sim.exec_tree import build_execution_tree
from .cases import CaseSpec, build_case

__all__ = ["CheckConfig", "Discrepancy", "check_case", "applicable_checks"]


@dataclass(frozen=True)
class Discrepancy:
    """One verified disagreement between two implementations of the same math."""

    check: str
    message: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.message}"


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by every oracle (sized for fuzz throughput)."""

    reps: int = 240
    max_steps: int = 3000
    z: float = 5.0
    eps: float = 1e-9
    #: Exact Markov evaluation is gated on 2^n states being cheap.
    markov_jobs: int = 8
    #: The Malewicz DP additionally enumerates (k+1)^m assignments.
    exact_opt_jobs: int = 4
    exact_opt_machines: int = 3
    #: Brute-force MaxSumMass enumeration budget.
    msm_enumeration: int = 200_000
    #: The portfolio oracle runs every cheap solver through the front
    #: door, so it is gated a little tighter than the plain MC checks.
    portfolio_jobs: int = 6
    portfolio_machines: int = 3


# ----------------------------------------------------------------------
# Engine execution helpers
# ----------------------------------------------------------------------
def _engine_routes(schedule) -> list[tuple[str, dict]]:
    """The estimator configurations applicable to this schedule type.

    Every route is a (label, kwargs) pair of extra arguments for the
    front door (:func:`repro.evaluate.evaluate`, ``mode="mc"``); all
    routes of a schedule must produce statistically indistinguishable
    samples.

    Invariant relied on by :func:`check_curve`: the *first* route always
    has empty kwargs (``engine="auto"``), labeled with the engine auto is
    expected to pick — so its samples are bitwise those of any request
    (like a ``completion_curve`` metric) that runs the default routing at
    the same seed.
    :func:`check_engines` cross-checks the label against the estimate's
    reported ``engine_used``, so a routing drift fails loudly.
    """
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        return [("oblivious-lockstep", {}), ("scalar", {"engine": "scalar"})]
    if isinstance(schedule, Regimen) or (
        isinstance(schedule, AdaptivePolicy) and not schedule.randomized
    ):
        return [("batched", {}), ("scalar", {"engine": "scalar"})]
    return [("scalar", {})]


class CaseContext:
    """A built case plus lazily computed, shared Monte Carlo estimates.

    Several oracles need the same engine-route estimates; computing them
    once per case (instead of once per check) halves fuzz wall-clock.
    """

    def __init__(self, spec: CaseSpec, instance, schedule, cfg: CheckConfig):
        self.spec = spec
        self.instance = instance
        self.schedule = schedule
        self.cfg = cfg
        #: Effective step budget: the case's own (tight budgets fuzz the
        #: censoring paths) or the config default.
        self.max_steps = spec.max_steps or cfg.max_steps
        self.routes: dict[str, dict] = dict(_engine_routes(schedule))
        self._estimates: dict | None = None
        self._rounding: tuple | None = None

    def estimate(self, label: str, reps: int | None = None, seed: int | None = None):
        """Run one engine route through the front door (``mode="mc"``)."""
        cfg = self.cfg
        # Tight budgets censor on purpose; the report's count is checked.
        return _evaluate(
            self.instance,
            self.schedule,
            mode="mc",
            reps=cfg.reps if reps is None else reps,
            seed=self.spec.sim_seed if seed is None else seed,
            max_steps=self.max_steps,
            keep_samples=True,
            **self.routes[label],
        )

    @property
    def estimates(self) -> dict:
        """Estimates per engine route."""
        if self._estimates is None:
            self._estimates = {label: self.estimate(label) for label in self.routes}
        return self._estimates

    def confirm_seed(self) -> int:
        """Deterministic independent seed for second-stage confirmation runs."""
        return (self.spec.sim_seed ^ 0x9E3779B9) & 0x7FFFFFFF

    def rounding(self):
        """The chain pipeline's ``(frac, integral)``, solved once per case.

        Both the rounding and the delay oracles need the (LP1) solution —
        the most expensive analytic step — so it is cached here.  Raises
        the underlying :class:`~repro.errors.ReproError` (cached too) so
        each caller can classify the failure itself.
        """
        if self._rounding is None:
            try:
                frac = solve_lp1(self.instance)
                integral = round_acc_mass(self.instance, frac)
                self._rounding = ("ok", (frac, integral))
            except ReproError as exc:
                self._rounding = ("err", exc)
        kind, value = self._rounding
        if kind == "err":
            raise value
        return value


def _integer_sd_floor(mean: float, reps: int) -> float:
    """Std-error floor for an integer-valued sample with the given mean.

    An integer random variable with mean ``μ`` has variance at least
    ``(μ − ⌊μ⌋)(⌈μ⌉ − μ)``; a sample whose empirical variance collapses to
    zero (all replications identical — common for near-deterministic tiny
    instances) would otherwise make any z-test infinitely strict and turn
    sampling luck into a reported discrepancy.
    """
    frac = mean - math.floor(mean)
    return math.sqrt(max(frac * (1.0 - frac), 0.0)) / math.sqrt(reps)


def _mean_gap_ok(a, b, z: float, eps: float) -> bool:
    """Two-sample z-test on estimate means (conservative threshold)."""
    spread = z * math.hypot(a.std_err, b.std_err)
    return abs(a.mean - b.mean) <= spread + eps


# ----------------------------------------------------------------------
# Individual oracles
# ----------------------------------------------------------------------
def check_engines(ctx: CaseContext) -> list[Discrepancy]:
    """All engine paths agree with each other and with basic invariants."""
    cfg, instance = ctx.cfg, ctx.instance
    out: list[Discrepancy] = []
    estimates = ctx.estimates
    labels = list(estimates)
    # Routing contract: the first route runs engine="auto" and is labeled
    # with the engine auto must pick for this schedule type.
    auto_label = labels[0]
    if estimates[auto_label].engine_used != auto_label:
        out.append(
            Discrepancy(
                "engines",
                f"engine auto-routing drifted: expected {auto_label!r}, "
                f"got {estimates[auto_label].engine_used!r}",
            )
        )
    for label in labels:
        est = estimates[label]
        s = est.samples
        if s is None or s.size != cfg.reps:
            out.append(
                Discrepancy(
                    "engines",
                    f"{label}: expected {cfg.reps} samples, got "
                    f"{0 if s is None else s.size}",
                )
            )
            continue
        if instance.n > 0 and int(s.min()) < 1:
            out.append(
                Discrepancy(
                    "engines",
                    f"{label}: makespan sample {int(s.min())} < 1 breaks the "
                    "1-based completion-step convention",
                    {"min_sample": int(s.min())},
                )
            )
        if int(s.max()) > ctx.max_steps:
            out.append(
                Discrepancy(
                    "engines",
                    f"{label}: sample {int(s.max())} exceeds the "
                    f"{ctx.max_steps}-step budget",
                )
            )
        censored = int((s == ctx.max_steps).sum())
        if est.truncated > censored:
            out.append(
                Discrepancy(
                    "engines",
                    f"{label}: {est.truncated} truncated replications but only "
                    f"{censored} samples at the budget",
                )
            )
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            a, b = estimates[la], estimates[lb]
            if _mean_gap_ok(a, b, cfg.z, cfg.eps):
                continue
            # Second stage: independent seed, 4× replications, both routes.
            ca = ctx.estimate(la, reps=4 * cfg.reps, seed=ctx.confirm_seed())
            cb = ctx.estimate(lb, reps=4 * cfg.reps, seed=ctx.confirm_seed())
            if _mean_gap_ok(ca, cb, cfg.z, cfg.eps):
                continue
            out.append(
                Discrepancy(
                    "engines",
                    f"{la} vs {lb}: means {ca.mean:.4f} vs {cb.mean:.4f} "
                    f"differ beyond {cfg.z}σ at reps={4 * cfg.reps} "
                    f"(se {ca.std_err:.4f}/{cb.std_err:.4f}; first pass "
                    f"{a.mean:.4f} vs {b.mean:.4f})",
                    {la: ca.mean, lb: cb.mean},
                )
            )
    return out


def _exact_expected_makespan(
    instance, schedule, cfg: CheckConfig, engine: str = "auto"
) -> float | None:
    """Exact E[makespan] when an analytic oracle applies, else None.

    Triangulates ``mode="exact"`` against the ``mode="mc"`` routes through
    the *same* front door the rest of the repo uses.  ``engine`` selects
    the exact solver: ``"auto"``, the vectorized sparse engine the whole
    suite measures against, or ``"scalar"``, the golden path (used by
    :func:`check_markov` to triangulate the two).
    """
    if instance.n > cfg.markov_jobs:
        return None
    if not isinstance(schedule, (Regimen, CyclicSchedule)):
        return None
    try:
        return evaluate(instance, schedule, mode="exact", engine=engine).makespan
    except ExactSolverLimitError:
        return None


def _markov_deviates(est, exact: float, reps: int, z: float) -> float | None:
    """The tolerance the estimate violated, or None if it agrees."""
    if est.truncated:
        return None  # censored mean is a lower bound; not comparable
    half = z * max(est.std_err, _integer_sd_floor(exact, reps)) + 1e-6
    return half if abs(est.mean - exact) > half else None


def check_markov(ctx: CaseContext) -> list[Discrepancy]:
    """Exact Markov expectation sits inside every engine's z-interval.

    Two-stage to keep the false-positive rate negligible without giving
    up sensitivity: a route whose first-pass interval misses the exact
    value is re-run at 4× replications on an independent derived seed,
    and only flagged when the tighter interval misses too.
    """
    cfg = ctx.cfg
    exact = _exact_expected_makespan(ctx.instance, ctx.schedule, cfg)
    if exact is None:
        return []
    out: list[Discrepancy] = []
    # Exact vs exact: the sparse layered-sweep engine against the scalar
    # golden path (same chain, independent implementations, no statistics).
    # Every sum is added in the golden order, so it must match to the bit.
    if ctx.instance.n <= 6:
        scalar_exact = _exact_expected_makespan(
            ctx.instance, ctx.schedule, cfg, engine="scalar"
        )
        if scalar_exact is not None and exact != scalar_exact:
            out.append(
                Discrepancy(
                    "markov",
                    f"sparse exact engine says {exact!r} but the scalar "
                    f"golden path says {scalar_exact!r}",
                    {"sparse": exact, "scalar": scalar_exact},
                )
            )
    for label, est in ctx.estimates.items():
        if _markov_deviates(est, exact, cfg.reps, cfg.z) is None:
            continue
        confirm_reps = 4 * cfg.reps
        confirm = ctx.estimate(label, reps=confirm_reps, seed=ctx.confirm_seed())
        half = _markov_deviates(confirm, exact, confirm_reps, cfg.z)
        if half is not None:
            out.append(
                Discrepancy(
                    "markov",
                    f"{label}: MC mean {confirm.mean:.4f} vs exact "
                    f"{exact:.4f} outside ±{half:.4f} at reps={confirm_reps} "
                    f"(first pass: {est.mean:.4f} at reps={cfg.reps})",
                    {"engine": label, "mean": confirm.mean, "exact": exact},
                )
            )
    return out


def check_opt(ctx: CaseContext) -> list[Discrepancy]:
    """Exact-optimum cross-checks on tiny instances.

    Three independent implementations are triangulated: the Malewicz DP
    (optimal regimen + its value), the Markov chain evaluator re-run on
    that regimen, and the certified lower bounds (which must not exceed
    T^OPT).  The case's own schedule must not beat the optimum either.
    """
    spec, instance, schedule, cfg = ctx.spec, ctx.instance, ctx.schedule, ctx.cfg
    if instance.n > cfg.exact_opt_jobs or instance.m > cfg.exact_opt_machines:
        return []
    try:
        sol = optimal_regimen(instance)
    except ExactSolverLimitError:
        return []
    out: list[Discrepancy] = []
    golden = golden_dp.optimal_regimen(instance)
    a, b = sol.regimen, golden.regimen
    same_rows = np.array_equal(a.states, b.states) and np.array_equal(a.rows, b.rows)
    if not same_rows or sol.expected_makespan != golden.expected_makespan:
        out.append(
            Discrepancy(
                "opt",
                f"vectorized Malewicz DP gives E={sol.expected_makespan!r}, the "
                f"scalar golden DP E={golden.expected_makespan!r}"
                + ("" if same_rows else "; their regimens differ"),
                {"dp": sol.expected_makespan, "golden": golden.expected_makespan},
            )
        )
    # The DP and the regimen evaluator share one first-passage kernel, so
    # the optimum is its regimen's exact value to the bit.
    re_eval = evaluate(instance, sol.regimen, mode="exact").makespan
    if re_eval != sol.expected_makespan:
        out.append(
            Discrepancy(
                "opt",
                f"Malewicz DP reports E={sol.expected_makespan!r} but the "
                f"Markov evaluator gives {re_eval!r} for the same regimen",
                {"dp": sol.expected_makespan, "markov": re_eval},
            )
        )
    lbs = lower_bounds(instance)
    if lbs.best > sol.expected_makespan + 1e-6 * max(1.0, lbs.best):
        out.append(
            Discrepancy(
                "opt",
                f"lower bound {lbs.best:.6f} exceeds the exact optimum "
                f"{sol.expected_makespan:.6f}",
                {"bounds": lbs.as_dict(), "opt": sol.expected_makespan},
            )
        )
    exact = _exact_expected_makespan(instance, schedule, cfg)
    if exact is not None and exact < sol.expected_makespan - 1e-6 * max(1.0, exact):
        out.append(
            Discrepancy(
                "opt",
                f"schedule family {spec.schedule!r} evaluates to {exact:.6f}, "
                f"beating the proven optimum {sol.expected_makespan:.6f}",
                {"schedule": exact, "opt": sol.expected_makespan},
            )
        )
    return out


def check_msm(ctx: CaseContext) -> list[Discrepancy]:
    """Greedy MSM-ALG mass within [OPT/3, OPT] of brute force (Thm 3.2)."""
    instance, cfg = ctx.instance, ctx.cfg
    if count_assignments(instance.m, instance.n) > cfg.msm_enumeration:
        return []
    from ..algorithms.msm import msm_alg, msm_mass_of_assignment

    opt_mass, _ = max_sum_mass_opt(instance.p, max_enumeration=cfg.msm_enumeration)
    greedy_mass = msm_mass_of_assignment(instance.p, msm_alg(instance.p))
    out: list[Discrepancy] = []
    if greedy_mass > opt_mass + 1e-9:
        out.append(
            Discrepancy(
                "msm",
                f"greedy mass {greedy_mass:.6f} exceeds the brute-force "
                f"optimum {opt_mass:.6f}",
                {"greedy": greedy_mass, "opt": opt_mass},
            )
        )
    if greedy_mass < opt_mass / 3.0 - 1e-9:
        out.append(
            Discrepancy(
                "msm",
                f"greedy mass {greedy_mass:.6f} below the Theorem 3.2 "
                f"guarantee OPT/3 = {opt_mass / 3.0:.6f}",
                {"greedy": greedy_mass, "opt": opt_mass},
            )
        )
    return out


def check_curve(ctx: CaseContext) -> list[Discrepancy]:
    """``completion_curve`` is consistent with the samples and the exact CDF.

    * Internal consistency: the curve is a CDF (monotone, in [0, 1]) and
      matches the empirical fraction computed directly from the makespan
      samples of the identically-seeded estimate — in particular the final
      point must equal the *finished* fraction, not count censored
      replications as completed.
    * Analytic cross-check (small cyclic schedules): the empirical curve
      prefix stays within a Dvoretzky–Kiefer–Wolfowitz band of the exact
      curve (``evaluate(..., mode="exact", metrics="completion_curve")``).
    """
    spec, instance, schedule, cfg = ctx.spec, ctx.instance, ctx.schedule, ctx.cfg
    # The first route is engine="auto" by the _engine_routes invariant, so
    # its samples are bitwise those completion_curve draws at this seed.
    auto_label = next(iter(ctx.routes))
    est = ctx.estimates[auto_label]
    if est.samples is None:
        return []
    curve = _evaluate(
        instance,
        schedule,
        mode="mc",
        metrics="completion_curve",
        reps=cfg.reps,
        seed=spec.sim_seed,
        horizon=ctx.max_steps,
    ).completion_curve
    out: list[Discrepancy] = []
    if curve.shape != (ctx.max_steps,):
        return [
            Discrepancy(
                "curve", f"curve has shape {curve.shape}, expected ({ctx.max_steps},)"
            )
        ]
    if np.any(curve < -cfg.eps) or np.any(curve > 1.0 + cfg.eps):
        out.append(Discrepancy("curve", "curve leaves [0, 1]"))
    if np.any(np.diff(curve) < -cfg.eps):
        out.append(Discrepancy("curve", "curve is not monotone nondecreasing"))
    samples = est.samples
    finished_frac = float((cfg.reps - est.truncated) / cfg.reps)
    if abs(float(curve[-1]) - finished_frac) > cfg.eps:
        out.append(
            Discrepancy(
                "curve",
                f"final curve point {float(curve[-1]):.4f} != finished "
                f"fraction {finished_frac:.4f} (censored replications "
                "counted as completed?)",
                {"final": float(curve[-1]), "finished_frac": finished_frac},
            )
        )
    probe_ts = sorted({1, int(np.median(samples)), ctx.max_steps - 1})
    for t in probe_ts:
        if not (1 <= t < ctx.max_steps):
            continue
        empirical = float((samples <= t).mean())
        if abs(float(curve[t - 1]) - empirical) > cfg.eps:
            out.append(
                Discrepancy(
                    "curve",
                    f"curve[{t}] = {float(curve[t - 1]):.4f} but the sample "
                    f"fraction is {empirical:.4f}",
                )
            )
    # DKW band against the exact CDF prefix (cheap only for small chains).
    if (
        isinstance(schedule, CyclicSchedule)
        and instance.n <= 6
        and not est.truncated
    ):
        horizon = min(ctx.max_steps, 64)
        exact = evaluate(
            instance,
            schedule,
            mode="exact",
            metrics="completion_curve",
            horizon=horizon,
        ).completion_curve
        gap = float(np.max(np.abs(curve[:horizon] - exact)))
        # sup-norm bound at failure probability 2 exp(-2 n eps^2) ~ 1e-8.
        dkw = math.sqrt(math.log(2.0 / 1e-8) / (2.0 * cfg.reps))
        if gap > dkw:
            out.append(
                Discrepancy(
                    "curve",
                    f"empirical CDF prefix deviates {gap:.3f} from the exact "
                    f"completion curve (DKW bound {dkw:.3f})",
                    {"gap": gap, "dkw": dkw},
                )
            )
        # Third independent implementation: the Figure-1 execution tree's
        # exact Pr[all done by depth] must match the Markov forward
        # propagation to float precision (exact vs exact, no statistics).
        if instance.n <= 4:
            depth = min(horizon, 6)
            try:
                tree = build_execution_tree(instance, schedule, depth=depth)
            except ExactSolverLimitError:
                tree = None
            if tree is not None:
                tree_prob = tree.prob_all_finished()
                markov_prob = float(exact[depth - 1])
                if abs(tree_prob - markov_prob) > 1e-9:
                    out.append(
                        Discrepancy(
                            "curve",
                            f"execution tree says Pr[done by {depth}] = "
                            f"{tree_prob:.9f} but the Markov chain says "
                            f"{markov_prob:.9f}",
                            {"tree": tree_prob, "markov": markov_prob},
                        )
                    )
    return out


def _chain_pipeline_applicable(instance) -> bool:
    return instance.classify() in (DagClass.INDEPENDENT, DagClass.CHAINS)


def check_rounding(ctx: CaseContext) -> list[Discrepancy]:
    """(LP1) → Theorem 4.1 rounding keeps its certificate promises."""
    instance, cfg = ctx.instance, ctx.cfg
    if not _chain_pipeline_applicable(instance):
        return []
    out: list[Discrepancy] = []
    try:
        frac, integral = ctx.rounding()
        cert = integral.check(instance)
    except RoundingError as exc:
        return [Discrepancy("rounding", f"certificate violated: {exc}")]
    except ReproError as exc:
        return [Discrepancy("rounding", f"chain pipeline failed: {exc}")]
    if integral.t < 1:
        out.append(Discrepancy("rounding", f"integral t̂ = {integral.t} < 1"))
    if cert["min_mass"] + cfg.eps < integral.target_mass:
        out.append(
            Discrepancy(
                "rounding",
                f"certificate min_mass {cert['min_mass']:.6f} below target "
                f"{integral.target_mass}",
                {"certificate": cert},
            )
        )
    if frac.t > integral.t + cfg.eps:
        out.append(
            Discrepancy(
                "rounding",
                f"integral t̂ = {integral.t} shorter than the fractional "
                f"optimum T* = {frac.t:.4f}",
                {"t_hat": integral.t, "t_star": frac.t},
            )
        )
    return out


#: The two max-flow implementations the ``lpflow`` oracle compares.
_FLOW_NETWORKS = {"array": ArrayFlowNetwork, "scalar": FlowNetwork}


def _instance_flow_network(instance, network_cls):
    """A deterministic Figure-3-shaped network derived from the instance.

    Source → jobs (cap ``1 + j mod 3``) → machines where ``p_ij > 0``
    (cap ``⌈4 p_ij⌉``) → sink (cap ``2 + i mod 2``), built on
    ``network_cls``.  A pure function of the case spec, so any engine
    disagreement shrinks deterministically.
    Returns ``(network, flow_value, source, sink)``.
    """
    m, n = instance.m, instance.n
    source, sink = m + n, m + n + 1
    net = network_cls(sink + 1)
    for j in range(n):
        net.add_edge(source, j, 1 + j % 3)
    ii, jj = np.nonzero(instance.p > 0.0)
    for i, j in zip(ii.tolist(), jj.tolist()):
        net.add_edge(j, n + i, int(math.ceil(4.0 * instance.p[i, j])))
    for i in range(m):
        net.add_edge(n + i, sink, 2 + i % 2)
    return net, net.max_flow(source, sink), source, sink


def check_lpflow(ctx: CaseContext) -> list[Discrepancy]:
    """The production LP builders and max-flow agree with the golden paths.

    Two differential layers, all on the identical inputs:

    * raw max-flow on the instance-derived network, on
      :class:`~repro.flow.arrays.ArrayFlowNetwork` and on the golden
      :class:`~repro.flow.dinic.FlowNetwork` — values must match exactly,
      and each flow must conserve and be certified optimal by its own
      min cut;
    * (LP2), and on chain-pipeline instances (LP1), through the
      production builders and the golden ones of :mod:`repro.lp.scalar` —
      optima within 1e-9 and feasible
      :func:`~repro.lp.acc_mass.check_fractional` certificates.

    The production rounding itself is certified by the ``rounding``
    oracle.
    """
    instance = ctx.instance
    out: list[Discrepancy] = []
    # --- raw flow differential --------------------------------------------
    flow_values: dict[str, int] = {}
    for eng, network_cls in _FLOW_NETWORKS.items():
        net, value, source, sink = _instance_flow_network(instance, network_cls)
        flow_values[eng] = value
        if not net.check_flow_conservation(source, sink):
            out.append(
                Discrepancy(
                    "lpflow",
                    f"{eng} flow engine violates conservation on the "
                    "instance-derived network",
                )
            )
        cut = net.min_cut_side(source)
        cut_cap = sum(
            e.capacity for e in net.edges if e.src in cut and e.dst not in cut
        )
        if cut_cap != value:
            out.append(
                Discrepancy(
                    "lpflow",
                    f"{eng} flow engine: min-cut capacity {cut_cap} does not "
                    f"certify the flow value {value}",
                    {"engine": eng, "cut": cut_cap, "flow": value},
                )
            )
    if len(set(flow_values.values())) > 1:
        out.append(
            Discrepancy(
                "lpflow",
                "flow engines disagree on the instance-derived network: "
                + ", ".join(f"{k}={v}" for k, v in flow_values.items()),
                dict(flow_values),
            )
        )
    # --- (LP2) differential -----------------------------------------------
    try:
        lp2 = {"vector": solve_lp2(instance), "scalar": solve_lp2_scalar(instance)}
    except ReproError as exc:
        out.append(Discrepancy("lpflow", f"(LP2) solve failed: {exc}"))
        return out
    out.extend(_lp_optima_agree("(LP2)", lp2))
    for eng, frac in lp2.items():
        cert = check_fractional(instance, frac, windows=False)
        if not cert["ok"]:
            out.append(
                Discrepancy(
                    "lpflow",
                    f"(LP2) {eng} solution fails its feasibility certificate",
                    {"engine": eng, "certificate": cert},
                )
            )
    # --- (LP1) differential -----------------------------------------------
    if not _chain_pipeline_applicable(instance):
        return out
    lp1: dict[str, tuple[str, object]] = {}
    for eng, solver in (("vector", solve_lp1), ("scalar", solve_lp1_scalar)):
        try:
            lp1[eng] = ("ok", solver(instance))
        except ReproError as exc:
            lp1[eng] = (type(exc).__name__, str(exc))
    if lp1["vector"][0] != lp1["scalar"][0]:
        out.append(
            Discrepancy(
                "lpflow",
                f"(LP1) outcome kinds diverge: vector {lp1['vector'][0]} "
                f"vs scalar {lp1['scalar'][0]}",
            )
        )
        return out
    if lp1["vector"][0] != "ok":
        return out  # both paths failed identically; rounding oracle reports
    fracs = {eng: outcome[1] for eng, outcome in lp1.items()}
    out.extend(_lp_optima_agree("(LP1)", fracs))
    for eng, frac in fracs.items():
        cert = check_fractional(instance, frac)
        if not cert["ok"]:
            out.append(
                Discrepancy(
                    "lpflow",
                    f"(LP1) {eng} solution fails its feasibility certificate",
                    {"engine": eng, "certificate": cert},
                )
            )
    return out


def _lp_optima_agree(label: str, fracs: dict) -> list[Discrepancy]:
    """The vector and scalar optima of one program agree to 1e-9."""
    t_v, t_s = fracs["vector"].t, fracs["scalar"].t
    if abs(t_v - t_s) <= 1e-9 * max(1.0, abs(t_s)):
        return []
    return [
        Discrepancy(
            "lpflow",
            f"{label} optima diverge: vector {t_v:.12f} vs scalar {t_s:.12f}",
            {"vector": t_v, "scalar": t_s},
        )
    ]


def check_delays(ctx: CaseContext) -> list[Discrepancy]:
    """Random-delay search: congestion, reporting, and load invariants."""
    spec, instance, cfg = ctx.spec, ctx.instance, ctx.cfg
    if not _chain_pipeline_applicable(instance):
        return []
    try:
        _, integral = ctx.rounding()
        pseudo = build_chain_bands(instance, integral)
    except ReproError as exc:
        return [Discrepancy("delays", f"band construction failed: {exc}")]
    out: list[Discrepancy] = []
    max_attempts = 64
    outcome = find_good_delays(
        pseudo, rng=spec.sim_seed, max_attempts=max_attempts
    )
    delayed = outcome.pseudo
    collision = delayed.max_collision()
    if collision != outcome.max_collision:
        out.append(
            Discrepancy(
                "delays",
                f"reported max_collision {outcome.max_collision} but the "
                f"delayed pseudo-schedule measures {collision}",
            )
        )
    if outcome.max_collision > outcome.target and outcome.attempts < max_attempts:
        out.append(
            Discrepancy(
                "delays",
                f"search stopped after {outcome.attempts} < {max_attempts} "
                f"attempts with collision {outcome.max_collision} above the "
                f"target {outcome.target}",
            )
        )
    if not (1 <= outcome.attempts <= max_attempts):
        out.append(
            Discrepancy(
                "delays",
                f"reported attempts {outcome.attempts} outside "
                f"[1, {max_attempts}]",
            )
        )
    if delayed.load() != pseudo.load():
        out.append(
            Discrepancy(
                "delays",
                f"delays changed the pseudo-schedule load "
                f"{pseudo.load()} → {delayed.load()}",
            )
        )
    flat = flatten_pseudo(delayed)
    if delayed.length and flat.length != delayed.length * max(1, collision):
        out.append(
            Discrepancy(
                "delays",
                f"flattening expanded {delayed.length} steps to {flat.length}, "
                f"expected ×{max(1, collision)}",
            )
        )
    masses = delayed.job_masses(instance)
    if masses.size and float(masses.min()) + cfg.eps < integral.target_mass:
        out.append(
            Discrepancy(
                "delays",
                f"band layout lost mass: min {float(masses.min()):.6f} below "
                f"target {integral.target_mass}",
            )
        )
    return out


def check_portfolio(ctx: CaseContext) -> list[Discrepancy]:
    """Portfolio meta-runner invariants on tiny instances.

    Runs every *cheap* capability-admitting registry solver head-to-head
    through :func:`repro.algorithms.portfolio.run_portfolio` and checks
    the structural contract (no member crashes on a valid instance, the
    leaderboard is makespan-sorted, every entry carries engine provenance
    and either exactness or a finite confidence interval) plus the
    statistical sandwich: the winner must lie within every member's upper
    confidence bound, and the certified lower bounds must not exceed any
    member's makespan.  Censored entries are excluded from the sandwich —
    their means are underestimates by construction.
    """
    from ..algorithms.portfolio import run_portfolio
    from ..algorithms.registry import iter_solvers

    spec, instance, cfg = ctx.spec, ctx.instance, ctx.cfg
    if instance.n > cfg.portfolio_jobs or instance.m > cfg.portfolio_machines:
        return []
    solvers = [s.name for s in iter_solvers(instance) if s.cost == "cheap"]
    if not solvers:
        return []
    report = run_portfolio(
        instance,
        solvers=solvers,
        seed=spec.sim_seed,
        reps=cfg.reps,
        max_steps=ctx.max_steps,
    )
    out: list[Discrepancy] = []
    # Every cheap solver supports every DAG class it was offered, so a
    # skip here means a member crashed mid-solve — itself a finding.
    for name, reason in report.skipped:
        out.append(
            Discrepancy(
                "portfolio",
                f"cheap solver {name!r} failed on a valid instance: {reason}",
                {"solver": name},
            )
        )
    makespans = [e.makespan for e in report.entries]
    if makespans != sorted(makespans):
        out.append(
            Discrepancy(
                "portfolio",
                f"leaderboard is not makespan-sorted: {makespans}",
            )
        )
    for e in report.entries:
        if not e.report.engine or e.report.mode not in ("exact", "mc"):
            out.append(
                Discrepancy(
                    "portfolio",
                    f"entry {e.solver!r} lacks engine provenance "
                    f"(mode={e.report.mode!r}, engine={e.report.engine!r})",
                    {"solver": e.solver},
                )
            )
        exactish = e.report.mode == "exact"
        if not exactish and not (
            e.report.n_reps > 0 and math.isfinite(e.report.std_err)
        ):
            out.append(
                Discrepancy(
                    "portfolio",
                    f"MC entry {e.solver!r} carries no usable confidence "
                    f"interval (n_reps={e.report.n_reps}, "
                    f"std_err={e.report.std_err})",
                    {"solver": e.solver},
                )
            )
    trusted = [e for e in report.entries if not e.report.truncated]
    if not trusted:
        return out
    lbs = lower_bounds(instance)
    best = min(e.makespan for e in trusted)
    for e in trusted:
        upper = e.makespan + cfg.z * e.report.std_err + cfg.eps
        if best > upper:
            out.append(
                Discrepancy(
                    "portfolio",
                    f"winner makespan {best:.6f} exceeds {e.solver!r}'s upper "
                    f"confidence bound {upper:.6f}",
                    {"winner": best, "solver": e.solver, "upper": upper},
                )
            )
        if e.report.mode == "mc" and e.report.std_err == 0.0:
            # Degenerate sample variance: every replication hit the same
            # makespan, so the z-slack collapses to zero even though the
            # true mean can sit strictly above the sample mean (e.g. a
            # near-certain one-step job whose rare retries never showed
            # up in `reps` draws).  The bound is uninformative here.
            continue
        slack = cfg.z * e.report.std_err + 1e-6 * max(1.0, lbs.best)
        if lbs.best > e.makespan + slack:
            out.append(
                Discrepancy(
                    "portfolio",
                    f"certified lower bound {lbs.best:.6f} exceeds "
                    f"{e.solver!r}'s makespan {e.makespan:.6f} (+{slack:.6f} "
                    f"slack)",
                    {"bounds": lbs.as_dict(), "solver": e.solver},
                )
            )
    return out


#: All oracles in execution order.
_CHECKS = (
    check_engines,
    check_markov,
    check_curve,
    check_opt,
    check_msm,
    check_rounding,
    check_lpflow,
    check_delays,
    check_portfolio,
)


def applicable_checks() -> tuple[str, ...]:
    """Names of the registered oracles (for docs/tests)."""
    return tuple(fn.__name__.removeprefix("check_") for fn in _CHECKS)


def check_case(
    spec: CaseSpec,
    cfg: CheckConfig | None = None,
    only: str | None = None,
) -> list[Discrepancy]:
    """Run the oracle suite on a case spec; return all discrepancies.

    ``only`` restricts to a single named check — the shrinker uses this to
    re-test a mutated case against the check that originally failed.
    Builder exceptions are reported as ``build`` discrepancies rather than
    raised, so a crashing generator/solver is itself a finding.
    """
    cfg = cfg or CheckConfig()
    try:
        instance, schedule = build_case(spec)
    except ReproError as exc:
        return [Discrepancy("build", f"case failed to build: {exc}")]
    ctx = CaseContext(spec, instance, schedule, cfg)
    out: list[Discrepancy] = []
    for fn in _CHECKS:
        name = fn.__name__.removeprefix("check_")
        if only is not None and name != only:
            continue
        out.extend(fn(ctx))
    return out
