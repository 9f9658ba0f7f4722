"""``evaluate()`` — the one front door for judging a schedule.

Every consumer in the repo (CLI, experiment runner, differential fuzzer,
benchmarks, examples) asks the same question through this function; the
dispatcher (:mod:`repro.evaluate.dispatch`) picks the cheapest engine
that serves the request and the answer always arrives as an
:class:`~repro.evaluate.report.EvaluationReport` with engine provenance.

The engine layer only counts censored replications; :func:`evaluate` is
the one place that turns the count into a warning.  Callers that report
censoring some other way (the evaluation server, the portfolio, the
fuzzer's oracles) call the non-warning core :func:`_evaluate`.
"""

from __future__ import annotations

import math

import numpy as np

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import Regimen, ScheduleResult
from ..errors import ValidationError, warn_censored
from ..sim.exact.lattice import DEFAULT_MAX_STATES
from .dispatch import Route, schedule_kind, select_route
from .report import EvaluationReport, censoring
from .request import EvaluationRequest, step_budget

__all__ = ["evaluate", "resolve_schedule"]


def evaluate(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest | None = None,
    **kwargs,
) -> EvaluationReport:
    """Evaluate ``schedule`` on ``instance`` under the Def 2.1 model.

    Either pass a pre-built :class:`EvaluationRequest`, or keyword
    arguments that construct one (``metrics=``, ``mode=``, ``reps=``,
    ``seed=``, ...; see the request class for the full list).
    ``schedule`` may be any schedule kind — cyclic, finite oblivious,
    regimen, adaptive policy — or a
    :class:`~repro.core.schedule.ScheduleResult` (unwrapped), or a solver
    *name* from the capability-typed registry
    (:mod:`repro.algorithms.registry`): ``evaluate(inst, "serial")``
    schedules with that solver first (default constants, deterministic
    rng derived from the request seed — the experiment runner's solver
    stream) and then judges the result.

    Routing (``mode="auto"``): exact sparse Markov when the schedule has
    a finite chain within the ``max_states`` guard, batched/lockstep
    Monte Carlo otherwise.  ``mode="exact"`` / ``mode="mc"`` force a
    route.  With ``mode="mc"`` the samples are a pure function of the
    integer ``seed``.  Replications run in this process; to spread them
    over worker processes, describe the run as an
    :class:`~repro.experiments.spec.ExperimentSpec` and call
    ``run_experiment(spec, workers=N)``.

    Censoring surfaces uniformly: any route whose replications hit the
    step budget emits one :class:`~repro.errors.CensoredEstimateWarning`
    (or raises with ``require_finished=True``), and an exact solve past
    its guard raises :class:`~repro.errors.ExactSolverLimitError` —
    identically for every schedule kind.
    """
    report = _evaluate(instance, schedule, request, **kwargs)
    if report.truncated:
        warn_censored(*censoring(report.to_dict()), stacklevel=2)
    return report


def _evaluate(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest | None = None,
    **kwargs,
) -> EvaluationReport:
    """:func:`evaluate` without the censoring warning.

    The report's ``truncated`` count is the only censoring signal, so a
    caller on a worker thread never has to touch the process-global
    warning filters to stay quiet.
    """
    # The stopwatch starts before request construction/validation so
    # wall_time_s covers the whole call, not just the post-dispatch body.
    sw = obs.stopwatch()
    tracing = obs.enabled()
    counters_before = obs.counters() if tracing else {}
    with obs.span("evaluate") as root:
        if isinstance(schedule, ScheduleResult):
            schedule = schedule.schedule
        with obs.span("evaluate.validate"):
            if request is None:
                request = EvaluationRequest(**kwargs)
            elif kwargs:
                raise ValidationError(
                    "pass either a pre-built EvaluationRequest or keyword "
                    f"arguments, not both (got request= plus {sorted(kwargs)})"
                )
            schedule = resolve_schedule(instance, schedule, request.seed)
            if hasattr(schedule, "validate_against"):  # tables and regimens
                schedule.validate_against(instance)
        with obs.span("evaluate.dispatch") as dspan:
            route = select_route(instance, schedule, request)
            dspan.set(
                mode=route.mode,
                engine=route.engine,
                reason=route.reason,
                exact_state_cost=route.cost,
                max_states_cap=route.cap,
            )
        root.set(
            schedule_kind=schedule_kind(schedule),
            metrics=list(request.metrics),
            mode=route.mode,
            engine=route.engine,
        )
        with obs.span("evaluate.run", mode=route.mode, engine=route.engine):
            if route.mode == "exact":
                report = _run_exact(instance, schedule, request, route)
            else:
                report = _run_mc(instance, schedule, request, route)
    report.wall_time_s = sw.elapsed_s
    if tracing:
        report.telemetry = {
            "span": root.to_dict(),
            "counters": obs.counters_since(counters_before),
        }
    return report


def resolve_schedule(instance: SUUInstance, schedule, seed):
    """Solver-name sugar: build the named solver's schedule, else pass through.

    The solver gets a deterministic stream derived from an integer (or
    NumPy integer) ``seed`` — the experiment runner's derivation —
    decoupled from the simulation stream; any other seed derives from 0.
    """
    if not isinstance(schedule, str):
        return schedule
    from ..algorithms.registry import resolve_solver

    base = int(seed) if isinstance(seed, (int, np.integer)) else 0
    return (
        resolve_solver(schedule)
        .build(instance, rng=np.random.default_rng((base, 0xA16)))
        .schedule
    )


# ----------------------------------------------------------------------
# Exact route
# ----------------------------------------------------------------------
def _run_exact(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest,
    route: Route,
) -> EvaluationReport:
    # The facade is the one sanctioned internal caller of the engine layer.
    from ..sim.exact import scalar, sparse

    solver = scalar if route.engine == "scalar" else sparse
    max_states = (
        request.max_states if request.max_states is not None else DEFAULT_MAX_STATES
    )

    def solve(op: str, fn, *args):
        with obs.span("exact.solve", op=op, engine=route.engine, n=instance.n):
            return fn(instance, schedule, *args, max_states=max_states)

    makespan = None
    curve = None
    dist = None
    if "makespan" in request.metrics:
        if isinstance(schedule, Regimen):
            makespan = solve("makespan_regimen", solver.expected_makespan_regimen)
        else:
            makespan = solve("makespan_cyclic", solver.expected_makespan_cyclic)
    if "completion_curve" in request.metrics:
        curve = solve(
            "completion_curve", solver.exact_completion_curve, request.horizon
        )
    if "state_distribution" in request.metrics:
        dist = solve("state_distribution", solver.state_distribution, request.horizon)
    return EvaluationReport(
        mode="exact",
        engine=f"markov-{route.engine}",
        schedule_kind=schedule_kind(schedule),
        makespan=makespan,
        min=makespan,
        max=makespan,
        completion_curve=curve,
        state_distribution=dist,
        reason=route.reason,
        request=request,
    )


# ----------------------------------------------------------------------
# Monte Carlo route
# ----------------------------------------------------------------------
def _mc_curve(samples: np.ndarray, truncated: int, horizon: int) -> np.ndarray:
    """Empirical completion CDF from makespan samples (1-based steps).

    Replications censored at the budget sit at ``horizon`` only because
    observation stopped there, so they are subtracted from the final bin
    and the last point reports the *finished* fraction.
    """
    counts = np.bincount(samples, minlength=horizon + 1)[1:]
    counts[horizon - 1] -= truncated
    return np.cumsum(counts, dtype=np.float64) / samples.size


def _precision_met(
    mean: float, std_err: float, request: EvaluationRequest
) -> bool:
    half = 1.96 * std_err
    if request.target_ci is not None and half > request.target_ci:
        return False
    if request.rtol is not None and half > request.rtol * max(abs(mean), 1e-12):
        return False
    return True


def _run_mc(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest,
    route: Route,
) -> EvaluationReport:
    from ..sim.montecarlo import _estimate_makespan, mean_std_err

    # A curve-only run observes exactly `horizon` steps; once makespan is
    # also requested the request's own budget governs and the curve is the
    # CDF's first `horizon` points (the validator guarantees
    # max_steps >= horizon in that case).
    run_max_steps = step_budget(request.metrics, request.horizon, request.max_steps)
    need_samples = (
        request.keep_samples
        or "completion_curve" in request.metrics
        or request.wants_precision
    )

    def run(reps: int, rng):
        return _estimate_makespan(
            instance,
            schedule,
            reps=reps,
            rng=rng,
            max_steps=run_max_steps,
            keep_samples=need_samples,
            require_finished=request.require_finished,
            engine=route.engine,
        )

    if not request.wants_precision:
        # Single round: the raw seed passes straight through to the
        # estimator.
        with obs.span("mc.round", round=1, reps=request.reps):
            est = run(request.reps, request.seed)
        samples = est.samples
        mean, std_err = est.mean, est.std_err
        n_reps, truncated = est.n_reps, est.truncated
        lo, hi = est.min, est.max
        rounds, met = 1, None
        engine_used = est.engine_used
    else:
        # Adaptive precision: double the replication count until the CI
        # half-width meets the target or the budget is spent.  One
        # generator feeds every round, so rounds draw fresh independent
        # replications; their censoring counts add up.
        rng = as_rng(request.seed)
        budget = request.effective_budget()
        chunks: list[np.ndarray] = []
        truncated = 0
        n_reps = 0
        rounds = 0
        lo, hi = math.inf, -math.inf
        next_reps = request.reps
        while True:
            with obs.span("mc.round", round=rounds + 1, reps=next_reps):
                est = run(next_reps, rng)
            rounds += 1
            chunks.append(np.asarray(est.samples))
            truncated += est.truncated
            n_reps += est.n_reps
            lo, hi = min(lo, est.min), max(hi, est.max)
            engine_used = est.engine_used
            mean, std_err = mean_std_err(np.concatenate(chunks))
            met = _precision_met(mean, std_err, request)
            if met or n_reps >= budget:
                break
            next_reps = min(n_reps, budget - n_reps)
        samples = np.concatenate(chunks)

    curve = None
    if "completion_curve" in request.metrics:
        # Full-budget CDF truncated to the requested horizon (for a
        # curve-only request run_max_steps == horizon).
        curve = _mc_curve(samples, truncated, run_max_steps)[: request.horizon]
    # Like the exact route, the makespan fields are populated only when
    # the metric was requested: a curve-only run observes just `horizon`
    # steps, so its sample mean is E[min(makespan, horizon)] — a number
    # that must not masquerade as the expected makespan.
    wants_makespan = "makespan" in request.metrics
    return EvaluationReport(
        mode="mc",
        engine=engine_used,
        schedule_kind=schedule_kind(schedule),
        makespan=mean if wants_makespan else None,
        std_err=std_err if wants_makespan else 0.0,
        n_reps=n_reps,
        truncated=truncated,
        min=lo if wants_makespan else None,
        max=hi if wants_makespan else None,
        samples=samples if request.keep_samples else None,
        completion_curve=curve,
        rounds=rounds,
        precision_met=met,
        reason=route.reason,
        request=request,
    )
