"""Monte Carlo estimation of expected makespan.

For oblivious (and cyclic) schedules the assignment of every step is fixed
in advance, so no step needs simulating: an eligible job completes at the
first step where its cumulative log-mass (the log form of the Def 2.4
mass) exceeds an Exp(1) draw.  The kernel loops over *jobs* in
topological order, each a handful of numpy calls over all replications,
never over steps or replications.  Deterministic adaptive
policies and regimens run on the frontier-memoized batched engine
(:mod:`repro.sim.batch`); randomized policies fall back to the scalar
engine one replication at a time.  ``docs/architecture.md`` documents the
decision tree, and ``engine="scalar"``/``"batched"`` forces a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._deprecation import warn_legacy
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import CyclicSchedule, ObliviousSchedule
from ..errors import SimulationLimitError, ValidationError, warn_censored
from .batch import batchable, simulate_batch
from .engine import DEFAULT_MAX_STEPS, simulate

__all__ = ["MakespanEstimate", "estimate_makespan", "completion_curve"]


@dataclass
class MakespanEstimate:
    """Sample statistics of the makespan under repeated execution.

    ``truncated`` counts replications that hit the step budget before
    finishing; their (censored) makespans are included in the mean, so when
    ``truncated > 0`` the mean is a *lower* bound on the true expectation
    and callers should enlarge ``max_steps``.
    :func:`estimate_makespan` emits a :class:`~repro.errors.CensoredEstimateWarning`
    whenever that happens, so a biased mean cannot be read silently; pass
    ``require_finished=True`` to escalate censoring to an error instead.
    """

    mean: float
    std_err: float
    n_reps: int
    truncated: int
    min: float
    max: float
    samples: np.ndarray | None = None
    #: Which simulation path produced the samples:
    #: "oblivious-lockstep" | "batched" | "scalar".
    engine_used: str = "scalar"

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.std_err
        return (self.mean - half, self.mean + half)

    def __repr__(self) -> str:
        lo, hi = self.ci95
        extra = f", truncated={self.truncated}" if self.truncated else ""
        return (
            f"MakespanEstimate(mean={self.mean:.3f}, ci95=({lo:.3f}, {hi:.3f}), "
            f"reps={self.n_reps}{extra})"
        )


#: Per-step hazard cap.  A machine with ``p_ij = 1`` gives an infinite
#: hazard; capping it keeps cumulative sums finite (so later steps still
#: order correctly) while its survival ``e^-64 ≈ 1.6e-28`` is far below
#: anything a run can observe.
_HAZARD_CAP = 64.0


def _cumulative_hazard(p: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Cumulative per-job log-mass ``Λ[j, k] = Σ_{t<k} h_tj`` of a table.

    ``h_tj = -Σ_{i: table[t, i] = j} log(1 - p_ij)`` is the log form of the
    Def 2.4 mass: an eligible job survives step ``t`` with probability
    ``exp(-h_tj)``.  Returns an ``(n, T + 1)`` array with ``Λ[:, 0] = 0``.
    """
    T = table.shape[0]
    n = p.shape[1]
    steps, machines = np.nonzero(table >= 0)
    jobs = table[steps, machines]
    with np.errstate(divide="ignore"):
        h = -np.log1p(-p[machines, jobs])
    per_step = np.bincount(steps * n + jobs, weights=h, minlength=T * n)
    out = np.zeros((n, T + 1), dtype=np.float64)
    np.cumsum(
        np.minimum(per_step.reshape(T, n), _HAZARD_CAP).T, axis=1, out=out[:, 1:]
    )
    return out


def _vectorized_oblivious(
    instance: SUUInstance,
    schedule: ObliviousSchedule | CyclicSchedule,
    reps: int,
    rng: np.random.Generator,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``reps`` executions of an oblivious schedule, step-free.

    Under a fixed assignment per step, an eligible job completes at the
    first step ``k`` at which its cumulative hazard ``Λ_j(k)`` exceeds
    ``Λ_j(start) + E_j`` with ``E_j ~ Exp(1)``, where ``start`` is the step
    its last predecessor completed.  Jobs are visited in topological order
    with one ``searchsorted`` per job over all replications; cycles are
    skipped in closed form.  Exact in distribution.

    Returns ``(makespans, finished_flags)``; unfinished runs report the
    censored step count ``max_steps``.
    """
    dag = instance.dag
    if isinstance(schedule, ObliviousSchedule):
        prefix, cycle = schedule.table, None
        horizon = min(max_steps, schedule.length)
    else:
        prefix, cycle = schedule.prefix.table, schedule.cycle.table
        horizon = max_steps
    P = prefix.shape[0]
    lam_p = _cumulative_hazard(instance.p, prefix)
    lam_c = None if cycle is None else _cumulative_hazard(instance.p, cycle)
    L = 0 if cycle is None else cycle.shape[0]
    draws = rng.standard_exponential((reps, instance.n))
    # Completion step per (job, rep); ``never`` = not within the horizon.
    never = horizon + 1
    done_at = np.empty((instance.n, reps), dtype=np.int64)
    no_start = np.zeros(reps, dtype=np.int64)
    for j in dag.topological_order():
        preds = list(dag.predecessors(j))
        start = done_at[preds].max(axis=0) if preds else no_start
        threshold = lam_p[j, np.minimum(start, P)] + draws[:, j]
        step = np.searchsorted(lam_p[j], threshold, side="right")
        late = step > P
        if late.any():
            if lam_c is None or lam_c[j, L] == 0:
                later = never
            else:
                # Past the prefix: the hazard still to accumulate, counted
                # from the first step of the cycle repetition the job starts
                # in (repetition 0, offset 0, for jobs that start in the prefix).
                offset = np.maximum(start - P, 0)
                rest = threshold - lam_p[j, P] + lam_c[j, offset % L]
                later = _cycle_completion(lam_c[j], rest, P + offset // L * L)
            step = np.where(late, later, step)
        # Censor in float, then store: cycle step counts can exceed int64.
        done_at[j] = np.minimum(step, never)
    last = done_at.max(axis=0)
    finished = last <= horizon
    return np.where(finished, last, max_steps), finished


def _cycle_completion(lam: np.ndarray, rest: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Completion steps of a job with ``rest`` hazard to go in the cycle.

    ``base`` counts the steps before the cycle repetition the count starts
    from, and ``lam`` is the job's cumulative hazard over one cycle
    (``lam[-1] > 0``).
    Whole cycles are skipped by floor division in float, so a tiny cycle
    hazard yields a huge (or infinite) step count rather than an overflow;
    the caller censors the float result before casting it.
    """
    L = lam.shape[0] - 1
    total = lam[L]
    with np.errstate(over="ignore"):
        cycles = np.floor(rest / total)
    within = np.searchsorted(lam, np.maximum(rest - cycles * total, 0.0), side="right")
    # Rounding can leave the remainder at a full cycle's hazard: it then
    # falls in the next cycle, at the job's first step with any hazard.
    spill = within > L
    cycles[spill] += 1
    within[spill] = np.searchsorted(lam, 0.0, side="right")
    return base + cycles * L + within


def _estimate_makespan(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    keep_samples: bool = False,
    require_finished: bool = False,
    engine: str = "auto",
    workers: int | None = None,
    executor=None,
    shards: int | None = None,
    _warn_stacklevel: int = 2,
) -> MakespanEstimate:
    """Estimate the expected makespan of ``schedule`` by Monte Carlo.

    Engine-layer implementation; first-party callers go through
    :func:`repro.evaluate.evaluate` (mode ``"mc"``), which delegates here
    unchanged — same streams, bitwise-identical samples at a fixed seed.
    ``_warn_stacklevel`` keeps the censoring warning attributed to the
    real caller when an extra frame (the public shim) sits in between.

    With ``engine="auto"`` (see ``docs/architecture.md``): oblivious and
    cyclic schedules use the vectorized lockstep path; deterministic
    adaptive policies and regimens use the batched frontier-memoized
    engine; randomized policies and anything else run through the scalar
    engine one replication at a time.  ``engine="scalar"`` forces the
    scalar reference engine for every schedule type; ``engine="batched"``
    forces :func:`repro.sim.batch.simulate_batch` (rejecting schedules it
    cannot batch).

    ``workers`` / ``executor`` / ``shards`` engage the sharded parallel
    backend (:mod:`repro.parallel`): replications split into independent
    :meth:`~numpy.random.SeedSequence.spawn`-seeded shards, each shard runs
    through this same engine routing, and per-shard moments merge into one
    estimate.  ``workers=N`` fans shards out to ``N`` worker processes
    (``executor="serial"`` runs the same shards in-process); the merged
    numbers are identical for every worker count at a fixed seed.  The
    sharded path draws its shard streams from a root seed, so it is
    statistically equivalent — not bitwise identical — to the default
    single-stream path.  Process execution ships ``(instance, schedule)``
    by pickle; closure-based adaptive policies must instead go through an
    :class:`~repro.experiments.spec.ExperimentSpec` (whose workers rebuild
    the schedule from the registry) or ``executor="serial"``.

    When any replication is censored at the step budget, a
    :class:`~repro.errors.CensoredEstimateWarning` is emitted (the mean is
    then only a lower bound); ``require_finished=True`` raises instead.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if engine not in ("auto", "batched", "scalar"):
        raise ValidationError(f"unknown engine {engine!r}; expected auto|batched|scalar")
    if workers is not None or executor is not None or shards is not None:
        # Imported lazily: repro.parallel.worker calls back into this module.
        from ..parallel.estimate import sharded_estimate

        return sharded_estimate(
            instance,
            schedule,
            reps=reps,
            rng=rng,
            max_steps=max_steps,
            engine=engine,
            executor=executor,
            workers=workers,
            shards=shards,
            keep_samples=keep_samples,
            require_finished=require_finished,
        )
    rng = as_rng(rng)
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        # Validate regardless of engine choice: the scalar loop would
        # otherwise fail deep inside with a raw IndexError.
        schedule.validate_against(instance)
    if engine == "auto" and isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        engine_used = "oblivious-lockstep"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            samples, finished_flags = _vectorized_oblivious(
                instance, schedule, reps, rng, max_steps
            )
        truncated = int((~finished_flags).sum())
    elif engine == "batched" or (engine == "auto" and batchable(schedule)):
        engine_used = "batched"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            batch = simulate_batch(
                instance, schedule, reps, rng=rng, max_steps=max_steps
            )
        samples = batch.makespans
        truncated = batch.truncated
    else:
        engine_used = "scalar"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            samples = np.empty(reps, dtype=np.int64)
            truncated = 0
            for r in range(reps):
                res = simulate(instance, schedule, rng=rng, max_steps=max_steps)
                if res.finished:
                    samples[r] = res.makespan
                else:
                    samples[r] = max_steps
                    truncated += 1
    obs.add("mc.reps", reps)
    obs.add("mc.truncated", truncated)
    if require_finished and truncated:
        raise SimulationLimitError(
            f"{truncated}/{reps} replications hit the {max_steps}-step budget"
        )
    if truncated:
        warn_censored(truncated, reps, max_steps, stacklevel=_warn_stacklevel)
    values = samples.astype(np.float64)
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MakespanEstimate(
        mean=mean,
        std_err=std_err,
        n_reps=reps,
        truncated=truncated,
        min=float(values.min()),
        max=float(values.max()),
        samples=samples if keep_samples else None,
        engine_used=engine_used,
    )


def estimate_makespan(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    keep_samples: bool = False,
    require_finished: bool = False,
    engine: str = "auto",
    workers: int | None = None,
    executor=None,
    shards: int | None = None,
) -> MakespanEstimate:
    """Deprecated shim over :func:`_estimate_makespan`.

    Use :func:`repro.evaluate.evaluate` — ``evaluate(instance, schedule,
    mode="mc", seed=s)`` returns bitwise-identical samples plus engine
    provenance, and ``mode="auto"`` upgrades small regimen/cyclic cases
    to the exact Markov answer for free.
    """
    warn_legacy("repro.sim.estimate_makespan")
    return _estimate_makespan(
        instance,
        schedule,
        reps=reps,
        rng=rng,
        max_steps=max_steps,
        keep_samples=keep_samples,
        require_finished=require_finished,
        engine=engine,
        workers=workers,
        executor=executor,
        shards=shards,
        _warn_stacklevel=3,  # skip this shim frame: blame the caller's line
    )


def censored_completion_cdf(
    samples: np.ndarray, truncated: int, horizon: int
) -> np.ndarray:
    """Empirical completion CDF from makespan samples (1-based steps).

    The one implementation of the censoring-aware arithmetic, shared by
    :func:`_completion_curve` and the evaluation front door so the two
    stay bitwise identical: replications censored at the budget sit at
    ``horizon`` only because observation stopped there, so they are
    subtracted from the final bin and the last point reports the
    *finished* fraction.
    """
    counts = np.bincount(samples, minlength=horizon + 1)[1:]
    counts[horizon - 1] -= truncated
    return np.cumsum(counts, dtype=np.float64) / samples.size


def _completion_curve(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = 10_000,
) -> np.ndarray:
    """Empirical ``Pr[all jobs done by step t]`` for ``t = 1..max_steps``.

    Returns an array of length ``max_steps``; useful for plotting the
    completion CDF of competing schedules.

    Replications censored at the step budget are *not done* at any
    ``t <= max_steps`` — their samples sit at ``max_steps`` only because
    that is where observation stopped — so the final point reports the
    finished fraction, not 1.0.  (A run that genuinely finishes in step
    ``max_steps`` still counts there; the two are distinguished by the
    estimate's ``truncated`` counter, which only covers unfinished runs.)
    """
    if max_steps < 1:
        raise ValidationError("completion_curve needs max_steps >= 1")
    rng = as_rng(rng)
    est = _estimate_makespan(
        instance, schedule, reps=reps, rng=rng, max_steps=max_steps, keep_samples=True
    )
    assert est.samples is not None
    return censored_completion_cdf(est.samples, est.truncated, max_steps)


def completion_curve(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = 10_000,
) -> np.ndarray:
    """Deprecated shim over :func:`_completion_curve`.

    Use ``repro.evaluate.evaluate(instance, schedule, mode="mc",
    metrics="completion_curve", horizon=T, seed=s)`` — the returned
    report's ``completion_curve`` is bitwise identical at the same seed.
    """
    warn_legacy("repro.sim.completion_curve")
    return _completion_curve(
        instance, schedule, reps=reps, rng=rng, max_steps=max_steps
    )
