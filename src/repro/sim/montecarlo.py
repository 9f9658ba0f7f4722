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
decision tree, and ``engine="scalar"`` forces the scalar reference engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import CyclicSchedule, ObliviousSchedule
from ..errors import SimulationLimitError, ValidationError
from .batch import batchable, simulate_batch
from .engine import DEFAULT_MAX_STEPS, simulate

__all__ = ["MakespanEstimate", "mean_std_err"]


def mean_std_err(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error ``std(ddof=1) / sqrt(n)``.

    Computed in float64; the standard error of a single sample is 0.  The
    experiment runner merges per-shard moments instead
    (:mod:`repro.parallel.merge`), since it has no samples to hand.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = values.size
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, std_err


@dataclass
class MakespanEstimate:
    """Sample statistics of the makespan under repeated execution.

    ``truncated`` counts replications that hit the step budget before
    finishing; their (censored) makespans are included in the mean, so when
    ``truncated > 0`` the mean is a *lower* bound on the true expectation
    and callers should enlarge ``max_steps``.
    :func:`repro.evaluate.evaluate` emits a
    :class:`~repro.errors.CensoredEstimateWarning` whenever that happens,
    so a biased mean cannot be read silently; pass
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
) -> MakespanEstimate:
    """Estimate the expected makespan of ``schedule`` by Monte Carlo.

    Engine-layer implementation behind :func:`repro.evaluate.evaluate`
    (mode ``"mc"``), which delegates here unchanged.

    With ``engine="auto"`` (see ``docs/architecture.md``): oblivious and
    cyclic schedules use the vectorized lockstep path; deterministic
    adaptive policies and regimens use the batched frontier-memoized
    engine; randomized policies and anything else run through the scalar
    engine one replication at a time.  ``engine="scalar"`` forces the
    scalar reference engine for every schedule type.

    The experiment runner calls this once per replication shard
    (:mod:`repro.parallel.worker`); that is the only place replications
    are split and spread over processes.

    Replications censored at the step budget are counted in
    ``truncated`` (the mean is then only a lower bound) without a warning:
    the front door warns once for the whole request.
    ``require_finished=True`` raises instead.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if engine not in ("auto", "scalar"):
        raise ValidationError(f"unknown engine {engine!r}; expected auto|scalar")
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
    elif engine == "auto" and batchable(schedule):
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
    values = samples.astype(np.float64)
    mean, std_err = mean_std_err(values)
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
