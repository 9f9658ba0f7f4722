"""Approximation-ratio measurement: schedule vs exact optimum or lower bound.

The contract: ratios are reported against the *exact* ``T^OPT`` whenever the
Malewicz DP is affordable, otherwise against the certified lower bound —
making every reported ratio an upper bound on the true one.  The record
carries which reference was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import as_rng
from ..bounds.lower import lower_bounds
from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ExactSolverLimitError
from ..evaluate import evaluate
from ..opt.malewicz import optimal_expected_makespan

__all__ = ["RatioRecord", "measure_ratio", "reference_makespan", "compare_algorithms"]


@dataclass
class RatioRecord:
    """One measured ratio: algorithm, estimate, reference, ratio."""

    instance: str
    algorithm: str
    mean_makespan: float
    std_err: float
    reference: float
    reference_kind: str  # "exact" or "lower_bound"
    ratio: float
    n: int
    m: int
    truncated: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "algorithm": self.algorithm,
            "mean_makespan": self.mean_makespan,
            "std_err": self.std_err,
            "reference": self.reference,
            "reference_kind": self.reference_kind,
            "ratio": self.ratio,
            "n": self.n,
            "m": self.m,
            "truncated": self.truncated,
            **self.extra,
        }


def reference_makespan(
    instance: SUUInstance,
    exact_limit: int = 10,
    include_lp: bool = True,
) -> tuple[float, str]:
    """``(T^OPT or best lower bound, kind)`` for ratio denominators.

    The exact DP is attempted when ``n <= exact_limit`` and the assignment
    enumeration stays small; otherwise the combined lower bound is used.
    """
    if instance.n <= exact_limit:
        try:
            return (
                optimal_expected_makespan(instance, max_states=1 << (exact_limit + 2)),
                "exact",
            )
        except ExactSolverLimitError:
            pass
    lbs = lower_bounds(instance, include_lp=include_lp)
    return lbs.best, "lower_bound"


def measure_ratio(
    instance: SUUInstance,
    result: ScheduleResult,
    reps: int = 200,
    rng=None,
    max_steps: int = 200_000,
    reference: tuple[float, str] | None = None,
    exact_limit: int = 10,
) -> RatioRecord:
    """Monte-Carlo estimate of the schedule's ratio to the reference."""
    rng = as_rng(rng)
    if reference is None:
        reference = reference_makespan(instance, exact_limit=exact_limit)
    ref_value, ref_kind = reference
    # mode="mc" keeps the historical sampling semantics (and bitwise
    # streams) regardless of whether the schedule would admit an exact
    # solve — ratios compare like with like across algorithms.
    est = evaluate(
        instance, result.schedule, mode="mc", reps=reps, seed=rng, max_steps=max_steps
    )
    return RatioRecord(
        instance=instance.name or repr(instance),
        algorithm=result.algorithm,
        mean_makespan=est.mean,
        std_err=est.std_err,
        reference=ref_value,
        reference_kind=ref_kind,
        ratio=est.mean / max(ref_value, 1e-12),
        n=instance.n,
        m=instance.m,
        truncated=est.truncated,
    )


def compare_algorithms(
    instance: SUUInstance,
    results: dict[str, ScheduleResult],
    reps: int = 200,
    rng=None,
    max_steps: int = 200_000,
    exact_limit: int = 10,
) -> list[RatioRecord]:
    """Measure several schedules against one shared reference."""
    rng = as_rng(rng)
    reference = reference_makespan(instance, exact_limit=exact_limit)
    records = []
    for name, result in results.items():
        rec = measure_ratio(
            instance,
            result,
            reps=reps,
            rng=rng,
            max_steps=max_steps,
            reference=reference,
        )
        rec.algorithm = name
        records.append(rec)
    return records
