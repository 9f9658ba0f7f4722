"""The one result type every evaluation route returns.

An :class:`EvaluationReport` carries the point estimate (exact or
sampled), its uncertainty, any requested curve/distribution, censoring
info, and — crucially — *engine provenance*: which route and engine
actually produced the numbers, so tests and callers can assert on the
dispatch decision instead of trusting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .request import EvaluationRequest, step_budget

__all__ = ["EvaluationReport"]

#: ``to_dict`` keys that are *derived* views (recomputed from the real
#: fields on access), plus the request sub-dict handled separately.
_DERIVED_KEYS = frozenset({"exact", "ci95", "request"})


def _jsonable_seed(seed) -> int | str | None:
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.integer):
        return int(seed)
    return repr(seed)  # a Generator: provenance only, not reproducible JSON


@dataclass
class EvaluationReport:
    """Outcome of one :func:`repro.evaluate.evaluate` call.

    Attributes
    ----------
    mode:
        ``"exact"`` or ``"mc"`` — the route that actually ran.
    engine:
        Engine provenance: ``markov-sparse`` / ``markov-scalar`` on the
        exact route; ``oblivious-lockstep`` / ``batched`` / ``scalar`` on
        the Monte Carlo route.
    schedule_kind:
        ``cyclic`` / ``oblivious`` / ``regimen`` / ``adaptive``.
    makespan / std_err / n_reps / truncated / min / max / samples:
        The makespan estimate.  On the exact route ``std_err`` is 0,
        ``n_reps``/``truncated`` are 0, and ``exact`` is True; on the MC
        route ``truncated`` counts budget-censored replications (the mean
        is then a lower bound).
    completion_curve / state_distribution:
        Requested extra metrics (None when not requested).
    rounds / precision_met:
        MC provenance: how many adaptive-precision rounds were spent, and
        whether the precision target was met within the budget (None when
        no target was set).
    reason:
        Human-readable dispatch rationale (why this route was picked).
    wall_time_s:
        End-to-end wall-clock of the evaluation, from request construction
        through dispatch to the engine run.
    telemetry:
        Captured instrumentation (``repro.obs``) when collection was on
        during the call: ``{"span": <evaluate span tree>, "counters":
        {...}}``.  None when telemetry was disabled (the default).
    """

    mode: str
    engine: str
    schedule_kind: str
    makespan: float | None = None
    std_err: float = 0.0
    n_reps: int = 0
    truncated: int = 0
    min: float | None = None
    max: float | None = None
    samples: np.ndarray | None = None
    completion_curve: np.ndarray | None = None
    state_distribution: np.ndarray | None = None
    rounds: int = 1
    precision_met: bool | None = None
    reason: str = ""
    wall_time_s: float = 0.0
    request: EvaluationRequest | None = None
    telemetry: dict | None = None

    # -- compatibility views ----------------------------------------------
    @property
    def exact(self) -> bool:
        """True when the value is analytic (no sampling error)."""
        return self.mode == "exact"

    @property
    def mean(self) -> float | None:
        """Alias of :attr:`makespan` (``MakespanEstimate``'s field name)."""
        return self.makespan

    @property
    def engine_used(self) -> str:
        """Alias of :attr:`engine` (``MakespanEstimate``'s field name)."""
        return self.engine

    @property
    def censored(self) -> bool:
        return self.truncated > 0

    @property
    def ci95(self) -> tuple[float, float] | None:
        """Normal-approximation 95% CI; degenerate on the exact route."""
        if self.makespan is None:
            return None
        half = 0.0 if self.exact else 1.96 * self.std_err
        return (self.makespan - half, self.makespan + half)

    # -- rendering --------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict (arrays become lists, the request is inlined)."""
        req = None
        if self.request is not None:
            req = {
                "metrics": list(self.request.metrics),
                "mode": self.request.mode,
                "reps": self.request.reps,
                "seed": _jsonable_seed(self.request.seed),
                "max_steps": self.request.max_steps,
                "horizon": self.request.horizon,
                "rtol": self.request.rtol,
                "target_ci": self.request.target_ci,
                "budget": self.request.budget,
                "engine": self.request.engine,
                "max_states": self.request.max_states,
            }
        return {
            "mode": self.mode,
            "engine": self.engine,
            "schedule_kind": self.schedule_kind,
            "exact": self.exact,
            "makespan": self.makespan,
            "std_err": self.std_err,
            "ci95": list(self.ci95) if self.ci95 is not None else None,
            "n_reps": self.n_reps,
            "truncated": self.truncated,
            "min": self.min,
            "max": self.max,
            "completion_curve": (
                self.completion_curve.tolist()
                if self.completion_curve is not None
                else None
            ),
            "state_distribution": (
                self.state_distribution.tolist()
                if self.state_distribution is not None
                else None
            ),
            "rounds": self.rounds,
            "precision_met": self.precision_met,
            "reason": self.reason,
            "wall_time_s": self.wall_time_s,
            "request": req,
            "telemetry": self.telemetry,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationReport":
        """Inverse of :meth:`to_dict` — rebuild a report from the wire dict.

        Round-trip contract (property-tested):
        ``EvaluationReport.from_dict(r.to_dict()).to_dict() == r.to_dict()``.
        Derived keys (``exact``, ``ci95``) are ignored on input and
        recomputed; list-valued metrics come back as float64 arrays;
        ``samples`` never crosses the wire (``to_dict`` drops them), so
        the rebuilt report has ``samples=None``.

        A ``request`` sub-dict serialized from a live-``Generator`` seed
        (``to_dict`` stores its ``repr`` for provenance) is not
        reproducible and raises :class:`~repro.errors.ValidationError`
        rather than resurrecting a request whose seed is a string.
        """
        unknown = set(d) - _DERIVED_KEYS - {
            "mode", "engine", "schedule_kind", "makespan", "std_err",
            "n_reps", "truncated", "min", "max", "completion_curve",
            "state_distribution", "rounds", "precision_met",
            "reason", "wall_time_s", "telemetry",
        }
        if unknown:
            raise ValidationError(
                f"EvaluationReport.from_dict: unknown keys {sorted(unknown)}"
            )
        request = None
        req = d.get("request")
        if req is not None:
            seed = req.get("seed")
            if seed is not None and not isinstance(seed, int):
                raise ValidationError(
                    "EvaluationReport.from_dict: the serialized request's "
                    f"seed is {seed!r} (a live generator's repr, kept for "
                    "provenance only) — it cannot be rebuilt into a "
                    "reproducible request"
                )
            request = EvaluationRequest(**req)
        curve = d.get("completion_curve")
        dist = d.get("state_distribution")
        return cls(
            mode=d["mode"],
            engine=d["engine"],
            schedule_kind=d["schedule_kind"],
            makespan=d.get("makespan"),
            std_err=d.get("std_err", 0.0),
            n_reps=d.get("n_reps", 0),
            truncated=d.get("truncated", 0),
            min=d.get("min"),
            max=d.get("max"),
            samples=None,
            completion_curve=(
                np.asarray(curve, dtype=np.float64) if curve is not None else None
            ),
            state_distribution=(
                np.asarray(dist, dtype=np.float64) if dist is not None else None
            ),
            rounds=d.get("rounds", 1),
            precision_met=d.get("precision_met"),
            reason=d.get("reason", ""),
            wall_time_s=d.get("wall_time_s", 0.0),
            request=request,
            telemetry=d.get("telemetry"),
        )

    @classmethod
    def from_json(cls, payload: str) -> "EvaluationReport":
        return cls.from_dict(json.loads(payload))

    def __repr__(self) -> str:
        if self.makespan is None:
            value = ", ".join(
                name
                for name, v in (
                    ("completion_curve", self.completion_curve),
                    ("state_distribution", self.state_distribution),
                )
                if v is not None
            )
        elif self.exact:
            value = f"E[makespan]={self.makespan:.9f} (exact)"
        else:
            lo, hi = self.ci95
            value = (
                f"E[makespan]={self.makespan:.3f} ci95=({lo:.3f}, {hi:.3f}) "
                f"reps={self.n_reps}"
            )
            if self.truncated:
                value += f" truncated={self.truncated}"
        return (
            f"EvaluationReport({value}, mode={self.mode}, engine={self.engine}, "
            f"schedule={self.schedule_kind})"
        )


def censoring(report: dict) -> tuple[int, int, int] | None:
    """``(truncated, reps, step budget)`` of a censored report, else None.

    Takes the wire dict (:meth:`EvaluationReport.to_dict`), the one form
    both :func:`repro.evaluate.evaluate`'s warning and the evaluation
    server's response envelope have at hand, so the two derive the
    :func:`~repro.errors.censored_message` arguments identically.
    """
    truncated = report.get("truncated", 0)
    if not truncated:
        return None
    request = report.get("request") or {}
    budget = step_budget(
        request.get("metrics") or (), request.get("horizon"), request.get("max_steps")
    )
    return truncated, report.get("n_reps", 0), budget
