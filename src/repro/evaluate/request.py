"""Typed evaluation requests and the one shared argument validator.

Every way this repo judges a schedule answers the same question — how it
behaves under the Def 2.1 stochastic execution model.
:class:`EvaluationRequest` is the single typed description of "what do
you want to know and at what cost", and
:meth:`EvaluationRequest.validate` is the single place every route —
exact or Monte Carlo — rejects malformed or conflicting arguments with a
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import store
from ..errors import ValidationError
from ..sim.engine import DEFAULT_MAX_STEPS

__all__ = [
    "EvaluationRequest",
    "METRICS",
    "MODES",
    "ENGINES",
    "DEFAULT_BUDGET_FACTOR",
]

#: Metrics a request may ask for.  ``state_distribution`` is exact-only.
METRICS = ("makespan", "completion_curve", "state_distribution")

#: ``auto`` resolves to the cheapest admissible route (see dispatch.py).
MODES = ("auto", "exact", "mc")

#: ``auto`` lets the route pick its engine (the sparse exact solver, or
#: the estimator's own lockstep/batched/scalar routing for MC); ``scalar``
#: names the golden reference of whichever route is chosen.
ENGINES = ("auto", "scalar")

#: Default replication budget, as a multiple of ``reps``, when a precision
#: target (``rtol`` / ``target_ci``) is set without an explicit ``budget``.
DEFAULT_BUDGET_FACTOR = 32

#: Arguments that steer the adaptive-precision Monte Carlo loop.
_PRECISION_FIELDS = ("rtol", "target_ci", "budget")

#: Counts and caps: an int or NumPy integer, never a bool; the optional
#: ones may also be None.
_INT_FIELDS = ("reps", "max_steps")
_OPTIONAL_INT_FIELDS = ("horizon", "budget", "max_states")


def step_budget(metrics, horizon: int | None, max_steps: int) -> int:
    """Steps a Monte Carlo run observes: ``horizon`` for a curve-only
    request (the curve covers exactly that many), else ``max_steps``."""
    if "completion_curve" in metrics and "makespan" not in metrics:
        return horizon
    return max_steps


def _normalize_metrics(metrics) -> tuple[str, ...]:
    if isinstance(metrics, str):
        metrics = (metrics,)
    try:
        out = tuple(str(m).replace("-", "_") for m in metrics)
    except TypeError:
        raise ValidationError(
            f"metrics must be a metric name or a sequence of them, got {metrics!r}"
        ) from None
    return out


@dataclass(frozen=True)
class EvaluationRequest:
    """What to evaluate, how precisely, and with which resources.

    Attributes
    ----------
    metrics:
        Any subset of :data:`METRICS`.  A bare string is accepted and
        normalized to a one-tuple; hyphens normalize to underscores.
    mode:
        ``"auto"`` picks exact when the schedule has a finite Markov chain
        within the ``max_states`` guard, Monte Carlo otherwise;
        ``"exact"`` / ``"mc"`` force a route (and error loudly when the
        route cannot serve the request).
    reps / seed / max_steps:
        Monte Carlo replication count, RNG seed (int, generator, or None),
        and per-replication step budget.  With ``mode="mc"`` and the same
        integer seed the samples are bitwise identical.
    horizon:
        Curve / distribution length; required when ``completion_curve``
        or ``state_distribution`` is requested (it is the Monte Carlo
        step budget of a curve-only run, see :func:`step_budget`).
    rtol / target_ci / budget:
        Adaptive-precision MC: replications double until the 95% CI
        half-width is below ``target_ci`` (absolute) and ``rtol * |mean|``
        (relative), or ``budget`` total replications are spent (default
        ``DEFAULT_BUDGET_FACTOR * reps``).
    engine:
        One of :data:`ENGINES`.  ``scalar`` names the golden reference of
        whichever route is chosen; ``mode`` alone picks the route.
    max_states:
        Exact-solver guard on the full DP allocation (default
        ``repro.sim.exact.lattice.DEFAULT_MAX_STATES``); in auto mode it is also
        the exact-vs-MC dispatch threshold.
    keep_samples / require_finished:
        Passed through to the estimator: retain the per-replication
        makespans / escalate censoring to an error.
    """

    metrics: tuple[str, ...] = ("makespan",)
    mode: str = "auto"
    reps: int = 200
    seed: np.random.Generator | int | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    horizon: int | None = None
    rtol: float | None = None
    target_ci: float | None = None
    budget: int | None = None
    engine: str = "auto"
    max_states: int | None = None
    keep_samples: bool = False
    require_finished: bool = False

    def __post_init__(self):
        object.__setattr__(self, "metrics", _normalize_metrics(self.metrics))
        self.validate()
        for name in _INT_FIELDS + _OPTIONAL_INT_FIELDS:
            # NumPy integers hash and serialize as the ints they equal.
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))

    # -- derived views ---------------------------------------------------
    @property
    def wants_precision(self) -> bool:
        """Adaptive-precision loop requested?"""
        return self.rtol is not None or self.target_ci is not None

    @property
    def forces_exact(self) -> bool:
        """Can this request only be served by the exact route?"""
        return self.mode == "exact" or "state_distribution" in self.metrics

    def effective_budget(self) -> int:
        """Total-replication cap for the adaptive-precision loop."""
        return self.budget if self.budget is not None else DEFAULT_BUDGET_FACTOR * self.reps

    # -- content hashing ---------------------------------------------------
    def request_hash(self) -> str:
        """Stable 16-hex-digit digest of everything that affects the answer.

        A :func:`repro.store.result_key`, like ``ExperimentSpec.spec_hash``:
        salted with the results version and the package version (so cached
        served results are invalidated when the engines' numbers change
        and across releases), insensitive to construction spelling
        (``"completion-curve"`` and ``"completion_curve"`` hash
        identically — the validator already normalized the metrics), and
        sensitive to every knob that changes the numbers: seed, reps, step
        budget, precision targets, engine and guard caps.

        Only reproducible requests hash: a live ``numpy`` ``Generator``
        seed has no stable content, so the server could neither dedup nor
        cache it —
        :class:`~repro.errors.ValidationError` is raised instead of
        producing a digest that silently collides.
        """
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise ValidationError(
                "request_hash() needs a reproducible request; seed must be an "
                f"int or None, not {type(self.seed).__name__} (a live generator "
                "has no stable content to hash)"
            )
        payload = {
            "metrics": list(self.metrics),
            "mode": self.mode,
            "reps": self.reps,
            "seed": int(self.seed) if self.seed is not None else None,
            "max_steps": self.max_steps,
            "horizon": self.horizon,
            "rtol": self.rtol,
            "target_ci": self.target_ci,
            "budget": self.budget,
            "engine": self.engine,
            "max_states": self.max_states,
            "keep_samples": self.keep_samples,
            "require_finished": self.require_finished,
        }
        return store.result_key(payload)

    # -- the one validator ------------------------------------------------
    def validate(self) -> None:
        """Reject malformed or internally conflicting requests.

        Raises :class:`~repro.errors.ValidationError` — uniformly, for
        every route — instead of each engine failing in its own way (or
        not at all) deep inside a simulation loop.
        """
        if not self.metrics:
            raise ValidationError("at least one metric is required")
        for m in self.metrics:
            if m not in METRICS:
                raise ValidationError(
                    f"unknown metric {m!r}; expected one of {METRICS}"
                )
        if len(set(self.metrics)) != len(self.metrics):
            raise ValidationError(f"duplicate metrics in {self.metrics}")
        if self.mode not in MODES:
            raise ValidationError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.engine not in ENGINES:
            raise ValidationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        for name in _INT_FIELDS + _OPTIONAL_INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INT_FIELDS:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if self.max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.rtol is not None and not self.rtol > 0:
            raise ValidationError(f"rtol must be > 0, got {self.rtol}")
        if self.target_ci is not None and not self.target_ci > 0:
            raise ValidationError(f"target_ci must be > 0, got {self.target_ci}")
        if self.budget is not None:
            if self.budget < 1:
                raise ValidationError(f"budget must be >= 1, got {self.budget}")
            if not self.wants_precision:
                raise ValidationError(
                    "budget has no effect without a precision target; "
                    "set rtol or target_ci (or drop budget)"
                )
            if self.budget < self.reps:
                raise ValidationError(
                    f"budget ({self.budget}) must cover at least the initial "
                    f"reps ({self.reps})"
                )
        if self.max_states is not None and self.max_states < 1:
            raise ValidationError(f"max_states must be >= 1, got {self.max_states}")
        needs_horizon = {"completion_curve", "state_distribution"} & set(self.metrics)
        if needs_horizon:
            if self.horizon is None:
                raise ValidationError(
                    f"metrics {sorted(needs_horizon)} require horizon= (the "
                    "number of steps the curve/distribution covers)"
                )
            if self.horizon < 1:
                raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
            if (
                "makespan" in self.metrics
                and "completion_curve" in self.metrics
                and self.max_steps < self.horizon
            ):
                # The joint run observes max_steps steps and the curve is
                # its first `horizon` points, so a shorter budget would
                # silently censor the makespan at the curve's horizon.
                raise ValidationError(
                    f"max_steps ({self.max_steps}) must cover horizon "
                    f"({self.horizon}) when makespan and completion_curve "
                    "are requested together"
                )
        elif self.horizon is not None:
            raise ValidationError(
                "horizon has no effect without the completion_curve or "
                "state_distribution metric"
            )
        if "state_distribution" in self.metrics and self.mode == "mc":
            raise ValidationError(
                "state_distribution is an exact-only metric; it cannot be "
                "requested with mode='mc'"
            )
        if self.forces_exact:
            given_precision = [
                f for f in _PRECISION_FIELDS if getattr(self, f) is not None
            ]
            if given_precision:
                raise ValidationError(
                    f"{'/'.join(given_precision)} have no effect on the exact "
                    "route (its answer carries no sampling error)"
                )
