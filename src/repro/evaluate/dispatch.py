"""Engine selection: route a request to the cheapest engine that serves it.

The decision tree (also rendered in ``docs/architecture.md``):

```
request forces exact?  (mode="exact" | state_distribution)
├── yes → exact Markov     (ValidationError if the schedule has no finite
│                           chain; ExactSolverLimitError if the guard trips)
├── request forces MC?  (mode="mc" | rtol/target_ci/budget)
│   └── yes → Monte Carlo
└── auto:
    schedule is a Regimen / CyclicSchedule serving all metrics,
    and the full DP allocation 2^n × width fits max_states?
    ├── yes → exact Markov (sparse)
    └── no  → Monte Carlo  (the estimator's own lockstep/batched/scalar
                            routing, see repro.sim.montecarlo)
```

``engine="scalar"`` never changes the route: it swaps in the golden
reference engine of whichever route is chosen.

The choice is recorded on the report (``mode`` / ``engine`` / ``reason``)
so callers and tests can assert on it — "auto picked exact here" is a
testable fact, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import SUUInstance
from ..core.schedule import (
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    Regimen,
)
from ..errors import ValidationError
from ..sim.exact.lattice import DEFAULT_MAX_STATES
from .request import EvaluationRequest

__all__ = ["Route", "select_route", "schedule_kind", "exact_supported", "exact_state_cost"]


@dataclass(frozen=True)
class Route:
    """A resolved dispatch decision."""

    mode: str  # "exact" | "mc"
    engine: str  # exact: "sparse"|"scalar"; mc: "auto"|"scalar"
    reason: str
    #: Auto-mode cost model, recorded as dispatch-span attributes: the
    #: exact DP allocation this request would need and the cap it was
    #: compared against (None when the decision never priced the exact
    #: route, e.g. forced modes or schedules with no finite chain).
    cost: int | None = None
    cap: int | None = None


def schedule_kind(schedule) -> str:
    """Canonical name of the schedule family (report provenance)."""
    if isinstance(schedule, Regimen):
        return "regimen"
    if isinstance(schedule, CyclicSchedule):
        return "cyclic"
    if isinstance(schedule, ObliviousSchedule):
        return "oblivious"
    if isinstance(schedule, AdaptivePolicy):
        return "adaptive"
    return type(schedule).__name__


def exact_supported(schedule, metrics: tuple[str, ...]) -> tuple[bool, str]:
    """Can the exact Markov layer serve ``metrics`` for this schedule?

    Returns ``(ok, why_not)`` — the reason string feeds both auto-mode
    provenance and the error message when ``mode="exact"`` is forced.
    """
    if isinstance(schedule, Regimen):
        extra = {"completion_curve", "state_distribution"} & set(metrics)
        if extra:
            return (
                False,
                f"exact {'/'.join(sorted(extra))} needs the step-indexed chain "
                "of a cyclic schedule; a regimen only has the state-indexed one",
            )
        return True, ""
    if isinstance(schedule, CyclicSchedule):
        return True, ""
    kind = schedule_kind(schedule)
    return (
        False,
        f"{kind} schedules have no finite Markov chain (a finite oblivious "
        "schedule may never finish; adaptive policies would need 2^n "
        "state-dependent transition tables) — only regimens and cyclic "
        "schedules evaluate exactly",
    )


def exact_state_cost(
    instance: SUUInstance,
    schedule,
    metrics: tuple[str, ...],
    horizon: int | None,
) -> int:
    """Full DP allocation of the exact solve: ``2^n × width`` entries.

    Mirrors the guards inside ``repro.sim.exact`` (regimen: width 1;
    cyclic: prefix+cycle positions; forward curve/distribution:
    ``horizon + 1`` rows), taking the max over the requested metrics so
    auto mode only picks exact when *every* metric fits.
    """
    width = 1
    if isinstance(schedule, CyclicSchedule):
        width = schedule.prefix_length + schedule.cycle_length
    if horizon is not None and (
        "completion_curve" in metrics or "state_distribution" in metrics
    ):
        width = max(width, horizon + 1)
    return (1 << instance.n) * width


def _exact_engine(request: EvaluationRequest) -> str:
    return "scalar" if request.engine == "scalar" else "sparse"


def select_route(instance: SUUInstance, schedule, request: EvaluationRequest) -> Route:
    """Resolve a validated request against a concrete (instance, schedule)."""
    ok, why_not = exact_supported(schedule, request.metrics)
    if request.forces_exact:
        if not ok:
            raise ValidationError(f"mode='exact' cannot serve this request: {why_not}")
        return Route("exact", _exact_engine(request), "exact route requested")
    if request.mode == "mc" or request.wants_precision:
        return Route(
            "mc",
            request.engine,
            "MC route requested (mode/engine/precision argument)",
        )
    # mode="auto": prefer exact whenever the whole request fits the guard.
    if ok:
        cost = exact_state_cost(instance, schedule, request.metrics, request.horizon)
        cap = request.max_states if request.max_states is not None else DEFAULT_MAX_STATES
        if cost <= cap:
            return Route(
                "exact",
                _exact_engine(request),
                f"auto: exact chain fits ({cost} <= max_states {cap})",
                cost=cost,
                cap=cap,
            )
        return Route(
            "mc",
            request.engine,
            f"auto: exact chain needs {cost} DP entries > max_states {cap}",
            cost=cost,
            cap=cap,
        )
    return Route("mc", request.engine, f"auto: {why_not}")
