"""Engine selection: route a request to the cheapest engine that serves it.

The decision tree (also rendered in ``docs/architecture.md``):

```
request forces exact?  (mode="exact" | state_distribution)
├── yes → exact Markov     (ValidationError if the schedule has no finite
│                           chain; ExactSolverLimitError if the guard trips)
├── request forces MC?  (mode="mc" | rtol/target_ci/budget)
│   └── yes → Monte Carlo
└── auto:
    schedule is a Regimen / CyclicSchedule serving all metrics?
    ├── no  → Monte Carlo
    └── yes: the full DP allocation 2^n × width fits max_states?
        ├── no  → Monte Carlo
        └── yes: the subset tables of every lattice state (Σ 2^k over the
            (distinct assignment, state) rows) fit 8 × max_states?
            ├── yes → exact Markov (sparse)
            └── no  → Monte Carlo  (the estimator's own lockstep/batched/
                                    scalar routing, see repro.sim.montecarlo)
```

Auto mode prices both allocations the sparse engine guards
(:func:`exact_state_cost` and :func:`exact_subset_entries`, the latter
through :func:`~repro.sim.exact.lattice.subset_table_entries`).  The DP
table is priced with the engine's own count.  The subset tables are
priced over the whole lattice, while the engine builds the rows of the
reachable states only: an upper bound of the engine's count, so auto
never promises an exact route the engine then refuses.  A forced
``mode="exact"`` skips the pricing and lets the engine's guards raise.

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
from ..sim.exact.lattice import (
    DEFAULT_MAX_STATES,
    SUBSET_TABLE_FACTOR,
    eligibility_masks,
    popcount_array,
    regimen_active_sets,
    step_rules,
    subset_table_entries,
)
from .request import EvaluationRequest

__all__ = [
    "Route",
    "select_route",
    "schedule_kind",
    "exact_supported",
    "exact_state_cost",
    "exact_subset_entries",
]


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


def exact_subset_entries(
    instance: SUUInstance,
    schedule,
    metrics: tuple[str, ...],
    horizon: int | None,
) -> int:
    """Subset-table entries of the sparse engine's transition structure,
    counted over the whole lattice.

    One row per state of a regimen, or per (distinct assignment, state)
    pair over the schedule positions the solve reads — ``P + L`` for a
    makespan, the first ``horizon`` for a forward curve or distribution —
    each holding ``2^k`` entries (a regimen's undefined row holds 1).
    The engine's guard counts the same rows at the reachable states
    only, so this is an upper bound of its count.  A makespan reads every
    position, so with one in ``metrics`` it bounds the forward solves
    too.  Counting costs one pass over the ``2^n`` states per distinct
    assignment (per machine for a regimen), far below the solve it
    prices.
    """
    elig = eligibility_masks(instance)
    if isinstance(schedule, Regimen):
        active = regimen_active_sets(instance, schedule.table, elig)
    else:
        positions = schedule.prefix_length + schedule.cycle_length
        if "makespan" not in metrics and horizon is not None:
            positions = min(positions, horizon)
        served = step_rules(instance, schedule.truncate(positions).table).served
        active = elig[None, :] & served[:, None]
    return subset_table_entries(popcount_array(active))


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
    # mode="auto": prefer exact whenever the whole request fits the guards.
    if not ok:
        return Route("mc", request.engine, f"auto: {why_not}")
    cost = exact_state_cost(instance, schedule, request.metrics, request.horizon)
    cap = request.max_states if request.max_states is not None else DEFAULT_MAX_STATES
    if cost > cap:
        return Route(
            "mc",
            request.engine,
            f"auto: exact chain needs {cost} DP entries > max_states {cap}",
            cost=cost,
            cap=cap,
        )
    entries = exact_subset_entries(instance, schedule, request.metrics, request.horizon)
    limit = SUBSET_TABLE_FACTOR * cap
    if entries > limit:
        return Route(
            "mc",
            request.engine,
            f"auto: exact chain fits ({cost} <= max_states {cap}) but its sparse "
            f"subset tables need {entries} entries > {limit} "
            f"({SUBSET_TABLE_FACTOR} x max_states)",
            cost=cost,
            cap=cap,
        )
    return Route(
        "exact",
        _exact_engine(request),
        f"auto: exact chain fits ({cost} <= max_states {cap})",
        cost=cost,
        cap=cap,
    )
