"""Fuzz-case specs: a JSON-serializable recipe for (instance, schedule).

A :class:`CaseSpec` pins everything needed to rebuild a differential-test
case bit for bit: the workload family, the schedule family, the sizes,
the instance seed, and the simulation seed.  Determinism is the load-
bearing property — the shrinker re-runs mutated specs and the corpus
replays saved ones, so ``build_case(spec)`` must be a pure function of the
spec.

Workload families cover the full generator registry: every DAG kind of
:func:`repro.workloads.random_instance` (including ``diamond``) crossed
with every probability model (including the heterogeneous speed-class
model), plus the paper's two §1 scenarios and the greedy-trap family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..algorithms.registry import ALL_CLASSES, SOLVERS, resolve_solver
from ..core.instance import SUUInstance
from ..errors import ValidationError
from ..opt.malewicz import optimal_regimen
from ..workloads import (
    DAG_KINDS,
    PROB_MODELS,
    greedy_trap,
    grid_computing,
    project_management,
    random_instance,
)

__all__ = [
    "CaseSpec",
    "INSTANCE_FAMILIES",
    "SCHEDULE_FAMILIES",
    "build_instance",
    "build_schedule",
    "build_case",
    "sample_case",
]

#: Scenario families with their own size semantics (n/m are derived).
SCENARIO_FAMILIES = ("grid", "project", "greedy_trap")

#: Every instance family key the fuzzer draws from.
INSTANCE_FAMILIES: tuple[str, ...] = tuple(
    f"{dag}/{prob}" for dag in DAG_KINDS for prob in PROB_MODELS
) + SCENARIO_FAMILIES


def _fuzzable_solver_names() -> tuple[str, ...]:
    """Registry solvers cheap enough to fuzz on every drawn instance.

    Capability query, not a hard-coded list: combinatorial (``cost ==
    "cheap"``) solvers without size caps that accept every DAG class — a
    newly registered solver meeting the bar is fuzzed automatically.  LP
    and exponential solvers are excluded on cost grounds (the oracles
    re-evaluate each case across several engines), and capped solvers
    because the fuzzer draws instance sizes after the schedule family.
    """
    return tuple(
        sorted(
            name
            for name, s in SOLVERS.items()
            if s.cost == "cheap"
            and s.max_jobs is None
            and s.max_machines is None
            and s.dag_classes == ALL_CLASSES
        )
    )


#: Schedule families and the engine paths they can exercise: every
#: fuzzable registry solver (drawn by capability, see above) plus two
#: derived families — "finite_round_robin" (a truncated oblivious table,
#: exercising the run-out-of-schedule paths) and "exact_regimen" (the
#: Malewicz optimum, only applicable on small instances: the fuzzer and
#: the shrinker gate it on ``CheckConfig.exact_opt_jobs``).
SCHEDULE_FAMILIES = _fuzzable_solver_names() + (
    "finite_round_robin",
    "exact_regimen",
)


@dataclass(frozen=True)
class CaseSpec:
    """One differential-test case, fully determined by its fields."""

    family: str
    schedule: str
    n: int
    m: int
    instance_seed: int
    sim_seed: int
    #: Probability coarsening level applied after generation: 0 = off,
    #: k > 0 quantizes p to multiples of 1/2^k (shrinker knob).
    coarse: int = 0
    #: Per-case step budget (0 = the CheckConfig default).  A minority of
    #: sampled cases draw a deliberately tight budget so the censoring /
    #: truncation paths get differential coverage too.
    max_steps: int = 0
    #: Extra generator keyword arguments (JSON-scalar values only).
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "schedule": self.schedule,
            "n": self.n,
            "m": self.m,
            "instance_seed": self.instance_seed,
            "sim_seed": self.sim_seed,
            "coarse": self.coarse,
            "max_steps": self.max_steps,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseSpec":
        return cls(
            family=str(data["family"]),
            schedule=str(data["schedule"]),
            n=int(data["n"]),
            m=int(data["m"]),
            instance_seed=int(data["instance_seed"]),
            sim_seed=int(data["sim_seed"]),
            coarse=int(data.get("coarse", 0)),
            max_steps=int(data.get("max_steps", 0)),
            params=dict(data.get("params", {})),
        )

    def with_(self, **changes) -> "CaseSpec":
        return replace(self, **changes)

    def describe(self) -> str:
        extra = f" params={self.params}" if self.params else ""
        budget = f", max_steps={self.max_steps}" if self.max_steps else ""
        return (
            f"{self.family} × {self.schedule} (n={self.n}, m={self.m}, "
            f"iseed={self.instance_seed}, sseed={self.sim_seed}, "
            f"coarse={self.coarse}{budget}){extra}"
        )


def _coarsen(p: np.ndarray, level: int) -> np.ndarray:
    """Quantize probabilities to a 1/2^level grid, preserving positivity.

    Entries that were positive stay positive (snapped up to one grid unit)
    so the coarsened instance remains valid; zeros stay zero so sparsity
    structure survives shrinking.
    """
    grid = 2.0**-level
    q = np.round(p / grid) * grid
    q[(p > 0.0) & (q <= 0.0)] = grid
    return np.clip(q, 0.0, 1.0)


def build_instance(spec: CaseSpec) -> SUUInstance:
    """Deterministically rebuild the instance described by ``spec``."""
    rng = np.random.default_rng(spec.instance_seed)
    params = dict(spec.params)
    if spec.family == "grid":
        inst = grid_computing(
            num_workflows=max(1, spec.n // 4),
            stages=int(params.get("stages", 2)),
            fanout=int(params.get("fanout", 2)),
            machines=spec.m,
            rng=rng,
        )
    elif spec.family == "project":
        inst = project_management(
            workstreams=max(1, spec.n // 3),
            tasks_per_stream=int(params.get("tasks_per_stream", 3)),
            workers=spec.m,
            rng=rng,
        )
    elif spec.family == "greedy_trap":
        inst = greedy_trap(spec.n, spec.m)
    else:
        dag_kind, _, prob_model = spec.family.partition("/")
        if dag_kind not in DAG_KINDS or prob_model not in PROB_MODELS:
            raise ValidationError(f"unknown instance family {spec.family!r}")
        inst = random_instance(
            spec.n,
            spec.m,
            dag_kind=dag_kind,
            prob_model=prob_model,
            rng=rng,
            **params,
        )
    if spec.coarse:
        inst = SUUInstance(
            _coarsen(inst.p, spec.coarse),
            inst.dag,
            name=f"{inst.name}|coarse={spec.coarse}",
        )
    return inst


def build_schedule(spec: CaseSpec, instance: SUUInstance):
    """Deterministically rebuild the schedule described by ``spec``.

    Returns the schedule object itself (not a :class:`ScheduleResult`):
    the oracles only need something executable.
    """
    if spec.schedule == "finite_round_robin":
        # A *finite* oblivious schedule (three round-robin periods): some
        # executions run out of schedule with jobs unfinished, exercising
        # the finite-horizon and truncation-accounting paths of every
        # engine differentially.
        cyclic = resolve_solver("round_robin").build(instance).schedule
        return cyclic.truncate(3 * max(1, instance.n))
    if spec.schedule == "exact_regimen":
        return optimal_regimen(instance).regimen
    if spec.schedule in SOLVERS:
        # Determinism is load-bearing: solvers that consume randomness
        # (none of the default fuzz pool, but corpus specs may name any
        # registered solver) get a stream derived from the instance seed.
        rng = np.random.default_rng((spec.instance_seed, 0xF0))
        return resolve_solver(spec.schedule).build(instance, rng=rng).schedule
    raise ValidationError(f"unknown schedule family {spec.schedule!r}")


def build_case(spec: CaseSpec):
    """Rebuild ``(instance, schedule)`` for a spec."""
    instance = build_instance(spec)
    return instance, build_schedule(spec, instance)


def sample_case(
    rng: np.random.Generator,
    max_jobs: int = 12,
    max_machines: int = 4,
    exact_opt_jobs: int = 4,
) -> CaseSpec:
    """Draw one random case spec.

    Sizes are kept small on purpose: the oracles include exponential exact
    solvers and the point of the fuzzer is semantic coverage, not load.
    ``exact_regimen`` cases are capped at ``exact_opt_jobs`` jobs so the
    Malewicz DP stays instant.
    """
    family = INSTANCE_FAMILIES[int(rng.integers(0, len(INSTANCE_FAMILIES)))]
    schedule = SCHEDULE_FAMILIES[int(rng.integers(0, len(SCHEDULE_FAMILIES)))]
    if schedule == "exact_regimen":
        n = int(rng.integers(1, exact_opt_jobs + 1))
        m = int(rng.integers(1, min(3, max_machines) + 1))
    else:
        n = int(rng.integers(1, max_jobs + 1))
        m = int(rng.integers(1, max_machines + 1))
    params: dict = {}
    if family.startswith("chains/"):
        params["num_chains"] = int(rng.integers(1, n + 1))
    elif family.startswith("layered/"):
        params["layers"] = int(rng.integers(1, n + 1))
    elif family.startswith("diamond/"):
        params["width"] = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            params["jitter"] = True
    elif family == "grid":
        n = max(n, 4)
        params["stages"] = int(rng.integers(1, 3))
    elif family == "project":
        n = max(n, 3)
        params["tasks_per_stream"] = int(rng.integers(1, 4))
    # ~1 case in 6 runs under a deliberately tight step budget so the
    # censoring/truncation semantics are differentially tested too.
    max_steps = int(rng.integers(4, 41)) if rng.random() < 1.0 / 6.0 else 0
    return CaseSpec(
        family=family,
        schedule=schedule,
        n=n,
        m=m,
        instance_seed=int(rng.integers(0, 2**31)),
        sim_seed=int(rng.integers(0, 2**31)),
        max_steps=max_steps,
        params=params,
    )
