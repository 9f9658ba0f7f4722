"""The instance-generator registry behind declarative experiment specs.

An :class:`~repro.experiments.spec.ExperimentSpec` names its instance
generator and algorithm as strings so that specs serialize, hash stably for
the on-disk result cache, and round-trip through JSON.  The algorithm is a
solver registry name (:mod:`repro.algorithms.registry`) or ``"solve"``;
this module owns the other table, the **generators** —
``fn(rng, **params) -> SUUInstance`` — and their built-in entries, which
the CLI's ``portfolio`` and ``demo`` scenarios build from too.

The table is open for extension (the scenario-diversity hook: new
uncertainty models or workload families register here and immediately
work with the runner, the CLI, and the cached benchmarks)::

    from repro.experiments import register_generator

    @register_generator("budgeted")
    def budgeted(rng, n=16, m=6, gamma=3):
        ...
"""

from __future__ import annotations

from typing import Callable

from ..core.instance import SUUInstance
from ..errors import ExperimentError
from ..workloads import (
    diamond_dag,
    greedy_trap,
    grid_computing,
    probability_matrix,
    project_management,
    random_instance,
)

__all__ = ["GENERATORS", "register_generator", "resolve_generator"]

GENERATORS: dict[str, Callable[..., SUUInstance]] = {}


def register_generator(name: str):
    """Decorator registering ``fn(rng, **params) -> SUUInstance`` under ``name``."""

    def deco(fn):
        if name in GENERATORS:
            raise ExperimentError(f"generator {name!r} is already registered")
        GENERATORS[name] = fn
        return fn

    return deco


def resolve_generator(name: str) -> Callable[..., SUUInstance]:
    try:
        return GENERATORS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown generator {name!r}; registered: {sorted(GENERATORS)}"
        ) from None


# ----------------------------------------------------------------------
# Built-in generators
# ----------------------------------------------------------------------
@register_generator("random")
def _gen_random(rng, n=16, m=6, dag_kind="independent", prob_model="uniform", **kw):
    return random_instance(n, m, dag_kind=dag_kind, prob_model=prob_model, rng=rng, **kw)


@register_generator("grid")
def _gen_grid(rng, **kw):
    return grid_computing(rng=rng, **kw)


@register_generator("project")
def _gen_project(rng, **kw):
    return project_management(rng=rng, **kw)


@register_generator("greedy_trap")
def _gen_greedy_trap(rng, n=12, m=4, **kw):
    # The trap family is deterministic by construction; rng is unused.
    return greedy_trap(n, m, **kw)


@register_generator("diamond")
def _gen_diamond(rng, n=16, m=6, width=3, jitter=False, prob_model="uniform", **kw):
    """Series-parallel fan-out/fan-in pipelines (``workloads.diamond_dag``)."""
    dag = diamond_dag(n, width=width, rng=rng, jitter=jitter)
    p = probability_matrix(m, n, model=prob_model, rng=rng, **kw)
    return SUUInstance(p, dag, name=f"diamond/{prob_model}(n={n},m={m},w={width})")
