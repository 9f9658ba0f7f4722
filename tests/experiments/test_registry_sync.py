"""A solver name means one thing in specs, ``solve(method=)`` and the registry.

Experiment specs and the front door both read the solver registry, so at
a fixed seed each name gives the same ScheduleResult through
``ExperimentSpec(algorithm=name)``, ``solve(method=name)`` and a direct
``resolve_solver(name).build``, and ``algorithm="solve"`` is ``solve()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import PAPER, resolve_solver, solve, solver_names
from repro.evaluate import evaluate
from repro.experiments import ExperimentSpec

SEED = 5


def _spec(algorithm: str, **algorithm_params) -> ExperimentSpec:
    # Independent jobs: the one class every SUU-I solver admits; small
    # enough for the exponential solvers' caps.
    return ExperimentSpec(
        name=f"sync-{algorithm}",
        generator="random",
        generator_params={"n": 6, "m": 3},
        instance_seed=SEED,
        algorithm=algorithm,
        algorithm_params=algorithm_params,
    )


def _solver_rng():
    # The experiment runner's solver-stream derivation (spec.py).
    return np.random.default_rng((SEED, 0xA16))


def _assert_same(inst, a, b):
    assert a.algorithm == b.algorithm
    if a.is_oblivious:
        assert a.schedule.to_dict() == b.schedule.to_dict()
    elif hasattr(a.schedule, "table"):  # a regimen
        assert np.array_equal(a.schedule.table, b.schedule.table)
    else:
        ra = evaluate(inst, a.schedule, mode="mc", reps=30, seed=99,
                      keep_samples=True)
        rb = evaluate(inst, b.schedule, mode="mc", reps=30, seed=99,
                      keep_samples=True)
        assert np.array_equal(ra.samples, rb.samples)


def test_registry_records_resolve_identically():
    inst = _spec("solve").build_instance()
    built = 0
    for name in solver_names():
        if not resolve_solver(name).supports(inst):
            continue
        direct = resolve_solver(name).build(inst, rng=_solver_rng())
        spec = _spec(name)
        _assert_same(inst, spec.build_schedule(spec.build_instance()), direct)
        _assert_same(inst, solve(inst, rng=_solver_rng(), method=name), direct)
        built += 1
    assert built == len(solver_names())  # independent jobs admit every solver


@pytest.mark.parametrize("method", ["auto", "lp", "serial"])
def test_solve_spec_matches_front_door(method):
    spec = _spec("solve", method=method)
    inst = spec.build_instance()
    _assert_same(
        inst, spec.build_schedule(inst), solve(inst, rng=_solver_rng(), method=method)
    )


def test_constants_preset_reaches_the_solver():
    # The paper's replication factor (16 vs 2) lengthens the LP schedule.
    spec = _spec("lp", constants="paper")
    inst = spec.build_instance()
    direct = resolve_solver("lp").build(inst, constants=PAPER, rng=_solver_rng())
    _assert_same(inst, spec.build_schedule(inst), direct)
    practical = _spec("lp").build_schedule(inst)
    assert direct.schedule.prefix_length > practical.schedule.prefix_length
