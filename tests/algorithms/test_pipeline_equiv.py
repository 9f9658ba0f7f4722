"""The registry-driven ``solve()`` is bitwise the seed if-chain.

Tentpole acceptance: the refactor replaced the hand-written dispatch
(`if cls == DagClass.X: return solver(...)`) with a strongest-applicable
registry query.  This property test keeps a verbatim copy of the seed
if-chain and asserts, for every ``method`` × instance family at fixed
seeds, that both produce *identical* ScheduleResults — same algorithm
string, same certificates, same tables (oblivious) or bitwise-identical
Monte Carlo samples (adaptive policies) — and that the error types and
messages are unchanged where the seed raised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.algorithms import PRACTICAL, solve
from repro.algorithms.baselines import serial_baseline
from repro.algorithms.chains import solve_chains
from repro.algorithms.independent import suu_i_adaptive, suu_i_lp, suu_i_oblivious
from repro.algorithms.layered import solve_layered
from repro.algorithms.registry import solver_names
from repro.algorithms.trees import solve_forest, solve_tree
from repro.core.dag import DagClass
from repro.errors import UnsupportedDagError
from repro.evaluate import evaluate
from repro.workloads import (
    grid_computing,
    probability_matrix,
    project_management,
    random_instance,
)
from repro.workloads.generators import greedy_trap


# ----------------------------------------------------------------------
# Verbatim copy of the seed dispatcher (pre-registry pipeline.solve), with
# a frozen copy of the nine methods it accepted.
# ----------------------------------------------------------------------
_SEED_METHODS = {
    "auto",
    "adaptive",
    "oblivious",
    "lp",
    "chains",
    "tree",
    "forest",
    "layered",
    "serial",
}


def _seed_solve(instance, constants=PRACTICAL, rng=None, method="auto",
                allow_fallback=False):
    if method not in _SEED_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(_SEED_METHODS)}"
        )
    if method == "adaptive":
        return suu_i_adaptive(instance)
    if method == "oblivious":
        return suu_i_oblivious(instance, constants)
    if method == "lp":
        return suu_i_lp(instance, constants)
    if method == "chains":
        return solve_chains(instance, constants, rng)
    if method == "tree":
        return solve_tree(instance, constants, rng)
    if method == "forest":
        return solve_forest(instance, constants, rng)
    if method == "layered":
        return solve_layered(instance, constants, rng)
    if method == "serial":
        return serial_baseline(instance)

    cls = instance.classify()
    if cls == DagClass.INDEPENDENT:
        return suu_i_lp(instance, constants)
    if cls == DagClass.CHAINS:
        return solve_chains(instance, constants, rng)
    if cls in (DagClass.OUT_FOREST, DagClass.IN_FOREST):
        return solve_tree(instance, constants, rng)
    if cls == DagClass.MIXED_FOREST:
        return solve_forest(instance, constants, rng)
    if allow_fallback:
        return solve_layered(instance, constants, rng)
    raise UnsupportedDagError(
        "general precedence DAGs are outside the paper's algorithm classes "
        "(§5 lists them as an open problem); pass allow_fallback=True for "
        "the depth-layered extension (guarantee scales with DAG depth), use "
        "method='layered'/'serial' explicitly, or transitively reduce the DAG"
    )


def _instances() -> list[tuple[str, SUUInstance]]:
    """One instance per DAG class plus the three paper scenarios.

    The general entry is a *genuinely* general DAG (explicit layers — the
    small-n layered default degenerates to no edges) plus a hand-built
    diamond, so the fallback/raise paths actually fire.
    """
    out = []
    for label, kwargs in [
        ("independent", dict(dag_kind="independent")),
        ("chains", dict(dag_kind="chains", num_chains=3)),
        ("out_tree", dict(dag_kind="out_tree")),
        ("in_tree", dict(dag_kind="in_tree")),
        ("mixed_forest", dict(dag_kind="mixed_forest")),
        ("layered_general", dict(dag_kind="layered", layers=3)),
    ]:
        out.append((label, random_instance(8, 3, rng=11, **kwargs)))
    dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    out.append(
        ("diamond_general",
         SUUInstance(probability_matrix(3, 4, rng=np.random.default_rng(4)), dag))
    )
    out.append(("grid", grid_computing(num_workflows=2, stages=2, fanout=2,
                                       machines=3, rng=np.random.default_rng(21))))
    out.append(("project", project_management(workstreams=2, tasks_per_stream=2,
                                              workers=3,
                                              rng=np.random.default_rng(22))))
    out.append(("greedy_trap", greedy_trap(6, 3)))
    return out


INSTANCES = _instances()
CONFIGS = [(m, False) for m in sorted(_SEED_METHODS)] + [("auto", True)]


def _mc_samples(instance, schedule):
    report = evaluate(
        instance, schedule, mode="mc", reps=40, seed=987, max_steps=5000,
        keep_samples=True,
    )
    return np.asarray(report.samples)


def _assert_same_result(instance, old, new):
    assert new.algorithm == old.algorithm
    assert set(new.certificates) == set(old.certificates)
    for key, val in old.certificates.items():
        got = new.certificates[key]
        if isinstance(val, np.ndarray):
            assert np.array_equal(got, val), key
        else:
            assert got == val, key
    if old.is_oblivious:
        assert new.schedule.to_dict() == old.schedule.to_dict()
    else:
        # Adaptive policies have no table; identical behaviour at a fixed
        # simulation seed is the observable contract.
        assert np.array_equal(
            _mc_samples(instance, new.schedule), _mc_samples(instance, old.schedule)
        )


@pytest.mark.parametrize("label,instance", INSTANCES, ids=[l for l, _ in INSTANCES])
@pytest.mark.parametrize("method,fallback", CONFIGS,
                         ids=[f"{m}{'+fb' if fb else ''}" for m, fb in CONFIGS])
def test_solve_matches_seed_dispatch(label, instance, method, fallback):
    kwargs = dict(method=method, allow_fallback=fallback)
    try:
        old = _seed_solve(instance, rng=np.random.default_rng(7), **kwargs)
    except Exception as exc:  # noqa: BLE001 - re-raised below for comparison
        with pytest.raises(type(exc)) as info:
            solve(instance, rng=np.random.default_rng(7), **kwargs)
        assert str(info.value) == str(exc)
        return
    new = solve(instance, rng=np.random.default_rng(7), **kwargs)
    _assert_same_result(instance, old, new)


def test_unknown_method_message_unchanged():
    # The seed's wording, listing "auto" and every registry name.
    inst = INSTANCES[0][1]
    with pytest.raises(ValueError) as info:
        solve(inst, method="nope")
    assert str(info.value) == (
        f"unknown method 'nope'; expected one of {sorted(['auto', *solver_names()])}"
    )


def test_general_error_message_unchanged():
    general = dict(INSTANCES)["diamond_general"]
    with pytest.raises(UnsupportedDagError) as info:
        solve(general)
    assert str(info.value) == (
        "general precedence DAGs are outside the paper's algorithm classes "
        "(§5 lists them as an open problem); pass allow_fallback=True for "
        "the depth-layered extension (guarantee scales with DAG depth), use "
        "method='layered'/'serial' explicitly, or transitively reduce the DAG"
    )
