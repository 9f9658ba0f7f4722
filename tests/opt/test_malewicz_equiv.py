"""Vectorized-vs-scalar equivalence of the Malewicz DP.

Property tests over fuzzer-generated instances (every DAG kind crossed
with every probability model, the families ``repro.verify`` draws from)
plus hand-built edge cases.  The vectorized DP (``repro.opt.malewicz``)
and the scalar golden DP (``repro.opt.scalar``) must give the same value
bit for bit, the same regimen table and the same ``states_solved``, and
raise ``ExactSolverLimitError`` on the same cases.  Cut into many chunks,
the vectorized DP must give bit for bit what one chunk per group gives.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.errors import ExactSolverLimitError
from repro.opt import malewicz, scalar
from repro.verify.cases import CaseSpec, build_instance
from repro.workloads import DAG_KINDS, PROB_MODELS

FAMILIES = [f"{dag}/{prob}" for dag in DAG_KINDS for prob in PROB_MODELS]

#: Keeps the scalar DP quick; the widest states of the larger instances
#: exceed it, so both DPs must refuse the same cases.
ASSIGNMENT_LIMIT = 64


def _instance(family: str, trial: int) -> SUUInstance:
    """A deterministic fuzzer-family instance with 3 <= n <= 8, m <= 3."""
    dag_kind = family.partition("/")[0]
    digest = hashlib.sha256(f"opt/{family}#{trial}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:4], "little"))
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 4))
    params = {}
    if dag_kind == "chains":
        params["num_chains"] = int(rng.integers(1, n + 1))
    elif dag_kind == "layered":
        params["layers"] = int(rng.integers(1, n + 1))
    elif dag_kind == "diamond":
        params["width"] = int(rng.integers(1, 4))
    spec = CaseSpec(
        family=family,
        schedule="exact_regimen",
        n=n,
        m=m,
        instance_seed=int(rng.integers(0, 2**31)),
        sim_seed=0,
        params=params,
    )
    return build_instance(spec)


def _solve(dp, instance):
    try:
        return dp(instance, max_assignments_per_state=ASSIGNMENT_LIMIT)
    except ExactSolverLimitError:
        return None


def _assert_same(instance: SUUInstance, label: str) -> None:
    fast = _solve(malewicz.optimal_regimen, instance)
    gold = _solve(scalar.optimal_regimen, instance)
    assert (fast is None) == (gold is None), f"{label}: only one DP hit a limit"
    if gold is None:
        return
    assert fast.expected_makespan == gold.expected_makespan, (
        f"{label}: {fast.expected_makespan!r} vs golden {gold.expected_makespan!r}"
    )
    np.testing.assert_array_equal(fast.regimen.states, gold.regimen.states, err_msg=label)
    np.testing.assert_array_equal(fast.regimen.rows, gold.regimen.rows, err_msg=label)
    assert fast.states_solved == gold.states_solved, label


@pytest.mark.parametrize("family", FAMILIES)
def test_vectorized_dp_matches_scalar_on_fuzzer_families(family):
    for trial in range(2):
        _assert_same(_instance(family, trial), f"{family} trial {trial}")


EDGE_CASES = {
    # Every job certain: many assignments tie exactly; the first must win.
    "certain": SUUInstance(np.ones((2, 3))),
    # Identical machines: permuted assignments tie exactly.
    "identical-machines": SUUInstance(np.tile([0.3, 0.6, 0.45, 0.8], (3, 1))),
    # Zeros: a machine on a job it cannot serve adds nothing.
    "zeros": SUUInstance(
        np.array([[0.5, 0.0, 0.7], [0.0, 0.4, 0.2]]), PrecedenceDAG(3, [(0, 2)])
    ),
    # 1 - 1e-17 rounds to 1: no assignment progresses on job 0.
    "stuck": SUUInstance(np.array([[1e-17, 0.5]])),
    # Six eligible jobs on three machines: 216 assignments, over the limit.
    "over-limit": SUUInstance(np.full((3, 6), 0.5)),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_vectorized_dp_matches_scalar_on_edge_cases(name):
    _assert_same(EDGE_CASES[name], name)


def test_chunked_run_is_bit_identical(monkeypatch):
    """Under a tiny entry budget the DP runs in many chunks, none over the
    budget, and gives bit for bit what one chunk per group gives."""
    chunks = []
    real = malewicz._signature_values

    def recorded(p, states, jobs, bitval, sig, slot_of, slot_rank, expect):
        chunks.append(states.size * sig.shape[0] << slot_rank.shape[1])
        return real(p, states, jobs, bitval, sig, slot_of, slot_rank, expect)

    monkeypatch.setattr(malewicz, "_signature_values", recorded)
    p = np.random.default_rng(5).uniform(0.1, 0.9, size=(3, 6))
    instance = SUUInstance(p, PrecedenceDAG(6, [(0, 3), (1, 4)]))
    whole = malewicz.optimal_regimen(instance)
    groups = len(chunks)
    chunks.clear()
    monkeypatch.setattr(malewicz, "CHUNK_ENTRIES", 40)
    split = malewicz.optimal_regimen(instance)
    assert len(chunks) > 4 * groups and max(chunks) <= 40
    assert split.expected_makespan == whole.expected_makespan
    np.testing.assert_array_equal(split.regimen.states, whole.regimen.states)
    np.testing.assert_array_equal(split.regimen.rows, whole.regimen.rows)
