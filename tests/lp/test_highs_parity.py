"""``LinearProgram.solve`` against ``scipy.optimize.linprog``, bitwise.

The LP layer calls HiGHS through ``scipy.optimize.milp`` with no
integrality.  ``linprog(method="highs")`` is kept here, in tests only, as
the golden reference (the way ``repro.lp.scalar`` keeps the first LP
builders): fed the same assembled arrays, both must return the same
solved vector and optimum bit for bit.  That is what lets schedules,
certificates and cache keys stay unchanged across the two call paths.
The LPs are every AccMass shape the package solves: (LP1) and (LP2) over
the fuzzer families, the per-block (LP1)s of the Lemma 4.6 forest
pipelines, and the greedy-path-cover (LP1) of ``lp_lower_bound``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.algorithms.constants import PRACTICAL
from repro.bounds.lower import _greedy_path_cover
from repro.core.dag import DagClass
from repro.decomp.chain_decomposition import decompose_forest
from repro.errors import LPError
from repro.lp import LinearProgram, build_lp1, build_lp2
from repro.workloads import DAG_KINDS, PROB_MODELS, random_instance

#: The fuzzer's 42 instance families (DAG kind × probability model), the
#: same set ``test_lp_engines_equiv.py`` sweeps.
FAMILIES = [f"{dag}/{prob}" for dag in DAG_KINDS for prob in PROB_MODELS]


def _linprog(lp: LinearProgram):
    c, A, b, bounds = lp.assemble()
    rows = lp.num_rows > 0
    return linprog(
        c,
        A_ub=A if rows else None,
        b_ub=b if rows else None,
        bounds=bounds,
        method="highs",
    )


def _assert_bitwise_parity(lp: LinearProgram) -> None:
    ref = _linprog(lp)
    assert ref.success, ref.message
    sol = lp.solve()
    assert sol.x.dtype == ref.x.dtype == np.float64
    assert sol.x.tobytes() == ref.x.tobytes(), np.abs(sol.x - ref.x).max()
    assert float(sol.value).hex() == float(ref.fun).hex()


def _instance(family: str, trial: int):
    dag_kind, prob_model = family.split("/")
    rng = np.random.default_rng(
        [trial, DAG_KINDS.index(dag_kind), PROB_MODELS.index(prob_model)]
    )
    n, m = int(rng.integers(3, 13)), int(rng.integers(1, 6))
    return random_instance(n, m, dag_kind, prob_model, rng=rng)


def _lower_bound_chains(instance) -> list[list[int]]:
    """The chain cover ``lp_lower_bound`` builds its (LP1) on."""
    if instance.classify() in (DagClass.INDEPENDENT, DagClass.CHAINS):
        return instance.dag.chains()
    return _greedy_path_cover(instance)


def _block_lp1s(instance) -> list[LinearProgram]:
    """The (LP1) of every Lemma 4.6 block, as the forest pipelines build it."""
    lps = []
    for block in decompose_forest(instance.dag).blocks:
        sub, old_to_new = instance.induced([j for chain in block for j in chain])
        chains = [[old_to_new[j] for j in chain] for chain in block]
        lps.append(build_lp1(sub, chains, target_mass=PRACTICAL.lp_target_mass))
    return lps


@pytest.mark.parametrize("family", FAMILIES)
def test_lp1_and_lp2_match_linprog_on_fuzzer_families(family):
    for trial in range(3):
        instance = _instance(family, trial)
        _assert_bitwise_parity(build_lp2(instance))
        _assert_bitwise_parity(build_lp1(instance, _lower_bound_chains(instance)))


@pytest.mark.parametrize("dag_kind", ["out_tree", "in_tree", "mixed_forest"])
@pytest.mark.parametrize("n, m", [(12, 3), (40, 8)])
def test_forest_block_lp1s_and_lower_bound_match_linprog(dag_kind, n, m):
    for seed in range(2):
        instance = random_instance(n, m, dag_kind, rng=seed)
        blocks = _block_lp1s(instance)
        assert len(blocks) > 1 or n < 40
        for lp in blocks:
            _assert_bitwise_parity(lp)
        _assert_bitwise_parity(build_lp1(instance, _lower_bound_chains(instance)))


def test_chains_lp1_at_pipeline_size_matches_linprog():
    for seed in range(3):
        instance = random_instance(40, 8, "chains", rng=seed)
        _assert_bitwise_parity(build_lp1(instance))


def test_infeasible_fails_on_both_sides():
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, ub=1.0, obj=1.0)
    lp.add_ge({"x": 1.0}, 5.0)
    assert not _linprog(lp).success
    with pytest.raises(LPError):
        lp.solve()


def test_unbounded_fails_on_both_sides():
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, obj=-1.0)
    lp.add_var("y", lb=0.0, obj=1.0)
    lp.add_le({"x": -1.0, "y": 1.0}, 2.0)
    assert not _linprog(lp).success
    with pytest.raises(LPError):
        lp.solve()


def test_assembled_csc_is_canonical():
    """Straight COO→CSC gives the arrays a COO→CSR→CSC round trip gives.

    The builders emit no duplicate ``(row, col)`` entries, so the sorted
    canonical form is unique whatever the triplet order or route.
    """
    instance = random_instance(40, 8, "chains", rng=0)
    _, A, _, _ = build_lp1(instance).assemble()
    assert A.format == "csc" and A.has_canonical_format
    coo = A.tocoo()
    order = np.random.default_rng(0).permutation(coo.nnz)
    via_csr = sparse.csr_array(
        (coo.data[order], (coo.row[order], coo.col[order])), shape=A.shape
    ).tocsc()
    np.testing.assert_array_equal(A.indptr, via_csr.indptr)
    np.testing.assert_array_equal(A.indices, via_csr.indices)
    assert A.data.tobytes() == via_csr.data.tobytes()
