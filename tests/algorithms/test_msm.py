"""Tests for MSM-ALG / MSM-E-ALG — Theorem 3.2 and Lemma 3.4."""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.msm import (
    MSMExtendedResult,
    MSMGreedy,
    msm_alg,
    msm_e_alg,
    msm_mass_of_assignment,
)
from repro.core.schedule import IDLE, ObliviousSchedule
from repro.errors import ValidationError
from repro.opt import max_sum_mass_opt
from repro.workloads import probability_matrix


class TestMSMAlg:
    def test_each_machine_used_once(self):
        p = probability_matrix(5, 4, rng=0)
        a = msm_alg(p)
        assert a.shape == (5,)
        assert np.all((a >= IDLE) & (a < 4))

    def test_respects_job_subset(self):
        p = probability_matrix(4, 6, rng=1)
        a = msm_alg(p, jobs=[2, 5])
        used = set(int(j) for j in a if j != IDLE)
        assert used <= {2, 5}

    def test_never_exceeds_unit_mass_budget(self):
        p = probability_matrix(8, 3, rng=2)
        a = msm_alg(p)
        load = np.zeros(3)
        for i, j in enumerate(a):
            if j != IDLE:
                load[j] += p[i, j]
        assert np.all(load <= 1.0 + 1e-9)

    def test_greedy_takes_biggest_first(self):
        p = np.array([[0.9, 0.1]])
        assert msm_alg(p)[0] == 0

    def test_skips_when_budget_full(self):
        # machine 1's 0.3 on job 0 would push mass over 1 -> goes idle
        p = np.array([[0.8], [0.3]])
        a = msm_alg(p)
        assert a[0] == 0
        assert a[1] == IDLE

    def test_fills_under_budget(self):
        p = np.array([[0.6], [0.3]])
        a = msm_alg(p)
        assert a.tolist() == [0, 0]

    def test_zero_probabilities_never_assigned(self):
        p = np.array([[0.0, 0.5], [0.4, 0.0]])
        a = msm_alg(p)
        assert a[0] == 1 and a[1] == 0

    def test_deterministic(self):
        p = probability_matrix(6, 6, rng=3)
        assert msm_alg(p).tolist() == msm_alg(p).tolist()

    def test_empty_job_set(self):
        p = probability_matrix(3, 3, rng=4)
        assert np.all(msm_alg(p, jobs=[]) == IDLE)


class TestTheorem32:
    """MSM-ALG is a 1/3-approximation — verified against brute force."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ratio_random(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        p = rng.uniform(0, 1, size=(m, n))
        p[:, 0] = np.maximum(p[:, 0], 0.01)  # keep instance valid-ish
        opt, _ = max_sum_mass_opt(p)
        got = msm_mass_of_assignment(p, msm_alg(p))
        assert got >= opt / 3 - 1e-9

    def test_ratio_adversarial_high_probs(self):
        # all probabilities high: greedy saturates jobs one at a time
        p = np.full((4, 4), 0.95)
        opt, _ = max_sum_mass_opt(p)
        got = msm_mass_of_assignment(p, msm_alg(p))
        assert got >= opt / 3 - 1e-9

    def test_ratio_case_2a_structure(self):
        # machine better at j' than j: charging case 2(a) of the proof
        p = np.array([[0.9, 0.8], [0.15, 0.1]])
        opt, _ = max_sum_mass_opt(p)
        got = msm_mass_of_assignment(p, msm_alg(p))
        assert got >= opt / 3 - 1e-9

    def test_typically_much_better_than_third(self):
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            p = rng.uniform(0, 0.9, size=(3, 3))
            p[0] = np.maximum(p[0], 0.05)
            opt, _ = max_sum_mass_opt(p)
            if opt > 0:
                vals.append(msm_mass_of_assignment(p, msm_alg(p)) / opt)
        assert np.mean(vals) > 0.8


class TestMSMEAlg:
    def test_unit_matrix_shape_and_caps(self):
        p = probability_matrix(4, 6, rng=5)
        res = msm_e_alg(p, t=7)
        assert res.x.shape == (4, 6)
        assert np.all(res.x.sum(axis=1) <= 7)  # machine capacity
        assert res.schedule.length == 7

    def test_mass_accounting_matches_schedule(self):
        p = probability_matrix(4, 5, rng=6)
        res = msm_e_alg(p, t=5)
        inst_mass = np.zeros(5)
        for i in range(4):
            for j in range(5):
                inst_mass[j] += p[i, j] * res.x[i, j]
        np.testing.assert_allclose(res.mass, inst_mass)

    def test_mass_never_overshoots_much(self):
        # the floor() budget keeps each job's mass at most 1 + max p <= 2
        p = probability_matrix(6, 4, rng=7)
        res = msm_e_alg(p, t=50)
        assert np.all(res.mass <= 1.0 + 1e-9)

    def test_length_one_close_to_msm_alg(self):
        # with t=1, MSM-E-ALG solves the same problem as MSM-ALG; allow
        # small differences from the floor-budget rule
        p = probability_matrix(5, 4, rng=8)
        res = msm_e_alg(p, t=1)
        single = msm_mass_of_assignment(p, msm_alg(p))
        assert res.total_capped_mass >= single / 3 - 1e-9

    def test_longer_t_more_mass(self):
        p = probability_matrix(3, 8, rng=9)
        m1 = msm_e_alg(p, t=2).total_capped_mass
        m2 = msm_e_alg(p, t=8).total_capped_mass
        assert m2 >= m1 - 1e-9

    def test_job_subset(self):
        p = probability_matrix(4, 6, rng=10)
        res = msm_e_alg(p, t=4, jobs=[1, 3])
        assert np.all(res.x[:, [0, 2, 4, 5]] == 0)
        used = set(res.schedule.jobs_used().tolist())
        assert used <= {1, 3}

    def test_rejects_bad_t(self):
        p = probability_matrix(2, 2, rng=11)
        with pytest.raises(ValidationError):
            msm_e_alg(p, t=0)

    def test_lemma34_against_lp_upper_bound(self):
        """Lemma 3.4: MSM-E-ALG is within 1/3 of the optimum.

        The fractional assignment LP (machines-capacity t, job mass cap 1)
        upper-bounds the integral optimum, so comparing against it is a
        conservative check.
        """
        from repro.lp.model import LinearProgram

        rng = np.random.default_rng(12)
        for _ in range(5):
            m, n, t = 3, 4, 3
            p = rng.uniform(0.05, 0.9, size=(m, n))
            lp = LinearProgram()
            for i in range(m):
                for j in range(n):
                    lp.add_var(("x", i, j), lb=0.0, obj=-p[i, j])
            for i in range(m):
                lp.add_le({("x", i, j): 1.0 for j in range(n)}, float(t))
            for j in range(n):
                lp.add_le({("x", i, j): p[i, j] for i in range(m)}, 1.0)
            ub = -lp.solve().value
            got = msm_e_alg(p, t=t).total_capped_mass
            assert got >= ub / 3 - 1e-9


# ----------------------------------------------------------------------
# Golden reference: the list-sorting greedy that sorted every call's pairs
# afresh, kept verbatim.  The once-sorted MSMGreedy must reproduce it
# exactly, ties and all.
# ----------------------------------------------------------------------
def _golden_sorted_pairs(p: np.ndarray, jobs: np.ndarray) -> list[tuple[float, int, int]]:
    """Positive (p, i, j) triples over the given job subset, sorted.

    Non-increasing in probability; ties broken by (machine, job) index so
    the greedy is fully deterministic.
    """
    out: list[tuple[float, int, int]] = []
    for j in jobs:
        col = p[:, j]
        for i in np.flatnonzero(col > 0.0):
            out.append((float(col[i]), int(i), int(j)))
    out.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
    return out


def _golden_msm_alg(p: np.ndarray, jobs: np.ndarray | list[int] | None = None) -> np.ndarray:
    m, n = p.shape
    job_arr = np.arange(n) if jobs is None else np.asarray(sorted(jobs), dtype=np.int64)
    f = np.full(m, IDLE, dtype=np.int32)
    load = np.zeros(n, dtype=np.float64)
    for pij, i, j in _golden_sorted_pairs(p, job_arr):
        if f[i] == IDLE and load[j] + pij <= 1.0 + 1e-12:
            f[i] = j
            load[j] += pij
    return f


def _golden_msm_e_alg(
    p: np.ndarray,
    t: int,
    jobs: np.ndarray | list[int] | None = None,
    build_schedule: bool = True,
) -> MSMExtendedResult:
    if t < 1:
        raise ValueError("schedule length t must be >= 1")
    m, n = p.shape
    job_arr = np.arange(n) if jobs is None else np.asarray(sorted(jobs), dtype=np.int64)
    x = np.zeros((m, n), dtype=np.int64)
    capacity = np.full(m, int(t), dtype=np.int64)
    mass = np.zeros(n, dtype=np.float64)
    for pij, i, j in _golden_sorted_pairs(p, job_arr):
        if capacity[i] <= 0:
            continue
        budget = int(math.floor((1.0 - mass[j]) / pij + 1e-12))
        units = min(int(capacity[i]), budget)
        if units <= 0:
            continue
        x[i, j] = units
        capacity[i] -= units
        mass[j] += units * pij

    if not build_schedule:
        return MSMExtendedResult(x=x, t=int(t), schedule=None, mass=mass)
    # Lay out the units: machine i works through its assigned jobs in job
    # order, one unit per step (Algorithm 1's output spec).
    sequences: list[list[int]] = []
    for i in range(m):
        seq: list[int] = []
        for j in job_arr:
            seq.extend([int(j)] * int(x[i, j]))
        sequences.append(seq)
    schedule = ObliviousSchedule.from_machine_sequences(sequences, length=t)
    return MSMExtendedResult(x=x, t=int(t), schedule=schedule, mass=mass)


def _draw_matrix(draw, max_m: int = 9) -> tuple[np.ndarray, np.random.Generator]:
    """A probability matrix, and the generator that drew it.

    ``tied`` rounds to the 0.1 grid, so equal probabilities (the sort's
    tie-breaks), zeros and ones are common; ``mixed`` plants exact zeros
    and ones into continuous values.
    """
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["continuous", "tied", "mixed"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = gen.random((m, n))
    if kind == "tied":
        p = np.round(p, 1)
    elif kind == "mixed":
        p[gen.random((m, n)) < 0.2] = 0.0
        p[gen.random((m, n)) < 0.1] = 1.0
    return p, gen


@st.composite
def _greedy_cases(draw):
    """``(p, jobs)``: a probability matrix and a job subset in some form."""
    p, gen = _draw_matrix(draw)
    n = p.shape[1]
    form = draw(st.sampled_from(["all", "empty", "partial", "unsorted", "frozenset"]))
    if form == "all":
        return p, None
    if form == "empty":
        return p, []
    subset = np.flatnonzero(gen.random(n) < gen.random()).tolist()
    if form == "unsorted":
        gen.shuffle(subset)
    return p, frozenset(subset) if form == "frozenset" else subset


@st.composite
def _frontier_cases(draw):
    """``(p, member)``: a probability matrix and a ``(k, n)`` job mask.

    Each row is full, empty or a random subset; ``k`` is 1 or more.
    """
    p, gen = _draw_matrix(draw)
    n = p.shape[1]
    forms = draw(st.lists(st.sampled_from(["full", "empty", "random"]), min_size=1, max_size=6))
    member = np.zeros((len(forms), n), dtype=bool)
    for row, form in zip(member, forms):
        if form == "full":
            row[:] = True
        elif form == "random":
            row[:] = gen.random(n) < gen.random()
    return p, member


class TestGoldenReference:
    """MSM-ALG / MSM-E-ALG over the once-sorted order == the per-call sort."""

    _settings = settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )

    @_settings
    @given(case=_greedy_cases())
    def test_msm_alg_matches_golden(self, case):
        p, jobs = case
        expected = _golden_msm_alg(p, jobs)
        got = msm_alg(p, jobs)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @_settings
    @given(case=_greedy_cases(), t=st.integers(1, 12))
    def test_msm_e_alg_matches_golden(self, case, t):
        p, jobs = case
        expected = _golden_msm_e_alg(p, t, jobs)
        got = msm_e_alg(p, t, jobs)
        assert np.array_equal(got.x, expected.x)
        assert got.mass.tobytes() == expected.mass.tobytes()
        assert np.array_equal(got.schedule.table, expected.schedule.table)

    @_settings
    @given(case=_frontier_cases())
    def test_assign_rows_matches_assign(self, case):
        p, member = case
        greedy = MSMGreedy(p)
        got = greedy.assign_rows(member.tolist())
        assert got.dtype == np.int32
        assert got.shape == (member.shape[0], p.shape[0])
        for row, mask in zip(got.tolist(), member):
            assert row == greedy.assign(np.flatnonzero(mask).tolist()).tolist()

    def test_assign_rows_of_no_rows(self):
        got = MSMGreedy(np.full((3, 4), 0.5)).assign_rows([])
        assert got.shape == (0, 3) and got.dtype == np.int32

    def test_unit_budget_absorbs_float_rounding(self):
        # 0.56 + 0.34 + 0.1 sums to just above 1.0 in floating point; the
        # budget's slack still lets the third machine join.
        p = np.array([[0.56], [0.34], [0.1]])
        assert msm_alg(p).tolist() == _golden_msm_alg(p).tolist() == [0, 0, 0]

    def test_one_greedy_serves_every_subset(self):
        # A policy holds one MSMGreedy across queries on different subsets.
        p = np.round(np.random.default_rng(5).random((6, 20)), 1)
        greedy = MSMGreedy(p)
        for k in range(20):
            jobs = frozenset(range(k, 20, 3))
            assert greedy.assign(jobs).tolist() == _golden_msm_alg(p, jobs).tolist()
            res = greedy.extend(3, jobs, build_schedule=False)
            assert np.array_equal(res.x, _golden_msm_e_alg(p, 3, jobs).x)

    def test_racing_first_queries_see_the_whole_order(self):
        # Threads race on the lazy sort of a fresh MSMGreedy; each must
        # still walk the complete order.
        p = np.round(np.random.default_rng(9).random((8, 32)), 1)
        subsets = [frozenset(range(k, 32, 1 + k % 4)) for k in range(16)]
        expected = [_golden_msm_alg(p, jobs).tolist() for jobs in subsets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                greedy = MSMGreedy(p)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(
                        pool.map(lambda jobs: greedy.assign(jobs).tolist(), subsets, timeout=30)
                    )
                assert got == expected
        finally:
            sys.setswitchinterval(interval)
