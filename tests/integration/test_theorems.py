"""Statistical validation of the paper's theorems on small instances.

These are the test-suite versions of experiments E1–E13 (the benchmarks run
the full sweeps); each test checks one theorem's statement at small scale
with fixed seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule, PrecedenceDAG, SUUInstance
from repro.algorithms import (
    PRACTICAL,
    serial_baseline,
    solve_chains,
    suu_i_adaptive,
    suu_i_oblivious,
)
from repro.evaluate import evaluate
from repro.lp import solve_lp1
from repro.opt import optimal_expected_makespan, optimal_regimen
from repro.sim import build_execution_tree
from repro.workloads import probability_matrix


class TestTheorem22MassAccumulation:
    """In 2T steps, Pr[mass >= 1/4] >= 1/4, for ANY schedule."""

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_regimen_satisfies_bound(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.2, 0.9, size=(2, 3))
        inst = SUUInstance(p)
        sol = optimal_regimen(inst)
        T = sol.expected_makespan
        depth = int(np.ceil(2 * T))
        for job in range(inst.n):
            tree = build_execution_tree(
                inst, sol.regimen, depth=depth, job=job, max_nodes=500_000
            )
            assert tree.prob_mass_at_least(0.25) >= 0.25 - 1e-9

    def test_adversarial_schedule_still_obeys(self):
        """A schedule that mostly ignores job 0 still satisfies Thm 2.2
        *relative to its own expected makespan*."""
        p = np.array([[0.6, 0.6]])
        inst = SUUInstance(p)
        # cycle: serve job 1 three times, then job 0 once
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(1),
            ObliviousSchedule(np.array([[1], [1], [1], [0]])),
        )
        T = evaluate(inst, cyc, mode="exact").makespan
        depth = int(np.ceil(2 * T))
        tree = build_execution_tree(inst, cyc, depth=depth, job=0, max_nodes=500_000)
        assert tree.prob_mass_at_least(0.25) >= 0.25 - 1e-9


class TestTheorem33AdaptiveRatio:
    """SUU-I-ALG is O(log n)-approximate; check modest constants hold."""

    @pytest.mark.parametrize("seed", range(3))
    def test_ratio_small_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 6
        p = rng.uniform(0.1, 0.9, size=(3, n))
        inst = SUUInstance(p)
        topt = optimal_expected_makespan(inst)
        est = evaluate(
            inst, suu_i_adaptive(inst).schedule, mode="mc", reps=600, seed=rng, max_steps=10_000
        )
        # generous constant: 96e log n would be the paper's; anything near
        # topt confirms the mechanism
        assert est.makespan <= 6 * np.log2(n) * topt


class TestTheorem36ObliviousRatio:
    @pytest.mark.parametrize("seed", range(3))
    def test_oblivious_within_polylog(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 6
        p = rng.uniform(0.15, 0.9, size=(3, n))
        inst = SUUInstance(p)
        topt = optimal_expected_makespan(inst)
        result = suu_i_oblivious(inst, PRACTICAL)
        est = evaluate(inst, result.schedule, mode="mc", reps=300, seed=rng, max_steps=50_000)
        assert est.makespan <= 40 * np.log2(n) ** 2 * topt


class TestLemma42:
    """T* <= 16 TOPT, across DAG shapes and probability models."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_chain_instances(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = probability_matrix(2, 6, rng=rng, model="uniform")
        chains = [[0, 1, 2], [3, 4], [5]]
        inst = SUUInstance(p, PrecedenceDAG.from_chains(chains, 6))
        t_star = solve_lp1(inst).t
        t_opt = optimal_expected_makespan(inst)
        assert t_star <= 16 * t_opt + 1e-6


class TestTheorem44Chains:
    def test_end_to_end_ratio_reasonable(self):
        rng = np.random.default_rng(5)
        n, m = 12, 6
        p = probability_matrix(m, n, rng=rng)
        chains = [list(range(k, k + 3)) for k in range(0, n, 3)]
        inst = SUUInstance(p, PrecedenceDAG.from_chains(chains, n))
        result = solve_chains(inst, PRACTICAL, rng=rng)
        est = evaluate(inst, result.schedule, mode="mc", reps=60, seed=rng, max_steps=300_000)
        # crude sanity: within the polylog envelope with practical constants
        from repro.bounds import lower_bounds

        lb = lower_bounds(inst).best
        envelope = 64 * np.log2(m + 1) * np.log2(n) ** 2
        assert est.makespan <= envelope * lb

    def test_beats_serial_on_wide_instance(self):
        """With many machines and a wide chain structure the pipeline's
        parallelism must beat the serial gang schedule, even with its
        constant factors, once we use lean constants."""
        from repro.algorithms import LEAN

        rng = np.random.default_rng(6)
        n, m = 24, 24
        p = probability_matrix(m, n, rng=rng, lo=0.3, hi=0.9)
        chains = [[j] for j in range(n)]  # width n
        inst = SUUInstance(p, PrecedenceDAG.from_chains(chains, n))
        fast = solve_chains(inst, LEAN, rng=rng)
        slow = serial_baseline(inst)
        e_fast = evaluate(inst, fast.schedule, mode="mc", reps=60, seed=rng, max_steps=100_000)
        e_slow = evaluate(inst, slow.schedule, mode="mc", reps=60, seed=rng, max_steps=100_000)
        assert e_fast.makespan < e_slow.makespan
