"""Tests for the Theorem 4.4 chains pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import dataclasses

from repro import CyclicSchedule, PrecedenceDAG, SUUInstance, ValidationError
from repro.algorithms import PRACTICAL, build_chain_bands, solve_chains
from repro.errors import RoundingError
from repro.evaluate import evaluate
from repro.lp import solve_lp1
from repro.rounding import round_acc_mass
from repro.workloads import probability_matrix


@pytest.fixture
def chains_instance(rng):
    n, m = 16, 6
    p = probability_matrix(m, n, rng=rng)
    chains = [list(range(k, k + 4)) for k in range(0, n, 4)]
    return SUUInstance(p, PrecedenceDAG.from_chains(chains, n), name="chains16")


class TestChainBands:
    def test_windows_sequential_within_chain(self, chains_instance):
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        bands = build_chain_bands(chains_instance, integral)
        assert bands.num_chains == len(integral.chains)
        for k, chain in enumerate(integral.chains):
            end = 0
            for j in chain:
                steps = bands.step[bands.job == j]
                assert (bands.chain[bands.job == j] == k).all()
                assert steps.min() == end
                end = steps.max() + 1
                assert end - steps.min() == integral.x[:, j].max()

    def test_units_match_integral_solution(self, chains_instance):
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        bands = build_chain_bands(chains_instance, integral)
        x_back = np.zeros_like(integral.x)
        np.add.at(x_back, (bands.machine, bands.job), 1)
        np.testing.assert_array_equal(x_back, integral.x)

    def test_units_in_chain_window_machine_step_order(self, chains_instance):
        # flattening lays out a cell's jobs in unit order, so the layout
        # order is part of the schedule
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        bands = build_chain_bands(chains_instance, integral)
        window = np.empty(chains_instance.n, dtype=np.int64)
        window[[j for chain in integral.chains for j in chain]] = np.arange(
            chains_instance.n
        )
        keys = (bands.step, bands.machine, window[bands.job], bands.chain)
        np.testing.assert_array_equal(np.lexsort(keys), np.arange(bands.job.size))

    def test_job_in_two_chains_rejected(self):
        # the chain partition is checked once, before any band is laid out
        inst = SUUInstance(
            np.full((2, 2), 0.5), PrecedenceDAG.from_chains([[0, 1]], 2)
        )
        with pytest.raises(ValidationError, match="job 0 appears in two chains"):
            solve_lp1(inst, chains=[[0], [0, 1]])

    def test_job_without_units_rejected(self, chains_instance):
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        x = integral.x.copy()
        x[:, 5] = 0
        with pytest.raises(RoundingError, match="job 5 received no machine units"):
            build_chain_bands(chains_instance, dataclasses.replace(integral, x=x))

    def test_load_equals_integral_loads(self, chains_instance):
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        bands = build_chain_bands(chains_instance, integral)
        np.testing.assert_array_equal(
            bands.machine_loads(), integral.machine_loads()
        )


class TestSolveChains:
    def test_end_to_end_certificates(self, chains_instance, rng):
        result = solve_chains(chains_instance, PRACTICAL, rng=rng)
        cert = result.certificates
        assert cert["min_mass"] >= 0.5 - 1e-9
        assert cert["max_collision"] <= max(cert["collision_target"], cert["ssw_bound"])
        assert cert["core_length"] > 0
        assert isinstance(result.schedule, CyclicSchedule)

    def test_core_respects_mass_precedence(self, chains_instance, rng):
        result = solve_chains(chains_instance, PRACTICAL, rng=rng)
        core = result.finite_core
        # Condition (ii) of AccMass-C: successors start only after their
        # predecessor reached the target mass.
        assert core.respects_mass_precedence(
            chains_instance, PRACTICAL.lp_target_mass
        )

    def test_completes_all_jobs(self, chains_instance, rng):
        result = solve_chains(chains_instance, PRACTICAL, rng=rng)
        est = evaluate(
            chains_instance, result.schedule, mode="mc", reps=60, seed=rng, max_steps=200_000
        )
        assert est.truncated == 0

    def test_derandomized_variant(self, chains_instance, rng):
        constants = PRACTICAL.with_(derandomize_delays=True)
        result = solve_chains(chains_instance, constants, rng=rng)
        assert result.certificates["delay_attempts"] == 1
        assert result.certificates["min_mass"] >= 0.5 - 1e-9

    def test_collision_override(self, chains_instance, rng):
        result = solve_chains(
            chains_instance, PRACTICAL, rng=rng, collision_target=1
        )
        # target 1 may not be reachable; the pipeline still returns the
        # best outcome and flattening absorbs the remaining collisions
        assert result.certificates["max_collision"] >= 1

    def test_window_divisor(self, chains_instance, rng):
        result = solve_chains(
            chains_instance, PRACTICAL, rng=rng, window_divisor=4.0
        )
        assert result.certificates["delay_window"] <= (
            result.certificates["pi_max"] // 4 + 1
        )

    def test_independent_jobs_as_singleton_chains(self, medium_independent, rng):
        result = solve_chains(medium_independent, PRACTICAL, rng=rng)
        assert result.certificates["min_mass"] >= 0.5 - 1e-9

    def test_rejects_tree_dag(self, tiny_tree, rng):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            solve_chains(tiny_tree, PRACTICAL, rng=rng)

    def test_single_chain_serializes(self, rng):
        # a single chain across all jobs: the pipeline must still work and
        # produce windows in chain order
        n, m = 8, 3
        p = probability_matrix(m, n, rng=rng)
        inst = SUUInstance(p, PrecedenceDAG.from_chains([list(range(n))], n))
        result = solve_chains(inst, PRACTICAL, rng=rng)
        assert result.finite_core.respects_mass_precedence(inst, 0.5)
