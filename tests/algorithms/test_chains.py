"""Tests for the Theorem 4.4 chains pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, PrecedenceDAG, SUUInstance
from repro.algorithms import PRACTICAL, build_chain_bands, solve_chains
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
        for band in bands.bands:
            end = 0
            for w in band.windows:
                assert w.start == end
                end = w.end

    def test_units_match_integral_solution(self, chains_instance):
        integral = round_acc_mass(chains_instance, solve_lp1(chains_instance))
        bands = build_chain_bands(chains_instance, integral)
        x_back = np.zeros_like(integral.x)
        for band in bands.bands:
            for w in band.windows:
                for i, u in w.machine_units:
                    x_back[i, w.job] = u
        np.testing.assert_array_equal(x_back, integral.x)

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

    def test_shared_frac_solution(self, chains_instance, rng):
        frac = solve_lp1(chains_instance)
        r1 = solve_chains(chains_instance, PRACTICAL, rng=rng, frac=frac)
        assert r1.certificates["lp_value"] == pytest.approx(frac.t)

    def test_single_chain_serializes(self, rng):
        # a single chain across all jobs: the pipeline must still work and
        # produce windows in chain order
        n, m = 8, 3
        p = probability_matrix(m, n, rng=rng)
        inst = SUUInstance(p, PrecedenceDAG.from_chains([list(range(n))], n))
        result = solve_chains(inst, PRACTICAL, rng=rng)
        assert result.finite_core.respects_mass_precedence(inst, 0.5)
