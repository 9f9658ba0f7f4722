"""Tests for the ratio measurement harness."""

from __future__ import annotations

import pytest

from repro.algorithms import serial_baseline, suu_i_adaptive
from repro.algorithms.msm import msm_alg, msm_mass_of_assignment
from repro.analysis import compare_algorithms, measure_ratio, reference_makespan
from repro.bounds.lower import LEMMA42_FACTOR, _lp_chains, lp_lower_bound
from repro.lp.scalar import solve_lp1_scalar
from repro.opt.bruteforce import max_sum_mass_opt
from repro.opt.malewicz import optimal_expected_makespan
from repro.verify.cases import CaseSpec, build_instance


class TestReferenceMakespan:
    def test_exact_on_tiny(self, tiny_independent):
        value, kind = reference_makespan(tiny_independent)
        assert kind == "exact"
        assert value > 1.0

    def test_lower_bound_on_larger(self, medium_independent):
        value, kind = reference_makespan(medium_independent, exact_limit=5)
        assert kind == "lower_bound"
        assert value > 0


class TestMeasureRatio:
    def test_record_fields(self, tiny_independent, rng):
        result = suu_i_adaptive(tiny_independent)
        rec = measure_ratio(tiny_independent, result, reps=100, rng=rng, max_steps=5000)
        assert rec.ratio == pytest.approx(rec.mean_makespan / rec.reference)
        assert rec.n == 3 and rec.m == 3
        assert rec.reference_kind == "exact"
        assert rec.truncated == 0

    def test_as_dict(self, tiny_independent, rng):
        result = serial_baseline(tiny_independent)
        rec = measure_ratio(tiny_independent, result, reps=50, rng=rng, max_steps=5000)
        d = rec.as_dict()
        assert d["algorithm"] == "serial_baseline"
        assert "ratio" in d

    def test_ratio_at_least_one_for_exact_reference(self, tiny_independent, rng):
        result = serial_baseline(tiny_independent)
        rec = measure_ratio(tiny_independent, result, reps=600, rng=rng, max_steps=5000)
        # serial is suboptimal here, so mean/TOPT must exceed ~1
        assert rec.ratio > 0.9


class TestScenarioGuarantees:
    """Paper guarantees on the named scenario workloads, routed through
    the second-generation LP layer: Theorem 3.2's MSM-ALG 1/3 bound and
    the Lemma 4.2 lower-bound sandwich ``T*/16 ≤ T^OPT ≤ E[schedule]``,
    with the golden (LP1) builder agreeing on every bound along the way."""

    @staticmethod
    def _scenario(family: str):
        spec = CaseSpec(
            family=family, schedule="serial", n=6, m=3, instance_seed=11, sim_seed=0
        )
        return build_instance(spec)

    @pytest.mark.parametrize("family", ["grid", "project", "greedy_trap"])
    def test_msm_alg_third_guarantee(self, family):
        instance = self._scenario(family)
        opt_mass, _ = max_sum_mass_opt(instance.p, max_enumeration=300_000)
        greedy = msm_mass_of_assignment(instance.p, msm_alg(instance.p))
        assert opt_mass / 3.0 - 1e-9 <= greedy <= opt_mass + 1e-9

    @pytest.mark.parametrize("family", ["grid", "project", "greedy_trap"])
    def test_lp_lower_bound_sandwich(self, family, rng):
        instance = self._scenario(family)
        # The same greedy path cover through the golden (LP1): the only
        # golden check of (LP1) on the cover of a non-chain DAG.
        golden = solve_lp1_scalar(instance, chains=_lp_chains(instance))
        bounds = {
            "vector": lp_lower_bound(instance),
            "scalar": golden.t / LEMMA42_FACTOR,
        }
        assert bounds["vector"] == pytest.approx(bounds["scalar"], abs=1e-9)
        topt = optimal_expected_makespan(instance, max_states=1 << 12)
        assert bounds["vector"] <= topt + 1e-9
        rec = measure_ratio(
            instance, serial_baseline(instance), reps=300, rng=rng, max_steps=20_000
        )
        assert rec.reference_kind == "exact"
        assert rec.mean_makespan + 5 * rec.std_err >= bounds["vector"]
        assert rec.mean_makespan + 5 * rec.std_err >= topt


class TestCompareAlgorithms:
    def test_shared_reference(self, tiny_independent, rng):
        results = {
            "adaptive": suu_i_adaptive(tiny_independent),
            "serial": serial_baseline(tiny_independent),
        }
        records = compare_algorithms(
            tiny_independent, results, reps=100, rng=rng, max_steps=5000
        )
        assert len(records) == 2
        refs = {rec.reference for rec in records}
        assert len(refs) == 1
        names = {rec.algorithm for rec in records}
        assert names == {"adaptive", "serial"}
