"""Tests for repro.verify.cases — spec round-trips and deterministic builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.verify import INSTANCE_FAMILIES, SCHEDULE_FAMILIES, CaseSpec, sample_case
from repro.verify.cases import SCENARIO_FAMILIES, build_case, build_instance
from repro.workloads import DAG_KINDS, PROB_MODELS, random_instance


class TestFamilyRegistry:
    def test_covers_every_dag_kind_and_prob_model(self):
        # The fuzzer's coverage promise: every random_instance dag kind ×
        # probability model, including diamond and heterogeneous.
        for dag in DAG_KINDS:
            for prob in PROB_MODELS:
                assert f"{dag}/{prob}" in INSTANCE_FAMILIES
        assert "diamond/heterogeneous" in INSTANCE_FAMILIES
        for scenario in SCENARIO_FAMILIES:
            assert scenario in INSTANCE_FAMILIES

    def test_every_listed_kind_and_model_builds(self):
        # The fuzzer reads the generators' own tuples: every pair they
        # list must build, and a name they do not list is refused.
        for dag in DAG_KINDS:
            for prob in PROB_MODELS:
                inst = random_instance(4, 2, dag_kind=dag, prob_model=prob, rng=0)
                assert (inst.n, inst.m) == (4, 2)
        with pytest.raises(ValidationError, match="unknown dag_kind"):
            random_instance(4, 2, dag_kind="star", rng=0)
        with pytest.raises(ValidationError, match="unknown probability model"):
            random_instance(4, 2, prob_model="bimodal", rng=0)


class TestCaseSpec:
    def test_json_round_trip(self):
        spec = CaseSpec(
            family="diamond/heterogeneous",
            schedule="greedy",
            n=7,
            m=3,
            instance_seed=123,
            sim_seed=456,
            coarse=2,
            max_steps=17,
            params={"width": 2, "jitter": True},
        )
        assert CaseSpec.from_dict(spec.to_dict()) == spec

    def test_describe_mentions_sizes(self):
        spec = CaseSpec("grid", "serial", 6, 2, 1, 2)
        text = spec.describe()
        assert "grid" in text and "n=6" in text and "m=2" in text


class TestBuildDeterminism:
    @pytest.mark.parametrize("schedule", ["serial", "round_robin", "greedy"])
    def test_same_spec_same_instance(self, schedule):
        spec = CaseSpec(
            family="chains/sparse",
            schedule=schedule,
            n=6,
            m=3,
            instance_seed=99,
            sim_seed=1,
            params={"num_chains": 2},
        )
        a, _ = build_case(spec)
        b, _ = build_case(spec)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.dag.edges == b.dag.edges

    def test_coarse_quantizes_but_keeps_support(self):
        spec = CaseSpec("independent/sparse", "serial", 8, 3, 5, 6)
        fine = build_instance(spec)
        coarse = build_instance(spec.with_(coarse=1))
        # Same sparsity pattern, probabilities snapped to the 1/2 grid.
        np.testing.assert_array_equal(fine.p > 0, coarse.p > 0)
        grid_multiples = coarse.p[coarse.p > 0] / 0.5
        np.testing.assert_allclose(grid_multiples, np.round(grid_multiples))

    def test_every_schedule_family_builds(self):
        for schedule in SCHEDULE_FAMILIES:
            spec = CaseSpec(
                family="independent/uniform",
                schedule=schedule,
                n=3,
                m=2,
                instance_seed=4,
                sim_seed=5,
            )
            instance, sched = build_case(spec)
            assert sched is not None
            assert instance.n == 3


class TestSampleCase:
    def test_deterministic_stream(self):
        a = [sample_case(np.random.default_rng(7)) for _ in range(5)]
        b = [sample_case(np.random.default_rng(7)) for _ in range(5)]
        assert a == b

    def test_respects_size_caps(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            spec = sample_case(rng, max_jobs=9, max_machines=3, exact_opt_jobs=3)
            assert 1 <= spec.m <= 3
            if spec.schedule == "exact_regimen":
                assert spec.n <= 3
            if spec.family not in ("grid", "project"):
                assert spec.n <= 9

    def test_eventually_draws_tight_budgets_and_all_schedules(self):
        rng = np.random.default_rng(1)
        specs = [sample_case(rng) for _ in range(400)]
        assert any(s.max_steps for s in specs)
        assert {s.schedule for s in specs} == set(SCHEDULE_FAMILIES)
        # Scenario families show up too, not just the random cross product.
        assert any(s.family in SCENARIO_FAMILIES for s in specs)


class TestRegistryDrivenPool:
    """Satellite acceptance: the fuzzer draws schedules from the solver
    registry by capability, not from a hard-coded list."""

    def test_pool_is_the_capability_query(self):
        from repro.algorithms.registry import ALL_CLASSES, SOLVERS

        expected = sorted(
            name
            for name, s in SOLVERS.items()
            if s.cost == "cheap"
            and s.max_jobs is None
            and s.max_machines is None
            and s.dag_classes == ALL_CLASSES
        )
        assert list(SCHEDULE_FAMILIES[:-2]) == expected
        assert SCHEDULE_FAMILIES[-2:] == ("finite_round_robin", "exact_regimen")

    def test_online_greedy_is_fuzzed(self):
        assert "online_greedy" in SCHEDULE_FAMILIES

    def test_any_registered_solver_name_builds(self):
        # Corpus specs may name registry solvers outside the default
        # pool; build_schedule routes them through the registry too.
        spec = CaseSpec("independent/uniform", "lp", 4, 2, 3, 4)
        _, sched = build_case(spec)
        assert sched is not None

    def test_unknown_family_still_rejected(self):
        from repro.errors import ValidationError

        spec = CaseSpec("independent/uniform", "not_a_solver", 3, 2, 1, 2)
        with pytest.raises(ValidationError, match="unknown schedule family"):
            build_case(spec)

    def test_broken_solver_is_caught(self, monkeypatch):
        # Kill-test: if a registered solver starts crashing, the fuzzer
        # must report it as a build discrepancy, not silently skip it.
        import dataclasses

        from repro.algorithms.registry import SOLVERS
        from repro.errors import ValidationError
        from repro.verify.oracles import CheckConfig, check_case

        def broken(instance, **kwargs):
            raise ValidationError("deliberately broken solver")

        monkeypatch.setitem(
            SOLVERS, "greedy", dataclasses.replace(SOLVERS["greedy"], fn=broken)
        )
        spec = CaseSpec("independent/uniform", "greedy", 3, 2, 1, 2)
        found = check_case(spec, CheckConfig(reps=10))
        assert any(
            d.check == "build" and "deliberately broken solver" in d.message
            for d in found
        )
