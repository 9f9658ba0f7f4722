"""Tests for repro.experiments.spec and the registries."""

from __future__ import annotations

import pytest

from repro.core.instance import SUUInstance
from repro.core.schedule import ScheduleResult
from repro.errors import ExperimentError
from repro.experiments import (
    GENERATORS,
    ExperimentSpec,
    register_generator,
    resolve_generator,
)
from repro.algorithms import LEAN, PAPER, PRACTICAL, PRESETS, resolve_constants


class TestRegistry:
    def test_builtins_present(self):
        assert {"random", "grid", "project", "greedy_trap"} <= set(GENERATORS)
        assert set(PRESETS) == {"paper", "practical", "lean"}

    def test_unknown_names_raise(self):
        with pytest.raises(ExperimentError):
            resolve_generator("no-such-generator")
        spec = ExperimentSpec(name="x", generator_params={"n": 4, "m": 2},
                              algorithm="no-such-algorithm")
        with pytest.raises(ExperimentError, match="unknown solver 'no-such-algorithm'"):
            spec.build_schedule(spec.build_instance())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register_generator("random")(lambda rng: None)

    def test_resolve_constants(self):
        assert resolve_constants("paper") is PAPER
        assert resolve_constants("practical") is PRACTICAL
        assert resolve_constants("lean") is LEAN
        assert resolve_constants(PRACTICAL) is PRACTICAL
        with pytest.raises(ExperimentError):
            resolve_constants("heroic")


class TestSpecHash:
    def test_name_excluded_from_hash(self):
        a = ExperimentSpec(name="alpha", instance_seed=1)
        b = ExperimentSpec(name="beta", instance_seed=1)
        assert a.spec_hash() == b.spec_hash()

    def test_parameters_change_hash(self):
        base = ExperimentSpec(name="x", instance_seed=1)
        assert base.spec_hash() != ExperimentSpec(name="x", instance_seed=2).spec_hash()
        assert base.spec_hash() != ExperimentSpec(name="x", reps=999).spec_hash()
        assert (
            base.spec_hash()
            != ExperimentSpec(name="x", algorithm_params={"constants": "paper"}).spec_hash()
        )

    def test_hash_stable_under_roundtrip(self):
        spec = ExperimentSpec(
            name="rt",
            generator="random",
            generator_params={"n": 10, "m": 4, "prob_model": "specialist"},
            algorithm="lp",
            algorithm_params={"constants": "lean"},
            compute_reference=True,
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()


class TestBuild:
    def test_build_instance_deterministic(self):
        spec = ExperimentSpec(
            name="det", generator_params={"n": 9, "m": 3}, instance_seed=5
        )
        i1, i2 = spec.build_instance(), spec.build_instance()
        assert isinstance(i1, SUUInstance)
        assert i1 == i2

    def test_build_schedule(self):
        spec = ExperimentSpec(
            name="sched", generator_params={"n": 6, "m": 2}, algorithm="adaptive"
        )
        inst = spec.build_instance()
        result = spec.build_schedule(inst)
        assert isinstance(result, ScheduleResult)
        assert result.algorithm == "suu_i_adaptive"

    def test_bad_generator_return_type(self):
        if "broken-gen" not in GENERATORS:
            register_generator("broken-gen")(lambda rng, **kw: 42)
        spec = ExperimentSpec(name="bad", generator="broken-gen")
        with pytest.raises(ExperimentError):
            spec.build_instance()


class TestEvaluationBlockValidation:
    """The evaluation: block fails at construction, never inside a worker."""

    def test_exact_mode_accepted(self):
        spec = ExperimentSpec(name="ok", evaluation={"mode": "exact", "max_states": 64})
        assert spec.evaluation_mode == "exact"
        req = spec.evaluation_request()
        assert (req.mode, req.engine, req.max_states) == ("exact", "auto", 64)

    def test_bad_exact_engine_rejected_eagerly(self):
        # The block names no engine: the runner's exact route is the
        # sparse solver (the scalar one is evaluate(..., engine="scalar")).
        for engine in ("scalar", "batched"):
            with pytest.raises(ExperimentError, match="unknown evaluation keys"):
                ExperimentSpec(name="bad", evaluation={"mode": "exact", "engine": engine})

    def test_bad_max_states_rejected_eagerly(self):
        with pytest.raises(ExperimentError, match="positive int"):
            ExperimentSpec(name="bad", evaluation={"mode": "exact", "max_states": 0})

    def test_inert_keys_under_mc_mode_rejected(self):
        # max_states is only read on the exact route; silently accepting
        # it would let authors believe they guarded the mc route.
        with pytest.raises(ExperimentError, match="only apply to mode='exact'"):
            ExperimentSpec(name="bad", evaluation={"max_states": 1 << 10})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unknown evaluation keys"):
            ExperimentSpec(name="bad", evaluation={"rtol": 0.1})

    def test_auto_mode_rejected(self):
        with pytest.raises(ExperimentError, match="'auto' is\\s+not allowed"):
            ExperimentSpec(name="bad", evaluation={"mode": "auto"})

    def test_engine_is_not_a_spec_field(self):
        with pytest.raises(TypeError, match="engine"):
            ExperimentSpec(name="x", engine="auto")
