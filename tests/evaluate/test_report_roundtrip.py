"""``EvaluationReport.from_dict``: the wire round-trip contract.

Satellite acceptance, property-tested: for any report ``r`` the wire can
carry, ``EvaluationReport.from_dict(r.to_dict()).to_dict() == r.to_dict()``
— on hypothesis-generated reports and on reports produced by real
``evaluate()`` calls across the exact, MC, and curve routes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PrecedenceDAG, SUUInstance
from repro.algorithms.baselines import round_robin_baseline
from repro.core.schedule import ObliviousSchedule
from repro.errors import ValidationError
from repro.evaluate import EvaluationReport, EvaluationRequest, evaluate

_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
curves = st.one_of(
    st.none(),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12),
)


@st.composite
def reports(draw):
    mode = draw(st.sampled_from(["exact", "mc"]))
    request = None
    if draw(st.booleans()):
        request = EvaluationRequest(
            mode="mc",
            reps=draw(st.integers(1, 10_000)),
            seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        )
    return EvaluationReport(
        mode=mode,
        engine=draw(st.sampled_from(["markov-sparse", "oblivious-lockstep", "scalar"])),
        schedule_kind=draw(st.sampled_from(["oblivious", "cyclic", "regimen"])),
        makespan=draw(st.one_of(st.none(), finite)),
        std_err=draw(st.floats(0.0, 1e6, allow_nan=False, width=32)),
        n_reps=draw(st.integers(0, 10_000)),
        truncated=draw(st.integers(0, 100)),
        min=draw(st.one_of(st.none(), finite)),
        max=draw(st.one_of(st.none(), finite)),
        completion_curve=(
            np.asarray(c, dtype=np.float64)
            if (c := draw(curves)) is not None
            else None
        ),
        state_distribution=(
            np.asarray(d, dtype=np.float64)
            if (d := draw(curves)) is not None
            else None
        ),
        rounds=draw(st.integers(1, 16)),
        precision_met=draw(st.one_of(st.none(), st.booleans())),
        reason=draw(st.text(max_size=40)),
        wall_time_s=draw(st.floats(0.0, 1e4, allow_nan=False, width=32)),
        request=request,
    )


class TestRoundTripProperty:
    @given(reports())
    @_settings
    def test_to_dict_from_dict_is_identity_on_the_wire(self, report):
        wire = report.to_dict()
        assert EvaluationReport.from_dict(wire).to_dict() == wire

    @given(reports())
    @_settings
    def test_json_form_round_trips_too(self, report):
        payload = report.to_json()
        assert EvaluationReport.from_json(payload).to_json() == payload


class TestRealReports:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(23)
        p = rng.uniform(0.3, 0.9, size=(2, 4))
        return SUUInstance(p, PrecedenceDAG(4, [(1, 3)]), name="roundtrip")

    def _assert_round_trips(self, report):
        wire = report.to_dict()
        rebuilt = EvaluationReport.from_dict(wire)
        assert rebuilt.to_dict() == wire
        # Samples never cross the wire; everything else is rebuilt typed.
        assert rebuilt.samples is None
        if report.completion_curve is not None:
            assert rebuilt.completion_curve.dtype == np.float64

    def test_mc_route(self, inst):
        report = evaluate(
            inst,
            round_robin_baseline(inst).schedule,
            request=EvaluationRequest(mode="mc", reps=50, seed=3),
        )
        self._assert_round_trips(report)

    def test_exact_route(self, inst):
        report = evaluate(
            inst,
            round_robin_baseline(inst).schedule,
            request=EvaluationRequest(mode="exact"),
        )
        self._assert_round_trips(report)

    def test_curve_route(self, inst):
        rng = np.random.default_rng(4)
        sched = ObliviousSchedule(
            rng.integers(0, inst.n, size=(25, inst.m)).astype(np.int32)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = evaluate(
                inst,
                sched,
                request=EvaluationRequest(
                    mode="mc",
                    metrics=("completion_curve",),
                    horizon=10,
                    reps=40,
                    seed=5,
                ),
            )
        self._assert_round_trips(report)


class TestRejections:
    def test_unknown_keys_are_refused(self):
        wire = EvaluationReport(mode="mc", engine="scalar", schedule_kind="oblivious").to_dict()
        wire["makespn"] = 3.0  # a typo must not silently vanish
        with pytest.raises(ValidationError, match="unknown keys"):
            EvaluationReport.from_dict(wire)

    def test_generator_seed_repr_is_refused(self):
        report = EvaluationReport(
            mode="mc",
            engine="scalar",
            schedule_kind="oblivious",
            request=EvaluationRequest(mode="mc", seed=np.random.default_rng(0)),
        )
        wire = report.to_dict()
        assert isinstance(wire["request"]["seed"], str)  # repr, provenance only
        with pytest.raises(ValidationError, match="provenance only"):
            EvaluationReport.from_dict(wire)
