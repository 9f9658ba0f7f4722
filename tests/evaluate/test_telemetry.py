"""Telemetry through the front door: spans, counters, report integration.

Satellite acceptance: ``wall_time_s`` covers validation + dispatch (it
bounds the root span, which bounds the sum of its children), the report's
``to_json`` carries the telemetry block, the span tree stays well-formed
when :class:`~repro.errors.ExactSolverLimitError` unwinds mid-evaluate,
and the experiment runner's merged counters are bitwise identical for
``workers=1`` vs ``workers=2`` at the same seed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SUUInstance, obs
from repro.algorithms.baselines import round_robin_baseline, state_round_robin_regimen
from repro.errors import ExactSolverLimitError
from repro.evaluate import evaluate
from repro.experiments import ExperimentSpec, run_experiment
from repro.workloads import random_instance


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def inst():
    rng = np.random.default_rng(3)
    return SUUInstance(rng.uniform(0.3, 0.9, size=(3, 6)), name="telemetry")


@pytest.fixture
def sched(inst):
    return round_robin_baseline(inst).schedule


def _walk(span_dict):
    yield span_dict
    for child in span_dict["children"]:
        yield from _walk(child)


class TestReportTelemetry:
    def test_disabled_by_default(self, inst, sched):
        report = evaluate(inst, sched, mode="exact")
        assert report.telemetry is None
        assert report.wall_time_s > 0

    def test_wall_time_bounds_the_span_tree(self, inst, sched):
        # wall_time_s starts before validation/dispatch, so it must cover
        # the root span, which in turn covers the sum of its children.
        with obs.capture():
            report = evaluate(inst, sched, mode="exact")
        root = report.telemetry["span"]
        assert root["name"] == "evaluate"
        child_s = sum(c["dur_ns"] for c in root["children"]) / 1e9
        assert report.wall_time_s >= root["dur_ns"] / 1e9 >= child_s

    def test_phase_children_present(self, inst, sched):
        with obs.capture():
            report = evaluate(inst, sched, mode="exact")
        names = [c["name"] for c in report.telemetry["span"]["children"]]
        assert names == ["evaluate.validate", "evaluate.dispatch", "evaluate.run"]

    def test_dispatch_span_records_route_decision(self, inst, sched):
        with obs.capture():
            report = evaluate(inst, sched, mode="auto", reps=50, seed=0)
        (dispatch,) = [
            s
            for s in _walk(report.telemetry["span"])
            if s["name"] == "evaluate.dispatch"
        ]
        assert dispatch["attrs"]["mode"] == report.mode
        assert "reason" in dispatch["attrs"]
        assert "exact_state_cost" in dispatch["attrs"]

    def test_counters_flow_into_report_and_json(self, inst, sched):
        with obs.capture():
            report = evaluate(inst, sched, mode="exact")
        counters = report.telemetry["counters"]
        assert counters["exact.states_allocated"] >= 1 << inst.n
        payload = json.loads(report.to_json())
        assert payload["telemetry"]["counters"] == counters
        assert payload["telemetry"]["span"]["name"] == "evaluate"


    def test_exact_solve_records_the_reachable_states(self):
        # Two chains of n = 10 jobs reach far fewer than 2^10 states: the
        # build span and the solved counter report them, the allocated
        # counter the dense table.
        inst = random_instance(10, 3, "chains", num_chains=2, rng=1)
        regimen = state_round_robin_regimen(inst).schedule
        reachable = len(regimen.states) + 1  # and the empty set
        with obs.capture():
            report = evaluate(inst, regimen, mode="exact")
        counters = report.telemetry["counters"]
        assert counters["exact.states_solved"] == reachable
        assert counters["exact.states_allocated"] == 1 << inst.n
        (build,) = [
            s for s in _walk(report.telemetry["span"]) if s["name"] == "exact.lattice.build"
        ]
        assert build["attrs"]["reachable"] == reachable < build["attrs"]["states"]


class TestExceptionWellFormedness:
    def test_limit_error_leaves_a_closed_tree(self, inst, sched):
        from repro.obs.core import _span_stack

        with obs.capture() as tel:
            with pytest.raises(ExactSolverLimitError):
                evaluate(inst, sched, mode="exact", max_states=2)
        # The unwind closed every span it passed through: nothing is left
        # open on this thread, and every captured span has a duration.
        assert _span_stack() == []
        for root in tel.roots:
            for node in _walk(root.to_dict()):
                assert node["dur_ns"] is not None


class TestWorkerCountInvariance:
    # The LP solvers' schedule build emits spans and counters (lp.rows,
    # flow.phases, ...); the build runs once per process, so none of it
    # may reach the trace under any worker count.
    @pytest.mark.parametrize(
        "algorithm, params",
        [
            ("round_robin", {"n": 5, "m": 3, "dag_kind": "independent"}),
            ("lp", {"n": 8, "m": 3, "dag_kind": "independent"}),
            ("chains", {"n": 8, "m": 3, "dag_kind": "chains"}),
        ],
        ids=["round_robin", "lp", "chains"],
    )
    def test_counters_identical_for_one_and_two_workers(self, algorithm, params):
        spec = ExperimentSpec(
            name="telemetry-invariance",
            generator="random",
            generator_params=params,
            instance_seed=11,
            algorithm=algorithm,
            reps=120,
            sim_seed=7,
        )
        results = {}
        counters = {}
        for workers in (1, 2):
            with obs.capture() as tel:
                results[workers] = run_experiment(spec, cache_dir=None, workers=workers)
            counters[workers] = dict(tel.counters)
        # Same shard plan at every worker count → bitwise-equal estimate
        # and integer-equal merged counters.
        assert results[1].mean == results[2].mean
        assert counters[1] == counters[2]
        assert counters[1]["mc.reps"] == spec.reps
        assert counters[1]["parallel.shards"] >= 2
