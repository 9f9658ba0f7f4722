"""Dispatch: auto mode provably picks the right engine.

Acceptance criterion of the front-door redesign: ``evaluate()`` auto mode
picks exact for n<=12 regimen/cyclic cases and Monte Carlo above the
state guard, asserted via the engine-provenance fields on the report —
not by trusting the router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance, obs
from repro.algorithms.baselines import (
    greedy_prob_policy,
    random_policy,
    round_robin_baseline,
    serial_baseline,
    state_round_robin_regimen,
)
from repro.algorithms.registry import resolve_solver
from repro.core.schedule import ObliviousSchedule
from repro.errors import ExactSolverLimitError, ScheduleError, ValidationError
from repro.evaluate import (
    EvaluationRequest,
    evaluate,
    exact_state_cost,
    exact_subset_entries,
    select_route,
)
from repro.sim.exact.lattice import DEFAULT_MAX_STATES, SUBSET_TABLE_FACTOR
from repro.workloads import DAG_KINDS, PROB_MODELS, random_instance


def _instance(n, m=3, seed=0):
    rng = np.random.default_rng(seed)
    return SUUInstance(rng.uniform(0.3, 0.9, size=(m, n)))


class TestAutoPicksExact:
    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_regimen_small_n_is_exact(self, n):
        inst = _instance(n)
        regimen = state_round_robin_regimen(inst).schedule
        report = evaluate(inst, regimen, reps=10)
        assert report.mode == "exact"
        assert report.engine == "markov-sparse"
        assert report.std_err == 0.0
        assert report.exact

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_cyclic_small_n_is_exact(self, n):
        inst = _instance(n)
        sched = round_robin_baseline(inst).schedule
        report = evaluate(inst, sched, reps=10)
        assert report.mode == "exact"
        assert report.engine == "markov-sparse"


FAMILIES = [(dag, prob) for dag in DAG_KINDS for prob in PROB_MODELS]


def _exact_route_edge(inst, sched):
    """The exact route's boundary: the larger of the DP table and an eighth
    of the subset tables, as auto prices them.  One below it auto picks
    Monte Carlo and a forced exact solve is refused, naming the same
    count; at it auto picks exact."""
    entries = exact_subset_entries(inst, sched, ("makespan",), None)
    cost = exact_state_cost(inst, sched, ("makespan",), None)
    edge = max(cost, -(-entries // SUBSET_TABLE_FACTOR))
    refused = f"need {entries} subset-table entries" if edge > cost else f"= {cost} states"
    for max_states, mode in [(edge - 1, "mc"), (edge, "exact")]:
        req = EvaluationRequest(reps=5, seed=0, max_states=max_states)
        assert select_route(inst, sched, req).mode == mode, max_states
    with pytest.raises(ExactSolverLimitError, match=refused):
        evaluate(inst, sched, mode="exact", max_states=edge - 1)
    return edge


class TestAutoPicksMonteCarlo:
    def test_cyclic_above_state_guard_is_mc(self):
        # 2^12 x (prefix + cycle) beyond DEFAULT_MAX_STATES: a genuinely
        # wide chain, no max_states override needed.
        inst = _instance(12)
        base = round_robin_baseline(inst).schedule
        prefix_len = (DEFAULT_MAX_STATES >> 12) + 1  # pushes past the guard
        from repro.core.schedule import CyclicSchedule

        wide = CyclicSchedule(base.truncate(prefix_len), base.cycle)
        assert exact_state_cost(inst, wide, ("makespan",), None) > DEFAULT_MAX_STATES
        report = evaluate(inst, wide, reps=5, seed=0, max_steps=50)
        assert report.mode == "mc"
        assert report.engine == "oblivious-lockstep"
        assert "max_states" in report.reason

    def test_max_states_override_flips_to_mc(self):
        inst = _instance(6)
        sched = round_robin_baseline(inst).schedule
        exact = evaluate(inst, sched, reps=5, seed=0)
        assert exact.mode == "exact"
        mc = evaluate(inst, sched, reps=5, seed=0, max_states=8, max_steps=500)
        assert mc.mode == "mc"

    @pytest.mark.parametrize("solver, n", [("round_robin", 17), ("state_round_robin", 18)])
    def test_subset_tables_past_budget_fall_back_to_mc(self, solver, n):
        # The DP table fits max_states, but with 8 machines on independent
        # jobs the sparse engine's subset tables do not: auto must not
        # promise an exact route the engine would refuse.
        inst = random_instance(n, 8, "independent", rng=1)
        sched = resolve_solver(solver).build(inst).schedule
        assert exact_state_cost(inst, sched, ("makespan",), None) <= DEFAULT_MAX_STATES
        entries = exact_subset_entries(inst, sched, ("makespan",), None)
        assert entries > SUBSET_TABLE_FACTOR * DEFAULT_MAX_STATES
        report = evaluate(inst, sched, reps=50, seed=1)
        assert report.mode == "mc"
        assert "subset tables" in report.reason and str(entries) in report.reason
        # The golden engine takes the same route.
        req = EvaluationRequest(reps=50, seed=1, engine="scalar")
        assert select_route(inst, sched, req).mode == "mc"

    def test_forced_exact_still_refuses_past_subset_budget(self):
        inst = random_instance(17, 8, "independent", rng=1)
        sched = round_robin_baseline(inst).schedule
        with pytest.raises(ExactSolverLimitError, match="subset-table entries"):
            evaluate(inst, sched, mode="exact")

    @pytest.mark.parametrize(
        "dag, kind, edge",
        [
            pytest.param("independent", "cyclic", 32805, id="cyclic"),
            pytest.param("independent", "regimen", 6966, id="regimen"),
            # With precedence the engine builds the rows of the reachable
            # states only; priced over all 2^n states, auto sent these to
            # Monte Carlo below 10493, 19938 and 1478.
            pytest.param("in_tree", "cyclic", 10240, id="in_tree-cyclic"),
            pytest.param("layered", "cyclic", 10240, id="layered-cyclic"),
            pytest.param("layered", "regimen", 1401, id="layered-regimen"),
        ],
    )
    def test_auto_prices_subset_tables_like_the_engine_guard(self, dag, kind, edge):
        # At the exact route's boundary, auto picks exact exactly when a
        # forced exact solve is admitted, and that solve finishes.
        inst = random_instance(10, 8, dag, rng=2)
        build = round_robin_baseline if kind == "cyclic" else state_round_robin_regimen
        sched = build(inst).schedule
        assert _exact_route_edge(inst, sched) == edge
        report = evaluate(inst, sched, mode="exact", max_states=edge)
        assert np.isfinite(report.makespan)

    @pytest.mark.parametrize("dag, prob", FAMILIES, ids=[f"{d}/{p}" for d, p in FAMILIES])
    def test_auto_prices_every_family_like_the_engine_guard(self, dag, prob):
        inst = random_instance(10, 8, dag, prob, rng=0)
        for build in (round_robin_baseline, state_round_robin_regimen):
            sched = build(inst).schedule
            edge = _exact_route_edge(inst, sched)
            try:
                report = evaluate(inst, sched, mode="exact", max_states=edge)
            except ScheduleError as err:
                # Admitted by the guards, but state_round_robin ignores p:
                # on the sparse model it can put every machine on jobs it
                # cannot serve.
                assert "makes no progress" in str(err)
                assert (build, prob) == (state_round_robin_regimen, "sparse")
            else:
                assert np.isfinite(report.makespan)

    def test_curve_prices_only_the_positions_it_reads(self):
        # A forward curve reads the first `horizon` positions only.
        inst = random_instance(10, 8, "independent", rng=2)
        sched = round_robin_baseline(inst).schedule
        full = exact_subset_entries(inst, sched, ("makespan",), None)
        one = exact_subset_entries(inst, sched, ("completion_curve",), 1)
        assert 0 < one < full
        both = exact_subset_entries(inst, sched, ("makespan", "completion_curve"), 1)
        assert both == full

    def test_finite_oblivious_is_mc(self, tiny_independent):
        sched = ObliviousSchedule(
            np.tile(np.arange(tiny_independent.n, dtype=np.int32), (20, 1))[
                :, : tiny_independent.m
            ]
        )
        report = evaluate(tiny_independent, sched, reps=5, seed=0)
        assert report.mode == "mc"
        assert report.engine == "oblivious-lockstep"

    def test_deterministic_policy_is_batched(self, tiny_independent):
        pol = greedy_prob_policy(tiny_independent).schedule
        report = evaluate(tiny_independent, pol, reps=5, seed=0)
        assert (report.mode, report.engine) == ("mc", "batched")

    def test_randomized_policy_is_scalar(self, tiny_independent):
        pol = random_policy(tiny_independent).schedule
        report = evaluate(tiny_independent, pol, reps=5, seed=0)
        assert (report.mode, report.engine) == ("mc", "scalar")

    def test_precision_target_forces_mc(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(tiny_independent, sched, reps=40, seed=0, rtol=0.5)
        assert report.mode == "mc"


class TestForcedRoutes:
    def test_engine_scalar_with_exact_mode(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(tiny_independent, sched, mode="exact", engine="scalar")
        assert report.engine == "markov-scalar"

    def test_exact_mode_rejects_adaptive(self, tiny_independent):
        pol = greedy_prob_policy(tiny_independent).schedule
        with pytest.raises(ValidationError, match="no finite Markov chain"):
            evaluate(tiny_independent, pol, mode="exact")

    def test_exact_mode_rejects_finite_oblivious(self, tiny_independent):
        sched = ObliviousSchedule.idle(4, tiny_independent.m)
        with pytest.raises(ValidationError, match="no finite Markov chain"):
            evaluate(tiny_independent, sched, mode="exact")

    def test_exact_curve_rejects_regimen(self, tiny_independent):
        regimen = state_round_robin_regimen(tiny_independent).schedule
        with pytest.raises(ValidationError, match="cyclic"):
            evaluate(
                tiny_independent,
                regimen,
                mode="exact",
                metrics=("completion_curve",),
                horizon=10,
            )

    def test_auto_regimen_with_curve_falls_back_to_mc(self, tiny_independent):
        regimen = state_round_robin_regimen(tiny_independent).schedule
        report = evaluate(
            tiny_independent,
            regimen,
            metrics=("makespan", "completion_curve"),
            horizon=200,
            reps=20,
            seed=0,
        )
        assert report.mode == "mc"
        assert report.completion_curve is not None

    def test_state_distribution_forces_exact_in_auto(self, tiny_independent):
        sched = serial_baseline(tiny_independent).schedule
        report = evaluate(
            tiny_independent, sched, metrics=("state_distribution",), horizon=6
        )
        assert report.mode == "exact"
        assert report.state_distribution.shape == (7, 1 << tiny_independent.n)


class TestExactRouteSpans:
    """A traced exact ``evaluate()`` nests one ``exact.solve`` span per
    metric under ``evaluate`` → ``evaluate.run``, for either engine."""

    @pytest.mark.parametrize("engine, used", [("auto", "sparse"), ("scalar", "scalar")])
    @pytest.mark.parametrize(
        "solver, metrics, ops",
        [
            (state_round_robin_regimen, ("makespan",), ["makespan_regimen"]),
            (round_robin_baseline, ("makespan",), ["makespan_cyclic"]),
            (round_robin_baseline, ("completion_curve",), ["completion_curve"]),
            (round_robin_baseline, ("state_distribution",), ["state_distribution"]),
            (
                round_robin_baseline,
                ("makespan", "completion_curve", "state_distribution"),
                ["makespan_cyclic", "completion_curve", "state_distribution"],
            ),
        ],
    )
    def test_one_solve_span_per_metric(
        self, tiny_independent, engine, used, solver, metrics, ops
    ):
        schedule = solver(tiny_independent).schedule
        horizon = None if metrics == ("makespan",) else 6
        with obs.capture():
            report = evaluate(
                tiny_independent,
                schedule,
                mode="exact",
                engine=engine,
                metrics=metrics,
                horizon=horizon,
            )
        root = report.telemetry["span"]
        assert root["name"] == "evaluate"
        assert (root["attrs"]["mode"], root["attrs"]["engine"]) == ("exact", used)
        (run,) = [c for c in root["children"] if c["name"] == "evaluate.run"]
        assert run["attrs"] == {"mode": "exact", "engine": used}
        n = tiny_independent.n
        assert [(c["name"], c["attrs"]) for c in run["children"]] == [
            ("exact.solve", {"op": op, "engine": used, "n": n}) for op in ops
        ]


class TestStateCost:
    def test_regimen_cost_is_two_to_n(self, tiny_independent):
        regimen = state_round_robin_regimen(tiny_independent).schedule
        assert exact_state_cost(tiny_independent, regimen, ("makespan",), None) == (
            1 << tiny_independent.n
        )

    def test_cyclic_cost_counts_positions(self, tiny_independent):
        sched = round_robin_baseline(tiny_independent).schedule
        width = sched.prefix_length + sched.cycle_length
        assert exact_state_cost(tiny_independent, sched, ("makespan",), None) == (
            1 << tiny_independent.n
        ) * width

    def test_curve_cost_takes_max_with_horizon(self, tiny_independent):
        sched = round_robin_baseline(tiny_independent).schedule
        width = sched.prefix_length + sched.cycle_length
        cost = exact_state_cost(
            tiny_independent, sched, ("makespan", "completion_curve"), 1000
        )
        assert cost == (1 << tiny_independent.n) * max(width, 1001)

    def test_route_is_pure_function_of_request(self, tiny_independent):
        sched = round_robin_baseline(tiny_independent).schedule
        req = EvaluationRequest(reps=7, seed=3)
        assert select_route(tiny_independent, sched, req) == select_route(
            tiny_independent, sched, req
        )


class TestSolverNameSugar:
    """``evaluate(inst, "serial")`` schedules through the registry first."""

    def test_name_matches_explicit_build(self, tiny_independent):
        from repro.algorithms import resolve_solver
        from repro.evaluate import evaluate

        by_name = evaluate(tiny_independent, "serial", mode="exact")
        explicit = evaluate(
            tiny_independent,
            resolve_solver("serial").build(tiny_independent).schedule,
            mode="exact",
        )
        assert by_name.makespan == explicit.makespan
        assert by_name.schedule_kind == explicit.schedule_kind

    def test_rng_solver_is_deterministic_in_the_seed(self, tiny_independent):
        from repro.evaluate import evaluate

        a = evaluate(tiny_independent, "chains", mode="mc", reps=20, seed=3,
                     keep_samples=True)
        b = evaluate(tiny_independent, "chains", mode="mc", reps=20, seed=3,
                     keep_samples=True)
        assert np.array_equal(a.samples, b.samples)

    def test_numpy_integer_seed_matches_python_int(self):
        # The solver stream derives from the seed's value, whatever its
        # integer type; request_hash() already treats the two as equal.
        inst = random_instance(6, 2, dag_kind="chains", rng=0)
        a, b = (
            evaluate(inst, "chains", mode="mc", reps=50, seed=seed, keep_samples=True)
            for seed in (5, np.int64(5))
        )
        assert a.makespan == b.makespan
        assert np.array_equal(a.samples, b.samples)

    def test_unknown_name_raises_registry_error(self, tiny_independent):
        from repro.errors import ExperimentError
        from repro.evaluate import evaluate

        with pytest.raises(ExperimentError, match="unknown solver"):
            evaluate(tiny_independent, "not_a_solver")
