"""Tests for repro.core.schedule: the whole schedule hierarchy."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import (
    IDLE,
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    PseudoSchedule,
    Regimen,
    ScheduleError,
    SUUInstance,
    ValidationError,
    evaluate,
)
from repro.core.schedule import validate_assignment
from repro.errors import ExactSolverLimitError


class TestValidateAssignment:
    def test_accepts_valid(self):
        a = validate_assignment(np.array([0, -1, 2]), n=3, m=3)
        assert a.dtype == np.int32

    def test_rejects_shape(self):
        with pytest.raises(ValidationError):
            validate_assignment(np.array([0, 1]), n=3, m=3)

    def test_rejects_below_idle(self):
        with pytest.raises(ValidationError):
            validate_assignment(np.array([-2, 0, 0]), n=3, m=3)

    def test_rejects_job_out_of_range(self):
        with pytest.raises(ValidationError):
            validate_assignment(np.array([3, 0, 0]), n=3, m=3)

    def test_block_of_rows(self):
        a = validate_assignment([[0, -1], [2, 2], [1, 0]], n=3, m=2, rows=3)
        assert a.dtype == np.int32 and a.shape == (3, 2)
        with pytest.raises(ValidationError, match=r"shape \(2, 2\), got \(3, 2\)"):
            validate_assignment(a, n=3, m=2, rows=2)
        with pytest.raises(ValidationError, match="IDLE or a job id"):
            validate_assignment([[0, 0], [0, 3]], n=3, m=2, rows=2)


class TestObliviousSchedule:
    def test_empty_and_idle(self):
        assert ObliviousSchedule.empty(4).length == 0
        idle = ObliviousSchedule.idle(3, 2)
        assert idle.length == 3
        assert np.all(idle.table == IDLE)

    def test_table_read_only(self):
        s = ObliviousSchedule.idle(2, 2)
        with pytest.raises(ValueError):
            s.table[0, 0] = 1

    def test_rejects_garbage_entries(self):
        with pytest.raises(ValidationError):
            ObliviousSchedule(np.array([[-3]]))

    def test_assignment_at_past_end_is_idle(self):
        s = ObliviousSchedule(np.array([[0, 1]]))
        assert np.all(s.assignment_at(5) == IDLE)

    def test_from_machine_sequences(self):
        s = ObliviousSchedule.from_machine_sequences([[0, 0, 1], [2]])
        assert s.length == 3
        assert s.table[0, 1] == 2
        assert s.table[1, 1] == IDLE

    def test_from_machine_sequences_explicit_length(self):
        s = ObliviousSchedule.from_machine_sequences([[0]], length=4)
        assert s.length == 4

    def test_from_machine_sequences_rejects_short_length(self):
        with pytest.raises(ValidationError):
            ObliviousSchedule.from_machine_sequences([[0, 0]], length=1)

    def test_concat(self):
        a = ObliviousSchedule(np.array([[0, 1]]))
        b = ObliviousSchedule(np.array([[1, 0]]))
        c = a + b
        assert c.length == 2
        assert c.table[1, 0] == 1

    def test_concat_rejects_mismatched_machines(self):
        a = ObliviousSchedule(np.array([[0, 1]]))
        b = ObliviousSchedule(np.array([[0]]))
        with pytest.raises(ScheduleError):
            a.concat(b)

    def test_repeat(self):
        s = ObliviousSchedule(np.array([[0, 1], [1, 0]]))
        assert s.repeat(3).length == 6
        assert s.repeat(0).length == 0

    def test_replicate_steps_order(self):
        s = ObliviousSchedule(np.array([[0], [1]]))
        r = s.replicate_steps(2)
        assert r.table[:, 0].tolist() == [0, 0, 1, 1]

    def test_replicate_rejects_zero(self):
        with pytest.raises(ValidationError):
            ObliviousSchedule.empty(1).replicate_steps(0)

    def test_jobs_used_and_loads(self):
        s = ObliviousSchedule(np.array([[0, IDLE], [0, 2]]))
        assert s.jobs_used().tolist() == [0, 2]
        assert s.machine_loads().tolist() == [2, 1]

    def test_relabel_jobs_dict(self):
        s = ObliviousSchedule(np.array([[0, 1], [IDLE, 0]]))
        r = s.relabel_jobs({0: 5, 1: 7})
        assert r.table[0].tolist() == [5, 7]
        assert r.table[1, 0] == IDLE

    def test_relabel_rejects_missing(self):
        s = ObliviousSchedule(np.array([[0, 1]]))
        with pytest.raises(ScheduleError):
            s.relabel_jobs({0: 5})

    def test_masses(self, tiny_independent):
        s = ObliviousSchedule(np.array([[0, 0, 0]]))
        mass = s.masses(tiny_independent, cap=False)
        assert mass[0] == pytest.approx(0.9 + 0.3 + 0.1)

    def test_validate_against(self, tiny_independent):
        s = ObliviousSchedule(np.array([[0, 1, 5]]))
        with pytest.raises(ScheduleError):
            s.validate_against(tiny_independent)

    def test_equality(self):
        a = ObliviousSchedule(np.array([[0]]))
        assert a == ObliviousSchedule(np.array([[0]]))
        assert a != ObliviousSchedule(np.array([[1]]))

    def test_dict_roundtrip(self):
        s = ObliviousSchedule(np.array([[0, IDLE], [1, 1]]))
        assert ObliviousSchedule.from_dict(s.to_dict()) == s


class TestMassPrecedence:
    def test_respects_when_sequenced(self, tiny_chain):
        # machine 0 (p=0.7 for job 0) twice -> mass 1.0 after step 2 for job 0
        table = np.array([[0, 0], [0, 0], [1, 1], [2, 2]])
        s = ObliviousSchedule(table)
        assert s.respects_mass_precedence(tiny_chain, threshold=0.5)

    def test_violation_detected(self, tiny_chain):
        # job 1 scheduled in the very first step, before job 0 has any mass
        table = np.array([[1, 1], [0, 0]])
        s = ObliviousSchedule(table)
        assert not s.respects_mass_precedence(tiny_chain, threshold=0.5)

    def test_trivial_for_independent(self, tiny_independent):
        s = ObliviousSchedule(np.array([[2, 1, 0]]))
        assert s.respects_mass_precedence(tiny_independent, threshold=0.9)


class TestCyclicSchedule:
    def test_prefix_then_cycle(self):
        prefix = ObliviousSchedule(np.array([[0], [1]]))
        cycle = ObliviousSchedule(np.array([[2]]))
        s = CyclicSchedule(prefix, cycle)
        assert s.assignment_at(0)[0] == 0
        assert s.assignment_at(1)[0] == 1
        assert s.assignment_at(2)[0] == 2
        assert s.assignment_at(99)[0] == 2

    def test_cycle_wraps(self):
        s = CyclicSchedule(
            ObliviousSchedule.empty(1), ObliviousSchedule(np.array([[0], [1]]))
        )
        assert [int(s.assignment_at(t)[0]) for t in range(4)] == [0, 1, 0, 1]

    def test_rejects_empty_cycle(self):
        with pytest.raises(ValidationError):
            CyclicSchedule(ObliviousSchedule.empty(1), ObliviousSchedule.empty(1))

    def test_rejects_machine_mismatch(self):
        with pytest.raises(ValidationError):
            CyclicSchedule(
                ObliviousSchedule.empty(2), ObliviousSchedule(np.array([[0]]))
            )

    def test_truncate_inside_prefix(self):
        s = CyclicSchedule(
            ObliviousSchedule(np.array([[0], [1]])), ObliviousSchedule(np.array([[2]]))
        )
        assert s.truncate(1).table[:, 0].tolist() == [0]

    def test_truncate_into_cycle(self):
        s = CyclicSchedule(
            ObliviousSchedule(np.array([[0]])),
            ObliviousSchedule(np.array([[1], [2]])),
        )
        assert s.truncate(4).table[:, 0].tolist() == [0, 1, 2, 1]

    def test_dict_roundtrip(self):
        s = CyclicSchedule(
            ObliviousSchedule(np.array([[0]])), ObliviousSchedule(np.array([[1]]))
        )
        r = CyclicSchedule.from_dict(s.to_dict())
        assert r.prefix == s.prefix and r.cycle == s.cycle

    def test_dict_roundtrip_empty_prefix(self):
        s = CyclicSchedule(
            ObliviousSchedule.empty(2), ObliviousSchedule(np.array([[0, 1]]))
        )
        r = CyclicSchedule.from_dict(s.to_dict())
        assert r.prefix_length == 0 and r.m == 2


class TestAdaptiveAndRegimen:
    def test_policy_validates_rule_output(self, tiny_independent):
        bad = AdaptivePolicy(lambda inst, u, e, t, rng: np.array([9, 9, 9]))
        with pytest.raises(ValidationError):
            bad.assignment_for(
                tiny_independent, frozenset({0}), frozenset({0}), 0, np.random.default_rng(0)
            )

    def test_frontier_policy_answers_one_state(self, tiny_independent):
        calls = []

        def frontier_rule(inst, unfinished, eligible, t):
            calls.append((unfinished.tolist(), eligible.tolist(), t))
            return np.where(eligible, np.arange(inst.n), IDLE)

        policy = AdaptivePolicy(name="diagonal", frontier_rule=frontier_rule)
        a = policy.assignment_for(
            tiny_independent, frozenset({0, 1, 2}), frozenset({0, 2}), 4, np.random.default_rng(0)
        )
        assert a.dtype == np.int32
        assert a.tolist() == [0, IDLE, 2]
        assert calls == [([[True, True, True]], [[True, False, True]], 4)]

    def test_frontier_policy_validates_its_row(self, tiny_independent):
        two_rows = AdaptivePolicy(frontier_rule=lambda inst, u, e, t: np.zeros((2, inst.m)))
        with pytest.raises(ValidationError, match=r"shape \(1, 3\), got \(2, 3\)"):
            two_rows.assignment_for(
                tiny_independent, frozenset({0}), frozenset({0}), 0, np.random.default_rng(0)
            )

    def test_policy_takes_exactly_one_rule(self):
        with pytest.raises(ValidationError, match="exactly one"):
            AdaptivePolicy()
        with pytest.raises(ValidationError, match="exactly one"):
            AdaptivePolicy(lambda *a: None, frontier_rule=lambda *a: None)

    def test_regimen_lookup(self):
        r = Regimen(2, 1, {0b11: np.array([0]), 0b01: np.array([0]), 0b10: np.array([1])})
        assert r.assignment_for_state(0b10)[0] == 1
        assert len(r.states) == 3

    def test_regimen_missing_state(self):
        r = Regimen(2, 1, {0b11: np.array([0])})
        with pytest.raises(ScheduleError):
            r.assignment_for_state(0b01)

    def test_regimen_as_policy(self, tiny_independent):
        full = 0b111
        r = Regimen(3, 3, {full: np.array([0, 1, 2])})
        policy = r.as_policy()
        a = policy.assignment_for(
            tiny_independent,
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2}),
            0,
            np.random.default_rng(0),
        )
        assert a.tolist() == [0, 1, 2]


class TestRegimenRows:
    """``Regimen`` is a sorted int64 ``states`` array and its ``(R, m)`` int32 rows."""

    def test_dict_sugar_sorts_the_rows(self):
        r = Regimen(2, 1, {0b11: np.array([0]), 0b10: np.array([1])})
        assert r.states.dtype == np.int64 and not r.states.flags.writeable
        assert r.rows.dtype == np.int32 and not r.rows.flags.writeable
        assert r.states.tolist() == [0b10, 0b11]
        assert r.rows[:, 0].tolist() == [1, 0]

    def test_from_rows_round_trip(self):
        r = Regimen(2, 2, {s: np.array([0, IDLE]) for s in (3, 1, 2)})
        again = Regimen.from_rows(r.n, r.states[::-1], r.rows[::-1])
        np.testing.assert_array_equal(again.states, r.states)
        np.testing.assert_array_equal(again.rows, r.rows)
        assert (again.n, again.m, again.states.tolist()) == (2, 2, [1, 2, 3])

    @pytest.mark.parametrize("last", [5, 3], ids=["searched", "one-run"])
    def test_rows_at_names_the_first_missing_state_in_the_given_order(self, last):
        # States {1, 2, 3} are one run of consecutive bitmasks, read by
        # offset; {1, 2, 5} are searched.
        r = Regimen(3, 1, {1: np.array([0]), 2: np.array([1]), last: np.array([2])})
        np.testing.assert_array_equal(r.rows_at(np.array([last, 1, 2])), [[2], [0], [1]])
        assert r.assignment_for_state(last).tolist() == [2]
        with pytest.raises(ScheduleError, match="no assignment for state 0x4$"):
            r.rows_at(np.array([2, 4, 3]))
        with pytest.raises(ScheduleError, match="no assignment for state 0x0$"):
            r.rows_at(np.array([1, 0]))
        with pytest.raises(ScheduleError, match="no assignment for state 0x7"):
            r.assignment_for_state(7)
        with pytest.raises(ScheduleError, match="no assignment for state 0x1"):
            Regimen(3, 1, {}).rows_at([1])

    @pytest.mark.parametrize(
        "states, rows",
        [
            (np.array([1, 2, 3]), np.zeros((2, 2), dtype=np.int32)),
            (np.array([[1, 2]]), np.zeros((2, 2), dtype=np.int32)),
            (np.array([1, 2]), np.zeros(2, dtype=np.int32)),
            (np.array([1, 2]), np.zeros((2, 0), dtype=np.int32)),
            (np.array([1, 2]), np.zeros((2, 2))),
            (np.array([1.0, 2.0]), np.zeros((2, 2), dtype=np.int32)),
            (np.array([True, False]), np.zeros((2, 2), dtype=np.int32)),
        ],
        ids=["rows-not-per-state", "2-d-states", "1-d-rows", "no-machines",
             "float-rows", "float-states", "bool-states"],
    )
    def test_from_rows_rejects_a_wrong_shape_or_type(self, states, rows):
        with pytest.raises(ValidationError):
            Regimen.from_rows(2, states, rows)

    def test_dict_sugar_refuses_a_non_integer_state(self):
        # A float key is not read as the state it truncates to.
        with pytest.raises(ValidationError):
            Regimen(2, 1, {3.7: np.array([0])})

    @pytest.mark.parametrize("entry", [2, -2])
    def test_from_rows_rejects_out_of_range_entries(self, entry):
        rows = np.zeros((3, 2), dtype=np.int32)
        rows[2, 1] = entry
        with pytest.raises(ValidationError, match="state 0x3"):
            Regimen.from_rows(2, np.array([1, 2, 3]), rows)

    @pytest.mark.parametrize("state", [-1, 4])
    def test_from_rows_rejects_a_state_outside_the_lattice(self, state):
        with pytest.raises(ValidationError, match="not a subset of 2 jobs"):
            Regimen.from_rows(2, np.array([1, state]), np.zeros((2, 1), dtype=np.int32))

    def test_from_rows_rejects_a_repeated_state(self):
        with pytest.raises(ValidationError, match="state 0x2 has more than one row"):
            Regimen.from_rows(2, np.array([2, 1, 2]), np.zeros((3, 1), dtype=np.int32))

    def test_from_rows_refuses_more_than_62_jobs(self):
        with pytest.raises(ValidationError, match="int64 bitmasks"):
            Regimen.from_rows(63, np.array([1]), np.zeros((1, 1), dtype=np.int32))

    def test_missing_state_fails_the_sparse_solver(self):
        inst = SUUInstance(np.array([[0.5, 0.5]]))
        r = Regimen(2, 1, {0b11: np.array([0]), 0b10: np.array([1])})
        with pytest.raises(ScheduleError, match="no assignment for state 0x1"):
            evaluate(inst, r, mode="exact")

    def test_over_budget_table_is_refused_before_allocation(self):
        # Nothing here is sized 2^n: a regimen on 40 jobs holds its one row,
        # and the exact solver refuses its 2^40-entry DP table before
        # allocating it (reaching the allocation would raise MemoryError).
        r = Regimen(40, 2, {1: np.array([0, 0])})
        assert (r.n, r.m, r.states.tolist()) == (40, 2, [1])
        inst = SUUInstance(np.full((2, 40), 0.5))
        with pytest.raises(ExactSolverLimitError):
            evaluate(inst, r, mode="exact")

    def test_state_round_robin_builds_the_reachable_rows_only(self):
        # Five chains of 22 jobs (m=4) reach 2,100 of the 2^22 sets: the
        # regimen holds those rows and no (2^22, m) table (~200 MB at m=4).
        from repro.algorithms.baselines import state_round_robin_regimen
        from repro.bounds.lower import lower_bounds
        from repro.sim.exact.lattice import state_index
        from repro.workloads import random_instance

        inst = random_instance(22, 4, "chains", rng=1)
        tracemalloc.start()
        try:
            regimen = state_round_robin_regimen(inst, max_states=1 << 22).schedule
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert len(regimen.states) == state_index(inst).states.size - 1
        value = evaluate(inst, regimen, mode="exact").makespan
        assert np.isfinite(value) and value >= lower_bounds(inst).best


def _regimen_routes():
    from repro.sim import build_execution_tree
    from repro.sim.batch import simulate_batch
    from repro.sim.exact import scalar, sparse
    from repro.sim.montecarlo import _estimate_makespan

    return {
        # The front door's routes...
        "auto": lambda inst, r: evaluate(inst, r, reps=5, seed=0),
        "sparse-exact": lambda inst, r: evaluate(inst, r, mode="exact"),
        "scalar-exact": lambda inst, r: evaluate(inst, r, mode="exact", engine="scalar"),
        "batched-mc": lambda inst, r: evaluate(inst, r, mode="mc", reps=5, seed=0),
        "scalar-mc": lambda inst, r: evaluate(
            inst, r, mode="mc", engine="scalar", reps=5, seed=0
        ),
        "execution-tree": lambda inst, r: build_execution_tree(inst, r, depth=3),
        # ...and the engines behind it, entered directly.
        "sparse-engine": lambda inst, r: sparse.expected_makespan_regimen(inst, r),
        "scalar-engine": lambda inst, r: scalar.expected_makespan_regimen(inst, r),
        "batch-engine": lambda inst, r: simulate_batch(inst, r, reps=5, rng=0),
        "mc-estimator": lambda inst, r: _estimate_makespan(
            inst, r, reps=5, rng=0, engine="scalar"
        ),
    }


class TestRegimenOfAnotherSize:
    """Every route refuses a regimen sized for another instance, alike."""

    @pytest.mark.parametrize("route", sorted(_regimen_routes()))
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3)], ids=["n-mismatch", "m-mismatch"])
    def test_every_route_names_both_sizes(self, route, n, m):
        inst = SUUInstance(np.full((2, 3), 0.5))
        full = (1 << n) - 1
        r = Regimen(n, m, {s: np.zeros(m, dtype=np.int32) for s in range(1, full + 1)})
        want = f"regimen is for n={n}, m={m}; the instance has n=3, m=2"
        with pytest.raises(ScheduleError, match=want):
            _regimen_routes()[route](inst, r)


class TestChainBandsAndPseudo:
    @pytest.fixture
    def bands(self):
        # chain 0: job 0 on machine 0 for steps 0-1 and machine 1 for step 0,
        # then job 1 on machine 0 at step 2; chain 1: job 2 on machine 0 for
        # steps 0-1.
        return PseudoSchedule(
            2,
            2,
            job=[0, 0, 0, 1, 2, 2],
            machine=[0, 0, 1, 0, 0, 0],
            step=[0, 1, 0, 2, 0, 1],
            chain=[0, 0, 0, 0, 1, 1],
        )

    def test_length_and_load(self, bands):
        assert bands.length == 3
        # machine 0: 2 + 1 + 2 = 5 units
        assert bands.load() == 5
        assert bands.machine_loads().tolist() == [5, 1]

    def test_with_delays(self, bands):
        shifted = bands.with_delays([1, 0])
        assert shifted.length == 4
        assert shifted.step[shifted.job == 0].min() == 1
        np.testing.assert_array_equal(shifted.step[shifted.chain == 1], [0, 1])

    def test_delay_count_mismatch(self, bands):
        with pytest.raises(ValidationError):
            bands.with_delays([1])

    def test_negative_delay_rejected(self, bands):
        with pytest.raises(ValidationError):
            bands.with_delays([0, -1])

    def test_cells(self, bands):
        # one index per (machine, step): step * m + machine
        assert bands.cells().tolist() == [0, 2, 1, 4, 0, 2]

    def test_with_delays_keeps_loads_and_original(self, bands):
        shifted = bands.with_delays([2, 1])
        np.testing.assert_array_equal(shifted.machine_loads(), bands.machine_loads())
        np.testing.assert_array_equal(shifted.job, bands.job)
        np.testing.assert_array_equal(shifted.step - bands.step, [2, 2, 2, 2, 1, 1])
        assert bands.step.tolist() == [0, 1, 0, 2, 0, 1]

    def test_max_collision(self, bands):
        # step 0, machine 0 carries both job 0 and job 2
        assert set(bands.job[bands.cells() == 0].tolist()) == {0, 2}
        assert bands.max_collision() == 2

    def test_empty(self):
        empty = PseudoSchedule(3, 0, [], [], [], [])
        assert (empty.length, empty.load(), empty.max_collision()) == (0, 0, 0)
        assert empty.machine_loads().tolist() == [0, 0, 0]

    def test_job_masses(self, bands):
        p = np.array([[0.5, 0.2, 0.1], [0.3, 0.1, 0.6]])
        inst = SUUInstance(p)
        mass = bands.job_masses(inst)
        assert mass[0] == pytest.approx(0.5 * 2 + 0.3 * 1)
        assert mass[2] == pytest.approx(0.1 * 2)
