"""Tests for repro.core.schedule: the whole schedule hierarchy."""

from __future__ import annotations

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
from repro.core import schedule as schedule_mod
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


class TestDenseRegimen:
    """``Regimen`` is one dense ``(2^n, m)`` int32 table."""

    def test_dict_sugar_fills_the_table(self):
        r = Regimen(2, 1, {0b11: np.array([0]), 0b10: np.array([1])})
        assert r.table.dtype == np.int32 and not r.table.flags.writeable
        undefined = Regimen.UNDEFINED
        assert r.table[:, 0].tolist() == [undefined, undefined, 1, 0]
        assert r.states == [0b10, 0b11]

    def test_from_table_round_trip(self):
        r = Regimen(2, 2, {s: np.array([0, IDLE]) for s in (1, 2, 3)})
        again = Regimen.from_table(r.table)
        np.testing.assert_array_equal(again.table, r.table)
        assert (again.n, again.m, again.states) == (2, 2, [1, 2, 3])

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((3, 2), dtype=np.int32),
            np.zeros(4, dtype=np.int32),
            np.zeros((0, 2), dtype=np.int32),
            np.zeros((4, 0), dtype=np.int32),
            np.zeros((4, 2)),
        ],
        ids=["rows-not-a-power-of-2", "1-d", "no-rows", "no-machines", "float"],
    )
    def test_from_table_rejects_a_wrong_shape(self, table):
        with pytest.raises(ValidationError):
            Regimen.from_table(table)

    @pytest.mark.parametrize("entry", [2, -3])
    def test_from_table_rejects_out_of_range_entries(self, entry):
        table = np.zeros((4, 2), dtype=np.int32)
        table[3, 1] = entry
        with pytest.raises(ValidationError, match="row 0x3"):
            Regimen.from_table(table)

    def test_from_table_rejects_a_partly_undefined_row(self):
        # UNDEFINED marks a whole row; beside an assignment it is out of range.
        table = np.full((4, 3), Regimen.UNDEFINED, dtype=np.int32)
        table[3] = [0, 1, IDLE]
        table[2, 1] = 1
        with pytest.raises(ValidationError, match="row 0x2"):
            Regimen.from_table(table)
        table[2] = Regimen.UNDEFINED
        assert Regimen.from_table(table).states == [3]

    def test_missing_state_fails_the_sparse_solver(self):
        inst = SUUInstance(np.array([[0.5, 0.5]]))
        r = Regimen(2, 1, {0b11: np.array([0]), 0b10: np.array([1])})
        with pytest.raises(ScheduleError, match="no assignment for state 0x1"):
            evaluate(inst, r, mode="exact")

    def test_over_budget_table_is_refused_before_allocation(self):
        # 2^40 x 2 int32 entries would be 8 TiB: reaching the allocation
        # would raise MemoryError, not the limit error.
        with pytest.raises(ExactSolverLimitError):
            Regimen(40, 2, {1: np.array([0, 0])})

    def test_table_constructor_is_budgeted_too(self, monkeypatch):
        monkeypatch.setattr(schedule_mod, "REGIMEN_MAX_ENTRIES", 4)
        with pytest.raises(ExactSolverLimitError):
            Regimen.from_table(np.zeros((4, 2), dtype=np.int32))


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
