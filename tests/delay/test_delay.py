"""Tests for repro.delay — random delays, derandomization, flattening."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro import PseudoSchedule, SUUInstance
from repro.algorithms import build_chain_bands
from repro.delay import (
    derandomized_delays,
    find_good_delays,
    flatten_pseudo,
    sample_delays,
    ssw_collision_bound,
)
from repro.lp import solve_lp1
from repro.rounding import round_acc_mass
from repro.workloads import random_instance


def colliding_bands(num_chains=6, units=4, m=2):
    """Single-job chains that all start at step 0: max collisions.

    Chain ``k`` holds job ``k``, which runs ``units`` steps on machine
    ``k % m``.
    """
    chain = np.repeat(np.arange(num_chains), units)
    return PseudoSchedule(
        m, num_chains, job=chain, machine=chain % m,
        step=np.tile(np.arange(units), num_chains), chain=chain,
    )


class TestSSWBound:
    def test_reasonable_magnitudes(self):
        assert ssw_collision_bound(10, 5) >= 2
        assert ssw_collision_bound(1000, 100) < 40

    def test_sublinear_growth(self):
        small = ssw_collision_bound(16, 4)
        large = ssw_collision_bound(4096, 4)
        assert large <= small * 4


class TestSampleDelays:
    def test_within_window(self, rng):
        d = sample_delays(100, 7, rng)
        assert all(0 <= x <= 7 for x in d)

    def test_grid(self, rng):
        d = sample_delays(100, 20, rng, grid=5)
        assert all(x % 5 == 0 for x in d)
        assert all(0 <= x <= 20 for x in d)

    def test_zero_window(self, rng):
        assert sample_delays(5, 0, rng) == [0] * 5

    def test_negative_window_rejected(self, rng):
        from repro.errors import ScheduleError

        with pytest.raises(ScheduleError):
            sample_delays(2, -1, rng)


class TestFindGoodDelays:
    def test_reduces_collisions(self, rng):
        bands = colliding_bands(num_chains=8, units=4, m=2)
        before = bands.max_collision()
        outcome = find_good_delays(bands, rng=rng)
        assert outcome.max_collision < before
        assert outcome.max_collision <= outcome.target

    def test_delays_preserve_loads(self, rng):
        bands = colliding_bands()
        outcome = find_good_delays(bands, rng=rng)
        np.testing.assert_array_equal(
            outcome.pseudo.machine_loads(), bands.machine_loads()
        )

    def test_respects_explicit_window(self, rng):
        bands = colliding_bands()
        outcome = find_good_delays(bands, window=3, rng=rng, target=99)
        assert all(d <= 3 for d in outcome.delays)

    def test_zero_chains(self, rng):
        bands = PseudoSchedule(2, 0, [], [], [], [])
        outcome = find_good_delays(bands, rng=rng)
        assert outcome.delays == []
        assert outcome.max_collision == 0

    def test_deterministic_given_seed(self):
        bands = colliding_bands()
        o1 = find_good_delays(bands, rng=5)
        o2 = find_good_delays(bands, rng=5)
        assert o1.delays == o2.delays

    def two_chain_bands(self):
        """Two single-job chains on one machine: delays in {0,1} collide iff equal."""
        return PseudoSchedule(1, 2, job=[0, 1], machine=[0, 0], step=[0, 0], chain=[0, 1])

    def test_second_attempt_draws_fresh_delays(self):
        # Seed 0: first draw is [1, 1] (collision 2 > target), second is
        # [1, 0] (collision 1).  The loop must re-sample from the same rng
        # stream, succeed on attempt 2, and report attempts == 2.
        bands = self.two_chain_bands()
        outcome = find_good_delays(bands, window=1, target=1, rng=0)
        assert outcome.attempts == 2
        assert outcome.max_collision == 1
        assert outcome.delays == [1, 0]
        # The returned delays are exactly the *second* draw of the stream —
        # i.e. attempt 2 did not reuse the stale first sample.
        replay = np.random.default_rng(0)
        sample_delays(2, 1, replay)  # discard attempt 1
        assert outcome.delays == sample_delays(2, 1, replay)

    def test_exhaustion_reports_total_samples_drawn(self):
        # window=0 forces identical zero delays every attempt, so the
        # target is unreachable and the budget is exhausted; `attempts`
        # must report the total number of samples drawn (the budget), not
        # the attempt index at which the best outcome happened to appear.
        bands = self.two_chain_bands()
        outcome = find_good_delays(bands, window=0, target=1, rng=3, max_attempts=7)
        assert outcome.max_collision == 2
        assert outcome.attempts == 7

    def test_first_try_success_reports_one(self):
        bands = self.two_chain_bands()
        # Seed 1's first draw of two delays from {0, 1} must not collide
        # for this test to exercise the first-try path; assert it.
        replay = np.random.default_rng(1)
        first = sample_delays(2, 1, replay)
        assert first[0] != first[1]
        outcome = find_good_delays(bands, window=1, target=1, rng=1)
        assert outcome.attempts == 1
        assert outcome.delays == first


class TestDerandomized:
    def test_beats_or_matches_target(self):
        bands = colliding_bands(num_chains=10, units=3, m=2)
        outcome = derandomized_delays(bands)
        # conditional expectations guarantee <= the randomized expectation;
        # on this workload that is far below the all-collide worst case
        assert outcome.max_collision < 10
        assert outcome.attempts == 1

    def test_comparable_to_randomized(self, rng):
        bands = colliding_bands(num_chains=12, units=3, m=3)
        det = derandomized_delays(bands)
        ran = find_good_delays(bands, rng=rng)
        assert det.max_collision <= 2 * max(1, ran.max_collision)

    def test_deterministic(self):
        bands = colliding_bands(num_chains=7, units=2, m=2)
        assert derandomized_delays(bands).delays == derandomized_delays(bands).delays

    def test_pinned_on_chain_instance(self):
        # The derandomizer sums its potential over each chain's cells in
        # unit order, so the band layout order fixes the chosen delays.
        inst = random_instance(24, 5, dag_kind="chains", rng=3)
        bands = build_chain_bands(inst, round_acc_mass(inst, solve_lp1(inst)))
        outcome = derandomized_delays(bands)
        assert outcome.delays == [306, 0, 0, 54, 100, 136]
        assert (outcome.max_collision, outcome.target) == (1, 12)
        assert flatten_pseudo(outcome.pseudo).length == 400

    def test_grid_respected(self):
        bands = colliding_bands(num_chains=5, units=4, m=2)
        outcome = derandomized_delays(bands, window=8, grid=4)
        assert all(d % 4 == 0 for d in outcome.delays)


class TestFlatten:
    def test_flatten_feasible_noop_length(self):
        pseudo = colliding_bands(num_chains=2, units=2, m=2)
        flat = flatten_pseudo(pseudo)
        assert flat.length == pseudo.length * pseudo.max_collision()

    def test_flatten_one_job_per_machine_step(self):
        bands = colliding_bands(num_chains=6, units=3, m=2)
        flat = flatten_pseudo(bands)
        # feasibility: table is an oblivious schedule by construction
        assert flat.table.ndim == 2

    def test_flatten_preserves_units(self):
        pseudo = colliding_bands(num_chains=5, units=3, m=2)
        flat = flatten_pseudo(pseudo)
        assert (flat.table >= 0).sum() == pseudo.job.size

    def test_flatten_preserves_step_order(self):
        # two jobs of one chain in consecutive steps stay ordered, also when
        # a second chain's job 2 doubles every step
        bands = PseudoSchedule(
            1, 2, job=[0, 1, 2, 2], machine=[0, 0, 0, 0], step=[0, 1, 0, 1],
            chain=[0, 0, 1, 1],
        )
        flat = flatten_pseudo(bands)
        col = flat.table[:, 0].tolist()
        assert col == [0, 2, 1, 2]
        assert col.index(0) < col.index(1)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_lists(self, seed):
        # Reference: append every unit's job to its cell's list in unit
        # order, then lay each list out from the first micro-step.
        inst = random_instance(24, 5, dag_kind="chains", rng=seed)
        bands = build_chain_bands(inst, round_acc_mass(inst, solve_lp1(inst)))
        for pseudo in (bands, find_good_delays(bands, rng=seed).pseudo):
            cells = defaultdict(list)
            for j, i, t in zip(pseudo.job.tolist(), pseudo.machine.tolist(), pseudo.step.tolist()):
                cells[(i, t)].append(j)
            c = max(len(jobs) for jobs in cells.values())
            assert pseudo.max_collision() == c
            loads = [sum(len(v) for (i, _), v in cells.items() if i == k) for k in range(inst.m)]
            assert pseudo.machine_loads().tolist() == loads
            expected = np.full((pseudo.length * c, inst.m), -1)
            for (i, t), jobs in cells.items():
                expected[t * c : t * c + len(jobs), i] = jobs
            np.testing.assert_array_equal(flatten_pseudo(pseudo).table, expected)
            mass = np.zeros(inst.n)
            for j, i in zip(pseudo.job.tolist(), pseudo.machine.tolist()):
                mass[j] += inst.p[i, j]
            np.testing.assert_allclose(pseudo.job_masses(inst), mass, rtol=1e-12)

    def test_mass_preserved_end_to_end(self, rng):
        """Delays + flattening never change any job's total mass."""
        bands = colliding_bands(num_chains=6, units=3, m=3)
        p = rng.uniform(0.1, 0.9, size=(3, 6))
        inst = SUUInstance(p)
        mass_before = bands.job_masses(inst)
        outcome = find_good_delays(bands, rng=rng)
        flat = flatten_pseudo(outcome.pseudo)
        mass_after = flat.masses(inst, cap=False)
        np.testing.assert_allclose(mass_before, mass_after)
