"""Tests for the exact Markov route — subset-lattice expectations.

Solver tests are parametrized over both exact engines: the vectorized
sparse sweep (``engine="auto"``) and the retained scalar golden reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CyclicSchedule,
    ObliviousSchedule,
    PrecedenceDAG,
    Regimen,
    ScheduleError,
    SUUInstance,
)
from repro.errors import ExactSolverLimitError
from repro.evaluate import evaluate
from repro.sim.exact.scalar import eligible_bitmask, transition_distribution


# Test ids name the exact engine that runs.
@pytest.fixture(params=["auto", "scalar"], ids=["sparse", "scalar"])
def engine(request):
    return request.param


def exact_makespan(instance, schedule, engine, **kwargs) -> float:
    return evaluate(instance, schedule, mode="exact", engine=engine, **kwargs).makespan


def exact_state_distribution(instance, schedule, horizon, engine, **kwargs):
    return evaluate(
        instance,
        schedule,
        metrics="state_distribution",
        horizon=horizon,
        engine=engine,
        **kwargs,
    ).state_distribution


class TestEligibleBitmask:
    def test_independent_all_eligible(self, tiny_independent):
        assert eligible_bitmask(tiny_independent, 0b111) == 0b111

    def test_chain(self, tiny_chain):
        assert eligible_bitmask(tiny_chain, 0b111) == 0b001
        assert eligible_bitmask(tiny_chain, 0b110) == 0b010
        assert eligible_bitmask(tiny_chain, 0b100) == 0b100

    def test_empty_state(self, tiny_chain):
        assert eligible_bitmask(tiny_chain, 0) == 0


class TestTransitionDistribution:
    def test_probabilities_sum_to_one(self, tiny_independent):
        a = np.array([0, 1, 2])
        dist = transition_distribution(tiny_independent, 0b111, a)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_single_job_bernoulli(self):
        inst = SUUInstance(np.array([[0.3]]))
        dist = transition_distribution(inst, 0b1, np.array([0]))
        assert dist[0b0] == pytest.approx(0.3)
        assert dist[0b1] == pytest.approx(0.7)

    def test_ineligible_jobs_do_not_transition(self, tiny_chain):
        a = np.array([1, 1])  # both machines on ineligible job 1
        dist = transition_distribution(tiny_chain, 0b111, a)
        assert dist == {0b111: pytest.approx(1.0)}

    def test_multiple_machines_aggregate(self):
        inst = SUUInstance(np.array([[0.5], [0.5]]))
        dist = transition_distribution(inst, 0b1, np.array([0, 0]))
        assert dist[0b0] == pytest.approx(0.75)

    def test_independent_product_structure(self, tiny_independent):
        a = np.array([0, 1, -1])
        dist = transition_distribution(tiny_independent, 0b011, a)
        p0 = 0.9
        p1 = 0.8
        assert dist[0b00] == pytest.approx(p0 * p1)
        assert dist[0b01] == pytest.approx((1 - p0) * p1)
        assert dist[0b10] == pytest.approx(p0 * (1 - p1))
        assert dist[0b11] == pytest.approx((1 - p0) * (1 - p1))


class TestRegimenExpectation:
    def test_single_job_geometric(self, engine):
        inst = SUUInstance(np.array([[0.25]]))
        r = Regimen(1, 1, {0b1: np.array([0])})
        assert exact_makespan(inst, r, engine=engine) == pytest.approx(4.0)

    def test_two_parallel_certain(self, engine):
        inst = SUUInstance(np.ones((2, 2)))
        r = Regimen(
            2,
            2,
            {
                0b11: np.array([0, 1]),
                0b01: np.array([0, 0]),
                0b10: np.array([1, 1]),
            },
        )
        assert exact_makespan(inst, r, engine=engine) == pytest.approx(1.0)

    def test_max_of_two_geometrics(self, engine):
        # two jobs, each its own machine with p; E[max of two Geom(p)]
        p = 0.5
        inst = SUUInstance(np.array([[p, 0.0], [0.0, p]]))
        r = Regimen(
            2,
            2,
            {
                0b11: np.array([0, 1]),
                0b01: np.array([0, 1]),
                0b10: np.array([0, 1]),
            },
        )
        # E[max] = 2/p - 1/(1-(1-p)^2)  (inclusion–exclusion of geometrics)
        expected = 2 / p - 1 / (1 - (1 - p) ** 2)
        assert exact_makespan(inst, r, engine=engine) == pytest.approx(
            expected
        )

    def test_no_progress_raises(self, engine):
        inst = SUUInstance(np.array([[0.5, 0.0], [0.5, 0.8]]))
        # regimen assigns machines to job 0 even in state {1} where only
        # machine 1 can serve job 1 -> from state 0b10 nothing happens
        r = Regimen(
            2,
            2,
            {
                0b11: np.array([0, 0]),
                0b01: np.array([0, 0]),
                0b10: np.array([0, 0]),
            },
        )
        with pytest.raises(ScheduleError):
            exact_makespan(inst, r, engine=engine)

    def test_size_guard(self, engine):
        inst = SUUInstance(np.ones((1, 20)))
        r = Regimen(20, 1, {})
        with pytest.raises(ExactSolverLimitError):
            exact_makespan(inst, r, max_states=1 << 10, engine=engine)


class TestCyclicExpectation:
    def test_single_job_every_step(self, engine):
        inst = SUUInstance(np.array([[0.25]]))
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(1), ObliviousSchedule(np.array([[0]]))
        )
        assert exact_makespan(inst, cyc, engine=engine) == pytest.approx(4.0)

    def test_job_served_every_other_step(self, engine):
        # cycle [job0, idle]: success prob p per 2 steps; E = sum over k of
        # (2k+1) p (1-p)^k = (2/p) - 1
        p = 0.5
        inst = SUUInstance(np.array([[p]]))
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(1),
            ObliviousSchedule(np.array([[0], [-1]])),
        )
        assert exact_makespan(inst, cyc, engine=engine) == pytest.approx(
            2 / p - 1
        )

    def test_prefix_used_once(self, engine):
        # prefix serves the job with p=1, so E = 1 regardless of the cycle
        inst = SUUInstance(np.array([[1.0]]))
        cyc = CyclicSchedule(
            ObliviousSchedule(np.array([[0]])),
            ObliviousSchedule(np.array([[-1]])),
        )
        assert exact_makespan(inst, cyc, engine=engine) == pytest.approx(1.0)

    def test_dead_cycle_raises(self, engine):
        inst = SUUInstance(np.array([[0.5]]))
        cyc = CyclicSchedule(
            ObliviousSchedule(np.array([[0]])),
            ObliviousSchedule(np.array([[-1]])),  # idle forever after prefix
        )
        with pytest.raises(ScheduleError):
            exact_makespan(inst, cyc, engine=engine)

    def test_chain_with_certain_probs(self, engine):
        dag = PrecedenceDAG(2, [(0, 1)])
        inst = SUUInstance(np.ones((1, 2)), dag)
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(1),
            ObliviousSchedule(np.array([[0], [1]])),
        )
        assert exact_makespan(inst, cyc, engine=engine) == pytest.approx(2.0)

    def test_matches_regimen_when_cycle_is_constant(self, tiny_independent, engine):
        # a constant cyclic schedule is the oblivious regimen
        a = np.array([0, 1, 2])
        cyc = CyclicSchedule(
            ObliviousSchedule.empty(3), ObliviousSchedule(a[None, :])
        )
        states = {s: a for s in range(1, 8)}
        reg = Regimen(3, 3, states)
        assert exact_makespan(
            tiny_independent, cyc, engine=engine
        ) == pytest.approx(
            exact_makespan(tiny_independent, reg, engine=engine)
        )


class TestAllocationGuard:
    """The ``max_states`` guard covers the *full* DP allocation.

    Regression for the pre-fix guard, which only checked ``2^n`` and let a
    long cycle or horizon blow past the limit while "passing": the cyclic
    chain's true states are ``(S, τ)`` pairs, so a 2^10-subset instance
    with an 8-position cycle needs 8192 entries, not 1024.
    """

    @staticmethod
    def _round_robin(n: int, length: int) -> CyclicSchedule:
        table = (np.arange(length, dtype=np.int32) % n)[:, None]
        return CyclicSchedule(ObliviousSchedule.empty(1), ObliviousSchedule(table))

    def test_cyclic_guard_counts_positions(self, engine):
        inst = SUUInstance(np.full((1, 10), 0.5))
        cyc = self._round_robin(10, 8)
        assert (1 << 10) <= (1 << 12)  # the old subset-only guard would pass
        with pytest.raises(ExactSolverLimitError) as excinfo:
            exact_makespan(inst, cyc, max_states=1 << 12, engine=engine)
        # the error names the real state count, 2^10 x 8
        assert "8192" in str(excinfo.value)

    def test_cyclic_at_exactly_the_budget_solves(self, engine):
        inst = SUUInstance(np.full((1, 6), 0.5))
        value = exact_makespan(
            inst, self._round_robin(6, 8), max_states=(1 << 6) * 8, engine=engine
        )
        assert np.isfinite(value) and value > 6.0

    def test_state_distribution_guard_counts_horizon(self, engine):
        inst = SUUInstance(np.full((1, 10), 0.5))
        cyc = self._round_robin(10, 1)
        with pytest.raises(ExactSolverLimitError) as excinfo:
            exact_state_distribution(inst, cyc, horizon=8, max_states=1 << 12, engine=engine)
        assert "9216" in str(excinfo.value)  # 2^10 x (8 + 1)

    def test_state_distribution_at_exactly_the_budget_solves(self, engine):
        inst = SUUInstance(np.full((1, 6), 0.5))
        dist = exact_state_distribution(
            inst,
            self._round_robin(6, 1),
            horizon=3,
            max_states=(1 << 6) * 4,
            engine=engine,
        )
        assert dist.shape == (4, 1 << 6)

    def test_sparse_structure_budget_guard(self):
        # With many jobs active at once, the sparse engine's transient
        # subset tables (sum over states of 2^k entries; here 2^2 x 3^7 =
        # 8748 for 7 served jobs on 9) dwarf the DP table the max_states
        # guard covers, so they get their own 8x budget.  The scalar path
        # has no such tables and must still solve the same call.
        inst = SUUInstance(np.full((7, 9), 0.5))
        table = np.vstack([np.arange(7), np.arange(2, 9)]).astype(np.int32)
        cyc = CyclicSchedule(ObliviousSchedule.empty(7), ObliviousSchedule(table))
        with pytest.raises(ExactSolverLimitError, match="subset-table"):
            exact_makespan(inst, cyc, max_states=1 << 10, engine="auto")
        value = exact_makespan(inst, cyc, max_states=1 << 10, engine="scalar")
        assert np.isfinite(value) and value > 1.0

    def test_sparse_structure_budget_covers_all_positions(self):
        # The sweep keeps every distinct position's tables alive at once,
        # so the budget covers their sum: each of the two positions needs
        # 8748 entries, under the 16384 limit of max_states = 2^11 on its
        # own, but 17496 together.
        inst = SUUInstance(np.full((7, 9), 0.5))
        table = np.vstack([np.arange(7), np.arange(2, 9)]).astype(np.int32)
        cyc = CyclicSchedule(ObliviousSchedule.empty(7), ObliviousSchedule(table))
        budget = 1 << 11
        with pytest.raises(ExactSolverLimitError, match="17496 subset-table"):
            exact_makespan(inst, cyc, max_states=budget, engine="auto")
        with pytest.raises(ExactSolverLimitError, match="17496 subset-table"):
            exact_state_distribution(inst, cyc, horizon=2, max_states=budget, engine="auto")
        value = exact_makespan(inst, cyc, max_states=budget, engine="scalar")
        assert np.isfinite(value) and value > 1.0
        dist = exact_state_distribution(inst, cyc, horizon=2, max_states=budget, engine="scalar")
        assert dist.shape == (3, 1 << 9)
