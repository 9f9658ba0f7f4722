"""The step-free oblivious kernel against the exact sparse Markov engine.

The kernel draws each job's completion step from its cumulative hazard
instead of walking the schedule step by step, so it consumes the random
stream differently from a per-step Bernoulli simulation.  Its contract is
equality in distribution, checked here against the exact engine: the
sample mean within z = 5 standard errors of the exact expectation, and
the empirical completion CDF inside a Dvoretzky–Kiefer–Wolfowitz band.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule, PrecedenceDAG, SUUInstance
from repro.core.schedule import IDLE
from repro.errors import CensoredEstimateWarning
from repro.evaluate import evaluate
from repro.sim.engine import DEFAULT_MAX_STEPS
from repro.sim.montecarlo import _cycle_completion
from repro.verify.cases import CaseSpec, build_case
from repro.workloads import DAG_KINDS

REPS = 20_000
#: Mean tolerance, in standard errors.
Z = 5.0
#: DKW band at confidence 1 - ALPHA: sup_t |F_n(t) - F(t)| <= eps w.p. 1 - ALPHA.
ALPHA = 1e-6
#: Curve length compared on schedules that never run out.
CYCLIC_HORIZON = 400


def _dkw_eps(reps: int) -> float:
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * reps))


def _spec(dag_kind: str, schedule: str) -> CaseSpec:
    return CaseSpec(
        family=f"{dag_kind}/uniform", schedule=schedule, n=7, m=3, instance_seed=5, sim_seed=0
    )


def _case(dag_kind: str, schedule: str):
    """A fuzzer case, or the paper's shape: a finite prefix, then a cycle.

    The ``prefix_then_serial`` prefix is a round-robin table whose length
    is not a multiple of the serial cycle's.
    """
    if schedule != "prefix_then_serial":
        return build_case(_spec(dag_kind, schedule))
    instance, rr = build_case(_spec(dag_kind, "finite_round_robin"))
    _, serial = build_case(_spec(dag_kind, "serial"))
    prefix = ObliviousSchedule(rr.table[: 2 * instance.n + 1])
    return instance, CyclicSchedule(prefix, serial.cycle)


def _exact(instance, schedule, horizon: int, max_steps: int) -> tuple[float, np.ndarray]:
    """Exact (mean of the censored sample, completion CDF over 1..horizon).

    A finite table runs as a prefix followed by an idle cycle; its sample
    mean counts every run still unfinished after the table at
    ``max_steps``, exactly as the estimator records censored runs.
    """
    if isinstance(schedule, ObliviousSchedule):
        chain = CyclicSchedule(schedule, ObliviousSchedule.idle(1, instance.m))
        curve = evaluate(
            instance, chain, mode="exact", metrics="completion_curve", horizon=horizon
        ).completion_curve
        pmf = np.diff(curve, prepend=0.0)
        mean = float(pmf @ np.arange(1, horizon + 1) + max_steps * (1.0 - curve[-1]))
        return mean, curve
    report = evaluate(
        instance,
        schedule,
        mode="exact",
        metrics=("makespan", "completion_curve"),
        horizon=horizon,
    )
    return report.makespan, report.completion_curve


def _assert_matches_exact(instance, schedule, seed: int, max_steps: int | None = None):
    if isinstance(schedule, ObliviousSchedule):
        horizon = schedule.length
        max_steps = max_steps or 2 * horizon
    else:
        horizon = CYCLIC_HORIZON
        max_steps = max_steps or DEFAULT_MAX_STEPS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoredEstimateWarning)
        report = evaluate(
            instance,
            schedule,
            mode="mc",
            reps=REPS,
            seed=seed,
            max_steps=max_steps,
            keep_samples=True,
        )
    assert report.engine == "oblivious-lockstep"
    exact_mean, exact_curve = _exact(instance, schedule, horizon, max_steps)
    z = (report.makespan - exact_mean) / report.std_err
    assert abs(z) <= Z, f"mean {report.makespan:.4f} vs exact {exact_mean:.4f} (z={z:.2f})"
    samples = report.samples
    finished = samples[samples <= horizon]
    empirical = np.cumsum(np.bincount(finished, minlength=horizon + 1)[1:]) / REPS
    gap = float(np.max(np.abs(empirical - exact_curve)))
    assert gap <= _dkw_eps(REPS), f"CDF distance {gap:.4f} > DKW band {_dkw_eps(REPS):.4f}"
    return report


SCHEDULES = ("round_robin", "serial", "finite_round_robin", "prefix_then_serial")


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("dag_kind", DAG_KINDS)
def test_kernel_matches_exact_markov(dag_kind, schedule):
    instance, sched = _case(dag_kind, schedule)
    seed = 1000 + 10 * DAG_KINDS.index(dag_kind) + SCHEDULES.index(schedule)
    _assert_matches_exact(instance, sched, seed)


def _single_job(p: float) -> SUUInstance:
    return SUUInstance(np.array([[p]]))


class TestEdgeCases:
    def test_certain_step_after_uncertain_steps(self):
        # Three tries at p=0.3, then a machine with p=1: every run finishes
        # by step 4, with Pr[C=k] = 0.3, 0.21, 0.147, 0.343.
        inst = SUUInstance(np.array([[0.3], [1.0]]))
        table = np.array([[0, IDLE], [0, IDLE], [0, IDLE], [IDLE, 0]], dtype=np.int32)
        report = _assert_matches_exact(inst, ObliviousSchedule(table), seed=3)
        assert report.truncated == 0
        assert set(np.unique(report.samples)) <= {1, 2, 3, 4}
        freq = np.bincount(report.samples, minlength=5)[1:] / REPS
        assert np.allclose(freq, [0.3, 0.21, 0.147, 0.343], atol=_dkw_eps(REPS))

    def test_certain_step_while_ineligible_keeps_later_steps(self):
        # Job 1 meets a p=1 machine while job 0 is unfinished; its later
        # p<1 steps must still be able to complete it.
        inst = SUUInstance(np.array([[0.5, 1.0], [0.5, 0.4]]), PrecedenceDAG(2, [(0, 1)]))
        cycle = np.array([[1, 0], [0, 1], [IDLE, 1]], dtype=np.int32)
        sched = CyclicSchedule(ObliviousSchedule(cycle[:1]), ObliviousSchedule(cycle))
        _assert_matches_exact(inst, sched, seed=4)

    def test_empty_prefix_starts_in_the_cycle(self):
        # The job is only scheduled on odd (0-based) cycle positions, so it
        # can only complete on even steps.
        cycle = ObliviousSchedule(np.array([[IDLE], [0]], dtype=np.int32))
        sched = CyclicSchedule(ObliviousSchedule.empty(1), cycle)
        report = _assert_matches_exact(_single_job(0.5), sched, seed=5)
        assert np.all(report.samples % 2 == 0)

    def test_finite_table_censored_samples_read_max_steps(self):
        sched = ObliviousSchedule(np.zeros((2, 1), dtype=np.int32))
        with pytest.warns(CensoredEstimateWarning) as record:
            report = evaluate(
                _single_job(0.3), sched, mode="mc", reps=REPS, seed=6, max_steps=100,
                keep_samples=True,
            )
        assert len(record) == 1
        assert set(np.unique(report.samples)) == {1, 2, 100}
        assert report.truncated == int((report.samples == 100).sum())
        assert abs(report.truncated / REPS - 0.49) <= _dkw_eps(REPS)
        _assert_matches_exact(_single_job(0.3), sched, seed=6, max_steps=100)

    def test_max_steps_one(self):
        inst = SUUInstance(np.array([[0.5, 0.0], [0.0, 0.5]]))
        sched = CyclicSchedule(
            ObliviousSchedule.empty(2), ObliviousSchedule(np.array([[0, 1]], dtype=np.int32))
        )
        with pytest.warns(CensoredEstimateWarning):
            report = evaluate(
                inst, sched, mode="mc", reps=REPS, seed=7, max_steps=1, keep_samples=True
            )
        assert np.all(report.samples == 1)
        assert abs(1.0 - report.truncated / REPS - 0.25) <= _dkw_eps(REPS)

    def test_start_is_the_latest_predecessor_completion(self):
        # p=1 everywhere, one machine cycling 0, 2, 1 with 2 needing both
        # 0 and 1: job 0 ends at step 1, job 1 at step 3, and job 2 can
        # only start after step 3, so it ends at step 5 (not step 2).
        inst = SUUInstance(np.ones((1, 3)), PrecedenceDAG(3, [(0, 2), (1, 2)]))
        sched = CyclicSchedule(
            ObliviousSchedule.empty(1), ObliviousSchedule(np.array([[0], [2], [1]]))
        )
        report = evaluate(inst, sched, mode="mc", reps=50, seed=8, keep_samples=True)
        assert np.all(report.samples == 5)

    def test_deep_chain(self):
        instance, sched = build_case(
            CaseSpec(
                family="chains/uniform", schedule="round_robin", n=12, m=2,
                instance_seed=9, sim_seed=0, params={"num_chains": 1},
            )
        )
        assert len(instance.dag.longest_path()) == 12
        _assert_matches_exact(instance, sched, seed=9)


def test_never_finishing_cycle_censors_without_walking_the_budget():
    # The cycle never assigns job 1, so no run can finish: the estimator
    # must say so without stepping through all DEFAULT_MAX_STEPS steps.
    inst = SUUInstance(np.array([[0.5, 0.5]]))
    sched = CyclicSchedule(
        ObliviousSchedule.empty(1), ObliviousSchedule(np.zeros((1, 1), dtype=np.int32))
    )
    start = time.perf_counter()
    with pytest.warns(CensoredEstimateWarning) as record:
        report = evaluate(inst, sched, mode="mc", reps=200, seed=0)
    assert time.perf_counter() - start < 2.0
    assert report.truncated == 200
    assert len(record) == 1


def test_cycle_skip_survives_rounding_at_a_whole_cycle():
    # 36.48 / 1.216 rounds to just under 30, leaving a remainder of one
    # whole cycle's hazard: the completion must still land on the job's
    # scheduled cycle position (the second), 30 cycles on.
    lam = np.array([0.0, 0.0, 1.216])
    step = _cycle_completion(lam, np.array([30 * 1.216]), np.array([0]))
    assert step.tolist() == [62.0]
