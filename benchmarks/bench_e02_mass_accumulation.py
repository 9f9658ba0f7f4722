"""E2 — Theorem 2.2: mass accumulation within twice the expected makespan.

Claim: for ANY schedule Σ with expected makespan T and any job j, an
execution of Σ for 2T steps gives j mass ≥ 1/4 with probability ≥ 1/4.

The bench evaluates the probability EXACTLY via the execution tree
(Figure 1) for a zoo of schedules — optimal regimens, serial gangs,
round-robins, and deliberately job-starving schedules — and reports the
minimum observed probability.
"""

from __future__ import annotations

import math

import numpy as np

from repro import CyclicSchedule, ObliviousSchedule, SUUInstance
from repro.algorithms import round_robin_baseline, serial_baseline
from repro.analysis import Table
from repro.opt import optimal_regimen
from repro import evaluate
from repro.sim import build_execution_tree


def _cases(rng):
    cases = []
    for seed in range(3):
        r = np.random.default_rng(seed)
        p = r.uniform(0.25, 0.9, size=(2, 3))
        inst = SUUInstance(p, name=f"rand{seed}")
        sol = optimal_regimen(inst)
        cases.append(("optimal regimen", inst, sol.regimen, sol.expected_makespan))
        serial = serial_baseline(inst).schedule
        cases.append(
            ("serial gang", inst, serial, evaluate(inst, serial, mode="exact").makespan)
        )
        rr = round_robin_baseline(inst).schedule
        cases.append(("round robin", inst, rr, evaluate(inst, rr, mode="exact").makespan))
    # a deliberately unfair schedule: job 0 served once every 4 steps
    p = np.array([[0.6, 0.6]])
    inst = SUUInstance(p, name="starver")
    starve = CyclicSchedule(
        ObliviousSchedule.empty(1),
        ObliviousSchedule(np.array([[1], [1], [1], [0]])),
    )
    cases.append(
        ("job-0 starving", inst, starve, evaluate(inst, starve, mode="exact").makespan)
    )
    return cases


def _run(rng):
    rows = []
    for name, inst, sched, T in _cases(rng):
        depth = int(math.ceil(2 * T))
        for job in range(inst.n):
            tree = build_execution_tree(inst, sched, depth=depth, job=job, max_nodes=400_000)
            prob = tree.prob_mass_at_least(0.25)
            rows.append(
                {
                    "schedule": name,
                    "instance": inst.name,
                    "job": job,
                    "T": T,
                    "prob_mass_quarter": prob,
                }
            )
    return rows


def test_e02_theorem22(benchmark, recorder, rng):
    rows = benchmark.pedantic(_run, args=(rng,), rounds=1, iterations=1)
    table = Table(
        ["schedule", "instance", "job", "E[makespan]", "Pr[mass>=1/4 in 2T]"],
        title="E2  Theorem 2.2 (exact, via execution tree)",
    )
    min_prob = 1.0
    for r in rows:
        table.add_row([r["schedule"], r["instance"], r["job"], r["T"], r["prob_mass_quarter"]])
        recorder.add(**r)
        min_prob = min(min_prob, r["prob_mass_quarter"])
    print("\n" + table.render())
    print(f"\nminimum probability observed: {min_prob:.4f} (theorem demands >= 0.25)")
    recorder.claim("theorem22_holds", min_prob >= 0.25 - 1e-9)
    assert min_prob >= 0.25 - 1e-9
