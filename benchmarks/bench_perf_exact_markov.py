"""PERF — vectorized sparse exact-Markov engine vs the scalar golden path.

Solves the Figure-1 subset-lattice DP with both engines (through the
``repro.evaluate`` front door, ``mode="exact"``) on the same workloads and
records the wall-clock speedup:

* **regimen** (the acceptance workload): the eligible-set round-robin
  regimen on an n-job chains instance — every reachable state with its
  own assignment, the worst case for signature sharing.  Both engines
  solve only the reachable (up-closed) states.  The sparse engine sweeps
  them one popcount layer at a time through the first-passage kernel it
  shares with the Malewicz DP, which adds the terms in the scalar order;
  the scalar path builds one transition dict per state.
* **regimen, independent jobs**: the same regimen with no precedence,
  where every one of the 2^n states is reachable and the index of
  reachable states is the whole lattice.
* **cyclic**: a round-robin prefix+cycle schedule, where the chain's
  states are ``(S, τ)`` pairs and the sparse engine solves every
  position of a popcount layer in one pass per active-count block, then
  the rho-shape cycle solve across the layer.
* **cyclic, long prefix**: a ``solve()`` pipeline schedule on chains
  (n=9, m=3) with hundreds of positions but only ~20 distinct
  assignments, which the sparse engine stores once each.
* **state distribution**: the forward pass of the cyclic workload's
  schedule over 48 steps (four cycles).

``REPRO_PERF_EXACT_N`` resizes the regimen workload; below n=14 only a
1.5× win is asserted, and the run writes its own record
(``perf_exact_markov.n12.json`` at n=12).  CI's perf-smoke job runs the
full n=14 size, where ≥10× is asserted, as does the committed
``benchmarks/results/perf_exact_markov.json``.  The sparse engine is
timed best-of-3 — its absolute runtime is tens of milliseconds, where
timer noise matters; the scalar path is timed once.  The four makespan
rows assert exact equality (``|Δ| = 0``): every exact solver adds its
subset terms in the scalar engine's order.  The distribution row asserts
agreement to ≤1e-9 (largest absolute difference); agreement is also
property-tested across all workload families in
``tests/sim/test_exact_engines_equiv.py``.  Two traced
sparse solves record the lattice-build vs layer-sweep split, for the
regimen and the cyclic workload.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.algorithms import round_robin_baseline, state_round_robin_regimen
from repro.analysis import Table
from repro import evaluate, solve
from repro.workloads import random_instance

#: Regimen workload size; the acceptance claim is pinned at n = 14.
N = int(os.environ.get("REPRO_PERF_EXACT_N", "14"))
M = 4
#: Results file: the committed record is the n = 14 run.
RECORD = "perf_exact_markov" if N == 14 else f"perf_exact_markov.n{N}"
N_CYCLIC = min(N, 12)
#: Independent-jobs regimen workload: all 2^n states are reachable.
N_INDEP = min(N, 12)
#: Long-prefix cyclic workload: a solve() schedule on chains.
N_LONG, M_LONG = 9, 3
#: Forward-pass steps of the state-distribution row (four cycles).
HORIZON = 4 * N_CYCLIC

#: Below the acceptance size the bench only requires a win, not 10x.
SPEEDUP_FLOOR = 10.0 if N >= 14 else 1.5


def _best_of(fn, rounds: int = 3) -> tuple[float, float]:
    """(best seconds, value) over ``rounds`` runs; values must be stable."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _measure():
    rows = []
    inst = random_instance(N, M, dag_kind="chains", num_chains=4, rng=7)
    regimen = state_round_robin_regimen(inst).schedule
    t_sparse, v_sparse = _best_of(
        lambda: evaluate(inst, regimen, mode="exact").makespan
    )
    t0 = time.perf_counter()
    v_scalar = evaluate(inst, regimen, mode="exact", engine="scalar").makespan
    t_scalar = time.perf_counter() - t0
    rows.append(
        {
            "workload": f"regimen n={N} m={M}",
            "scalar_s": t_scalar,
            "sparse_s": t_sparse,
            "speedup": t_scalar / t_sparse,
            "value": v_sparse,
            "agreement": abs(v_sparse - v_scalar),
        }
    )

    inst_i = random_instance(N_INDEP, M, dag_kind="independent", rng=7)
    regimen_i = state_round_robin_regimen(inst_i).schedule
    t_sparse, v_sparse = _best_of(
        lambda: evaluate(inst_i, regimen_i, mode="exact").makespan
    )
    t0 = time.perf_counter()
    v_scalar = evaluate(inst_i, regimen_i, mode="exact", engine="scalar").makespan
    t_scalar = time.perf_counter() - t0
    rows.append(
        {
            "workload": f"regimen independent n={N_INDEP} m={M}",
            "scalar_s": t_scalar,
            "sparse_s": t_sparse,
            "speedup": t_scalar / t_sparse,
            "value": v_sparse,
            "agreement": abs(v_sparse - v_scalar),
        }
    )

    inst_c, cyclic = _cyclic_workload()
    t_sparse, v_sparse = _best_of(
        lambda: evaluate(inst_c, cyclic, mode="exact").makespan
    )
    t0 = time.perf_counter()
    v_scalar = evaluate(inst_c, cyclic, mode="exact", engine="scalar").makespan
    t_scalar = time.perf_counter() - t0
    rows.append(
        {
            "workload": f"cyclic n={N_CYCLIC} m={M} positions={N_CYCLIC}",
            "scalar_s": t_scalar,
            "sparse_s": t_sparse,
            "speedup": t_scalar / t_sparse,
            "value": v_sparse,
            "agreement": abs(v_sparse - v_scalar),
        }
    )

    inst_l, long_prefix = _long_prefix_workload()
    positions = long_prefix.prefix_length + long_prefix.cycle_length
    t_sparse, v_sparse = _best_of(
        lambda: evaluate(inst_l, long_prefix, mode="exact").makespan
    )
    t0 = time.perf_counter()
    v_scalar = evaluate(inst_l, long_prefix, mode="exact", engine="scalar").makespan
    t_scalar = time.perf_counter() - t0
    rows.append(
        {
            "workload": f"cyclic solve() n={N_LONG} m={M_LONG} positions={positions}",
            "scalar_s": t_scalar,
            "sparse_s": t_sparse,
            "speedup": t_scalar / t_sparse,
            "value": v_sparse,
            "agreement": abs(v_sparse - v_scalar),
        }
    )

    def distribution(engine):
        return evaluate(
            inst_c,
            cyclic,
            mode="exact",
            engine=engine,
            metrics="state_distribution",
            horizon=HORIZON,
        ).state_distribution

    t_sparse, d_sparse = _best_of(lambda: distribution("auto"))
    t0 = time.perf_counter()
    d_scalar = distribution("scalar")
    t_scalar = time.perf_counter() - t0
    rows.append(
        {
            "workload": f"state_distribution n={N_CYCLIC} m={M} horizon={HORIZON}",
            "scalar_s": t_scalar,
            "sparse_s": t_sparse,
            "speedup": t_scalar / t_sparse,
            "value": float(d_sparse[-1, 0]),
            "agreement": float(np.max(np.abs(d_sparse - d_scalar))),
        }
    )
    return rows


def _long_prefix_workload():
    inst = random_instance(N_LONG, M_LONG, dag_kind="chains", rng=1)
    return inst, solve(inst, rng=np.random.default_rng(0)).schedule


def _cyclic_workload():
    inst = random_instance(N_CYCLIC, M, dag_kind="layered", layers=4, rng=9)
    return inst, round_robin_baseline(inst).schedule


def test_perf_sparse_vs_scalar_exact(benchmark, recorder, phase_breakdown):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = Table(
        ["workload", "scalar (s)", "sparse (s)", "speedup", "E[makespan]", "|Δ|"],
        title="PERF  sparse vs scalar exact-Markov engine",
        ndigits=4,
    )
    for r in rows:
        table.add_row(
            [r["workload"], r["scalar_s"], r["sparse_s"], r["speedup"], r["value"], r["agreement"]]
        )
        recorder.add(**r)
    print("\n" + table.render())
    regimen_row, makespan_rows = rows[0], rows[:4]
    recorder.add(kind="summary", n=N, m=M, speedup_floor=SPEEDUP_FLOOR)
    recorder.claim(
        "sparse_at_least_10x_on_regimen_n14",
        N >= 14 and regimen_row["speedup"] >= 10.0,
    )
    recorder.claim("sparse_beats_scalar", all(r["speedup"] > 1.0 for r in rows))
    recorder.claim("engines_agree_1e9", all(r["agreement"] <= 1e-9 for r in rows))
    recorder.claim(
        "makespans_bitwise_equal", all(r["agreement"] == 0.0 for r in makespan_rows)
    )
    assert regimen_row["speedup"] >= SPEEDUP_FLOOR
    assert all(r["speedup"] > 1.0 for r in rows)
    assert all(r["agreement"] <= 1e-9 for r in rows)
    assert all(r["agreement"] == 0.0 for r in makespan_rows)

    # Phase-time breakdown of one traced sparse solve on the acceptance
    # workload: lattice build vs layer sweep, plus the states counter.
    inst = random_instance(N, M, dag_kind="chains", num_chains=4, rng=7)
    regimen = state_round_robin_regimen(inst).schedule
    recorder.add(
        kind="telemetry",
        **phase_breakdown(
            lambda: evaluate(inst, regimen, mode="exact")
        ),
    )
    # The same split for the cyclic workload.
    inst_c, cyclic = _cyclic_workload()
    recorder.add(
        kind="telemetry",
        workload="cyclic",
        **phase_breakdown(lambda: evaluate(inst_c, cyclic, mode="exact")),
    )
