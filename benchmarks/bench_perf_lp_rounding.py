"""PERF — the production LP builders and max-flow vs their golden references.

Builds the AccMass LPs and solves Figure-3-shaped flow networks with the
production code and with the golden references, called directly
(``repro.lp.scalar``'s builders and solvers, ``repro.flow.dinic``'s
``FlowNetwork``), on identical workloads, and records the wall-clock
speedups plus exact-agreement evidence:

* **LP2 construction** (the acceptance workload): assemble (LP2) for an
  ``n×m`` independent instance — the sparse vector builder registers all
  variables in bulk and lands each constraint family as one COO block,
  where the scalar golden path loops per variable and per row.
* **LP1 construction**: the chains variant, whose per-pair window rows
  make the scalar loops quadratically chattier.
* **LP2 solve agreement**: both paths solved end to end; HiGHS receives
  byte-identical matrices, so the optima must agree to ≤1e-9.
* **flow end-to-end**: build + max-flow on a rounding-shaped bipartite
  network.  ``ArrayFlowNetwork``'s win is in graph construction (flat
  list appends vs two edge-dataclass allocations per edge); the
  blocking-flow phases themselves are near-identical on these shallow
  networks.
* **LP solve call**: the (LP1)s a ``solve()`` of the ``pipeline_mc``
  shape meets (n=40, m=8: a chains instance, the Lemma 4.6 blocks of an
  out-tree and of a mixed forest), each solved by
  ``LinearProgram.solve()`` (one ``scipy.optimize.milp`` call) against
  the ``linprog(method="highs")`` call it replaced.  Both drive the same
  HiGHS, so the solved vectors must be bitwise equal (≥1.15x is
  asserted; a future SciPy whose defaults drift from ``linprog``'s
  forced options fails the equality).  Both sides are best-of-5 over
  the whole LP set.

``REPRO_PERF_LP_N`` resizes the workloads (CI's perf-smoke job runs
n=128 and asserts only that the production builders win; the committed
``benchmarks/results/perf_lp_rounding.json`` records the full n=512 run,
where ≥5x is asserted on LP2 construction).  A resized run writes its own
record, ``perf_lp_rounding.n128.json`` at n=128.  Production timings are
best-of-3; golden paths are timed once.  Exact agreement is additionally
property-tested in ``tests/lp/`` and ``tests/flow/`` and fuzzed
continuously by the ``lpflow`` oracle.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.optimize import linprog

from repro.analysis import Table
from repro.decomp.chain_decomposition import decompose_forest
from repro.flow import ArrayFlowNetwork, FlowNetwork
from repro.lp.acc_mass import DEFAULT_TARGET_MASS, build_lp1, build_lp2, solve_lp2
from repro.lp.scalar import build_lp1_scalar, build_lp2_scalar, solve_lp2_scalar
from repro.workloads import random_instance

#: LP workload size; the acceptance claim is pinned at n = 512.
N = int(os.environ.get("REPRO_PERF_LP_N", "512"))
M = 64
#: Results file: the committed record is the n = 512 run.
RECORD = "perf_lp_rounding" if N == 512 else f"perf_lp_rounding.n{N}"

#: Below the acceptance size the bench only requires a win, not 5x.
LP2_SPEEDUP_FLOOR = 5.0 if N >= 512 else 1.5
#: The flow engine's end-to-end edge is modest; below the acceptance size
#: timer noise on a ~10 ms workload can eat it entirely, so CI smoke only
#: gates against a pathological slowdown.
FLOW_SPEEDUP_FLOOR = 1.0 if N >= 512 else 0.5
#: One milp call against the linprog call it replaced, on the same LPs.
LP_CALL_SPEEDUP_FLOOR = 1.15


def _best_of(fn, rounds: int = 3) -> tuple[float, object]:
    """(best seconds, last value) over ``rounds`` runs."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _time_once(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _lp_row(workload, scalar_fn, vector_fn, agreement=0.0):
    t_scalar, _ = _time_once(scalar_fn)
    t_vector, _ = _best_of(vector_fn)
    return {
        "workload": workload,
        "scalar_s": t_scalar,
        "vector_s": t_vector,
        "speedup": t_scalar / t_vector,
        "agreement": agreement,
    }


def _flow_workload(network_cls, num_jobs: int, num_machines: int) -> int:
    """Build + solve one rounding-shaped bipartite network end to end."""
    rng = np.random.default_rng(3)
    mask = rng.random((num_jobs, num_machines)) < 0.2
    caps = rng.integers(1, 6, size=(num_jobs, num_machines))
    demands = rng.integers(1, 8, size=num_jobs)
    source, sink = num_jobs + num_machines, num_jobs + num_machines + 1
    net = network_cls(sink + 1)
    for j in range(num_jobs):
        net.add_edge(source, j, int(demands[j]))
    for j in range(num_jobs):
        for i in np.flatnonzero(mask[j]):
            net.add_edge(j, num_jobs + int(i), int(caps[j, i]))
    for i in range(num_machines):
        net.add_edge(num_jobs + i, sink, 30)
    return net.max_flow(source, sink)


def _pipeline_lp1s() -> list:
    """The (LP1)s of ``pipeline_mc``-shaped solves (n=40, m=8).

    A chains instance solves one LP; a forest solves one per Lemma 4.6
    block, on the block's induced sub-instance and its chains.
    """
    lps = []
    for seed in range(2):
        lps.append(build_lp1(random_instance(40, 8, "chains", rng=seed)))
        for kind in ("out_tree", "mixed_forest"):
            inst = random_instance(40, 8, kind, rng=seed)
            for block in decompose_forest(inst.dag).blocks:
                sub, old_to_new = inst.induced([j for chain in block for j in chain])
                lps.append(build_lp1(sub, [[old_to_new[j] for j in c] for c in block]))
    return lps


def _linprog_solve(lp):
    """The former ``LinearProgram.solve`` body: one ``linprog`` call."""
    c, A, b, bounds = lp.assemble()
    return linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs").x


def _lp_call_row() -> dict:
    lps = _pipeline_lp1s()
    t_linprog, x_linprog = _best_of(lambda: [_linprog_solve(lp) for lp in lps], rounds=5)
    t_milp, x_milp = _best_of(lambda: [lp.solve().x for lp in lps], rounds=5)
    return {
        "workload": f"LP solve call ({len(lps)} pipeline LP1s n=40 m=8)",
        "scalar_s": t_linprog,
        "vector_s": t_milp,
        "speedup": t_linprog / t_milp,
        "agreement": max(float(np.abs(a - b).max()) for a, b in zip(x_linprog, x_milp)),
        "bitwise": all(a.tobytes() == b.tobytes() for a, b in zip(x_linprog, x_milp)),
    }


def _measure():
    rows = []
    inst = random_instance(N, M, dag_kind="independent", rng=7)
    rows.append(
        _lp_row(
            f"LP2 construction n={N} m={M}",
            lambda: build_lp2_scalar(inst, DEFAULT_TARGET_MASS).assemble(),
            lambda: build_lp2(inst).assemble(),
        )
    )
    inst_c = random_instance(N, M, dag_kind="chains", num_chains=max(1, N // 16), rng=7)
    chains = inst_c.dag.chains()
    rows.append(
        _lp_row(
            f"LP1 construction n={N} m={M}",
            lambda: build_lp1_scalar(inst_c, chains, DEFAULT_TARGET_MASS).assemble(),
            lambda: build_lp1(inst_c, chains).assemble(),
        )
    )
    # Solve agreement at a solver-friendly size: identical matrices reach
    # HiGHS either way, so the optima must coincide to float precision.
    n_solve, m_solve = min(N, 256), 32
    inst_s = random_instance(n_solve, m_solve, dag_kind="independent", rng=11)
    t_scalar, frac_scalar = _time_once(lambda: solve_lp2_scalar(inst_s))
    t_vector, frac_vector = _best_of(lambda: solve_lp2(inst_s))
    rows.append(
        {
            "workload": f"LP2 solve n={n_solve} m={m_solve}",
            "scalar_s": t_scalar,
            "vector_s": t_vector,
            "speedup": t_scalar / t_vector,
            "agreement": abs(frac_vector.t - frac_scalar.t),
        }
    )
    # Flow: the rounding path rebuilds its network every call, so the
    # comparison is end-to-end construction + max-flow.
    num_jobs, num_machines = 3 * N, max(8, 2 * N // 5)
    t_scalar, v_scalar = _time_once(
        lambda: _flow_workload(FlowNetwork, num_jobs, num_machines)
    )
    t_vector, v_array = _best_of(
        lambda: _flow_workload(ArrayFlowNetwork, num_jobs, num_machines)
    )
    rows.append(
        {
            "workload": f"flow build+solve jobs={num_jobs} machines={num_machines}",
            "scalar_s": t_scalar,
            "vector_s": t_vector,
            "speedup": t_scalar / t_vector,
            "agreement": abs(v_array - v_scalar),
        }
    )
    rows.append(_lp_call_row())
    return rows


def test_perf_lp_rounding(benchmark, recorder, phase_breakdown):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = Table(
        ["workload", "scalar (s)", "new (s)", "speedup", "|Δ|"],
        title="PERF  production LP builders / max-flow vs golden references",
        ndigits=4,
    )
    for r in rows:
        table.add_row(
            [r["workload"], r["scalar_s"], r["vector_s"], r["speedup"], r["agreement"]]
        )
        recorder.add(**r)
    print("\n" + table.render())
    lp2_row, lp1_row, solve_row, flow_row, call_row = rows
    recorder.add(
        kind="summary",
        n=N,
        m=M,
        lp2_speedup_floor=LP2_SPEEDUP_FLOOR,
        flow_speedup_floor=FLOW_SPEEDUP_FLOOR,
        lp_call_speedup_floor=LP_CALL_SPEEDUP_FLOOR,
    )
    recorder.claim(
        "lp2_construction_at_least_5x_n512",
        N >= 512 and lp2_row["speedup"] >= 5.0,
    )
    recorder.claim(
        "vector_beats_scalar_lp_construction",
        lp2_row["speedup"] > 1.0 and lp1_row["speedup"] > 1.0,
    )
    recorder.claim("array_flow_beats_scalar", flow_row["speedup"] > 1.0)
    recorder.claim("lp_engines_agree_1e9", solve_row["agreement"] <= 1e-9)
    recorder.claim("array_flow_agrees_with_golden_exact", flow_row["agreement"] == 0)
    assert lp2_row["speedup"] >= LP2_SPEEDUP_FLOOR
    assert lp1_row["speedup"] > 1.0
    assert flow_row["speedup"] >= FLOW_SPEEDUP_FLOOR
    assert solve_row["agreement"] <= 1e-9
    assert flow_row["agreement"] == 0
    recorder.claim("lp_call_bitwise_equal_to_linprog", call_row["bitwise"])
    recorder.claim(
        "lp_call_at_least_1_15x_linprog", call_row["speedup"] >= LP_CALL_SPEEDUP_FLOOR
    )
    assert call_row["bitwise"], "milp and linprog solved vectors differ"
    assert call_row["speedup"] >= LP_CALL_SPEEDUP_FLOOR

    # Phase-time breakdown of one traced production LP2 solve plus the
    # array flow workload: lp.build vs lp.solve, with rows/nnz/phase
    # counters.
    n_solve, m_solve = min(N, 256), 32
    inst_s = random_instance(n_solve, m_solve, dag_kind="independent", rng=11)

    def traced():
        solve_lp2(inst_s)
        _flow_workload(ArrayFlowNetwork, 3 * N, max(8, 2 * N // 5))

    recorder.add(kind="telemetry", **phase_breakdown(traced))
