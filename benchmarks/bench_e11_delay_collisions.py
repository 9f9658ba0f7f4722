"""E11 — §4.1 random delays (Shmoys–Stein–Wein): congestion bound.

Claims: (a) after random delays over [0, Π_max], the max per-(machine,
step) congestion stays within α·log(n+m)/log log(n+m) — measured across a
size sweep against the no-delay congestion; (b) the derandomized
(conditional-expectation) delays achieve congestion at most comparable to
the randomized ones, deterministically.
"""

from __future__ import annotations

import numpy as np

from repro import PrecedenceDAG, SUUInstance
from repro.algorithms import PRACTICAL
from repro.algorithms.chains import build_chain_bands
from repro.analysis import Table
from repro.delay import derandomized_delays, find_good_delays, ssw_collision_bound
from repro.lp import solve_lp1
from repro.rounding import round_acc_mass
from repro.workloads import probability_matrix


def _bands_for(n, m, seed):
    p = probability_matrix(m, n, rng=np.random.default_rng(seed), model="sparse")
    chains = [list(range(k, min(k + 2, n))) for k in range(0, n, 2)]
    inst = SUUInstance(p, PrecedenceDAG.from_chains(chains, n))
    frac = solve_lp1(inst)
    integral = round_acc_mass(inst, frac, low_scale=PRACTICAL.rounding_low_scale)
    return inst, build_chain_bands(inst, integral)


def _sweep(rng):
    rows = []
    for n, m in ((8, 4), (16, 6), (32, 8), (64, 12)):
        before, rand_after, det_after, bounds, tries = [], [], [], [], []
        for seed in range(2):
            inst, bands = _bands_for(n, m, 7000 + seed)
            before.append(bands.max_collision())
            out_r = find_good_delays(bands, rng=rng, n_jobs=n)
            rand_after.append(out_r.max_collision)
            tries.append(out_r.attempts)
            out_d = derandomized_delays(bands, n_jobs=n)
            det_after.append(out_d.max_collision)
            bounds.append(ssw_collision_bound(n, m))
        rows.append(
            {
                "n": n,
                "m": m,
                "no_delay": float(np.mean(before)),
                "randomized": float(np.mean(rand_after)),
                "derandomized": float(np.mean(det_after)),
                "ssw_bound": float(np.mean(bounds)),
                "attempts": float(np.mean(tries)),
            }
        )
    return rows


def test_e11_ssw_delays(benchmark, recorder, rng):
    rows = benchmark.pedantic(_sweep, args=(rng,), rounds=1, iterations=1)
    table = Table(
        ["n", "m", "no delay", "randomized", "derandomized", "SSW bound", "attempts"],
        title="E11  random-delay congestion vs the SSW bound",
    )
    rand_ok = det_ok = True
    for r in rows:
        table.add_row(
            [r["n"], r["m"], r["no_delay"], r["randomized"], r["derandomized"], r["ssw_bound"], r["attempts"]]
        )
        recorder.add(**r)
        rand_ok &= r["randomized"] <= r["ssw_bound"]
        det_ok &= r["derandomized"] <= 2 * r["ssw_bound"]
    print("\n" + table.render())
    recorder.claim("randomized_within_bound", rand_ok)
    recorder.claim("derandomized_comparable", det_ok)
    assert rand_ok and det_ok
