"""Shared infrastructure for the experiment benchmarks.

Each ``bench_eXX_*.py`` regenerates one experiment of the reproduction: it
prints the table of rows the paper would report, asserts the claim that
makes the experiment a *reproduction* rather than a demo, and records the
rows as JSON under ``benchmarks/results/``, which
``tools/generate_experiments_md.py`` renders into a report.

Benchmarks use ``benchmark.pedantic(..., rounds=1)`` — the experiments are
sweeps, not microbenchmarks, so wall-clock is reported for one full sweep.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


class ExperimentRecorder:
    """Collects experiment rows and writes them as JSON on context exit."""

    def __init__(self, experiment_id: str):
        self.experiment_id = experiment_id
        self.rows: list[dict] = []
        self.claims: dict[str, bool] = {}

    def add(self, **row) -> None:
        self.rows.append({k: _jsonable(v) for k, v in row.items()})

    def claim(self, name: str, ok: bool) -> None:
        """Record a reproduction claim; the bench also asserts it."""
        self.claims[name] = bool(ok)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment_id}.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": self.experiment_id,
                    "claims": self.claims,
                    "rows": self.rows,
                },
                indent=2,
            )
        )


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


@pytest.fixture(scope="module")
def recorder(request):
    """Per-module recorder named after the bench module.

    Module-scoped so that a bench file with several tests (e.g. the main
    sweep plus a telemetry-overhead guard) accumulates all rows into one
    results JSON instead of the last test overwriting the first.
    """
    module = request.module.__name__
    exp_id = module.replace("bench_", "")
    rec = ExperimentRecorder(exp_id)
    yield rec
    rec.flush()


@pytest.fixture
def phase_breakdown():
    """Run a callable under telemetry capture → per-phase timing rows.

    Every ``bench_perf_*.py`` records one of these into its results JSON
    (``kind: "telemetry"``) so the committed numbers show *where* the
    measured wall-clock goes, phase by phase, alongside the totals.
    """
    from repro import obs

    def run(fn) -> dict:
        with obs.capture() as tel:
            fn()
        snapshot = tel.snapshot()
        phase_ms: dict[str, list[float]] = {}

        def walk(node):
            phase_ms.setdefault(node["name"], []).append(node["dur_ns"] / 1e6)
            for child in node.get("children", ()):
                walk(child)

        for root in snapshot["spans"]:
            walk(root)
        phases = [
            {
                "phase": name,
                "count": len(durs),
                "total_ms": sum(durs),
                "mean_ms": sum(durs) / len(durs),
            }
            for name, durs in sorted(phase_ms.items(), key=lambda kv: -sum(kv[1]))
        ]
        return {"phases": phases, "counters": snapshot["counters"]}

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20070611)  # SPAA'07: June 9-11, 2007


@pytest.fixture
def experiment_cache_dir():
    """Shared on-disk cache for benches refactored onto the experiment runner.

    Persists across runs on purpose: re-running a sweep recomputes only
    specs whose parameters changed.  The cache key covers spec parameters
    and the package version, NOT algorithm source — after editing algorithm
    code, run with ``REPRO_BENCH_COLD=1`` (clears this cache first) or
    delete ``benchmarks/results/cache`` so the claims re-measure.
    """
    path = RESULTS_DIR / "cache"
    if os.environ.get("REPRO_BENCH_COLD"):
        shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)
    return path
