"""Result files: the environment record, per-metric summaries, comparison.

A result file holds every run of one invocation (``--workload all`` or a
single run with ``--out``) plus, per workload and metric, the median and
quartiles over its runs.  ``--compare`` reads two such files and labels
each (metric, workload) pair with the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path


def _git(root: Path, *args: str) -> str | None:
    # The ceiling keeps git from finding a repository above a checkout
    # that is not one itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    """Code version, machine and library versions of this run."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _values(runs: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def summarize(runs: list[dict], spec: dict) -> dict:
    """Median and quartiles per workload and metric."""
    out: dict = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        out[wl] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for m in spec[key]:
                vals = _values(runs, wl, trace, m["name"])
                if vals:
                    q1, med, q3 = quartiles(vals)
                    out[wl][m["name"]] = {
                        "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "runs": len(vals)
                    }
    return out


def write(path: Path, env: dict, seconds: float, runs: list[dict], spec: dict) -> None:
    doc = {
        "format": "perfbench-results/1",
        "env": env,
        "seconds": seconds,
        "runs": runs,
        "summary": summarize(runs, spec),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def label(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Label one (metric, workload) pair and give the median shift.

    The shift is signed so that positive means worse.  Wider spread than
    the bound leaves the pair unresolved unless every run of the change
    reads better (or worse) than every run of the parent.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = quartiles(parent)[1], quartiles(change)[1]
    shift = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = all(sign * (b - a) < 0 for a in parent for b in change)
    all_worse = all(sign * (b - a) > 0 for a in parent for b in change)
    if max(spread(parent), spread(change)) > bound:
        verdict = "improved" if all_better else "regressed" if all_worse else "unresolved"
    elif shift > bound:
        verdict = "regressed"
    elif -shift > spread(parent) and shift < 0:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return verdict, shift


def compare(path_a: Path, path_b: Path, spec: dict) -> list[str]:
    """One row per workload: every end-to-end metric's label and shift."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines = [
        f"parent {path_a} ({a['env'].get('git_sha')}) vs change {path_b} "
        f"({b['env'].get('git_sha')}); median shift in parentheses, + is worse"
    ]
    for wl in dict.fromkeys(r["workload"] for r in a["runs"]):
        cells = []
        for m in spec["end_to_end"]:
            pa = _values(a["runs"], wl, 0, m["name"])
            pb = _values(b["runs"], wl, 0, m["name"])
            if not pa or not pb:
                cells.append(f"{m['name']}=missing")
                continue
            verdict, shift = label(pa, pb, m["better"], m["bound"])
            cells.append(f"{m['name']}={verdict}({shift:+.1%})")
        lines.append(f"{wl:14s} " + "  ".join(cells))
    return lines
