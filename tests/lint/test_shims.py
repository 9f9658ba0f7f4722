"""The three ``tools/check_*.py`` delegating shims keep their contracts.

Each shim must (a) still detect a planted violation through its old
``check_file(path, rel)`` API, (b) exit 0 on the committed tree via its
old ``main()``, (c) run standalone as a script with no ``PYTHONPATH``
help, and (d) expose the historical module constants other tooling may
import.  These tests took over the checker halves of the per-checker
test files that predate the lint framework.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

#: shim module name -> (planted snippet, expected violation count,
#:                      historical constants the module must still expose)
SHIMS = {
    "check_legacy_callsites": (
        "from repro.sim import estimate_makespan\n"
        "def f(i, s):\n"
        "    return estimate_makespan(i, s)\n",
        2,
        ("LEGACY", "ALLOWED"),
    ),
    "check_solver_callsites": (
        "from repro.algorithms.chains import solve_chains\n"
        "def f(i):\n"
        "    return solve_chains(i)\n",
        2,
        ("SOLVER_FUNCTIONS", "ALLOWED_PREFIX"),
    ),
    "check_instrumentation": (
        "import time\n"
        "from time import perf_counter\n"
        "t0 = time.perf_counter_ns()\n"
        "t1 = perf_counter()\n"
        "time.sleep(0.0)  # not a clock read; allowed\n",
        3,
        ("BANNED_CLOCKS", "ALLOWED_PREFIXES"),
    ),
}


def _load(name: str):
    """Import a tools/ shim regardless of test order."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(REPO / "tools"))


@pytest.mark.parametrize("name", sorted(SHIMS))
class TestShim:
    def test_main_is_clean_on_head(self, name):
        assert _load(name).main() == 0

    def test_check_file_catches_a_planted_violation(self, name, tmp_path):
        snippet, expected, _ = SHIMS[name]
        bad = tmp_path / "bad.py"
        bad.write_text(snippet)
        violations = _load(name).check_file(bad, "bad.py")
        assert len(violations) == expected
        # pre-framework line format: "rel:lineno: message" (no column)
        assert all(v.startswith("bad.py:") for v in violations)

    def test_historical_constants_survive(self, name):
        _, _, constants = SHIMS[name]
        shim = _load(name)
        for const in constants:
            assert getattr(shim, const)

    def test_script_entry_runs_standalone(self, name):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / f"{name}.py")],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},  # deliberately no PYTHONPATH
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_shim_verdicts_match_framework_findings(tmp_path):
    """A shim is a renderer over the framework, not a second checker:
    its lines must be the rule's findings in the legacy format."""
    from repro.lint import lint_file

    snippet, _, _ = SHIMS["check_legacy_callsites"]
    bad = tmp_path / "bad.py"
    bad.write_text(snippet)
    shim_lines = _load("check_legacy_callsites").check_file(bad, "bad.py")
    framework = [
        f.format_legacy()
        for f in lint_file(bad, rel="bad.py", rules=["legacy-callsite"])
    ]
    assert shim_lines == framework
