"""Per-rule kill-tests: every rule must detect its injected violation.

One parametrized table drives all six built-in rules: a violating snippet
with the expected finding count, and a clean snippet that must pass.  A
rule that silently stops firing (the failure mode that motivated the
framework — three ad-hoc checkers with no cross-coverage) fails here.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_file

#: rule id -> (violating snippet, expected findings, message fragment,
#:             clean snippet)
KILL_TESTS = {
    "solver-callsite": (
        "from repro.algorithms.chains import solve_chains\n"
        "def f(i):\n"
        "    return solve_chains(i)\n",
        2,  # the import and the call
        "concrete solver",
        "from repro.algorithms import resolve_solver\n"
        "def f(i):\n"
        "    return resolve_solver('chains').build(i)\n",
    ),
    "bare-timer": (
        "import time\n"
        "from time import perf_counter\n"
        "t0 = time.perf_counter_ns()\n"
        "t1 = perf_counter()\n"
        "time.sleep(0.0)  # not a clock read; allowed\n",
        3,  # the from-import and both calls
        "timing call",
        "from repro import obs\n"
        "with obs.span('phase'):\n"
        "    pass\n",
    ),
    "seed-discipline": (
        "import numpy as np\n"
        "import random\n"
        "np.random.seed(0)\n"
        "x = np.random.uniform(0.0, 1.0)\n",
        3,  # the stdlib import, the seed call, the global draw
        "Generator",
        "import numpy as np\n"
        "rng = np.random.default_rng(np.random.SeedSequence(7))\n"
        "x = rng.uniform(0.0, 1.0)\n",
    ),
    "typed-warning": (
        "import warnings\n"
        "warnings.warn('plain string')\n"
        "warnings.warn(UserWarning('untyped'), stacklevel=2)\n",
        3,  # untyped + missing stacklevel on line 2; untyped on line 3
        "warnings.warn()",
        "import warnings\n"
        "from repro.errors import StaleCacheWarning\n"
        "warnings.warn(StaleCacheWarning('stale'), stacklevel=3)\n",
    ),
    "fork-safe-task": (
        "def run(exe, tasks):\n"
        "    def local_task(t):\n"
        "        return t + 1\n"
        "    a = exe.map_tasks(lambda t: t, tasks)\n"
        "    b = exe.map_tasks(local_task, tasks)\n"
        "    return a, b\n",
        2,  # the lambda and the nested function
        "pickle",
        "from repro.parallel.worker import run_spec_task\n"
        "def run(exe, tasks):\n"
        "    def on_done(i, res):  # progress callbacks stay in-process\n"
        "        print(i)\n"
        "    return exe.map_tasks(run_spec_task, tasks, progress=on_done)\n",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(KILL_TESTS))
def test_rule_kills_its_injected_violation(rule_id, tmp_path):
    snippet, expected, fragment, _ = KILL_TESTS[rule_id]
    bad = tmp_path / "bad.py"
    bad.write_text(snippet)
    findings = lint_file(bad, rel="bad.py", rules=[rule_id])
    assert len(findings) == expected, [f.format() for f in findings]
    assert all(f.rule_id == rule_id for f in findings)
    assert any(fragment in f.message for f in findings)
    # location info points into the snippet
    assert all(1 <= f.line <= snippet.count("\n") for f in findings)


@pytest.mark.parametrize("rule_id", sorted(KILL_TESTS))
def test_rule_passes_the_clean_variant(rule_id, tmp_path):
    _, _, _, clean = KILL_TESTS[rule_id]
    good = tmp_path / "good.py"
    good.write_text(clean)
    assert lint_file(good, rel="good.py", rules=[rule_id]) == []


class TestDispatchRuleDetails:
    def test_registry_name_strings_are_fine(self, tmp_path):
        # Referring to a solver by its registry *name* is the sanctioned
        # path and must not trip the checker.
        ok = tmp_path / "ok.py"
        ok.write_text(
            "from repro.algorithms import resolve_solver\n"
            "def f(i):\n"
            "    return resolve_solver('chains').build(i)\n"
        )
        assert lint_file(ok, rel="ok.py", rules=["solver-callsite"]) == []

    def test_banned_names_match_registry_targets(self):
        # The banned set must cover every function the registry wraps —
        # a newly registered solver whose function is not in the set
        # would be silently importable.
        from repro.algorithms.registry import SOLVERS
        from repro.lint.rules_dispatch import SOLVER_FUNCTIONS

        wrapped = {rec.fn.__name__ for rec in SOLVERS.values()}
        missing = wrapped - SOLVER_FUNCTIONS
        assert not missing, f"registry solver functions not banned: {missing}"

    def test_allowlisted_module_is_exempt(self, tmp_path):
        # The algorithms package defines the solvers and may call them.
        src = tmp_path / "pipeline.py"
        src.write_text(
            "from repro.algorithms.chains import solve_chains\n"
            "def f(i):\n"
            "    return solve_chains(i)\n"
        )
        assert (
            lint_file(src, rel="repro/algorithms/pipeline.py", rules=["solver-callsite"])
            == []
        )


class TestTimerRuleDetails:
    def test_aliased_from_import_is_caught(self, tmp_path):
        bad = tmp_path / "alias.py"
        bad.write_text("from time import monotonic as now\nx = now()\n")
        findings = lint_file(bad, rel="alias.py", rules=["bare-timer"])
        assert len(findings) == 2

    def test_call_above_the_import_is_still_caught(self, tmp_path):
        # Document-order walking must not lose a call that appears
        # textually before its `from time import`.
        bad = tmp_path / "reorder.py"
        bad.write_text(
            "def f():\n"
            "    return perf_counter()\n"
            "from time import perf_counter\n"
        )
        findings = lint_file(bad, rel="reorder.py", rules=["bare-timer"])
        assert len(findings) == 2

    def test_obs_package_is_exempt(self, tmp_path):
        clock = tmp_path / "core.py"
        clock.write_text("import time\nt = time.perf_counter()\n")
        assert lint_file(clock, rel="repro/obs/core.py", rules=["bare-timer"]) == []


class TestSeedRuleDetails:
    def test_generator_methods_are_not_flagged(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "a = rng.random(10)\n"
            "b = rng.uniform(0.0, 1.0)\n"
            "c = np.random.Generator(np.random.PCG64(1))\n"
        )
        assert lint_file(ok, rel="ok.py", rules=["seed-discipline"]) == []

    def test_from_random_import_is_caught(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("from random import randint\n")
        findings = lint_file(bad, rel="bad.py", rules=["seed-discipline"])
        assert len(findings) == 1
        assert "hidden global RNG" in findings[0].message


class TestWarningRuleDetails:
    def test_category_keyword_counts_as_typed(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import warnings\n"
            "warnings.warn('msg', category=DeprecationWarning, stacklevel=2)\n"
        )
        assert lint_file(ok, rel="ok.py", rules=["typed-warning"]) == []

    def test_from_import_alias_is_checked(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("from warnings import warn\nwarn('loose')\n")
        findings = lint_file(bad, rel="bad.py", rules=["typed-warning"])
        assert len(findings) == 2  # untyped + missing stacklevel

    def test_missing_stacklevel_alone_is_one_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import warnings\n"
            "warnings.warn(DeprecationWarning('typed but unattributed'))\n"
        )
        findings = lint_file(bad, rel="bad.py", rules=["typed-warning"])
        assert len(findings) == 1
        assert "stacklevel" in findings[0].message


class TestBlockingInAsyncRuleDetails:
    """``blocking-in-async`` is path-scoped to ``repro/serve/`` (the one
    asyncio package), so its kill-tests pin ``rel`` inside that tree
    instead of joining the shared table (whose ``bad.py`` rel would be
    exempt by design)."""

    VIOLATING = (
        "import time\n"
        "import asyncio\n"
        "import subprocess\n"
        "from subprocess import check_output\n"
        "async def handler():\n"
        "    loop = asyncio.get_event_loop()\n"
        "    time.sleep(0.1)\n"
        "    subprocess.run(['ls'])\n"
        "    check_output(['ls'])\n"
    )

    def test_kills_every_blocking_construct(self, tmp_path):
        bad = tmp_path / "worker.py"
        bad.write_text(self.VIOLATING)
        findings = lint_file(
            bad, rel="repro/serve/worker.py", rules=["blocking-in-async"]
        )
        # the subprocess import, the from-import, and the four calls
        assert len(findings) == 6, [f.format() for f in findings]
        assert all(f.rule_id == "blocking-in-async" for f in findings)
        assert any("event loop" in f.message for f in findings)

    def test_outside_serve_is_exempt(self, tmp_path):
        # The same file is clean anywhere else: sync sleeps and child
        # processes are legitimate outside the event-loop package.
        bad = tmp_path / "worker.py"
        bad.write_text(self.VIOLATING)
        assert (
            lint_file(bad, rel="repro/parallel/worker.py", rules=["blocking-in-async"])
            == []
        )

    def test_aliased_sleep_import_is_caught(self, tmp_path):
        bad = tmp_path / "srv.py"
        bad.write_text("from time import sleep as nap\nnap(1.0)\n")
        findings = lint_file(bad, rel="repro/serve/srv.py", rules=["blocking-in-async"])
        assert len(findings) == 2  # the import and the aliased call

    def test_async_idioms_pass_clean(self, tmp_path):
        ok = tmp_path / "srv.py"
        ok.write_text(
            "import asyncio\n"
            "async def handler(pool, fn):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await asyncio.sleep(0.01)\n"
            "    return await loop.run_in_executor(pool, fn)\n"
        )
        assert (
            lint_file(ok, rel="repro/serve/srv.py", rules=["blocking-in-async"]) == []
        )


class TestForkSafeRuleDetails:
    def test_fn_keyword_form_is_checked(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(exe, tasks):\n    exe.map_tasks(fn=lambda t: t, tasks=tasks)\n")
        findings = lint_file(bad, rel="bad.py", rules=["fork-safe-task"])
        assert len(findings) == 1

    def test_module_level_function_passes(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def task(t):\n"
            "    return t\n"
            "def f(exe, tasks):\n"
            "    return exe.map_tasks(task, tasks)\n"
        )
        assert lint_file(ok, rel="ok.py", rules=["fork-safe-task"]) == []
