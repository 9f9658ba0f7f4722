"""Engine semantics: single-parse dispatch, suppression, HEAD-clean.

The HEAD-clean classes are the consolidated tier-1 mirror of the CI lint
job: one parametrized test runs every registered rule over the full
``src/`` tree (replacing the three per-checker mirror tests that each
re-scanned the tree on their own).
"""

from __future__ import annotations

import ast

import pytest

from repro.lint import (
    UNUSED_SUPPRESSION_ID,
    all_rule_ids,
    build_rules,
    lint_file,
    lint_paths,
    rule_catalogue,
)
from repro.lint.base import Rule
from repro.errors import ValidationError


class TestRegistry:
    def test_six_builtin_rules_registered(self):
        assert set(all_rule_ids()) >= {
            "bare-timer",
            "solver-callsite",
            "seed-discipline",
            "typed-warning",
            "fork-safe-task",
            "blocking-in-async",
        }

    def test_catalogue_has_descriptions(self):
        for entry in rule_catalogue():
            assert entry["description"], entry["id"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValidationError, match="unknown rule"):
            build_rules(["no-such-rule"])

    def test_rules_are_fresh_instances(self):
        a, b = build_rules(["bare-timer"]), build_rules(["bare-timer"])
        assert a[0] is not b[0]


class TestSinglePass:
    def test_one_parse_per_file_for_full_rule_set(self, tmp_path, monkeypatch):
        # The engine's core promise: adding rules never adds parses.
        target = tmp_path / "mod.py"
        target.write_text("import time\nt = time.perf_counter()\n")
        calls = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            calls.append(1)
            return real_parse(source, *args, **kwargs)

        import repro.lint.engine as engine_mod

        monkeypatch.setattr(engine_mod.ast, "parse", counting_parse)
        findings = lint_file(target, rel="mod.py")  # all six rules
        assert len(calls) == 1
        assert [f.rule_id for f in findings] == ["bare-timer"]

    def test_multiple_rules_fire_from_one_walk(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "import time\n"
            "import random\n"
            "import warnings\n"
            "t = time.monotonic()\n"
            "warnings.warn('loose')\n"
        )
        findings = lint_file(target, rel="multi.py")
        assert {f.rule_id for f in findings} == {
            "bare-timer",
            "seed-discipline",
            "typed-warning",
        }

    def test_findings_sorted_by_location(self, tmp_path):
        target = tmp_path / "sorted.py"
        target.write_text(
            "import warnings\n"
            "warnings.warn('late')\n"
            "import time\n"
            "t = time.monotonic()\n"
        )
        findings = lint_file(target, rel="sorted.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestSuppression:
    def test_pragma_suppresses_on_its_line(self, tmp_path):
        target = tmp_path / "sup.py"
        target.write_text(
            "import time\n"
            "t = time.monotonic()  # lint: disable=bare-timer\n"
        )
        assert lint_file(target, rel="sup.py", rules=["bare-timer"]) == []

    def test_pragma_is_line_scoped(self, tmp_path):
        target = tmp_path / "scoped.py"
        target.write_text(
            "import time\n"
            "a = time.monotonic()  # lint: disable=bare-timer\n"
            "b = time.monotonic()\n"
        )
        findings = lint_file(target, rel="scoped.py", rules=["bare-timer"])
        assert [f.line for f in findings] == [3]

    def test_pragma_suppresses_multiple_rules(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "import warnings, time\n"
            "t = time.monotonic(); warnings.warn('x')  "
            "# lint: disable=bare-timer,typed-warning\n"
        )
        assert lint_file(target, rel="multi.py") == []

    def test_unused_pragma_is_reported(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text("x = 1  # lint: disable=bare-timer\n")
        findings = lint_file(target, rel="stale.py", rules=["bare-timer"])
        assert len(findings) == 1
        assert findings[0].rule_id == UNUSED_SUPPRESSION_ID
        assert "matches no finding" in findings[0].message

    def test_unknown_rule_in_pragma_is_reported(self, tmp_path):
        target = tmp_path / "typo.py"
        target.write_text("x = 1  # lint: disable=bear-timer\n")
        findings = lint_file(target, rel="typo.py", rules=["bare-timer"])
        assert len(findings) == 1
        assert "unknown rule id" in findings[0].message

    def test_inactive_rules_pragmas_are_not_judged(self, tmp_path):
        # A --rule-restricted run cannot tell whether another rule's
        # pragma is earning its keep; it must stay silent about it.
        target = tmp_path / "other.py"
        target.write_text("x = 1  # lint: disable=bare-timer\n")
        assert lint_file(target, rel="other.py", rules=["seed-discipline"]) == []


class TestPluginProtocol:
    def test_custom_rule_slots_into_the_engine(self, tmp_path):
        class NoTodoRule(Rule):
            id = "no-todo-call"
            description = "calls to todo() are placeholders"

            def visit_Call(self, node, ctx):
                if isinstance(node.func, ast.Name) and node.func.id == "todo":
                    ctx.report(self, node, "unresolved todo() call")

        target = tmp_path / "todo.py"
        target.write_text("todo()\n")
        findings = lint_file(target, rel="todo.py", rules=[NoTodoRule()])
        assert [f.rule_id for f in findings] == ["no-todo-call"]


class TestHeadClean:
    """The framework self-check: the committed tree lints clean.

    This is the consolidated tier-1 mirror of the CI lint job — one
    parametrized test per rule instead of three per-checker test modules.
    """

    @pytest.mark.parametrize("rule_id", sorted(all_rule_ids()))
    def test_src_is_clean_per_rule(self, rule_id):
        report = lint_paths(rules=[rule_id])
        assert report.ok, [f.format() for f in report.findings]
        assert report.files_scanned > 50

    def test_src_is_clean_full_set_single_pass(self):
        report = lint_paths()
        assert report.ok, [f.format() for f in report.findings]
        assert sorted(report.rule_ids) == sorted(all_rule_ids())
