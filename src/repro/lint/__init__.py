"""repro.lint — the unified rule-plugin static-analysis framework.

One engine, many rules: each file under ``src/`` is parsed and walked
exactly once per run, and every registered :class:`Rule` receives the AST
events it declared hooks for.  The six built-in rules guard the repo's
standing contracts:

========================  ====================================================
rule id                   contract guarded
========================  ====================================================
``bare-timer``            ``repro.obs`` is the one sanctioned timing layer
``solver-callsite``       solvers dispatch through the capability registry
``seed-discipline``       all randomness threads an explicit ``Generator``
``typed-warning``         warnings carry a typed class + explicit stacklevel
``fork-safe-task``        executor task payloads survive the pickle boundary
``blocking-in-async``     the serving layer never blocks its event loop
========================  ====================================================

Findings can be suppressed per line with ``# lint: disable=<rule-id>``
(comma-separated for several rules); a pragma that suppresses nothing is
itself reported.  Run via ``suu lint`` / ``python -m repro lint``, or
programmatically through :func:`lint_paths` / :func:`lint_file`.
"""

from .base import Rule, all_rule_ids, build_rules, register, rule_catalogue
from .engine import FileContext, LintReport, default_root, lint_file, lint_paths
from .findings import Finding
from .suppress import UNUSED_SUPPRESSION_ID, SuppressionIndex

# Importing the rule modules populates the registry as a side effect.
from . import rules_async, rules_determinism, rules_dispatch, rules_instrumentation  # noqa: F401  isort: skip

__all__ = [
    "Rule",
    "Finding",
    "FileContext",
    "LintReport",
    "SuppressionIndex",
    "UNUSED_SUPPRESSION_ID",
    "register",
    "all_rule_ids",
    "build_rules",
    "rule_catalogue",
    "lint_file",
    "lint_paths",
    "default_root",
]
