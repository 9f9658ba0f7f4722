"""Dispatch-contract rules: every call goes through the sanctioned door."""

from __future__ import annotations

import ast

from .base import Rule, register

__all__ = ["SolverCallsiteRule"]


def _callee_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


#: Concrete solver functions — the registry records' ``fn`` targets.
SOLVER_FUNCTIONS = frozenset(
    {
        "suu_i_adaptive",
        "suu_i_oblivious",
        "suu_i_lp",
        "solve_chains",
        "solve_tree",
        "solve_forest",
        "solve_layered",
        "serial_baseline",
        "round_robin_baseline",
        "greedy_prob_policy",
        "random_policy",
        "msm_eligible_policy",
        "exact_baseline",
        "state_round_robin_regimen",
        "online_greedy",
    }
)

#: The package that defines the solvers and the registry that wraps them.
SOLVER_ALLOWED_PREFIX = "repro/algorithms/"


@register
class SolverCallsiteRule(Rule):
    """Solvers are reached only through the capability-typed registry (PR 8).

    Importing a concrete solver function outside ``repro/algorithms/``
    skips the DAG-class and size capability checks and drops the call
    site out of registry-driven sweeps; dispatch goes through ``solve()``
    / ``resolve_solver()`` / ``run_portfolio()``.
    """

    id = "solver-callsite"
    description = (
        "concrete solver functions may only be called/imported inside "
        "repro/algorithms/; everything else dispatches through the "
        "capability-typed registry"
    )

    def exempt(self, rel: str) -> bool:
        return rel.startswith(SOLVER_ALLOWED_PREFIX)

    def visit_Call(self, node: ast.Call, ctx) -> None:
        name = _callee_name(node)
        if name in SOLVER_FUNCTIONS:
            ctx.report(
                self,
                node,
                f"call to concrete solver {name}() — dispatch through the "
                "registry (solve / resolve_solver / run_portfolio)",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        imported = {a.name for a in node.names} & SOLVER_FUNCTIONS
        if imported:
            ctx.report(
                self,
                node,
                f"imports concrete solver(s) {sorted(imported)} — dispatch "
                "through the registry (solve / resolve_solver / run_portfolio)",
            )
