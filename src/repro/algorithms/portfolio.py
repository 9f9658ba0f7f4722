"""Portfolio runner: race every capability-admitting solver on one instance.

The registry (:mod:`repro.algorithms.registry`) declares which solvers
admit an instance; :func:`run_portfolio` runs each one, judges every
schedule through the :func:`repro.evaluate.evaluate` front door at a
shared seed/budget, and returns a provenance-carrying leaderboard: each
:class:`PortfolioEntry` holds the solver's record metadata, the full
:class:`~repro.evaluate.report.EvaluationReport` (CI or exactness plus
engine provenance), wall-clock split (solve vs evaluate), and the
telemetry counters the solver+evaluation accumulated.  The winner is the
entry with the smallest evaluated makespan (ties to the lexicographically
first name — deterministic).

Observability: ``portfolio.solvers_run`` / ``portfolio.solvers_skipped``
counters, one ``portfolio.solver`` span per member (under a ``portfolio``
root span) when telemetry is enabled.

Consumed by the ``suu portfolio`` CLI subcommand, the registered
``portfolio`` experiment suite, and the ``portfolio`` verify oracle that
certifies the leaderboard's lower-bound sandwich on small instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ReproError
from .constants import PRACTICAL, SUUConstants
from .registry import Solver, iter_solvers, resolve_solver

__all__ = ["PortfolioEntry", "PortfolioReport", "run_portfolio", "solver_rng"]


def solver_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-solver stream: independent of the member list.

    Seeding with ``(seed, *name_bytes)`` means adding or removing other
    solvers from the portfolio never changes a member's schedule.
    """
    return np.random.default_rng((seed, *name.encode()))


@dataclass
class PortfolioEntry:
    """One leaderboard row: schedule + judgment + provenance."""

    solver: str
    guarantee: str
    paper: str
    adaptivity: str
    result: ScheduleResult
    report: object  # EvaluationReport (kept untyped to avoid an import cycle)
    solve_time_s: float
    eval_time_s: float
    counters: dict = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.report.makespan

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "algorithm": self.result.algorithm,
            "guarantee": self.guarantee,
            "paper": self.paper,
            "adaptivity": self.adaptivity,
            "makespan": self.report.makespan,
            "std_err": self.report.std_err,
            "ci95": list(self.report.ci95),
            "exact": self.report.exact,
            "n_reps": self.report.n_reps,
            "truncated": self.report.truncated,
            "mode": self.report.mode,
            "engine": self.report.engine,
            "schedule_kind": self.report.schedule_kind,
            "solve_time_s": self.solve_time_s,
            "eval_time_s": self.eval_time_s,
            "counters": dict(self.counters),
        }


@dataclass
class PortfolioReport:
    """The full leaderboard plus everything that did not make it on."""

    instance_name: str
    n: int
    m: int
    dag_class: str
    seed: int
    entries: list[PortfolioEntry]
    #: ``(solver_name, reason)`` for members that were filtered or failed.
    skipped: list[tuple[str, str]]

    @property
    def winner(self) -> PortfolioEntry | None:
        return self.entries[0] if self.entries else None

    def entry(self, solver: str) -> PortfolioEntry:
        for e in self.entries:
            if e.solver == solver:
                return e
        raise KeyError(f"solver {solver!r} is not on the leaderboard")

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_name,
            "n": self.n,
            "m": self.m,
            "dag_class": self.dag_class,
            "seed": self.seed,
            "winner": self.winner.solver if self.winner else None,
            "leaderboard": [e.to_dict() for e in self.entries],
            "skipped": [{"solver": s, "reason": r} for s, r in self.skipped],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_portfolio(
    instance: SUUInstance,
    solvers: list[str] | None = None,
    constants: SUUConstants = PRACTICAL,
    seed: int = 0,
    reps: int = 200,
    max_steps: int = 200_000,
    mode: str = "auto",
) -> PortfolioReport:
    """Race solvers on ``instance`` and rank them by evaluated makespan.

    ``solvers=None`` enters every registered solver whose declared
    capabilities admit the instance (:func:`iter_solvers`); an explicit
    name list restricts the field but still capability-filters it (a
    non-admitting name is skipped with a reason, not an error).  Each
    member schedules with its own :func:`solver_rng` stream, then is
    judged through one shared ``evaluate()`` configuration, so rows are
    comparable: same seed, same replication budget, same step cap.

    A member whose solve or evaluation raises a
    :class:`~repro.errors.ReproError` is skipped with the message as the
    reason — one broken solver must not take down the leaderboard.
    """
    # Lazy: algorithms must import before evaluate.  The quiet core: a
    # censored member shows in its row's ``truncated``, not as a warning.
    from ..evaluate.facade import _evaluate

    candidates: list[Solver]
    if solvers is None:
        candidates = iter_solvers(instance)
        filtered: list[tuple[str, str]] = []
    else:
        candidates = []
        filtered = []
        for name in solvers:
            rec = resolve_solver(name)
            if rec.supports(instance):
                candidates.append(rec)
            else:
                filtered.append(
                    (name, f"capabilities exclude {instance.classify().value} "
                           f"at n={instance.n}, m={instance.m}")
                )

    entries: list[PortfolioEntry] = []
    skipped: list[tuple[str, str]] = list(filtered)
    with obs.span("portfolio", instance=instance.name, members=len(candidates)):
        for rec in candidates:
            with obs.span("portfolio.solver", solver=rec.name):
                before = obs.counters() if obs.enabled() else {}
                sw_solve = obs.stopwatch()
                try:
                    result = rec.build(
                        instance, constants=constants, rng=solver_rng(seed, rec.name)
                    )
                    solve_time = sw_solve.elapsed_s
                    sw_eval = obs.stopwatch()
                    report = _evaluate(
                        instance,
                        result.schedule,
                        mode=mode,
                        reps=reps,
                        seed=seed,
                        max_steps=max_steps,
                    )
                except ReproError as exc:
                    skipped.append((rec.name, f"{type(exc).__name__}: {exc}"))
                    continue
                entries.append(
                    PortfolioEntry(
                        solver=rec.name,
                        guarantee=rec.guarantee,
                        paper=rec.paper,
                        adaptivity=rec.adaptivity,
                        result=result,
                        report=report,
                        solve_time_s=solve_time,
                        eval_time_s=sw_eval.elapsed_s,
                        counters=obs.counters_since(before) if obs.enabled() else {},
                    )
                )
    obs.add("portfolio.solvers_run", len(entries))
    obs.add("portfolio.solvers_skipped", len(skipped))
    entries.sort(key=lambda e: (e.makespan, e.solver))
    return PortfolioReport(
        instance_name=instance.name or f"instance(n={instance.n},m={instance.m})",
        n=instance.n,
        m=instance.m,
        dag_class=instance.classify().value,
        seed=seed,
        entries=entries,
        skipped=skipped,
    )
