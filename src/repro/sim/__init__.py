"""Stochastic simulation and exact analysis of SUU schedules.

This is the **engine layer**.  Schedules are evaluated through
:func:`repro.evaluate.evaluate`, the one front door, which dispatches
here.

Three execution engines share one set of semantics (Def 2.1); see
``docs/architecture.md`` for the decision tree:

* :mod:`.engine` — scalar reference engine, one replication at a time;
* :mod:`.montecarlo` — lockstep numpy path for oblivious/cyclic schedules;
* :mod:`.batch` — lockstep path for adaptive policies with frontier-state
  memoization.

The exact analytic layer (:mod:`.exact`) solves the Figure-1 Markov
chain itself: a vectorized sparse engine by default, with the original
scalar DP retained behind ``engine="scalar"``.
"""

from .batch import BatchExecutionResult, batchable, simulate_batch
from .engine import DEFAULT_MAX_STEPS, ExecutionResult, eligible_mask, simulate, simulate_or_raise
from .exec_tree import ExecutionTree, build_execution_tree
from .exact.scalar import eligible_bitmask, transition_distribution
from .montecarlo import MakespanEstimate

__all__ = [
    "BatchExecutionResult",
    "batchable",
    "simulate_batch",
    "DEFAULT_MAX_STEPS",
    "ExecutionResult",
    "eligible_mask",
    "simulate",
    "simulate_or_raise",
    "ExecutionTree",
    "build_execution_tree",
    "eligible_bitmask",
    "transition_distribution",
    "MakespanEstimate",
]
