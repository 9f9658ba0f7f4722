"""One front door for evaluation: ``repro.evaluate.evaluate()``.

The paper judges every schedule family the same way — expected makespan
(and completion behavior) under the Def 2.1 stochastic execution model —
so the repo exposes exactly one evaluation API:

    from repro import solve, evaluate

    result = solve(instance, rng=0)
    report = evaluate(instance, result.schedule, seed=0)
    print(report)          # E[makespan], CI or exactness, engine provenance

``evaluate()`` dispatches any schedule kind (cyclic, finite oblivious,
regimen, adaptive policy) to the cheapest engine satisfying the request:
exact sparse Markov when the engine's guards admit it (the ``2^n ×
width`` DP table and the sparse subset tables), batched or lockstep
Monte Carlo otherwise.  See :class:`EvaluationRequest` for the
knobs and :class:`EvaluationReport` for the result shape.  Spreading
replications over processes is the experiment runner's job
(``run_experiment(spec, workers=N)``).
"""

from .dispatch import (
    Route,
    exact_state_cost,
    exact_subset_entries,
    exact_supported,
    schedule_kind,
    select_route,
)
from .facade import evaluate
from .report import EvaluationReport
from .request import ENGINES, METRICS, MODES, EvaluationRequest

__all__ = [
    "evaluate",
    "EvaluationRequest",
    "EvaluationReport",
    "Route",
    "select_route",
    "schedule_kind",
    "exact_supported",
    "exact_state_cost",
    "exact_subset_entries",
    "METRICS",
    "MODES",
    "ENGINES",
]
