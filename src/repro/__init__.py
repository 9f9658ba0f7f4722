"""repro — Approximation algorithms for multiprocessor scheduling under uncertainty.

A faithful, tested reproduction of Lin & Rajaraman (SPAA 2007): the SUU
problem model, every algorithm in the paper (MSM-ALG, MSM-E-ALG, SUU-I-ALG,
SUU-I-OBL, the LP-based chain/tree/forest pipelines), the substrates they
rely on (LP relaxations, integral max-flow rounding, chain decomposition,
random-delay scheduling, schedule replication), exact reference solvers, a
stochastic simulator, workload generators, and an experiment harness.

Quickstart — two calls, ``solve`` then ``evaluate``::

    import numpy as np
    from repro import SUUInstance, solve, evaluate

    rng = np.random.default_rng(0)
    inst = SUUInstance(rng.uniform(0.05, 0.9, size=(4, 10)))  # 4 machines, 10 jobs
    result = solve(inst, rng=rng)
    print(evaluate(inst, result, seed=0))

``evaluate()`` is the one front door for judging any schedule: it picks
the cheapest engine satisfying the request (exact Markov when the state
guard admits it, batched/lockstep Monte Carlo otherwise) and returns an
``EvaluationReport`` with engine provenance.  ``run_experiment(spec,
workers=N)`` spreads a spec's replications over worker processes.
"""

from .core import (
    IDLE,
    AdaptivePolicy,
    CyclicSchedule,
    DagClass,
    ObliviousSchedule,
    PrecedenceDAG,
    PseudoSchedule,
    Regimen,
    ScheduleResult,
    SUUInstance,
)
from .errors import (
    CycleError,
    ExactSolverLimitError,
    InfeasibleError,
    LPError,
    ReproError,
    RoundingError,
    ScheduleError,
    SimulationLimitError,
    UnsupportedDagError,
    ValidationError,
)
from .sim import MakespanEstimate, simulate, simulate_batch

# The subpackage and the front-door function share the name on purpose:
# after these imports the attribute ``repro.evaluate`` is the *callable*
# (the module stays reachable as ``repro.evaluate`` in import statements
# via sys.modules, e.g. ``from repro.evaluate import EvaluationRequest``).
from .evaluate import EvaluationReport, EvaluationRequest
from .evaluate import evaluate as evaluate

# Dual nature: the subpackage's full public surface is mirrored onto the
# function object, so every idiom works — ``repro.evaluate(inst, s)``,
# ``repro.evaluate.evaluate(inst, s)``, and ``repro.evaluate.<any
# __all__ name>`` after a plain ``import repro.evaluate``.
import sys as _sys

_evaluate_module = _sys.modules[__name__ + ".evaluate"]
for _name in _evaluate_module.__all__:
    setattr(evaluate, _name, getattr(_evaluate_module, _name))
del _sys, _name, _evaluate_module

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "IDLE",
    "AdaptivePolicy",
    "CyclicSchedule",
    "DagClass",
    "ObliviousSchedule",
    "PrecedenceDAG",
    "PseudoSchedule",
    "Regimen",
    "ScheduleResult",
    "SUUInstance",
    # errors
    "CycleError",
    "ExactSolverLimitError",
    "InfeasibleError",
    "LPError",
    "ReproError",
    "RoundingError",
    "ScheduleError",
    "SimulationLimitError",
    "UnsupportedDagError",
    "ValidationError",
    # sim
    "MakespanEstimate",
    "simulate",
    "simulate_batch",
    # evaluation front door (re-exported lazily below)
    "evaluate",
    "EvaluationRequest",
    "EvaluationReport",
    # algorithms / experiments (re-exported lazily below)
    "solve",
    "PAPER",
    "PRACTICAL",
    "ExperimentSpec",
    "run_experiment",
    "run_suite",
]


def __getattr__(name: str):
    # Lazy imports keep `import repro` light and avoid import cycles with
    # the algorithms package, which itself imports the core model.
    if name == "solve":
        from .algorithms.pipeline import solve

        return solve
    if name in ("PAPER", "PRACTICAL"):
        from .algorithms import constants

        return getattr(constants, name)
    if name in ("ExperimentSpec", "run_experiment", "run_suite"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
