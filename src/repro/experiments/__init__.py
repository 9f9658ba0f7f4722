"""Declarative, cached experiments: spec × registry × runner × suites.

The unified experiment layer (see ``docs/architecture.md``):

* :class:`ExperimentSpec` — a JSON-serializable description of one
  measurement (instance generator × algorithm × estimator parameters);
  its algorithm is a solver registry name or ``"solve"``;
* registries (:data:`GENERATORS`, :data:`SUITES`) — string-named
  extension points so specs stay pure data;
* :func:`run_experiment` / :func:`run_suite` — execution with on-disk
  result caching keyed by the spec hash;
* built-in suites shared by ``benchmarks/bench_*.py`` and the CLI
  (``python -m repro run-experiments``).
"""

from .registry import GENERATORS, register_generator, resolve_generator
from .runner import (
    DEFAULT_CACHE_DIR,
    ExperimentResult,
    run_experiment,
    run_suite,
)
from .spec import ExperimentSpec
from .suites import SUITES, get_suite, register_suite, suite_names

__all__ = [
    "GENERATORS",
    "SUITES",
    "DEFAULT_CACHE_DIR",
    "ExperimentSpec",
    "ExperimentResult",
    "register_generator",
    "register_suite",
    "resolve_generator",
    "run_experiment",
    "run_suite",
    "get_suite",
    "suite_names",
]
