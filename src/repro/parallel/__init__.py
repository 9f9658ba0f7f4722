"""Sharded parallel execution backend of the experiment runner.

The runner (:func:`repro.experiments.run_suite`) is its only client; it
splits a suite's estimation work along two axes (``docs/architecture.md``
has the full design):

* **across specs** — a suite fans its experiments out to a worker pool;
* **within a spec** — ``reps`` replications split into independent shards
  with :meth:`numpy.random.SeedSequence.spawn`-derived RNG streams.

Both axes share one :class:`Executor` abstraction (``serial`` /
``process``) and one streaming aggregator that merges per-shard partial
estimates (count/mean/M2, min/max, truncation counts).  Shard plans are
pure functions of ``(reps, seed)``, and partials merge in shard order, so
a spec's result is bitwise identical for any worker count — parallelism
changes wall-clock, never numbers.  Tasks carry spec JSON, never pickled
schedules, so every registry solver parallelizes.
"""

from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    get_executor,
)
from .merge import PartialEstimate, merge_partials
from .sharding import (
    DEFAULT_MAX_SHARDS,
    MIN_SHARD_REPS,
    Shard,
    ShardPlan,
    default_shard_count,
    make_shard_plan,
    resolve_root_seed,
)

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "default_workers",
    "get_executor",
    "PartialEstimate",
    "merge_partials",
    "DEFAULT_MAX_SHARDS",
    "MIN_SHARD_REPS",
    "Shard",
    "ShardPlan",
    "default_shard_count",
    "make_shard_plan",
    "resolve_root_seed",
]
