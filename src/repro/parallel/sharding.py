"""Replication sharding: split a Monte Carlo estimate into independent shards.

A *shard plan* deterministically decomposes ``reps`` replications into
contiguous shards, each with its own independent RNG stream derived via
:meth:`numpy.random.SeedSequence.spawn`.  Two properties make sharded
estimation reproducible by construction:

* **The plan is a pure function of** ``(reps, seed)`` — never of the
  executor, the worker count, or task completion order.  Running the
  same plan serially, on one worker, or on sixteen workers executes the
  exact same shards with the exact same streams, so the merged estimate is
  bitwise identical for any worker count.
* **Shard streams are independent by construction**: shard ``i`` draws from
  ``SeedSequence(seed).spawn(n_shards)[i]``, i.e. the child sequence with
  ``spawn_key=(i,)``.  Shards never share a stream, so per-shard sample
  moments are independent and may be merged (:mod:`repro.parallel.merge`).

The shard count is :func:`default_shard_count`, itself a pure function of
``reps`` — so the plan, and therefore the numbers a spec produces, do not
depend on how many workers happen to be available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "MIN_SHARD_REPS",
    "Shard",
    "ShardPlan",
    "default_shard_count",
    "make_shard_plan",
    "resolve_root_seed",
]

#: Upper bound on the number of shards a plan creates.  Changing
#: either constant changes the shard plan and therefore the RNG
#: stream structure of every estimate; the experiment-spec hash folds in
#: ``default_shard_count(reps)`` so cached results invalidate themselves
#: when that happens.
DEFAULT_MAX_SHARDS = 16

#: A shard carries at least this many replications, so tiny
#: estimates do not pay per-shard overhead for nothing.
MIN_SHARD_REPS = 25


def default_shard_count(reps: int) -> int:
    """Number of shards the plan uses for ``reps`` replications.

    A pure function of ``reps`` (never of the worker count): small
    estimates stay in one shard, large ones split into up to
    :data:`DEFAULT_MAX_SHARDS` shards of at least :data:`MIN_SHARD_REPS`
    replications each.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    return max(1, min(DEFAULT_MAX_SHARDS, reps // MIN_SHARD_REPS))


@dataclass(frozen=True)
class Shard:
    """One independent slice of a Monte Carlo estimate.

    ``entropy`` is the root seed of the whole plan; the shard's own stream
    is the spawned child ``SeedSequence(entropy, spawn_key=(index,))``,
    identical to ``SeedSequence(entropy).spawn(n_shards)[index]``.  The
    dataclass holds only ints, so shards pickle cheaply to worker
    processes.
    """

    index: int
    n_shards: int
    reps: int
    entropy: int

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=(self.index,))

    def rng(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this shard's stream."""
        return np.random.default_rng(self.seed_sequence())


@dataclass(frozen=True)
class ShardPlan:
    """The full, deterministic decomposition of one estimate."""

    reps: int
    entropy: int
    shards: tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def resolve_root_seed(seed: int) -> int:
    """Root entropy for a shard plan: the spec's integer ``sim_seed``.

    Spec JSON comes from outside the program, so anything but an integer
    is rejected here rather than deep inside ``SeedSequence``.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValidationError(f"cannot derive a shard-plan seed from {seed!r}")


def make_shard_plan(reps: int, seed: int) -> ShardPlan:
    """Split ``reps`` replications into a deterministic shard plan.

    Shard sizes differ by at most one (earlier shards take the remainder),
    and shard ``i`` owns the ``i``-th spawned child of the root seed.
    """
    n_shards = default_shard_count(reps)
    entropy = resolve_root_seed(seed)
    base, extra = divmod(reps, n_shards)
    shards = tuple(
        Shard(
            index=i,
            n_shards=n_shards,
            reps=base + (1 if i < extra else 0),
            entropy=entropy,
        )
        for i in range(n_shards)
    )
    return ShardPlan(reps=reps, entropy=entropy, shards=shards)
