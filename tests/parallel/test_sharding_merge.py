"""Tests for repro.parallel.sharding and repro.parallel.merge.

The two invariants everything else stands on:

* shard plans are pure functions of (reps, seed) — seeds come
  from ``SeedSequence.spawn`` children, sizes are balanced, nothing
  depends on the environment;
* moment merging reproduces the statistics numpy computes on the
  concatenated samples, and the shard-order fold is deterministic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.parallel import (
    DEFAULT_MAX_SHARDS,
    PartialEstimate,
    default_shard_count,
    make_shard_plan,
    merge_partials,
    resolve_root_seed,
)


class TestShardPlan:
    def test_sizes_balanced_and_sum(self):
        plan = make_shard_plan(1003, seed=7)
        sizes = [s.reps for s in plan.shards]
        assert sum(sizes) == 1003
        assert max(sizes) - min(sizes) <= 1

    def test_default_count_pure_function_of_reps(self):
        assert default_shard_count(1) == 1
        assert default_shard_count(24) == 1
        assert default_shard_count(100) == 4
        assert default_shard_count(10**6) == DEFAULT_MAX_SHARDS

    def test_plan_deterministic(self):
        a = make_shard_plan(500, seed=3)
        b = make_shard_plan(500, seed=3)
        assert a == b

    def test_seeds_are_spawn_children(self):
        plan = make_shard_plan(400, seed=11)
        children = np.random.SeedSequence(11).spawn(plan.n_shards)
        for shard, child in zip(plan.shards, children):
            assert (
                shard.seed_sequence().generate_state(4).tolist()
                == child.generate_state(4).tolist()
            )

    def test_shard_streams_differ(self):
        plan = make_shard_plan(400, seed=11)
        draws = {float(s.rng().random()) for s in plan.shards}
        assert len(draws) == plan.n_shards

    def test_reps_validated(self):
        with pytest.raises(ValidationError):
            make_shard_plan(0, seed=0)

    def test_plan_picklable(self):
        plan = make_shard_plan(200, seed=5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.shards[3].rng().random() == plan.shards[3].rng().random()

    def test_root_seed_resolution(self):
        # Only an integer sim_seed names a reproducible plan; spec JSON
        # comes from outside the program, so anything else is rejected.
        assert resolve_root_seed(42) == 42
        assert resolve_root_seed(np.int64(42)) == 42
        for bad in ("seed", None, 4.0, np.random.default_rng(0)):
            with pytest.raises(ValidationError):
                resolve_root_seed(bad)


class TestPartialEstimate:
    def test_from_samples_matches_numpy(self):
        values = np.random.default_rng(1).integers(1, 50, size=137)
        part = PartialEstimate.from_samples(values, truncated=3)
        v = values.astype(np.float64)
        assert part.count == 137
        assert part.mean == pytest.approx(v.mean())
        assert part.std_err == pytest.approx(v.std(ddof=1) / np.sqrt(137))
        assert part.min == v.min() and part.max == v.max()
        assert part.truncated == 3

    def test_merge_matches_whole(self):
        rng = np.random.default_rng(2)
        chunks = [rng.integers(1, 100, size=k) for k in (40, 1, 73, 25)]
        merged = merge_partials(PartialEstimate.from_samples(c) for c in chunks)
        whole = np.concatenate(chunks).astype(np.float64)
        assert merged.count == whole.size
        assert merged.mean == pytest.approx(whole.mean(), rel=1e-12)
        assert merged.variance == pytest.approx(whole.var(ddof=1), rel=1e-12)
        assert merged.min == whole.min() and merged.max == whole.max()

    def test_merge_sums_truncation(self):
        a = PartialEstimate.from_samples([5, 5], truncated=1)
        b = PartialEstimate.from_samples([7], truncated=2)
        assert a.merge(b).truncated == 3

    def test_single_sample_no_variance(self):
        part = PartialEstimate.from_samples([9])
        assert part.std_err == 0.0 and part.variance == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            PartialEstimate.from_samples([])
        with pytest.raises(ValidationError):
            merge_partials([])

    def test_dict_roundtrip(self):
        part = PartialEstimate.from_samples([1, 4, 9], truncated=1)
        assert PartialEstimate.from_dict(part.to_dict()) == part
