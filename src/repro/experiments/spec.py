"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a pure-data description of one measurement:
*instance generator × algorithm × estimator parameters*, all named through
the registries in :mod:`repro.experiments.registry` so the spec is JSON
round-trippable.  The spec's canonical-JSON hash keys the on-disk result
cache — two specs that describe the same computation hash identically
regardless of field order or the human-facing ``name`` label.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ExperimentError
from .registry import resolve_algorithm, resolve_generator

__all__ = ["ExperimentSpec", "SPEC_VERSION", "EVALUATION_KEYS"]

#: Bump to invalidate every cached result when estimation semantics change.
#: v2: estimation runs through the sharded backend (repro.parallel) — shard
#: streams replaced the single sim_seed stream, changing every number.
#: v3: specs gained the declarative ``evaluation:`` block (the field enters
#: the canonical JSON, so every hash changes even though mc numbers do not).
#: v4: oblivious/cyclic Monte Carlo draws each job's completion step from
#: its cumulative hazard (one exponential per job and replication), which
#: consumes the stream differently and changes those numbers.
SPEC_VERSION = 4

#: Keys the ``evaluation:`` block accepts.  ``mode`` selects the runner
#: route ("mc" — the sharded default — or "exact", one front-door call);
#: ``engine`` / ``max_states`` configure the exact route.  Adaptive
#: precision (rtol/budget) is deliberately unsupported here: the cached
#: runner pre-plans its replication shards, so open-ended rep counts would
#: break both the shard plan and the cache key — call
#: :func:`repro.evaluate.evaluate` directly for that.
EVALUATION_KEYS = ("mode", "engine", "max_states")


@dataclass
class ExperimentSpec:
    """One experiment: build an instance, schedule it, estimate the makespan.

    Attributes
    ----------
    name:
        Human-facing label (table rows, cache-file names).  Excluded from
        the cache hash: renaming an experiment does not invalidate its
        cached result.
    generator / generator_params / instance_seed:
        Registry key, keyword arguments, and RNG seed for the instance.
    algorithm / algorithm_params:
        Registry key and keyword arguments for the scheduling algorithm
        (e.g. ``{"constants": "paper"}``).
    reps / max_steps / sim_seed / engine:
        Monte Carlo estimator parameters for the sharded evaluation route
        (the within-shard engine routing of ``repro.sim.montecarlo``).
    evaluation:
        Declarative evaluation block (:data:`EVALUATION_KEYS`): pure data
        describing *how* to judge the schedule, resolved through the
        :mod:`repro.evaluate` front door.  ``{"mode": "exact"}`` replaces
        the spec's whole shard plan with one exact Markov solve
        (``engine``/``max_states`` inside the block tune it; the
        top-level ``engine`` must stay ``"auto"`` then, and
        ``reps``/``max_steps``/``sim_seed`` are ignored — an exact answer
        has no sampling parameters); the default ``mode="mc"`` keeps the
        sharded Monte Carlo route driven by the fields above.
    compute_reference / exact_limit:
        When true, also compute the ratio denominator via
        :func:`repro.analysis.reference_makespan` (exact DP below
        ``exact_limit`` jobs, certified lower bound above).
    """

    name: str
    generator: str = "random"
    generator_params: dict = field(default_factory=dict)
    instance_seed: int = 0
    algorithm: str = "solve"
    algorithm_params: dict = field(default_factory=dict)
    reps: int = 200
    max_steps: int = 200_000
    sim_seed: int = 0
    engine: str = "auto"
    evaluation: dict = field(default_factory=dict)
    compute_reference: bool = False
    exact_limit: int = 10

    def __post_init__(self):
        bad = sorted(set(self.evaluation) - set(EVALUATION_KEYS))
        if bad:
            raise ExperimentError(
                f"spec {self.name!r}: unknown evaluation keys {bad}; "
                f"supported: {sorted(EVALUATION_KEYS)} (adaptive precision "
                "is not available through the cached runner — call "
                "repro.evaluate.evaluate directly)"
            )
        mode = self.evaluation.get("mode", "mc")
        if mode not in ("mc", "exact"):
            raise ExperimentError(
                f"spec {self.name!r}: evaluation mode must be 'mc' or 'exact' "
                f"(the runner needs a deterministic shard plan, so 'auto' is "
                f"not allowed here), got {mode!r}"
            )
        # Validate the exact-route settings at construction time: a bad
        # spec must fail here, not mid-suite inside a worker process —
        # and under mode="mc" these keys would be silently inert (the mc
        # route reads the top-level `engine`), so they are rejected.
        if mode == "exact":
            if self.engine != "auto":
                # The mirror asymmetry of the inert-key check below: the
                # exact route reads evaluation["engine"], never the
                # top-level MC engine field.
                raise ExperimentError(
                    f"spec {self.name!r}: top-level engine={self.engine!r} is "
                    "inert under evaluation mode='exact'; set the exact "
                    "engine inside the evaluation block instead "
                    '(evaluation={"mode": "exact", "engine": ...})'
                )
            engine = self.evaluation.get("engine", "auto")
            if engine not in ("auto", "sparse", "scalar"):
                raise ExperimentError(
                    f"spec {self.name!r}: evaluation engine for mode='exact' "
                    f"must be 'auto', 'sparse' or 'scalar', got {engine!r}"
                )
            max_states = self.evaluation.get("max_states")
            if max_states is not None and (
                not isinstance(max_states, int) or max_states < 1
            ):
                raise ExperimentError(
                    f"spec {self.name!r}: evaluation max_states must be a "
                    f"positive int, got {max_states!r}"
                )
        else:
            inert = sorted(set(self.evaluation) - {"mode"})
            if inert:
                raise ExperimentError(
                    f"spec {self.name!r}: evaluation keys {inert} only apply "
                    "to mode='exact'; the mc route is configured by the "
                    "spec's top-level reps/max_steps/sim_seed/engine fields"
                )

    # -- evaluation routing ----------------------------------------------
    @property
    def evaluation_mode(self) -> str:
        """``"mc"`` (sharded Monte Carlo, the default) or ``"exact"``."""
        return self.evaluation.get("mode", "mc")

    def evaluation_request(self):
        """The spec's ``evaluation:`` block as a front-door request.

        Only meaningful for ``mode="exact"`` — the mc route is executed
        shard-by-shard by the runner itself, below the front door.
        """
        from ..evaluate import EvaluationRequest

        return EvaluationRequest(
            metrics=("makespan",),
            mode="exact",
            engine=self.evaluation.get("engine", "auto"),
            max_states=self.evaluation.get("max_states"),
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(**data)

    def spec_hash(self) -> str:
        """Stable 16-hex-digit digest of everything that affects the result.

        Salted with :data:`SPEC_VERSION` and the package version, so cached
        results are invalidated both when estimation semantics change and
        across releases.  Within one release, code edits to algorithms do
        NOT change the hash — benchmarks and CLI users must clear the cache
        (or pass ``force=True`` / set ``REPRO_BENCH_COLD=1``) to re-measure
        after changing algorithm code.
        """
        from .. import __version__
        from ..parallel.sharding import default_shard_count

        payload = self.to_dict()
        payload.pop("name")
        payload["__version__"] = SPEC_VERSION
        payload["__package_version__"] = __version__
        # The default shard plan fixes the RNG stream structure, so a
        # change to the sharding constants must invalidate cached results.
        payload["__shards__"] = default_shard_count(self.reps)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- execution -------------------------------------------------------
    def build_instance(self) -> SUUInstance:
        gen = resolve_generator(self.generator)
        rng = np.random.default_rng(self.instance_seed)
        instance = gen(rng, **self.generator_params)
        if not isinstance(instance, SUUInstance):
            raise ExperimentError(
                f"generator {self.generator!r} returned "
                f"{type(instance).__name__}, expected SUUInstance"
            )
        return instance

    def build_schedule(self, instance: SUUInstance) -> ScheduleResult:
        alg = resolve_algorithm(self.algorithm)
        # The solver gets its own deterministic stream, decoupled from the
        # simulation stream so reps/sim_seed changes never alter the
        # schedule under test.
        rng = np.random.default_rng((self.instance_seed, 0xA16))
        result = alg(instance, rng, **self.algorithm_params)
        if not isinstance(result, ScheduleResult):
            raise ExperimentError(
                f"algorithm {self.algorithm!r} returned "
                f"{type(result).__name__}, expected ScheduleResult"
            )
        return result
