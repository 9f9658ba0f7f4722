"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a pure-data description of one measurement:
*instance generator × algorithm × estimator parameters*.  The generator is
named in :mod:`repro.experiments.registry`, the algorithm in the solver
registry (:mod:`repro.algorithms.registry`, or ``"solve"`` for the front
door), and the constants by preset name, so the spec is JSON
round-trippable.  The spec's canonical-JSON hash keys the on-disk result
cache — two specs that describe the same computation hash identically
regardless of field order or the human-facing ``name`` label.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .. import store
from ..algorithms import resolve_constants, resolve_solver, solve
from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ExperimentError
from .registry import resolve_generator

__all__ = ["ExperimentSpec", "EVALUATION_KEYS"]

#: Keys the ``evaluation:`` block accepts.  ``mode`` selects the runner
#: route ("mc" — the sharded default — or "exact", one front-door call);
#: ``max_states`` guards the exact route.  Adaptive precision
#: (rtol/budget) is deliberately unsupported here: the cached runner
#: pre-plans its replication shards, so open-ended rep counts would break
#: both the shard plan and the cache key — call
#: :func:`repro.evaluate.evaluate` directly for that.
EVALUATION_KEYS = ("mode", "max_states")


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
        A solver registry name, or ``"solve"`` for the auto-dispatching
        front door, and its keyword arguments.  ``constants`` names a
        :data:`~repro.algorithms.PRESETS` entry (default ``"practical"``),
        e.g. ``{"constants": "paper"}``; ``"solve"`` also takes
        ``method`` and ``allow_fallback``.
    reps / max_steps / sim_seed:
        Monte Carlo estimator parameters for the sharded evaluation route
        (each shard runs the engine routing of ``repro.sim.montecarlo``).
    evaluation:
        Declarative evaluation block (:data:`EVALUATION_KEYS`): pure data
        describing *how* to judge the schedule, resolved through the
        :mod:`repro.evaluate` front door.  ``{"mode": "exact"}`` replaces
        the spec's whole shard plan with one exact Markov solve
        (``max_states`` inside the block guards it, and
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
        # and under mode="mc" they would be silently inert, so they are
        # rejected.
        if mode == "exact":
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
                    "spec's top-level reps/max_steps/sim_seed fields"
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

        A :func:`repro.store.result_key`, salted with the results version
        and the package version, so cached results are invalidated when
        the engines' numbers change and across releases.  Within one
        release, code edits to algorithms do NOT change the hash —
        benchmarks and CLI users must clear the cache (or pass
        ``force=True`` / set ``REPRO_BENCH_COLD=1``) to re-measure after
        changing algorithm code.
        """
        from ..parallel.sharding import default_shard_count

        payload = self.to_dict()
        payload.pop("name")
        # The default shard plan fixes the RNG stream structure, so a
        # change to the sharding constants must invalidate cached results.
        payload["__shards__"] = default_shard_count(self.reps)
        return store.result_key(payload)

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
        params = dict(self.algorithm_params)
        constants = resolve_constants(params.pop("constants", "practical"))
        build = (
            solve if self.algorithm == "solve" else resolve_solver(self.algorithm).build
        )
        # The solver gets its own deterministic stream, decoupled from the
        # simulation stream so reps/sim_seed changes never alter the
        # schedule under test.
        rng = np.random.default_rng((self.instance_seed, 0xA16))
        result = build(instance, constants=constants, rng=rng, **params)
        if not isinstance(result, ScheduleResult):
            raise ExperimentError(
                f"algorithm {self.algorithm!r} returned "
                f"{type(result).__name__}, expected ScheduleResult"
            )
        return result
