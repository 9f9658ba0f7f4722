"""Tunable constants of the paper's constructions.

The paper's analysis fixes specific constants (remove jobs at mass 1/96,
loop ``66 log n`` times, replicate ``σ = 16 log n`` times, ...).  Those
values make the *proofs* airtight but produce schedules that are orders of
magnitude longer than necessary in practice.  Both presets share the exact
algorithmic structure; only the constants differ:

* :data:`PAPER` — the constants exactly as printed, for fidelity runs and
  for the A1 ablation.
* :data:`PRACTICAL` — smaller constants with the same asymptotic shape,
  used by default in examples and benchmarks (A1 quantifies the gap).
* :data:`LEAN` — the most aggressive constants that keep every mechanism.

:data:`PRESETS` names the three; specs and the CLI carry the name and
resolve it with :func:`resolve_constants`.  Every constant is documented
with the paper location it comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .._util import log2p
from ..errors import ExperimentError

__all__ = ["SUUConstants", "PAPER", "PRACTICAL", "LEAN", "PRESETS", "resolve_constants"]


@dataclass(frozen=True)
class SUUConstants:
    """Constant bundle threaded through the §3–4 constructions."""

    #: Algorithm 2 (SUU-I-OBL): jobs are removed from the working set once
    #: they accumulate this much mass in the current round (paper: 1/96).
    obl_mass_threshold: float = 1.0 / 96.0

    #: Algorithm 2: round limit factor — at most ``factor · log2 n`` calls
    #: to MSM-E-ALG before the guess ``t`` is doubled (paper: 66).
    obl_round_factor: float = 66.0

    #: §4.1 schedule replication: each step of the core schedule is
    #: replicated ``σ = factor · log2 n`` times (paper: 16).
    replication_factor: float = 16.0

    #: Mass target of the AccMass LPs (paper: 1/2).
    lp_target_mass: float = 0.5

    #: Low-job scale in the Theorem 4.1 rounding (paper: 32).
    rounding_low_scale: int = 32

    #: SSW congestion-bound constant α in ``α log(n+m)/log log(n+m)``.
    delay_alpha: float = 4.0

    #: Use derandomized (conditional-expectation) delays instead of the
    #: randomized retry loop.
    derandomize_delays: bool = False

    def replication_sigma(self, n: int) -> int:
        """The per-step replication count ``σ`` for an ``n``-job instance."""
        return max(1, int(math.ceil(self.replication_factor * log2p(n))))

    def obl_round_limit(self, n: int) -> int:
        """Round budget per guess of ``t`` in Algorithm 2."""
        return max(1, int(math.ceil(self.obl_round_factor * log2p(n))))

    def with_(self, **kwargs) -> "SUUConstants":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


#: The constants exactly as printed in the paper.
PAPER = SUUConstants()

#: Same structure, practical magnitudes: schedules stay short enough to
#: simulate densely while every guarantee mechanism still operates.
PRACTICAL = SUUConstants(
    obl_mass_threshold=1.0 / 8.0,
    obl_round_factor=8.0,
    replication_factor=2.0,
    lp_target_mass=0.5,
    rounding_low_scale=4,
    delay_alpha=4.0,
    derandomize_delays=False,
)

#: Most aggressive constants that keep the mechanisms intact: used by the
#: crossover experiments to show where the oblivious pipelines overtake the
#: baselines once the constant factors stop dominating.
LEAN = SUUConstants(
    obl_mass_threshold=1.0 / 4.0,
    obl_round_factor=4.0,
    replication_factor=0.5,
    lp_target_mass=0.5,
    rounding_low_scale=2,
    delay_alpha=3.0,
    derandomize_delays=False,
)

#: Preset name → constants: the one table specs and the CLI resolve.
PRESETS = {"paper": PAPER, "practical": PRACTICAL, "lean": LEAN}


def resolve_constants(value: str | SUUConstants) -> SUUConstants:
    """Map a :data:`PRESETS` name to its constants.

    Specs carry the preset *name* so they stay JSON-serializable; an
    :class:`SUUConstants` instance is passed through unchanged.
    """
    if isinstance(value, SUUConstants):
        return value
    try:
        return PRESETS[value]
    except KeyError:
        raise ExperimentError(
            f"unknown constants preset {value!r}; expected one of {sorted(PRESETS)}"
        ) from None
