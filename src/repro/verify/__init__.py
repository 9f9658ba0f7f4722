"""Cross-engine differential verification (`repro.verify`).

The repo executes the same Def 2.1 stochastic-schedule semantics through
several independent code paths — the scalar reference engine, the
oblivious lockstep path and the frontier-memoized batched engine — and
claims agreement with analytic oracles
(exact Markov makespans, the Malewicz optimal regimen, certified lower
bounds, rounding certificates, congestion targets).  This package is the
machinery that *checks* those claims continuously:

* :mod:`repro.verify.cases` — seeded random case generation across every
  registered workload family × schedule family;
* :mod:`repro.verify.oracles` — the cross-checks themselves, each
  returning structured :class:`~repro.verify.oracles.Discrepancy` records;
* :mod:`repro.verify.shrink` — greedy minimization of failing cases to
  the smallest spec that still reproduces the same check failure;
* :mod:`repro.verify.corpus` — the replayable regression corpus under
  ``tests/corpus/`` (tier-1 pytest replays every entry);
* :mod:`repro.verify.fuzzer` — the budgeted fuzz loop behind
  ``python -m repro fuzz``.

``docs/architecture.md`` documents the oracle table and the shrink loop.
"""

from .cases import (
    INSTANCE_FAMILIES,
    SCHEDULE_FAMILIES,
    CaseSpec,
    build_case,
    sample_case,
)
from .corpus import CORPUS_DIR, CorpusEntry, load_corpus, save_entry
from .fuzzer import FuzzFailure, FuzzReport, run_fuzz
from .oracles import CheckConfig, Discrepancy, check_case
from .shrink import shrink_case

__all__ = [
    "CaseSpec",
    "INSTANCE_FAMILIES",
    "SCHEDULE_FAMILIES",
    "build_case",
    "sample_case",
    "CheckConfig",
    "Discrepancy",
    "check_case",
    "shrink_case",
    "CorpusEntry",
    "CORPUS_DIR",
    "load_corpus",
    "save_entry",
    "FuzzReport",
    "FuzzFailure",
    "run_fuzz",
]
