"""Exact analytic layer: the Figure-1 Markov chain, two engines.

* :mod:`.sparse` — vectorized CSR/layered-sweep solvers (the default);
* :mod:`.scalar` — the original per-state dict DP, kept as the golden
  reference behind ``engine="scalar"``;
* :mod:`.lattice` — the shared vectorized subset-lattice structure.

Use the :mod:`repro.sim.markov` facade unless you need an engine module
directly; the facade routes on its ``engine=`` argument and re-exports
the scalar per-state primitives used by the golden per-state Malewicz
DP (:mod:`repro.opt.scalar`) and the execution tree.
"""

from .lattice import (
    DEFAULT_MAX_STATES,
    TransitionBlock,
    build_regimen_structure,
    build_step_structure,
    check_state_budget,
    eligibility_masks,
    popcount_array,
)
from . import scalar, sparse

__all__ = [
    "DEFAULT_MAX_STATES",
    "TransitionBlock",
    "build_regimen_structure",
    "build_step_structure",
    "check_state_budget",
    "eligibility_masks",
    "popcount_array",
    "scalar",
    "sparse",
]
