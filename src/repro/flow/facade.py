"""The flow-engine facade: one constructor, two interchangeable engines.

Mirrors the exact-Markov engines of :mod:`repro.sim.exact` and the
``engine=`` argument of :mod:`repro.lp.acc_mass`: ``"array"`` (default)
is the flat-array iterative Dinic of :mod:`repro.flow.arrays`;
``"scalar"`` is the original edge-object recursive Dinic of
:mod:`repro.flow.dinic`, kept verbatim as the golden reference.  Both
enforce identical validation (negative capacities, self-loops,
out-of-range endpoints) and compute identical max-flow values —
property-tested and fuzzed via the ``lpflow`` oracle.
"""

from __future__ import annotations

from ..errors import ValidationError
from .arrays import ArrayFlowNetwork
from .dinic import FlowNetwork

__all__ = ["FLOW_ENGINES", "make_flow_network", "require_flow_engine"]

#: Names accepted by every ``engine=`` / ``flow_engine=`` argument of the
#: flow and rounding layers.
FLOW_ENGINES = ("array", "scalar")

_ENGINES = {"array": ArrayFlowNetwork, "scalar": FlowNetwork}


def require_flow_engine(engine: str) -> str:
    """Validate an engine name early (before any network is built)."""
    if engine not in _ENGINES:
        raise ValidationError(
            f"unknown flow engine {engine!r}; expected one of {FLOW_ENGINES}"
        )
    return engine


def make_flow_network(num_nodes: int, engine: str = "array"):
    """Construct an empty flow network on the selected engine."""
    return _ENGINES[require_flow_engine(engine)](num_nodes)
