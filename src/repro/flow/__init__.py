"""Integral max-flow and the Theorem 4.1 rounding network.

The Figure 3 network is always solved on :class:`ArrayFlowNetwork`, the
flat-array iterative Dinic of :mod:`repro.flow.arrays`.  The original
edge-object recursive Dinic, :class:`FlowNetwork` in
:mod:`repro.flow.dinic`, is kept verbatim as the golden reference that the
flow parity tests and the ``lpflow`` oracle construct directly.
"""

from .arrays import ArrayFlowEdge, ArrayFlowNetwork
from .dinic import FlowEdge, FlowNetwork
from .network import RoundingNetwork, build_rounding_network

__all__ = [
    "ArrayFlowEdge",
    "ArrayFlowNetwork",
    "FlowEdge",
    "FlowNetwork",
    "RoundingNetwork",
    "build_rounding_network",
]
