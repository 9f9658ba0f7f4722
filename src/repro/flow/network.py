"""The Theorem 4.1 rounding network (Figure 3 of the paper).

The fractional LP solution is rounded by pushing an integral flow through a
bipartite-ish network: source ``u`` → one node per job (capacity ``D_j``,
the job's integral demand) → one node per machine (edge capacity ``⌈d_j⌉``,
the job's window length) → sink ``v`` (capacity ``⌈2t⌉``, the machine's
step budget).  The fractional ``x_ij`` witness that a flow of value
``Σ_j D_j`` exists; the integrality theorem then hands us integral
``x*_ij`` with the same guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import RoundingError, ValidationError
from .arrays import ArrayFlowEdge, ArrayFlowNetwork

__all__ = ["RoundingNetwork", "build_rounding_network"]


@dataclass
class RoundingNetwork:
    """A constructed Figure-3 network plus bookkeeping to read the result.

    Attributes
    ----------
    network: the underlying :class:`ArrayFlowNetwork`.
    source, sink: node ids of ``u`` and ``v``.
    pair_edges: maps ``(job, machine)`` to the forward edge carrying
        ``x*_ij`` after the max-flow call.
    demands: per-job ``D_j``.
    """

    network: ArrayFlowNetwork
    source: int
    sink: int
    pair_edges: dict[tuple[int, int], ArrayFlowEdge]
    demands: dict[int, int]

    def solve(self) -> int:
        """Run max-flow; returns the flow value."""
        with obs.span("flow.solve", nodes=self.network.num_nodes):
            return self.network.max_flow(self.source, self.sink)

    def solve_or_raise(self) -> int:
        """Run max-flow and require full demand saturation.

        The LP solution certifies that full saturation is possible, so a
        shortfall indicates a construction bug — surfaced loudly.
        """
        value = self.solve()
        want = sum(self.demands.values())
        if value != want:
            raise RoundingError(
                f"rounding flow saturated {value}/{want} units of demand; "
                "the fractional solution should certify feasibility"
            )
        return value

    def extract_x(self, m: int, n: int) -> np.ndarray:
        """Integral ``x*`` as an ``(m, n)`` array of flow values."""
        x = np.zeros((m, n), dtype=np.int64)
        for (j, i), e in self.pair_edges.items():
            x[i, j] = e.flow
        return x


def build_rounding_network(
    jobs: list[int],
    demands: dict[int, int],
    pair_caps: dict[tuple[int, int], int],
    machine_cap: int,
    num_machines: int,
) -> RoundingNetwork:
    """Assemble the Figure-3 network.

    Parameters
    ----------
    jobs: job ids participating in the flow phase (the "low" jobs).
    demands: ``D_j`` per job — the units of demand to route.
    pair_caps: capacity of the job→machine edge per ``(job, machine)``
        pair that survives the bucket filter (the paper uses ``⌈d_j⌉``).
    machine_cap: capacity of each machine→sink edge (the paper's ``⌈2t⌉``).
    num_machines: total machines (machines without surviving pairs get no
        node edges but keep their ids dense).
    """
    if machine_cap < 0:
        raise ValidationError("machine_cap must be >= 0")
    job_ids = {j: k for k, j in enumerate(jobs)}
    machines_used = sorted({i for (_, i) in pair_caps})
    machine_ids = {i: len(job_ids) + k for k, i in enumerate(machines_used)}
    source = len(job_ids) + len(machine_ids)
    sink = source + 1
    net = ArrayFlowNetwork(sink + 1)
    for j in jobs:
        if demands.get(j, 0) < 0:
            raise ValidationError(f"negative demand for job {j}")
        net.add_edge(source, job_ids[j], int(demands.get(j, 0)))
    pair_edges: dict[tuple[int, int], ArrayFlowEdge] = {}
    for (j, i), cap in sorted(pair_caps.items()):
        if j not in job_ids:
            raise ValidationError(f"pair ({j}, {i}) references a non-flow job")
        if not (0 <= i < num_machines):
            raise ValidationError(f"machine {i} out of range")
        pair_edges[(j, i)] = net.add_edge(job_ids[j], machine_ids[i], int(cap))
    for i in machines_used:
        net.add_edge(machine_ids[i], sink, int(machine_cap))
    return RoundingNetwork(
        network=net,
        source=source,
        sink=sink,
        pair_edges=pair_edges,
        demands={j: int(demands.get(j, 0)) for j in jobs},
    )
