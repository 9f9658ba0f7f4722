"""Integral maximum flow (Dinic's algorithm), implemented from scratch.

The rounding step of Theorem 4.1 relies on the integrality theorem of
network flow (the paper cites Ford–Fulkerson [8]): a flow network with
integral capacities has an integral maximum flow.  Dinic's algorithm finds
one in ``O(V^2 E)``, more than fast enough for the rounding networks here
(one node per job and machine).

This module is the **golden reference** flow engine, preserved verbatim
the way ``sim/exact/scalar.py`` keeps the dict-DP exact engine.
Production never runs it: the flat-array engine in
:mod:`repro.flow.arrays` solves every rounding network, and is
triangulated against :class:`FlowNetwork` by the ``lpflow`` fuzz oracle
and the parity tests in ``tests/flow/``, which construct it directly.
Do not optimize it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["FlowEdge", "FlowNetwork"]


@dataclass
class FlowEdge:
    """One directed edge with capacity and current flow.

    ``rev`` is the index of the reverse (residual) edge in the adjacency
    list of ``dst``.
    """

    src: int
    dst: int
    capacity: int
    flow: int = 0
    rev: int = -1

    @property
    def residual(self) -> int:
        return self.capacity - self.flow


class FlowNetwork:
    """A flow network over nodes ``0 .. num_nodes-1`` with integer capacities."""

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise ValidationError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self.adj: list[list[FlowEdge]] = [[] for _ in range(self.num_nodes)]
        self._edges: list[FlowEdge] = []

    def add_edge(self, src: int, dst: int, capacity: int) -> FlowEdge:
        """Add a directed edge and its zero-capacity residual twin.

        Returns the forward edge; its ``flow`` attribute carries the result
        after :meth:`max_flow`.
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValidationError(f"edge ({src}, {dst}) out of range")
        if src == dst:
            raise ValidationError("self-loops are not allowed")
        if capacity < 0:
            raise ValidationError("capacity must be >= 0")
        fwd = FlowEdge(src, dst, int(capacity))
        bwd = FlowEdge(dst, src, 0)
        fwd.rev = len(self.adj[dst])
        bwd.rev = len(self.adj[src])
        self.adj[src].append(fwd)
        self.adj[dst].append(bwd)
        self._edges.append(fwd)
        return fwd

    @property
    def edges(self) -> list[FlowEdge]:
        """The forward edges, in insertion order."""
        return self._edges

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e.residual > 0 and level[e.dst] < 0:
                    level[e.dst] = level[u] + 1
                    queue.append(e.dst)
        return level if level[t] >= 0 else None

    def _dfs_block(self, u: int, t: int, pushed: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            if e.residual > 0 and level[e.dst] == level[u] + 1:
                d = self._dfs_block(e.dst, t, min(pushed, e.residual), level, it)
                if d > 0:
                    e.flow += d
                    self.adj[e.dst][e.rev].flow -= d
                    return d
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        """Compute a maximum (integral) ``s``–``t`` flow in place.

        After the call every forward edge's ``flow`` holds its value in the
        maximum flow; the return value is the total flow out of ``s``.
        """
        if s == t:
            raise ValidationError("source and sink must differ")
        total = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            it = [0] * self.num_nodes
            while True:
                pushed = self._dfs_block(s, t, 1 << 62, level, it)
                if pushed == 0:
                    break
                total += pushed
        return total

    def min_cut_side(self, s: int) -> set[int]:
        """Nodes reachable from ``s`` in the residual graph (after max_flow).

        The cut between this set and its complement certifies optimality:
        its capacity equals the max-flow value.
        """
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e.residual > 0 and e.dst not in seen:
                    seen.add(e.dst)
                    queue.append(e.dst)
        return seen

    def check_flow_conservation(self, s: int, t: int) -> bool:
        """Verify capacity bounds and conservation at every internal node."""
        net = [0] * self.num_nodes
        for e in self._edges:
            if not (0 <= e.flow <= e.capacity):
                return False
            net[e.src] += e.flow
            net[e.dst] -= e.flow
        return all(net[u] == 0 for u in range(self.num_nodes) if u not in (s, t))
