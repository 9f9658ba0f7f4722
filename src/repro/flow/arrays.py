"""Array-based integral max-flow: iterative Dinic on flat edge arrays.

The flow engine every Theorem 4.1 rounding runs on
(:func:`repro.flow.build_rounding_network`).  Same algorithm family as the
golden-reference :class:`~repro.flow.dinic.FlowNetwork` (Dinic's blocking
flows, so the integrality theorem applies identically), but the graph
lives in four flat lists — ``frm``/``to``/``cap``/original capacity —
with the residual twin of directed edge ``e`` at index ``e ^ 1``, and
both phases run iteratively:

* **BFS levels** walk a CSR adjacency (built once per ``max_flow`` call
  by counting sort) instead of chasing per-node edge-object lists;
* **blocking flow** keeps an explicit edge-id path stack with the usual
  current-arc pointers instead of recursing, with dead ends pruned by
  clearing their level.

No per-edge objects, no attribute dispatch, no recursion depth limits —
which is where the measured speedup over the golden path comes from
(``benchmarks/bench_perf_lp_rounding.py``).  Max-flow values are
cross-checked against the golden reference by the ``lpflow`` fuzz oracle
and by the parity tests in ``tests/flow/``, on random networks and on
networks from the real Figure 3 builder.
"""

from __future__ import annotations

from collections import deque

from .. import obs
from ..errors import ValidationError

__all__ = ["ArrayFlowEdge", "ArrayFlowNetwork"]


class ArrayFlowEdge:
    """A live view of one forward edge in an :class:`ArrayFlowNetwork`.

    Mirrors the :class:`~repro.flow.dinic.FlowEdge` surface (``src``,
    ``dst``, ``capacity``, ``flow``, ``residual``) but reads through to
    the network's flat arrays, so it stays current after ``max_flow``.
    """

    __slots__ = ("_net", "_eid")

    def __init__(self, net: "ArrayFlowNetwork", eid: int):
        self._net = net
        self._eid = eid  # even directed-edge index; twin is _eid + 1

    @property
    def src(self) -> int:
        return self._net._frm[self._eid]

    @property
    def dst(self) -> int:
        return self._net._to[self._eid]

    @property
    def capacity(self) -> int:
        return self._net._cap0[self._eid // 2]

    @property
    def flow(self) -> int:
        # Pushed flow accumulates as residual capacity on the twin edge.
        return self._net._cap[self._eid + 1]

    @property
    def residual(self) -> int:
        return self._net._cap[self._eid]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayFlowEdge({self.src}->{self.dst}, "
            f"flow={self.flow}/{self.capacity})"
        )


class ArrayFlowNetwork:
    """A flow network over nodes ``0 .. num_nodes-1`` with integer capacities.

    Drop-in for :class:`~repro.flow.dinic.FlowNetwork` (same constructor,
    ``add_edge``/``max_flow``/``min_cut_side``/``check_flow_conservation``
    contract, identical validation errors) with flat-array storage.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise ValidationError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        # Directed edges: forward at even ids, residual twin at odd ids.
        self._frm: list[int] = []
        self._to: list[int] = []
        self._cap: list[int] = []
        #: Original capacity per forward edge (index = edge id // 2).
        self._cap0: list[int] = []

    def add_edge(self, src: int, dst: int, capacity: int) -> ArrayFlowEdge:
        """Add a directed edge and its zero-capacity residual twin.

        Returns a live edge view; its ``flow`` property carries the result
        after :meth:`max_flow`.
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValidationError(f"edge ({src}, {dst}) out of range")
        if src == dst:
            raise ValidationError("self-loops are not allowed")
        if capacity < 0:
            raise ValidationError("capacity must be >= 0")
        eid = len(self._cap)
        self._frm.extend((int(src), int(dst)))
        self._to.extend((int(dst), int(src)))
        self._cap.extend((int(capacity), 0))
        self._cap0.append(int(capacity))
        return ArrayFlowEdge(self, eid)

    @property
    def edges(self) -> list[ArrayFlowEdge]:
        """Views of the forward edges, in insertion order."""
        return [ArrayFlowEdge(self, 2 * k) for k in range(len(self._cap0))]

    # -- internals ---------------------------------------------------------
    def _adjacency(self) -> tuple[list[int], list[int]]:
        """CSR adjacency over all directed edges: ``(start, edge_ids)``.

        ``edge_ids[start[u]:start[u+1]]`` are the directed edges leaving
        ``u`` (forward and residual alike), via one counting-sort pass.
        """
        n = self.num_nodes
        frm = self._frm
        start = [0] * (n + 1)
        for u in frm:
            start[u + 1] += 1
        for u in range(n):
            start[u + 1] += start[u]
        pos = start[:-1].copy()
        edge_ids = [0] * len(frm)
        for e, u in enumerate(frm):
            edge_ids[pos[u]] = e
            pos[u] += 1
        return start, edge_ids

    def _bfs_levels(self, s: int, t: int, start: list[int], edge_ids: list[int]):
        cap, to = self._cap, self._to
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            lu = level[u] + 1
            for k in range(start[u], start[u + 1]):
                e = edge_ids[k]
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = lu
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        """Compute a maximum (integral) ``s``–``t`` flow in place.

        After the call every forward edge's ``flow`` holds its value in
        the maximum flow; the return value is the total flow out of ``s``.
        """
        if s == t:
            raise ValidationError("source and sink must differ")
        cap, to, frm = self._cap, self._to, self._frm
        start, edge_ids = self._adjacency()
        total = 0
        phases = 0
        augmentations = 0
        while True:
            level = self._bfs_levels(s, t, start, edge_ids)
            if level is None:
                break
            phases += 1
            it = start[: self.num_nodes].copy()
            path: list[int] = []  # edge ids from s to the current node
            u = s
            while True:
                if u == t:
                    aug = min(cap[e] for e in path)
                    total += aug
                    augmentations += 1
                    retreat = len(path)
                    for idx, e in enumerate(path):
                        cap[e] -= aug
                        cap[e ^ 1] += aug
                        if cap[e] == 0 and idx < retreat:
                            retreat = idx
                    # Back up to the tail of the first saturated edge; its
                    # current-arc pointer still addresses that edge and
                    # will skip it on the next scan (residual now 0).
                    del path[retreat:]
                    u = s if not path else to[path[-1]]
                    continue
                advanced = False
                while it[u] < start[u + 1]:
                    e = edge_ids[it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        path.append(e)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    if u == s:
                        break  # blocking flow complete for this level graph
                    level[u] = -1  # dead end: prune from the level graph
                    e = path.pop()
                    u = frm[e]
                    it[u] += 1  # the arc into the dead end is spent
        obs.add("flow.phases", phases)
        obs.add("flow.augmentations", augmentations)
        return total

    def min_cut_side(self, s: int) -> set[int]:
        """Nodes reachable from ``s`` in the residual graph (after max_flow).

        The cut between this set and its complement certifies optimality:
        its capacity equals the max-flow value.
        """
        cap, to = self._cap, self._to
        start, edge_ids = self._adjacency()
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for k in range(start[u], start[u + 1]):
                e = edge_ids[k]
                v = to[e]
                if cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def check_flow_conservation(self, s: int, t: int) -> bool:
        """Verify capacity bounds and conservation at every internal node."""
        net = [0] * self.num_nodes
        for k, cap0 in enumerate(self._cap0):
            flow = self._cap[2 * k + 1]
            if not (0 <= flow <= cap0):
                return False
            net[self._frm[2 * k]] += flow
            net[self._to[2 * k]] -= flow
        return all(net[u] == 0 for u in range(self.num_nodes) if u not in (s, t))
