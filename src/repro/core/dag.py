"""Precedence DAGs for SUU instances.

The paper's algorithms are parameterized by the *class* of the precedence
graph: independent jobs (no edges, §3), disjoint chains (§4.1), in-/out-trees
and directed forests (§4.2).  :class:`PrecedenceDAG` stores an arbitrary DAG
and provides the structural queries the algorithms need: topological order,
classification into those classes, chain extraction, ancestor/descendant
sets, widths and critical paths.

Jobs are integers ``0 .. n-1``.  An edge ``(u, v)`` means ``u ≺ v``: job ``v``
becomes eligible only after ``u`` completes successfully.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .._util import bitmask_from_iterable, iterable_from_bitmask, json_numbers
from ..errors import CycleError, ValidationError, payload_errors

__all__ = ["DagClass", "PrecedenceDAG"]


class DagClass(enum.Enum):
    """Structural class of a precedence DAG, in the paper's taxonomy.

    The classes are mutually exclusive and listed from most to least
    special; :meth:`PrecedenceDAG.classify` returns the most special class
    that applies.
    """

    INDEPENDENT = "independent"
    #: Disjoint chains: every in- and out-degree is at most one (SUU-C, §4.1).
    CHAINS = "chains"
    #: A collection of out-trees: in-degree at most one (Thm 4.8).
    OUT_FOREST = "out_forest"
    #: A collection of in-trees: out-degree at most one (Thm 4.8).
    IN_FOREST = "in_forest"
    #: Underlying undirected graph is a forest, mixed orientations (Thm 4.7).
    MIXED_FOREST = "mixed_forest"
    #: Anything else; not covered by the paper's algorithms.
    GENERAL = "general"


#: Classes for which the underlying undirected graph is a forest.
_FOREST_CLASSES = {
    DagClass.INDEPENDENT,
    DagClass.CHAINS,
    DagClass.OUT_FOREST,
    DagClass.IN_FOREST,
    DagClass.MIXED_FOREST,
}


class PrecedenceDAG:
    """An immutable precedence DAG over jobs ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of jobs.
    edges:
        Iterable of ``(u, v)`` pairs meaning ``u ≺ v``.  Duplicate edges,
        self-loops and out-of-range endpoints are rejected; cycles raise
        :class:`~repro.errors.CycleError`.
    """

    __slots__ = ("_n", "_edges", "_preds", "_succs", "__dict__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValidationError(f"number of jobs must be >= 0, got {n}")
        self._n = int(n)
        seen: set[tuple[int, int]] = set()
        preds: list[list[int]] = [[] for _ in range(self._n)]
        succs: list[list[int]] = [[] for _ in range(self._n)]
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={self._n}")
            if u == v:
                raise ValidationError(f"self-loop on job {u}")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            preds[v].append(u)
            succs[u].append(v)
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self._preds: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in preds)
        self._succs: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in succs)
        # Fail fast on cycles: computing the topological order validates.
        self.topological_order()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def independent(cls, n: int) -> "PrecedenceDAG":
        """The empty DAG on ``n`` jobs (the SUU-I case)."""
        return cls(n, ())

    @classmethod
    def from_chains(cls, chains: Sequence[Sequence[int]], n: int | None = None) -> "PrecedenceDAG":
        """Build a disjoint-chains DAG from explicit job chains.

        ``chains`` is a list of job sequences; consecutive jobs in each
        sequence are linked by an edge.  Jobs may appear in at most one
        chain.  ``n`` defaults to one more than the largest job mentioned.
        """
        edges: list[tuple[int, int]] = []
        used: set[int] = set()
        hi = -1
        for chain in chains:
            for j in chain:
                if j in used:
                    raise ValidationError(f"job {j} appears in more than one chain")
                used.add(int(j))
                hi = max(hi, int(j))
            edges.extend((int(a), int(b)) for a, b in zip(chain, chain[1:]))
        if n is None:
            n = hi + 1
        return cls(n, edges)

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "PrecedenceDAG":
        """Build an out-forest from a parent array.

        ``parents[j]`` is the (single) predecessor of job ``j``, or ``-1``
        for roots.  This matches the usual encoding of random recursive
        trees used by the workload generators.
        """
        n = len(parents)
        edges = [(int(p), j) for j, p in enumerate(parents) if int(p) >= 0]
        return cls(n, edges)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of jobs."""
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges ``(u, v)`` with ``u ≺ v``, sorted."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def predecessors(self, j: int) -> tuple[int, ...]:
        """Direct predecessors of job ``j``."""
        return self._preds[j]

    def successors(self, j: int) -> tuple[int, ...]:
        """Direct successors of job ``j``."""
        return self._succs[j]

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.array([len(p) for p in self._preds], dtype=np.int64)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self._succs], dtype=np.int64)

    def sources(self) -> list[int]:
        """Jobs with no predecessors."""
        return [j for j in range(self._n) if not self._preds[j]]

    def sinks(self) -> list[int]:
        """Jobs with no successors."""
        return [j for j in range(self._n) if not self._succs[j]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrecedenceDAG):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return (
            f"PrecedenceDAG(n={self._n}, edges={len(self._edges)}, "
            f"class={self.classify().value})"
        )

    # ------------------------------------------------------------------
    # Orderings and reachability
    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """A topological order of the jobs (Kahn's algorithm).

        Deterministic: among currently available jobs the smallest index is
        emitted first.  Raises :class:`CycleError` if the graph has a cycle.
        """
        cached = self.__dict__.get("_topo")
        if cached is not None:
            return list(cached)
        indeg = [len(p) for p in self._preds]
        import heapq

        heap = [j for j in range(self._n) if indeg[j] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            j = heapq.heappop(heap)
            order.append(j)
            for s in self._succs[j]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, s)
        if len(order) != self._n:
            raise CycleError("precedence graph contains a directed cycle")
        self.__dict__["_topo"] = tuple(order)
        return order

    @cached_property
    def _pred_masks(self) -> list[int]:
        """Bitmask of direct predecessors per job (used by the simulators)."""
        return [bitmask_from_iterable(self._preds[j]) for j in range(self._n)]

    def pred_mask(self, j: int) -> int:
        return self._pred_masks[j]

    @cached_property
    def _desc_masks(self) -> list[int]:
        """Bitmask of all (transitive) descendants per job, excluding self."""
        masks = [0] * self._n
        for j in reversed(self.topological_order()):
            m = 0
            for s in self._succs[j]:
                m |= (1 << s) | masks[s]
            masks[j] = m
        return masks

    @cached_property
    def _anc_masks(self) -> list[int]:
        """Bitmask of all (transitive) ancestors per job, excluding self."""
        masks = [0] * self._n
        for j in self.topological_order():
            m = 0
            for p in self._preds[j]:
                m |= (1 << p) | masks[p]
            masks[j] = m
        return masks

    def descendants(self, j: int) -> list[int]:
        """All jobs reachable from ``j`` (excluding ``j``)."""
        return iterable_from_bitmask(self._desc_masks[j])

    def ancestors(self, j: int) -> list[int]:
        """All jobs from which ``j`` is reachable (excluding ``j``)."""
        return iterable_from_bitmask(self._anc_masks[j])

    def descendant_counts(self) -> np.ndarray:
        """Number of descendants (excluding self) per job."""
        return np.array([m.bit_count() for m in self._desc_masks], dtype=np.int64)

    # ------------------------------------------------------------------
    # Structure classification
    # ------------------------------------------------------------------
    def underlying_is_forest(self) -> bool:
        """True iff the underlying *undirected* graph is acyclic."""
        parent = list(range(self._n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self._edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def classify(self) -> DagClass:
        """The most special :class:`DagClass` describing this DAG."""
        cached = self.__dict__.get("_class")
        if cached is not None:
            return cached
        if not self._edges:
            result = DagClass.INDEPENDENT
        else:
            indeg_ok = bool(np.all(self.in_degrees <= 1))
            outdeg_ok = bool(np.all(self.out_degrees <= 1))
            if indeg_ok and outdeg_ok:
                result = DagClass.CHAINS
            elif not self.underlying_is_forest():
                result = DagClass.GENERAL
            elif indeg_ok:
                result = DagClass.OUT_FOREST
            elif outdeg_ok:
                result = DagClass.IN_FOREST
            else:
                result = DagClass.MIXED_FOREST
        self.__dict__["_class"] = result
        return result

    def is_forest(self) -> bool:
        """True if the DAG belongs to any class covered by the paper."""
        return self.classify() in _FOREST_CLASSES

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def chains(self) -> list[list[int]]:
        """Decompose a :data:`DagClass.CHAINS` DAG into its chains.

        Every job appears in exactly one chain; isolated jobs become
        singleton chains.  Raises :class:`ValidationError` for DAGs that are
        not collections of disjoint chains.
        """
        cls = self.classify()
        if cls not in (DagClass.INDEPENDENT, DagClass.CHAINS):
            raise ValidationError(
                f"chains() requires a disjoint-chains DAG, got class {cls.value}"
            )
        out: list[list[int]] = []
        for j in range(self._n):
            if self._preds[j]:
                continue
            chain = [j]
            cur = j
            while self._succs[cur]:
                cur = self._succs[cur][0]
                chain.append(cur)
            out.append(chain)
        return out

    def longest_path_length(self, weights: np.ndarray | None = None) -> float:
        """Maximum total weight of a directed path (critical path).

        With ``weights=None`` every job weighs 1, so the result is the
        maximum number of jobs on a directed path.  Used by the lower
        bounds: jobs on a path must run sequentially.
        """
        if self._n == 0:
            return 0.0
        w = np.ones(self._n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (self._n,):
            raise ValidationError(f"weights must have shape ({self._n},)")
        best = w.copy()
        for j in self.topological_order():
            for s in self._succs[j]:
                cand = best[j] + w[s]
                if cand > best[s]:
                    best[s] = cand
        return float(best.max())

    def longest_path(self, weights: np.ndarray | None = None) -> list[int]:
        """An actual critical path achieving :meth:`longest_path_length`."""
        if self._n == 0:
            return []
        w = np.ones(self._n) if weights is None else np.asarray(weights, dtype=np.float64)
        best = w.copy()
        back = np.full(self._n, -1, dtype=np.int64)
        for j in self.topological_order():
            for s in self._succs[j]:
                cand = best[j] + w[s]
                if cand > best[s]:
                    best[s] = cand
                    back[s] = j
        end = int(np.argmax(best))
        path = [end]
        while back[path[-1]] >= 0:
            path.append(int(back[path[-1]]))
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Width (maximum antichain, via Dilworth / bipartite matching)
    # ------------------------------------------------------------------
    def width(self) -> int:
        """Maximum number of pairwise-incomparable jobs.

        Malewicz's complexity dichotomy is stated in terms of this width:
        SUU is solvable in polynomial time when width and ``m`` are both
        constant, NP-hard otherwise.  Computed exactly via Dilworth's
        theorem (minimum chain cover of the transitive closure equals the
        maximum antichain), using Hopcroft–Karp-style augmenting paths.
        """
        if self._n == 0:
            return 0
        desc = self._desc_masks
        # Bipartite graph: left copy u -> right copy v for each comparable
        # pair u < v in the closure.  Min path cover = n - max matching.
        match_right: dict[int, int] = {}
        match_left: dict[int, int] = {}

        def try_augment(u: int, visited: set[int]) -> bool:
            mask = desc[u]
            v = 0
            m = mask
            while m:
                if m & 1 and v not in visited:
                    visited.add(v)
                    if v not in match_right or try_augment(match_right[v], visited):
                        match_right[v] = u
                        match_left[u] = v
                        return True
                m >>= 1
                v += 1
            return False

        matching = 0
        for u in range(self._n):
            if try_augment(u, set()):
                matching += 1
        return self._n - matching

    # ------------------------------------------------------------------
    # Sub-DAGs and transforms
    # ------------------------------------------------------------------
    def induced(self, jobs: Sequence[int]) -> tuple["PrecedenceDAG", dict[int, int]]:
        """The sub-DAG induced by ``jobs`` with relabelled ids.

        Returns ``(subdag, old_to_new)`` where ``subdag`` has
        ``len(jobs)`` jobs numbered in the order given, and only the edges
        with both endpoints inside ``jobs`` (cross-boundary edges are
        dropped — callers such as the block scheduler account for them by
        ordering blocks).
        """
        jobs = [int(j) for j in jobs]
        if len(set(jobs)) != len(jobs):
            raise ValidationError("induced() got duplicate job ids")
        old_to_new = {j: k for k, j in enumerate(jobs)}
        edges = [
            (old_to_new[u], old_to_new[v])
            for (u, v) in self._edges
            if u in old_to_new and v in old_to_new
        ]
        return PrecedenceDAG(len(jobs), edges), old_to_new

    def reversed(self) -> "PrecedenceDAG":
        """The DAG with every edge reversed (out-trees become in-trees)."""
        return PrecedenceDAG(self._n, [(v, u) for (u, v) in self._edges])

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"n": self._n, "edges": [list(e) for e in self._edges]}

    @classmethod
    def from_dict(cls, data: dict) -> "PrecedenceDAG":
        with payload_errors("DAG"):
            n, edges = data["n"], json_numbers(data["edges"], np.int64)
            if type(n) is not int:
                raise TypeError(f"n must be a JSON integer, got {n!r}")
            if edges.size == 0:
                edges = edges.reshape(0, 2)
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError("edges must be a list of [u, v] pairs")
            return cls(n, edges.tolist())
