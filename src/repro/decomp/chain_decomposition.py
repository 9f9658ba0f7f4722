"""Chain decomposition of forest DAGs (Lemma 4.6, after Kumar et al. [17]).

A *chain decomposition* partitions the vertex set into ordered blocks
``B_1, ..., B_λ`` such that

(i)  each block induces a collection of vertex-disjoint directed chains,
(ii) if ``u`` is an ancestor of ``v`` with ``u ∈ B_i`` and ``v ∈ B_j``,
     then ``i < j``, or ``i = j`` and ``u, v`` lie on the same chain.

The paper's tree/forest algorithms (Theorems 4.7, 4.8) schedule the blocks
one after another, running the disjoint-chains algorithm inside each block;
(i) makes each block a valid SUU-C instance and (ii) makes concatenation
respect all cross-block precedences.  The width bound ``λ ≤ 2(⌈log n⌉+1)``
is what caps the extra ``O(log n)`` approximation factor.

Two constructions are provided:

* **out-/in-forests** — the dyadic-size construction: block index of ``v``
  is determined by ``⌈log2⌉`` of its descendant (resp. ancestor) count.
  Along any root path the count strictly decreases, and no node can have
  two children in its own dyadic class (their descendant sets are disjoint
  in a forest), which yields (i) and (ii) with width ``≤ ⌈log2 n⌉ + 1``.

* **mixed forests** — greedy peeling: repeatedly extract the block of all
  maximal chains that start at currently-minimal vertices.  Conditions
  (i)/(ii) hold by construction; the width is checked per instance against
  the Lemma 4.6 bound and reported in the result (empirically it stays
  well under the bound on forest workloads — see experiment E12).

Every returned decomposition is validated against (i) and (ii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.dag import DagClass, PrecedenceDAG
from ..errors import UnsupportedDagError, ValidationError

__all__ = ["ChainDecomposition", "decompose_forest", "lemma46_width_bound"]


def lemma46_width_bound(n: int) -> int:
    """The Lemma 4.6 width bound ``2(⌈log n⌉ + 1)``."""
    if n <= 1:
        return 2
    return 2 * (int(math.ceil(math.log2(n))) + 1)


@dataclass
class ChainDecomposition:
    """An ordered chain decomposition.

    ``blocks[b]`` is a list of chains; each chain is a list of job ids in
    precedence order.  ``width`` is the number of blocks λ.
    """

    dag: PrecedenceDAG
    blocks: list[list[list[int]]]

    @property
    def width(self) -> int:
        return len(self.blocks)

    def jobs_of_block(self, b: int) -> list[int]:
        return [j for chain in self.blocks[b] for j in chain]

    def block_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for b in range(self.width):
            for j in self.jobs_of_block(b):
                out[j] = b
        return out

    def chain_of(self) -> dict[int, tuple[int, int]]:
        """Maps job -> (block index, chain index within block)."""
        out: dict[int, tuple[int, int]] = {}
        for b, block in enumerate(self.blocks):
            for c, chain in enumerate(block):
                for j in chain:
                    out[j] = (b, c)
        return out

    def validate(self) -> None:
        """Check partition + conditions (i) and (ii); raise on violation."""
        dag = self.dag
        seen: set[int] = set()
        for b, block in enumerate(self.blocks):
            for chain in block:
                if not chain:
                    raise ValidationError(f"block {b} contains an empty chain")
                for j in chain:
                    if j in seen:
                        raise ValidationError(f"job {j} appears twice")
                    seen.add(j)
                # chain must be a directed path in the DAG
                for a, c in zip(chain, chain[1:]):
                    if c not in dag.successors(a):
                        raise ValidationError(
                            f"({a}, {c}) in a chain of block {b} is not a DAG edge"
                        )
        if seen != set(range(dag.n)):
            raise ValidationError("decomposition does not cover all jobs")
        # (i): chains within one block are vertex-disjoint by the partition
        # check above; also no DAG edge may link two *different* chains of
        # the same block (that would break the induced-chains property).
        chain_of = self.chain_of()
        block_of = self.block_of()
        for (u, v) in dag.edges:
            bu, bv = block_of[u], block_of[v]
            if bu > bv:
                raise ValidationError(
                    f"edge ({u}, {v}) goes from block {bu} to earlier block {bv}"
                )
            if bu == bv and chain_of[u] != chain_of[v]:
                raise ValidationError(
                    f"edge ({u}, {v}) links two different chains of block {bu}"
                )
        # (ii) for transitive (non-edge) ancestor pairs: ancestors must be
        # in strictly earlier blocks, or on the same chain.
        for v in range(dag.n):
            bv = block_of[v]
            for u in dag.ancestors(v):
                bu = block_of[u]
                if bu > bv:
                    raise ValidationError(
                        f"ancestor {u} of {v} sits in a later block"
                    )
                if bu == bv and chain_of[u] != chain_of[v]:
                    raise ValidationError(
                        f"ancestor {u} of {v} shares block {bu} but not a chain"
                    )


# ----------------------------------------------------------------------
# Out-/in-forest construction (dyadic descendant classes)
# ----------------------------------------------------------------------
def _dyadic_class(count: int) -> int:
    """Class of a node with ``count`` descendants+self: ``⌈log2(count)⌉``."""
    return int(math.ceil(math.log2(count))) if count > 1 else 0


def _decompose_out_forest(dag: PrecedenceDAG) -> list[list[list[int]]]:
    """Blocks for in-degree ≤ 1 DAGs, by decreasing dyadic descendant class.

    In an out-forest the descendant sets of a node's children are disjoint,
    so at most one child of ``u`` shares ``u``'s class — within a class the
    class-internal edges form vertex-disjoint chains.  Descendant counts
    strictly decrease along edges, so classes are monotone along paths and
    ordering blocks by decreasing class satisfies (ii): any ancestor in the
    same class is connected through same-class nodes, i.e. the same chain.
    """
    n = dag.n
    sizes = dag.descendant_counts() + 1  # subtree sizes (self included)
    cls = [_dyadic_class(int(s)) for s in sizes]
    max_cls = max(cls) if n else 0
    blocks: list[list[list[int]]] = []
    for c in range(max_cls, -1, -1):
        members = [j for j in range(n) if cls[j] == c]
        if not members:
            continue
        member_set = set(members)
        chains: list[list[int]] = []
        # chain heads: members whose (unique) predecessor is not in class c
        for j in members:
            preds = dag.predecessors(j)
            if preds and preds[0] in member_set:
                continue
            chain = [j]
            cur = j
            while True:
                nxt = [s for s in dag.successors(cur) if s in member_set]
                if not nxt:
                    break
                # at most one child can share the dyadic class
                assert len(nxt) == 1, "two children in one dyadic class"
                cur = nxt[0]
                chain.append(cur)
            chains.append(chain)
        blocks.append(chains)
    return blocks


# ----------------------------------------------------------------------
# Mixed-forest construction (greedy peeling)
# ----------------------------------------------------------------------
def _decompose_greedy(dag: PrecedenceDAG) -> list[list[list[int]]]:
    """Greedy peeling for arbitrary forest DAGs.

    Repeatedly form a block from maximal chains grown out of the
    currently-minimal vertices (all predecessors already peeled), following
    single outgoing edges whose heads have no other unpeeled predecessor.
    Each block's chains are vertex-disjoint directed paths, and every
    remaining vertex has an ancestor inside the current block or earlier,
    so condition (ii) holds with strict block ordering.
    """
    n = dag.n
    remaining = set(range(n))
    unpeeled_preds = {j: set(dag.predecessors(j)) for j in range(n)}
    blocks: list[list[list[int]]] = []
    while remaining:
        heads = sorted(j for j in remaining if not unpeeled_preds[j])
        block: list[list[int]] = []
        in_block: set[int] = set()
        for h in heads:
            if h in in_block:
                continue
            chain = [h]
            in_block.add(h)
            cur = h
            while True:
                # extend through the unique successor whose only unpeeled
                # predecessor is `cur` itself
                candidates = [
                    s
                    for s in dag.successors(cur)
                    if s in remaining
                    and s not in in_block
                    and unpeeled_preds[s] <= {cur}
                ]
                if len(candidates) != 1:
                    break
                nxt = candidates[0]
                # in a forest `nxt` has no other in-block predecessor, but
                # make sure no *other* chain in this block could also claim
                # it (possible when cur has several successors).
                chain.append(nxt)
                in_block.add(nxt)
                cur = nxt
            block.append(chain)
        blocks.append(block)
        for chain in block:
            for j in chain:
                remaining.discard(j)
                for s in dag.successors(j):
                    unpeeled_preds[s].discard(j)
    return blocks


def decompose_forest(dag: PrecedenceDAG) -> ChainDecomposition:
    """Chain-decompose a forest DAG (Lemma 4.6).

    Dispatches on the DAG class: dyadic construction for out-forests (and,
    via edge reversal, in-forests), greedy peeling for mixed forests.
    The result is always validated; width relative to the Lemma 4.6 bound
    is the caller's concern (experiment E12 measures it).
    """
    cls = dag.classify()
    if cls == DagClass.GENERAL:
        raise UnsupportedDagError(
            "chain decomposition requires the underlying graph to be a forest"
        )
    if cls == DagClass.INDEPENDENT:
        blocks = [[[j] for j in range(dag.n)]] if dag.n else []
        deco = ChainDecomposition(dag, blocks)
    elif cls == DagClass.CHAINS:
        deco = ChainDecomposition(dag, [dag.chains()] if dag.n else [])
    elif cls == DagClass.OUT_FOREST:
        deco = ChainDecomposition(dag, _decompose_out_forest(dag))
    elif cls == DagClass.IN_FOREST:
        # Decompose the reversed (out-)forest, then reverse every chain and
        # the block order: ancestors in the original are descendants in the
        # reverse, so reversing the block order restores condition (ii).
        rev = dag.reversed()
        rev_blocks = _decompose_out_forest(rev)
        blocks = [
            [list(reversed(chain)) for chain in block]
            for block in reversed(rev_blocks)
        ]
        deco = ChainDecomposition(dag, blocks)
    else:  # MIXED_FOREST
        deco = ChainDecomposition(dag, _decompose_greedy(dag))
    deco.validate()
    return deco
