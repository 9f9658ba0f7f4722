"""Synthetic workload generators for every DAG class and probability model.

The experiment suite needs controlled families of instances: DAG shape
(independent / chains / trees / forests) crossed with probability models
capturing the paper's motivating heterogeneity (machines differ per job).
All generators take an explicit RNG and are deterministic given a seed.

:data:`DAG_KINDS` and :data:`PROB_MODELS` list the names
:func:`random_instance` and :func:`probability_matrix` accept; the CLI's
``generate`` choices and the fuzzer's instance families read them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._util import as_rng
from ..core.dag import PrecedenceDAG
from ..core.instance import SUUInstance
from ..errors import ValidationError

__all__ = [
    "DAG_KINDS",
    "PROB_MODELS",
    "probability_matrix",
    "chains_dag",
    "out_tree_dag",
    "in_tree_dag",
    "mixed_forest_dag",
    "layered_dag",
    "diamond_dag",
    "random_instance",
]

#: DAG kinds of :func:`random_instance`.
DAG_KINDS = (
    "independent",
    "chains",
    "out_tree",
    "in_tree",
    "mixed_forest",
    "layered",
    "diamond",
)

#: Probability models of :func:`probability_matrix`.
PROB_MODELS = (
    "uniform",
    "machine_speed",
    "specialist",
    "power_law",
    "sparse",
    "heterogeneous",
)


def probability_matrix(
    m: int,
    n: int,
    model: str = "uniform",
    rng: np.random.Generator | int | None = None,
    lo: float = 0.05,
    hi: float = 0.95,
    zero_fraction: float = 0.5,
    speed_classes: Sequence[float] = (1.0, 0.5, 0.2),
) -> np.ndarray:
    """An ``(m, n)`` success-probability matrix under a named model.

    * ``uniform`` — i.i.d. ``U[lo, hi]``.
    * ``machine_speed`` — ``p_ij = speed_i · difficulty_j`` (rank-1
      heterogeneity: fast/slow machines, easy/hard jobs).
    * ``specialist`` — machines are good (``~hi``) at a random specialty
      slice of jobs and poor (``~lo``) elsewhere: the project-management
      story where workers have skills.
    * ``power_law`` — heavy-tailed probabilities ``lo + (hi-lo)·U^3``:
      most pairs are weak, a few are strong.
    * ``sparse`` — ``uniform`` but each entry is zeroed with probability
      ``zero_fraction``; a random machine per job is kept positive so the
      instance stays valid.
    * ``heterogeneous`` — machines fall into discrete speed classes
      (``speed_classes`` multipliers, e.g. fast/standard/slow) and
      ``p_ij = clip(speed_i · difficulty_j, lo, hi)`` with per-job
      difficulties ``U[lo, hi]``.  One machine is always pinned to the
      fastest class so no job depends entirely on slow hardware — the
      cluster-of-mixed-generations story the paper's grid scenario sketches.
    """
    rng = as_rng(rng)
    if m < 1 or n < 1:
        raise ValidationError("need m >= 1 and n >= 1")
    if not (0.0 < lo <= hi <= 1.0):
        raise ValidationError("need 0 < lo <= hi <= 1")
    if model == "uniform":
        p = rng.uniform(lo, hi, size=(m, n))
    elif model == "machine_speed":
        speed = rng.uniform(np.sqrt(lo), np.sqrt(hi), size=(m, 1))
        diff = rng.uniform(np.sqrt(lo), np.sqrt(hi), size=(1, n))
        p = np.clip(speed * diff, lo, hi)
    elif model == "specialist":
        p = rng.uniform(lo, min(2 * lo, hi), size=(m, n))
        width = max(1, n // m)
        for i in range(m):
            start = int(rng.integers(0, n))
            cols = [(start + k) % n for k in range(width)]
            p[i, cols] = rng.uniform(max(hi * 0.7, lo), hi, size=len(cols))
    elif model == "power_law":
        p = lo + (hi - lo) * rng.random(size=(m, n)) ** 3
    elif model == "sparse":
        p = rng.uniform(lo, hi, size=(m, n))
        mask = rng.random(size=(m, n)) < zero_fraction
        p[mask] = 0.0
        for j in range(n):
            if p[:, j].max() <= 0.0:
                p[int(rng.integers(0, m)), j] = rng.uniform(lo, hi)
    elif model == "heterogeneous":
        speeds = np.asarray(speed_classes, dtype=np.float64)
        if speeds.size < 1 or np.any(speeds <= 0.0) or np.any(speeds > 1.0):
            raise ValidationError("speed_classes must be multipliers in (0, 1]")
        class_of = rng.integers(0, speeds.size, size=m)
        # Pin one machine to the fastest class so every job has a machine
        # with an unattenuated success probability.
        class_of[int(rng.integers(0, m))] = int(np.argmax(speeds))
        difficulty = rng.uniform(lo, hi, size=(1, n))
        p = np.clip(speeds[class_of][:, None] * difficulty, lo, hi)
    else:
        raise ValidationError(f"unknown probability model {model!r}")
    return p


def chains_dag(
    n: int, num_chains: int, rng: np.random.Generator | int | None = None
) -> PrecedenceDAG:
    """``n`` jobs split into ``num_chains`` disjoint chains of random sizes."""
    rng = as_rng(rng)
    if not (1 <= num_chains <= n):
        raise ValidationError("need 1 <= num_chains <= n")
    # Random composition of n into num_chains positive parts.
    cuts = np.sort(rng.choice(np.arange(1, n), size=num_chains - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    jobs = rng.permutation(n)
    chains: list[list[int]] = []
    pos = 0
    for s in sizes:
        chains.append([int(j) for j in jobs[pos : pos + s]])
        pos += s
    return PrecedenceDAG.from_chains(chains, n)


def out_tree_dag(
    n: int,
    rng: np.random.Generator | int | None = None,
    max_children: int | None = None,
) -> PrecedenceDAG:
    """A random recursive out-tree: each new node attaches below a random node.

    ``max_children`` caps out-degrees (None = unbounded), steering between
    path-like (1) and star-like (large) shapes.
    """
    rng = as_rng(rng)
    if n < 1:
        raise ValidationError("need n >= 1")
    parents = [-1]
    child_count = [0] * n
    for j in range(1, n):
        while True:
            par = int(rng.integers(0, j))
            if max_children is None or child_count[par] < max_children:
                break
        parents.append(par)
        child_count[par] += 1
    return PrecedenceDAG.from_parents(parents)


def in_tree_dag(
    n: int,
    rng: np.random.Generator | int | None = None,
    max_children: int | None = None,
) -> PrecedenceDAG:
    """A random in-tree (edges toward the root): the reverse of an out-tree."""
    return out_tree_dag(n, rng=rng, max_children=max_children).reversed()


def mixed_forest_dag(
    n: int,
    rng: np.random.Generator | int | None = None,
    num_trees: int = 1,
    flip_prob: float = 0.5,
) -> PrecedenceDAG:
    """A forest with each underlying tree edge oriented randomly.

    ``flip_prob`` is the probability an edge points toward the older node
    (0 gives an out-forest, 1 an in-forest, in-between a mixed forest).
    """
    rng = as_rng(rng)
    if not (1 <= num_trees <= n):
        raise ValidationError("need 1 <= num_trees <= n")
    roots = list(range(num_trees))
    edges: list[tuple[int, int]] = []
    for j in range(num_trees, n):
        par = int(rng.integers(0, j))
        if rng.random() < flip_prob:
            edges.append((j, par))
        else:
            edges.append((par, j))
    return PrecedenceDAG(n, edges)


def layered_dag(
    n: int,
    layers: int,
    rng: np.random.Generator | int | None = None,
    edge_prob: float = 0.3,
) -> PrecedenceDAG:
    """A general layered DAG (outside the paper's classes; simulator tests).

    Jobs are split into ``layers`` layers; each job draws edges from a
    random subset of the previous layer.
    """
    rng = as_rng(rng)
    if not (1 <= layers <= n):
        raise ValidationError("need 1 <= layers <= n")
    layer_of = np.sort(rng.integers(0, layers, size=n))
    edges: list[tuple[int, int]] = []
    for j in range(n):
        lj = layer_of[j]
        if lj == 0:
            continue
        prev = [u for u in range(n) if layer_of[u] == lj - 1]
        for u in prev:
            if rng.random() < edge_prob:
                edges.append((u, j))
    return PrecedenceDAG(n, edges)


def diamond_dag(
    n: int,
    width: int = 3,
    rng: np.random.Generator | int | None = None,
    jitter: bool = False,
) -> PrecedenceDAG:
    """A chain of series-parallel diamonds: fan-out to ``width``, fan-in, repeat.

    Each block is ``source → {width parallel jobs} → sink``, and the sink
    doubles as the next block's source — the classic map/reduce-round or
    fork/join pipeline shape.  The family is interesting for scheduling
    under uncertainty because the fan-in jobs serialize the whole pipeline:
    a policy must finish *every* parallel job before the next round opens.
    With ``jitter=True`` each block draws its own width from
    ``U{1, ..., width}`` (irregular rounds); otherwise the construction is
    deterministic and ``rng`` is unused.
    """
    rng = as_rng(rng)
    if n < 1:
        raise ValidationError("need n >= 1")
    if width < 1:
        raise ValidationError("need width >= 1")
    edges: list[tuple[int, int]] = []
    source, next_id = 0, 1
    while next_id < n:
        remaining = n - next_id
        block_width = int(rng.integers(1, width + 1)) if jitter else width
        w = min(block_width, remaining - 1)
        if w < 1:
            # Not enough jobs left for a fan-out + sink: finish as a chain.
            edges.append((source, next_id))
            source = next_id
            next_id += 1
            continue
        mids = range(next_id, next_id + w)
        next_id += w
        sink = next_id
        next_id += 1
        for mid in mids:
            edges.append((source, mid))
            edges.append((mid, sink))
        source = sink
    return PrecedenceDAG(n, edges)


def random_instance(
    n: int,
    m: int,
    dag_kind: str = "independent",
    prob_model: str = "uniform",
    rng: np.random.Generator | int | None = None,
    **kwargs,
) -> SUUInstance:
    """One-stop generator: DAG kind × probability model.

    ``dag_kind`` is one of :data:`DAG_KINDS` and ``prob_model`` one of
    :data:`PROB_MODELS`.  Extra keyword arguments go to the DAG generator
    (``num_chains``, ``max_children``, ``width``, ...) or the probability
    model (``lo``, ``hi``, ``zero_fraction``, ``speed_classes``).
    """
    rng = as_rng(rng)
    prob_keys = {"lo", "hi", "zero_fraction", "speed_classes"}
    p_kwargs = {k: v for k, v in kwargs.items() if k in prob_keys}
    d_kwargs = {k: v for k, v in kwargs.items() if k not in prob_keys}
    if dag_kind == "independent":
        dag = PrecedenceDAG.independent(n)
    elif dag_kind == "chains":
        d_kwargs.setdefault("num_chains", max(1, n // 4))
        dag = chains_dag(n, rng=rng, **d_kwargs)
    elif dag_kind == "out_tree":
        dag = out_tree_dag(n, rng=rng, **d_kwargs)
    elif dag_kind == "in_tree":
        dag = in_tree_dag(n, rng=rng, **d_kwargs)
    elif dag_kind == "mixed_forest":
        dag = mixed_forest_dag(n, rng=rng, **d_kwargs)
    elif dag_kind == "layered":
        d_kwargs.setdefault("layers", max(1, n // 5))
        dag = layered_dag(n, rng=rng, **d_kwargs)
    elif dag_kind == "diamond":
        dag = diamond_dag(n, rng=rng, **d_kwargs)
    else:
        raise ValidationError(f"unknown dag_kind {dag_kind!r}")
    p = probability_matrix(m, n, model=prob_model, rng=rng, **p_kwargs)
    return SUUInstance(p, dag, name=f"{dag_kind}/{prob_model}(n={n},m={m})")


def greedy_trap(
    n: int,
    m: int,
    p_high: float = 0.9,
    step: float = 1e-3,
) -> SUUInstance:
    """An instance family where per-machine greedy piles up catastrophically.

    Every machine completes every job with probability close to ``p_high``,
    but strictly decreasing in the job index (``p_ij = p_high − j·step``).
    A greedy policy where each machine independently takes its best job
    sends *all* machines to the lowest-index unfinished job — one job per
    step — while the MaxSumMass cap (mass ≤ 1 per job) forces MSM-ALG to
    spread machines and finish ≈ m jobs per step: a Θ(m) separation that
    makes the paper's "cap the mass" design decision visible.
    """
    if n < 1 or m < 1:
        raise ValidationError("need n >= 1 and m >= 1")
    if not (0.0 < p_high <= 1.0):
        raise ValidationError("need 0 < p_high <= 1")
    if p_high - (n - 1) * step <= 0:
        raise ValidationError("step too large: probabilities would hit zero")
    p = p_high - step * np.arange(n, dtype=np.float64)
    return SUUInstance(
        np.tile(p, (m, 1)), name=f"greedy-trap(n={n},m={m})"
    )
