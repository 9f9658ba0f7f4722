"""The execution tree of a schedule (Figure 1, right).

Every possible execution of a schedule forms an infinite rooted tree whose
nodes are intermediate states; the paper uses this object in the proof of
Theorem 2.2 (mass accumulation).  This module materializes the tree up to a
depth, tracking for one distinguished job the mass accumulated along each
path, which lets us compute *exactly* quantities such as

* ``Pr[job j finishes by step T]``,
* ``Pr[job j accumulates mass >= θ within T steps]`` (the Thm 2.2 event),
* the expected mass of a job at a given step (Theorem 3.1's quantity).

Exponential in both depth and the number of concurrently-assigned jobs;
intended for tiny instances (n ≤ ~4, depth ≤ ~10) and for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import AdaptivePolicy, CyclicSchedule, ObliviousSchedule, Regimen
from ..errors import ExactSolverLimitError
from .exact.scalar import eligible_bitmask, transition_distribution

__all__ = ["ExecTreeNode", "ExecutionTree", "build_execution_tree"]


@dataclass
class ExecTreeNode:
    """One node of the execution tree.

    ``state`` is the bitmask of unfinished jobs *after* ``depth`` steps,
    ``prob`` the probability of reaching this node, and ``job_mass`` the
    mass the distinguished job accumulated along the path to this node.
    """

    state: int
    depth: int
    prob: float
    job_mass: float
    children: list["ExecTreeNode"] = field(default_factory=list)


class ExecutionTree:
    """A truncated execution tree with exact path probabilities."""

    def __init__(self, root: ExecTreeNode, job: int, depth: int):
        self.root = root
        self.job = job
        self.depth = depth

    def leaves(self) -> list[ExecTreeNode]:
        out: list[ExecTreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            else:
                out.append(node)
        return out

    def num_nodes(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def prob_job_finished(self) -> float:
        """Exact ``Pr[job j finished within the tree depth]``."""
        bit = 1 << self.job
        return float(
            sum(leaf.prob for leaf in self.leaves() if not leaf.state & bit)
        )

    def prob_mass_at_least(self, theta: float) -> float:
        """Exact ``Pr[job j accumulates mass >= theta]`` (Thm 2.2 event)."""
        return float(
            sum(leaf.prob for leaf in self.leaves() if leaf.job_mass >= theta - 1e-12)
        )

    def expected_mass(self) -> float:
        """Exact expected mass of the distinguished job at the tree depth."""
        return float(sum(leaf.prob * leaf.job_mass for leaf in self.leaves()))

    def prob_all_finished(self) -> float:
        return float(sum(leaf.prob for leaf in self.leaves() if leaf.state == 0))


def _assignment_at(
    instance: SUUInstance,
    schedule,
    state: int,
    depth: int,
    rng: np.random.Generator,
) -> np.ndarray:
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        return schedule.assignment_at(depth)
    if isinstance(schedule, Regimen):
        return schedule.assignment_for_state(state)
    if isinstance(schedule, AdaptivePolicy):
        unfinished = frozenset(
            j for j in range(instance.n) if (state >> j) & 1
        )
        elig_mask = eligible_bitmask(instance, state)
        eligible = frozenset(j for j in unfinished if (elig_mask >> j) & 1)
        return schedule.assignment_for(instance, unfinished, eligible, depth, rng)
    raise ExactSolverLimitError(
        f"cannot expand schedules of type {type(schedule).__name__}"
    )


def build_execution_tree(
    instance: SUUInstance,
    schedule,
    depth: int,
    job: int = 0,
    max_nodes: int = 200_000,
    rng: np.random.Generator | int | None = None,
) -> ExecutionTree:
    """Expand the execution tree of ``schedule`` to ``depth`` steps.

    ``job`` is the distinguished job whose mass is tracked along each path
    (Definition 2.4 semantics: mass accrues only while the job is unfinished
    and only from machines actually working on it).

    Note: adaptive policies must be deterministic for the tree to be exact;
    the ``rng`` is passed to the policy but a randomized policy would make
    path probabilities only samples.
    """
    if not (0 <= job < instance.n):
        raise ValueError(f"job {job} out of range")
    if hasattr(schedule, "validate_against"):
        schedule.validate_against(instance)
    rng = as_rng(rng)
    p = instance.p
    full = (1 << instance.n) - 1
    root = ExecTreeNode(state=full, depth=0, prob=1.0, job_mass=0.0)
    count = 1
    frontier = [root]
    for d in range(depth):
        next_frontier: list[ExecTreeNode] = []
        for node in frontier:
            if node.state == 0:
                # All jobs done: the execution has stopped; keep as leaf.
                continue
            a = _assignment_at(instance, schedule, node.state, d, rng)
            active = eligible_bitmask(instance, node.state)
            added_mass = 0.0
            if (node.state >> job) & 1 and (active >> job) & 1:
                for i in range(instance.m):
                    if int(a[i]) == job:
                        added_mass += p[i, job]
            dist = transition_distribution(instance, node.state, a)
            for nxt, pr in sorted(dist.items()):
                child = ExecTreeNode(
                    state=nxt,
                    depth=d + 1,
                    prob=node.prob * pr,
                    job_mass=node.job_mass + added_mass,
                )
                node.children.append(child)
                next_frontier.append(child)
                count += 1
                if count > max_nodes:
                    raise ExactSolverLimitError(
                        f"execution tree exceeded {max_nodes} nodes at depth {d + 1}"
                    )
        frontier = next_frontier
    return ExecutionTree(root, job=job, depth=depth)
