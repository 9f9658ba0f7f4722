"""The SUU problem instance.

An instance bundles the success-probability matrix ``p`` (shape ``(m, n)``;
``p[i, j]`` is the probability that machine ``i`` completes job ``j`` in one
step) with the precedence DAG.  This is the input to every algorithm in the
package.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Sequence

import numpy as np

from .._util import check_prob_matrix, json_numbers
from ..errors import ValidationError, payload_errors
from .dag import DagClass, PrecedenceDAG

__all__ = ["SUUInstance"]


def _check_job_count(dag_n: int, n: int) -> None:
    if dag_n != n:
        raise ValidationError(
            f"DAG has {dag_n} jobs but probability matrix has {n} columns"
        )


class SUUInstance:
    """An immutable SUU problem instance.

    Parameters
    ----------
    p:
        ``(m, n)`` array; ``p[i, j]`` is the success probability of job ``j``
        on machine ``i`` in a single step.  Every job must have at least one
        machine with positive probability (the paper's standing assumption,
        which makes the optimal expected makespan finite).
    dag:
        Precedence constraints.  ``None`` means independent jobs.
    name:
        Optional human-readable label carried through results and reports.
    """

    __slots__ = ("_p", "_dag", "_name", "__dict__")

    def __init__(
        self,
        p: np.ndarray,
        dag: PrecedenceDAG | None = None,
        name: str = "",
    ):
        self._p = check_prob_matrix(p)
        self._p.setflags(write=False)
        m, n = self._p.shape
        if dag is None:
            dag = PrecedenceDAG.independent(n)
        _check_job_count(dag.n, n)
        self._dag = dag
        self._name = str(name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def p(self) -> np.ndarray:
        """The ``(m, n)`` success-probability matrix (read-only view)."""
        return self._p

    @property
    def dag(self) -> PrecedenceDAG:
        return self._dag

    @property
    def name(self) -> str:
        return self._name

    @property
    def n(self) -> int:
        """Number of jobs."""
        return self._p.shape[1]

    @property
    def m(self) -> int:
        """Number of machines."""
        return self._p.shape[0]

    @cached_property
    def p_min_positive(self) -> float:
        """Smallest positive entry of ``p`` (the paper's ``p_min``)."""
        pos = self._p[self._p > 0]
        return float(pos.min())

    @cached_property
    def all_machines_success(self) -> np.ndarray:
        """Per-job success probability when *all* machines are assigned.

        ``q_j = 1 - prod_i (1 - p_ij)``; no single step can complete job
        ``j`` with higher probability, so ``1/q_j`` lower-bounds the
        expected completion time of ``j`` under any schedule.
        """
        return 1.0 - np.prod(1.0 - self._p, axis=0)

    def classify(self) -> DagClass:
        """Structural class of the precedence DAG."""
        return self._dag.classify()

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def induced(self, jobs: Sequence[int]) -> tuple["SUUInstance", dict[int, int]]:
        """Sub-instance on ``jobs`` (columns selected, DAG induced).

        Returns ``(sub_instance, old_to_new)``; used by the block scheduler
        for trees/forests which solves one block of jobs at a time.
        """
        jobs = [int(j) for j in jobs]
        subdag, mapping = self._dag.induced(jobs)
        sub_p = self._p[:, jobs]
        return SUUInstance(sub_p, subdag, name=f"{self._name}[{len(jobs)} jobs]"), mapping

    def with_dag(self, dag: PrecedenceDAG | None) -> "SUUInstance":
        """Same probabilities, different precedence constraints."""
        return SUUInstance(self._p, dag, name=self._name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self._name,
            "p": self._p.tolist(),
            "dag": self._dag.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SUUInstance":
        with payload_errors("instance"):
            p = json_numbers(data["p"], np.float64)
            # Refuse a job count that disagrees with p before the DAG
            # allocates per-job structures for it.
            dag = data["dag"]
            n = dag.get("n") if isinstance(dag, dict) else None
            if p.ndim == 2 and type(n) is int:
                _check_job_count(n, p.shape[1])
            return cls(p, PrecedenceDAG.from_dict(dag), name=data.get("name", ""))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SUUInstance":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SUUInstance):
            return NotImplemented
        return (
            self._p.shape == other._p.shape
            and bool(np.array_equal(self._p, other._p))
            and self._dag == other._dag
        )

    def __hash__(self) -> int:
        return hash((self._p.shape, self._p.tobytes(), self._dag))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"SUUInstance{label}(n={self.n}, m={self.m}, "
            f"dag={self.classify().value})"
        )
