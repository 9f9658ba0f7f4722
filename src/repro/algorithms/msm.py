"""MSM-ALG and MSM-E-ALG: greedy 1/3-approximations for MaxSumMass.

Problem **MaxSumMass** (§3.1): choose a one-step assignment
``f: M → J ∪ {⊥}`` maximizing ``Σ_j min(1, Σ_{i: f(i)=j} p_ij)``.  The
greedy MSM-ALG of Figure 2 processes the ``p_ij`` in non-increasing order
and assigns machine ``i`` to job ``j`` whenever ``i`` is still free and
job ``j``'s mass would stay at most 1 — a 1/3-approximation (Theorem 3.2;
the problem itself is NP-hard).

**MSM-E-ALG** (Algorithm 1) generalizes to oblivious schedules of length
``t``: each machine has capacity ``t``; the same greedy order fills
``x_ij = min(t_i, ⌊(1 − mass_j)/p_ij⌋)`` units at a time.  Its running time
is independent of ``t`` (each pair is processed once) and it keeps the 1/3
factor (Lemma 3.4).

Both greedies walk one order — the positive pairs sorted by
``(-p_ij, i, j)`` — and that order depends on ``p`` alone, never on the
job subset.  :class:`MSMGreedy` sorts it once, on first use; each call then
filters it by the subset and stops as soon as every machine is busy.
SUU-I-ALG and the ``msm_eligible`` baseline re-run MSM-ALG in every state
an execution reaches, so they pay for the sort once per policy, not once
per step.  :meth:`MSMGreedy.assign_rows` answers a whole frontier of
states in one call, each row bitwise what :meth:`MSMGreedy.assign` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.schedule import IDLE, ObliviousSchedule
from ..errors import ValidationError

__all__ = ["msm_alg", "MSMGreedy", "MSMExtendedResult", "msm_e_alg"]

#: A job's mass budget, with the slack that absorbs float rounding.
_UNIT_MASS = 1.0 + 1e-12


def _sorted_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive pairs of ``p`` as ``(prob, machine, job)`` arrays, sorted.

    Non-increasing in probability; ties broken by (machine, job) index so
    the greedy is fully deterministic.
    """
    machines, jobs = np.nonzero(p > 0.0)
    probs = p[machines, jobs]
    order = np.lexsort((jobs, machines, -probs))
    return probs[order], machines[order], jobs[order]


class MSMGreedy:
    """The greedy order of one probability matrix, sorted on first use.

    :meth:`assign` is MSM-ALG and :meth:`extend` is MSM-E-ALG, each over any
    job subset; :meth:`assign_rows` is MSM-ALG over many subsets in one
    call.  Construction does no work, so a policy built on it costs
    nothing until its first query.  The lazy sort publishes the finished
    order in one attribute store: a racing second caller recomputes the
    same order and never sees a half-built one.
    """

    __slots__ = ("_p", "_order")

    def __init__(self, p: np.ndarray):
        self._p = p
        self._order: list[tuple[float, int, int]] | None = None

    def _walk(self) -> list[tuple[float, int, int]]:
        """The greedy order: ``(p_ij, i, j)`` triples over every positive pair.

        Callers skip pairs outside their subset as they walk it, so they
        can stop at the first point where every machine is busy.
        """
        order = self._order
        if order is None:
            order = self._order = list(zip(*(a.tolist() for a in _sorted_pairs(self._p))))
        return order

    def _pairs(self, jobs: Iterable[int] | None):
        """The job subset as a membership test, and the greedy order."""
        if jobs is None:
            member = range(self._p.shape[1])
        elif isinstance(jobs, (set, frozenset)):
            member = jobs
        else:
            member = frozenset(int(j) for j in jobs)
        return member, self._walk()

    def assign(self, jobs: Iterable[int] | None = None) -> np.ndarray:
        """MSM-ALG over ``jobs`` (default: all): the ``(m,)`` assignment."""
        m, n = self._p.shape
        f = [IDLE] * m
        load = [0.0] * n
        free = m
        member, pairs = self._pairs(jobs)
        for pij, i, j in pairs:
            if f[i] == IDLE and j in member and load[j] + pij <= _UNIT_MASS:
                f[i] = j
                load[j] += pij
                free -= 1
                if not free:
                    break
        return np.array(f, dtype=np.int32)

    def assign_rows(self, member: Sequence[Sequence[bool]]) -> np.ndarray:
        """MSM-ALG over ``k`` job subsets at once: the ``(k, m)`` assignments.

        ``member[r][j]`` says whether job ``j`` is in row ``r``'s subset, as
        in the ``tolist()`` of a ``(k, n)`` boolean mask.  Each row walks the
        order with :meth:`assign`'s tests, load sums and early exit, so row
        ``r`` is bitwise ``assign`` of its subset.  The walk is plain Python
        per row: no NumPy call per row and nothing sized ``k·m·n``.
        """
        m, n = self._p.shape
        order = self._walk()
        rows = []
        for row in member:
            f = [IDLE] * m
            load = [0.0] * n
            free = m
            for pij, i, j in order:
                if row[j] and f[i] == IDLE and load[j] + pij <= _UNIT_MASS:
                    f[i] = j
                    load[j] += pij
                    free -= 1
                    if not free:
                        break
            rows.append(f)
        return np.array(rows, dtype=np.int32).reshape(len(rows), m)

    def extend(
        self,
        t: int,
        jobs: Iterable[int] | None = None,
        build_schedule: bool = True,
    ) -> "MSMExtendedResult":
        """MSM-E-ALG over ``jobs`` (default: all) for length ``t``."""
        if t < 1:
            raise ValidationError("schedule length t must be >= 1")
        m, n = self._p.shape
        t = int(t)
        x = np.zeros((m, n), dtype=np.int64)
        capacity = [t] * m
        mass = [0.0] * n
        free = m
        member, pairs = self._pairs(jobs)
        for pij, i, j in pairs:
            if capacity[i] <= 0 or j not in member:
                continue
            budget = int(math.floor((1.0 - mass[j]) / pij + 1e-12))
            units = min(capacity[i], budget)
            if units <= 0:
                continue
            x[i, j] = units
            capacity[i] -= units
            mass[j] += units * pij
            if not capacity[i]:
                free -= 1
                if not free:
                    break
        mass_arr = np.array(mass, dtype=np.float64)
        if not build_schedule:
            return MSMExtendedResult(x=x, t=t, schedule=None, mass=mass_arr)
        # Lay out the units: machine i works through its assigned jobs in job
        # order, one unit per step (Algorithm 1's output spec).
        sequences = [np.repeat(np.arange(n), x[i]).tolist() for i in range(m)]
        schedule = ObliviousSchedule.from_machine_sequences(sequences, length=t)
        return MSMExtendedResult(x=x, t=t, schedule=schedule, mass=mass_arr)


def msm_alg(p: np.ndarray, jobs: Iterable[int] | None = None) -> np.ndarray:
    """MSM-ALG (Figure 2): a greedy 1/3-approximate MaxSumMass assignment.

    Parameters
    ----------
    p:
        The full ``(m, n)`` probability matrix.
    jobs:
        Subset of jobs to consider (default: all).  Machines are assigned
        only to jobs in this subset — this is how SUU-I-ALG restricts to
        the unfinished set each step.

    Returns the ``(m,)`` assignment array (entries: job id or ``IDLE``).
    Callers that query one matrix repeatedly hold an :class:`MSMGreedy`
    instead, so the greedy order is sorted once.
    """
    return MSMGreedy(p).assign(jobs)


@dataclass
class MSMExtendedResult:
    """Output of MSM-E-ALG: the unit matrix and the derived schedule.

    ``x[i, j]`` is the number of steps machine ``i`` spends on job ``j``;
    ``schedule`` lays the units out as an oblivious schedule of length
    ``t`` (machine columns filled job-by-job in job order, padded idle).
    ``mass`` is the per-job mass ``Σ_i p_ij x_ij`` (the objective counts it
    capped at 1).
    """

    x: np.ndarray
    t: int
    schedule: ObliviousSchedule | None
    mass: np.ndarray

    @property
    def total_capped_mass(self) -> float:
        return float(np.minimum(self.mass, 1.0).sum())


def msm_e_alg(
    p: np.ndarray,
    t: int,
    jobs: Iterable[int] | None = None,
    build_schedule: bool = True,
) -> MSMExtendedResult:
    """MSM-E-ALG (Algorithm 1): greedy MaxSumMass-Ext for length ``t``.

    Machine capacities start at ``t``; pairs are processed in the same
    greedy order as MSM-ALG, each taking as many units as the remaining
    capacity and the job's remaining mass budget allow:
    ``x_ij ← min(t_i, ⌊(1 − Σ_k x_kj p_kj)/p_ij⌋)``.

    The greedy itself runs in time independent of ``t`` (each pair is
    processed once — the paper's observation after Algorithm 1); only the
    *layout* of the resulting oblivious schedule is Θ(t·m).  Pass
    ``build_schedule=False`` to skip the layout and get ``schedule=None``
    (the unit matrix ``x`` fully determines it).
    """
    return MSMGreedy(p).extend(t, jobs, build_schedule)


def msm_mass_of_assignment(p: np.ndarray, assignment: np.ndarray) -> float:
    """The MaxSumMass objective ``Σ_j min(1, Σ_{i→j} p_ij)`` of an assignment."""
    m, n = p.shape
    load = np.zeros(n, dtype=np.float64)
    for i in range(m):
        j = int(assignment[i])
        if j != IDLE:
            load[j] += p[i, j]
    return float(np.minimum(load, 1.0).sum())
