"""Schedule representations (Definitions 2.1–2.3 and 4.1–4.2).

The paper works with four kinds of schedules:

* **General / adaptive schedules** (Def 2.1): an assignment function per
  (unfinished set, step).  Represented here by :class:`AdaptivePolicy`,
  a callable computing the assignment from the execution state — this covers
  SUU-I-ALG, the greedy baselines, and arbitrary custom policies.
* **Regimens** (Def 2.2, Malewicz): the assignment depends only on the
  unfinished set.  :class:`Regimen` stores one row per state it assigns,
  in practice the states an execution can reach.
* **Oblivious schedules** (Def 2.3): one fixed assignment per step,
  independent of the unfinished set.  :class:`ObliviousSchedule` is a finite
  ``(T, m)`` job table; :class:`CyclicSchedule` is a finite prefix followed
  by an infinitely repeated cycle — the shape of every schedule the paper's
  §3–4 constructions output (``Σ_{o,2} ∘ Σ_{o,3}^∞``).
* **Pseudo-schedules** (Def 4.1): a machine may be assigned a *set* of jobs
  per step; produced by LP rounding for chains, made feasible later by
  random delays + flattening.  :class:`PseudoSchedule` stores one entry
  per machine-step unit, tagged with the chain a delay shifts.

Execution semantics (shared by the simulator): at each step the scheduled
job of each machine is looked up; if that job is already finished or not yet
eligible, the machine idles for the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .._util import json_numbers
from ..errors import ScheduleError, ValidationError, payload_errors
from . import mass as mass_mod
from .instance import SUUInstance

__all__ = [
    "IDLE",
    "validate_assignment",
    "ObliviousSchedule",
    "CyclicSchedule",
    "AdaptivePolicy",
    "Regimen",
    "PseudoSchedule",
    "ScheduleResult",
    "schedule_from_dict",
]

#: Sentinel job id meaning "machine is idle" (the paper's ⊥).
IDLE: int = -1


def validate_assignment(
    assignment: np.ndarray, n: int, m: int, rows: int | None = None
) -> np.ndarray:
    """Validate a one-step assignment vector and return it as int32.

    ``assignment[i]`` is the job machine ``i`` works on, or :data:`IDLE`.
    With ``rows=k`` it validates a ``(k, m)`` block of them in one pass.
    """
    a = np.asarray(assignment)
    shape = (m,) if rows is None else (rows, m)
    if a.shape != shape:
        raise ValidationError(f"assignment must have shape {shape}, got {a.shape}")
    a = a.astype(np.int32, copy=True)
    if a.size and (a.min() < IDLE or a.max() >= n):
        raise ValidationError("assignment entries must be IDLE or a job id in [0, n)")
    return a


# ----------------------------------------------------------------------
# Oblivious schedules
# ----------------------------------------------------------------------
class ObliviousSchedule:
    """A finite oblivious schedule: a ``(T, m)`` table of job ids.

    Entry ``(t, i)`` is the job machine ``i`` is assigned in step ``t``
    (0-based here; the paper counts steps from 1), or :data:`IDLE`.
    """

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        tab = np.asarray(table)
        if tab.ndim != 2:
            raise ValidationError(f"schedule table must be 2-D, got shape {tab.shape}")
        if tab.size and np.any(tab < IDLE):
            raise ValidationError("schedule table entries must be >= -1")
        self._table = tab.astype(np.int32, copy=True)
        self._table.setflags(write=False)

    # -- constructors ---------------------------------------------------
    @classmethod
    def empty(cls, m: int) -> "ObliviousSchedule":
        """A zero-length schedule on ``m`` machines."""
        return cls(np.empty((0, m), dtype=np.int32))

    @classmethod
    def idle(cls, length: int, m: int) -> "ObliviousSchedule":
        """``length`` steps of every machine idling."""
        return cls(np.full((length, m), IDLE, dtype=np.int32))

    @classmethod
    def from_machine_sequences(
        cls, sequences: Sequence[Sequence[int]], length: int | None = None
    ) -> "ObliviousSchedule":
        """Build from per-machine job sequences, padding with IDLE.

        ``sequences[i]`` lists the jobs machine ``i`` works on in
        consecutive steps starting at step 0.
        """
        m = len(sequences)
        T = max((len(s) for s in sequences), default=0)
        if length is not None:
            if length < T:
                raise ValidationError(
                    f"requested length {length} shorter than longest sequence {T}"
                )
            T = length
        table = np.full((T, m), IDLE, dtype=np.int32)
        for i, seq in enumerate(sequences):
            for t, j in enumerate(seq):
                table[t, i] = j
        return cls(table)

    # -- accessors -------------------------------------------------------
    @property
    def table(self) -> np.ndarray:
        """The read-only ``(T, m)`` table."""
        return self._table

    @property
    def length(self) -> int:
        return self._table.shape[0]

    @property
    def m(self) -> int:
        return self._table.shape[1]

    def assignment_at(self, t: int) -> np.ndarray:
        """The step-``t`` assignment (0-based).  Idle beyond the end."""
        if t < self.length:
            return self._table[t]
        return np.full(self.m, IDLE, dtype=np.int32)

    def jobs_used(self) -> np.ndarray:
        """Sorted array of distinct job ids appearing in the table."""
        vals = np.unique(self._table)
        return vals[vals >= 0]

    def machine_loads(self) -> np.ndarray:
        """Number of non-idle steps per machine."""
        return (self._table != IDLE).sum(axis=0)

    # -- composition ------------------------------------------------------
    def concat(self, other: "ObliviousSchedule") -> "ObliviousSchedule":
        """This schedule followed by ``other`` (the paper's ``Σ1 ∘ Σ2``)."""
        if other.m != self.m:
            raise ScheduleError(
                f"cannot concatenate schedules with {self.m} and {other.m} machines"
            )
        return ObliviousSchedule(np.vstack([self._table, other._table]))

    def __add__(self, other: "ObliviousSchedule") -> "ObliviousSchedule":
        return self.concat(other)

    def repeat(self, k: int) -> "ObliviousSchedule":
        """The whole schedule repeated ``k`` times back to back."""
        if k < 0:
            raise ValidationError("repeat count must be >= 0")
        return ObliviousSchedule(np.tile(self._table, (k, 1)))

    def replicate_steps(self, sigma: int) -> "ObliviousSchedule":
        """Each *step* repeated ``sigma`` times in place (§4.1 replication).

        This is the paper's ``Σ_{o,2}``: ``f_t = g_{⌊(t-1)/σ⌋+1}``.  Unlike
        :meth:`repeat` it preserves the relative order of distinct steps, so
        precedence-respecting windows remain precedence-respecting.
        """
        if sigma < 1:
            raise ValidationError("replication factor must be >= 1")
        return ObliviousSchedule(np.repeat(self._table, sigma, axis=0))

    def relabel_jobs(self, mapping: Mapping[int, int] | np.ndarray) -> "ObliviousSchedule":
        """Rewrite job ids through ``mapping`` (used by the block scheduler).

        ``mapping`` maps old ids to new ids; IDLE entries pass through.
        """
        if isinstance(mapping, np.ndarray):
            lut = mapping
        else:
            size = max(mapping.keys(), default=-1) + 1
            lut = np.full(size, IDLE, dtype=np.int64)
            for old, new in mapping.items():
                lut[old] = new
        out = self._table.copy()
        active = out >= 0
        vals = out[active]
        if vals.size and (vals.max() >= len(lut)):
            raise ScheduleError("relabel mapping does not cover all job ids")
        mapped = lut[vals]
        if np.any(mapped < 0):
            raise ScheduleError("relabel mapping does not cover all job ids")
        out[active] = mapped
        return ObliviousSchedule(out)

    # -- analysis ----------------------------------------------------------
    def masses(self, instance: SUUInstance, cap: bool = True) -> np.ndarray:
        """Total per-job mass accumulated by the schedule (Def 2.4)."""
        return mass_mod.cumulative_mass(instance.p, self._table, cap=cap)

    def mass_profile(self, instance: SUUInstance, cap: bool = True) -> np.ndarray:
        return mass_mod.mass_profile(instance.p, self._table, cap=cap)

    def validate_against(self, instance: SUUInstance) -> None:
        """Check machine count and job-id range against ``instance``."""
        if self.m != instance.m:
            raise ScheduleError(
                f"schedule has {self.m} machines, instance has {instance.m}"
            )
        if self.length and int(self._table.max(initial=-1)) >= instance.n:
            raise ScheduleError("schedule references a job id beyond the instance")

    def respects_mass_precedence(
        self, instance: SUUInstance, threshold: float
    ) -> bool:
        """Condition (ii) of AccMass-C (§4.1).

        True iff for every precedence edge ``j1 ≺ j2`` no machine is
        assigned to ``j2`` before ``j1`` has accumulated mass ``threshold``.
        """
        self.validate_against(instance)
        if not instance.dag.num_edges or self.length == 0:
            return True
        profile = self.mass_profile(instance)  # (T, n) capped
        first_sched = np.full(instance.n, np.iinfo(np.int64).max, dtype=np.int64)
        for t in range(self.length):
            row = self._table[t]
            for j in row[row >= 0]:
                if t < first_sched[j]:
                    first_sched[j] = t
        eps = 1e-9
        for (j1, j2) in instance.dag.edges:
            t2 = first_sched[j2]
            if t2 == np.iinfo(np.int64).max:
                continue
            # Mass of j1 accumulated strictly before step t2.
            m1 = profile[t2 - 1, j1] if t2 > 0 else 0.0
            if m1 + eps < threshold:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObliviousSchedule):
            return NotImplemented
        return bool(np.array_equal(self._table, other._table))

    def __repr__(self) -> str:
        return f"ObliviousSchedule(T={self.length}, m={self.m})"

    def to_dict(self) -> dict:
        return {"kind": "oblivious", "table": self._table.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ObliviousSchedule":
        with payload_errors("oblivious schedule"):
            return cls(json_numbers(data["table"], np.int32))


class CyclicSchedule:
    """A finite prefix followed by an infinitely repeated cycle.

    This is the form of every §3–4 construction: a replicated core schedule
    (whp sufficient) followed by the serial tail ``Σ_{o,3}`` that guarantees
    finite expected makespan.  The schedule is defined for every step
    ``t >= 0``: prefix steps first, then the cycle forever.
    """

    __slots__ = ("_prefix", "_cycle")

    def __init__(self, prefix: ObliviousSchedule, cycle: ObliviousSchedule):
        if cycle.length == 0:
            raise ValidationError("cycle must have positive length")
        if prefix.m != cycle.m:
            raise ValidationError("prefix and cycle must have the same machine count")
        self._prefix = prefix
        self._cycle = cycle

    @property
    def prefix(self) -> ObliviousSchedule:
        return self._prefix

    @property
    def cycle(self) -> ObliviousSchedule:
        return self._cycle

    @property
    def m(self) -> int:
        return self._cycle.m

    @property
    def prefix_length(self) -> int:
        return self._prefix.length

    @property
    def cycle_length(self) -> int:
        return self._cycle.length

    def assignment_at(self, t: int) -> np.ndarray:
        if t < self._prefix.length:
            return self._prefix.table[t]
        return self._cycle.table[(t - self._prefix.length) % self._cycle.length]

    def validate_against(self, instance: SUUInstance) -> None:
        self._prefix.validate_against(instance)
        self._cycle.validate_against(instance)

    def truncate(self, length: int) -> ObliviousSchedule:
        """The first ``length`` steps as a finite oblivious schedule."""
        if length <= self._prefix.length:
            return ObliviousSchedule(self._prefix.table[:length])
        extra = length - self._prefix.length
        reps = -(-extra // self._cycle.length)
        tail = np.tile(self._cycle.table, (reps, 1))[:extra]
        return ObliviousSchedule(np.vstack([self._prefix.table, tail]))

    def __repr__(self) -> str:
        return (
            f"CyclicSchedule(prefix={self._prefix.length}, "
            f"cycle={self._cycle.length}, m={self.m})"
        )

    def to_dict(self) -> dict:
        return {
            "kind": "cyclic",
            "prefix": self._prefix.table.tolist(),
            "cycle": self._cycle.table.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CyclicSchedule":
        with payload_errors("cyclic schedule"):
            cycle = json_numbers(data["cycle"], np.int32)
            prefix = json_numbers(data["prefix"], np.int32)
            if prefix.size == 0:
                prefix = prefix.reshape(0, cycle.shape[-1])
            return cls(ObliviousSchedule(prefix), ObliviousSchedule(cycle))


def schedule_from_dict(payload: dict) -> ObliviousSchedule | CyclicSchedule:
    """The table schedule a ``to_dict`` payload describes, by its ``kind``.

    The one map from a schedule kind to its class: schedule files read by
    the CLI and tables on the server's wire both decode here.
    """
    kind = payload.get("kind")
    if kind == "oblivious":
        return ObliviousSchedule.from_dict(payload)
    if kind == "cyclic":
        return CyclicSchedule.from_dict(payload)
    raise ValidationError(
        f"unknown schedule kind {kind!r}; expected 'oblivious' or 'cyclic'"
    )


# ----------------------------------------------------------------------
# Adaptive schedules
# ----------------------------------------------------------------------
@dataclass
class AdaptivePolicy:
    """A general schedule (Def 2.1) given by an assignment rule.

    The rule comes in one of two forms:

    ``rule(instance, unfinished, eligible, t, rng)``
        returns the ``(m,)`` assignment for step ``t`` (0-based) given the
        current sets of unfinished and eligible jobs (as frozensets of job
        ids).  The rule may use ``rng`` for randomized policies;
        deterministic rules simply ignore it.
    ``frontier_rule(instance, unfinished, eligible, t)``
        answers ``k`` states at once: ``unfinished`` and ``eligible`` are
        ``(k, n)`` boolean masks and it returns the ``(k, m)`` assignments,
        row ``s`` for state ``s``.  It takes no ``rng``.  The batched engine
        calls it once per step for every state it has not seen yet, and
        :meth:`assignment_for` is its one-row case.

    In both forms ``eligible`` holds the jobs that are eligible *and*
    unfinished.  Give exactly one of the two.

    Two flags describe the rule to the batched simulation engine
    (:mod:`repro.sim.batch`), which advances many replications in lockstep
    and queries the rule only once per distinct *frontier state* (the set
    of completed jobs):

    ``stationary``
        The assignment depends only on the unfinished set, not on the step
        number ``t`` (true for every policy in the paper: Def 2.1 policies
        are regimens presented implicitly).  Stationary rules are memoized
        across steps; non-stationary rules are memoized per ``(state, t)``
        pair, which is still correct but hits the cache less often.
    ``randomized``
        The rule consumes ``rng``.  Randomized policies cannot share one
        query among replications in the same state without correlating
        them, so the estimator routes them through the scalar engine
        (:func:`repro.sim.engine.simulate`) instead.

    The defaults are the *conservative* pair (``stationary=False``,
    ``randomized=True``): a policy constructed without flags runs on the
    always-correct scalar engine, exactly as before the batched engine
    existed.  Declare ``stationary=True, randomized=False`` on rules that
    are deterministic functions of the unfinished set — as every built-in
    policy does — to unlock the batched fast path.
    """

    rule: (
        Callable[
            [SUUInstance, frozenset[int], frozenset[int], int, np.random.Generator],
            np.ndarray,
        ]
        | None
    ) = None
    name: str = "adaptive"
    stationary: bool = False
    randomized: bool = True
    frontier_rule: Callable[[SUUInstance, np.ndarray, np.ndarray, int], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.rule is None) == (self.frontier_rule is None):
            raise ValidationError("an AdaptivePolicy takes exactly one of rule and frontier_rule")

    def assignment_for(
        self,
        instance: SUUInstance,
        unfinished: frozenset[int],
        eligible: frozenset[int],
        t: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The validated ``(m,)`` assignment in one state."""
        n, m = instance.n, instance.m
        if self.frontier_rule is None:
            return validate_assignment(self.rule(instance, unfinished, eligible, t, rng), n, m)
        flags = bytearray(2 * n)
        for j in unfinished:
            flags[j] = 1
        for j in eligible:
            flags[n + j] = 1
        masks = np.frombuffer(flags, dtype=bool).reshape(2, 1, n)
        a = self.frontier_rule(instance, masks[0], masks[1], t)
        return validate_assignment(a, n, m, rows=1)[0]

    def frontier_key(self, state_token: "Hashable", t: int) -> "Hashable":
        """Memoization key for a batch query in frontier state ``state_token``.

        ``state_token`` is any hashable token identifying the completed-job
        set (the batch engine uses the packed bits of the completion row).
        Stationary policies fold all steps with the same frontier into one
        key; non-stationary policies key on the step as well.
        """
        return state_token if self.stationary else (state_token, t)

    def __repr__(self) -> str:
        return f"AdaptivePolicy({self.name!r})"


class Regimen:
    """An explicit regimen (Def 2.2): one assignment per unfinished set.

    Stored as two read-only arrays: :attr:`states`, the unfinished-set
    bitmasks that have an assignment (int64, ascending), and :attr:`rows`,
    their ``(R, m)`` int32 assignments.  Only the states an execution can
    reach need one: the up-closed sets, which hold every successor of each
    of their jobs, other than the empty set.  A DAG of width ``w`` has
    ``O(n^w)`` of them, so the exact Malewicz solver and the
    ``state_round_robin`` baseline emit rows at those states only, and
    nothing here is sized ``2^n``.  Every consumer reads assignments
    through :meth:`rows_at`.
    """

    __slots__ = ("_n", "_states", "_rows")

    def __init__(self, n: int, m: int, assignments: Mapping[int, np.ndarray]):
        """Sugar for :meth:`from_rows`: the rows of ``{state: a}``.

        Each ``a`` passes :func:`validate_assignment`; the states must be
        integers.
        """
        m = int(m)
        rows = np.zeros((len(assignments), max(m, 0)), dtype=np.int32)
        for r, a in enumerate(assignments.values()):
            rows[r] = validate_assignment(a, n, m)
        states = np.asarray(list(assignments)) if assignments else np.zeros(0, dtype=np.int64)
        self._store(n, states, rows)

    @classmethod
    def from_rows(cls, n: int, states: np.ndarray, rows: np.ndarray) -> "Regimen":
        """The regimen assigning ``rows[r]`` in state ``states[r]`` (copied).

        ``states`` are distinct bitmasks of ``n`` jobs, in any order; each
        row's entries are :data:`IDLE` or a job id in ``[0, n)``.
        """
        regimen = cls.__new__(cls)
        regimen._store(n, states, rows)
        return regimen

    def _store(self, n: int, states: np.ndarray, rows: np.ndarray) -> None:
        n = int(n)
        states, rows = np.asarray(states), np.asarray(rows)
        if not 0 <= n <= 62:
            raise ValidationError(f"regimen states are int64 bitmasks: n={n} is not in [0, 62]")
        if (
            states.ndim != 1
            or rows.ndim != 2
            or rows.shape[0] != states.size
            or rows.shape[1] < 1
            or not np.issubdtype(states.dtype, np.integer)
            or not np.issubdtype(rows.dtype, np.integer)
        ):
            raise ValidationError(
                "regimen needs integer arrays of shape (R,) states and (R, m) rows, "
                f"got {states.dtype} {states.shape} and {rows.dtype} {rows.shape}"
            )
        # Range checks before the casts, which would wrap.
        outside = (states < 0) | (states >= 1 << n)
        if outside.any():
            s = int(states[np.argmax(outside)])
            raise ValidationError(f"state {s:#x} is not a subset of {n} jobs")
        bad = (rows < IDLE) | (rows >= n)
        if bad.any():
            raise ValidationError(
                f"regimen row of state {int(states[np.argmax(bad.any(axis=1))]):#x} "
                f"holds an entry that is neither IDLE nor a job id in [0, {n})"
            )
        order = np.argsort(states, kind="stable")
        self._n = n
        self._states = states[order].astype(np.int64, copy=False)
        self._rows = np.take(rows, order, axis=0).astype(np.int32, copy=False)
        repeated = self._states[1:] == self._states[:-1]
        if repeated.any():
            raise ValidationError(
                f"state {int(self._states[np.argmax(repeated)]):#x} has more than one row"
            )
        self._states.setflags(write=False)
        self._rows.setflags(write=False)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._rows.shape[1]

    @property
    def states(self) -> np.ndarray:
        """The read-only ``(R,)`` int64 states that have an assignment, ascending."""
        return self._states

    @property
    def rows(self) -> np.ndarray:
        """The read-only ``(R, m)`` int32 assignments, row ``r`` in ``states[r]``."""
        return self._rows

    def rows_at(self, states: np.ndarray) -> np.ndarray:
        """``(k, m)`` assignments in the ``k`` bitmasks ``states``.

        Raises :class:`ScheduleError` naming the first of ``states``, in
        the given order, that has no assignment.
        """
        want = np.asarray(states, dtype=np.int64)
        have = self._states
        if have.size and have[-1] - have[0] == have.size - 1:
            # The states are one run of consecutive bitmasks, as every
            # nonempty set of independent jobs is: a row is at its offset.
            pos = want - have[0]
            hit = (pos >= 0) & (pos < have.size)
        else:
            pos = np.searchsorted(have, want)
            hit = np.take(have, pos, mode="clip") == want if have.size else np.zeros_like(pos, bool)
        if not hit.all():
            s = int(want[np.argmin(hit)])
            raise ScheduleError(f"regimen has no assignment for state {s:#x}")
        return np.take(self._rows, pos, axis=0)

    def assignment_for_state(self, state: int) -> np.ndarray:
        """Assignment for the unfinished-set bitmask ``state``.

        :meth:`rows_at` of one state, as one scalar search: the scalar
        simulator and the execution tree call it once per step or node.
        """
        s = int(state)
        pos = int(self._states.searchsorted(s)) if 0 <= s < 1 << self._n else 0
        if pos < self._states.size and self._states[pos] == s:
            return self._rows[pos]
        raise ScheduleError(f"regimen has no assignment for state {s:#x}")

    def validate_against(self, instance: SUUInstance) -> None:
        """Check the job and machine counts against ``instance``."""
        if (self.n, self.m) != (instance.n, instance.m):
            raise ScheduleError(
                f"regimen is for n={self.n}, m={self.m}; "
                f"the instance has n={instance.n}, m={instance.m}"
            )

    def as_policy(self) -> AdaptivePolicy:
        """View the regimen as an :class:`AdaptivePolicy` for the simulator."""
        weights = 1 << np.arange(self._n, dtype=np.int64)

        def frontier_rule(instance, unfinished, eligible, t):
            return self.rows_at(unfinished @ weights)

        # A regimen is a deterministic function of the unfinished set by
        # definition (Def 2.2), so the batched engine may memoize it.
        return AdaptivePolicy(
            name="regimen", stationary=True, randomized=False, frontier_rule=frontier_rule
        )

    def __repr__(self) -> str:
        return f"Regimen(n={self.n}, m={self.m}, states={self._states.size})"


# ----------------------------------------------------------------------
# Pseudo-schedules (Def 4.1)
# ----------------------------------------------------------------------
class PseudoSchedule:
    """A pseudo-schedule (Def 4.1), stored as one entry per machine-step unit.

    Unit ``u`` puts job ``job[u]`` on machine ``machine[u]`` in step
    ``step[u]`` and belongs to chain ``chain[u]``, the band one random delay
    shifts (§4.1).  Several units may share a (machine, step) cell, which is
    what makes the schedule *pseudo*; :func:`repro.delay.flatten_pseudo`
    expands each step so they no longer do.  Units are kept in (chain,
    window, machine, step) order, the order in which flattening lays out
    the jobs of one cell.
    """

    def __init__(
        self,
        m: int,
        num_chains: int,
        job: np.ndarray,
        machine: np.ndarray,
        step: np.ndarray,
        chain: np.ndarray,
    ):
        self._m = int(m)
        self._num_chains = int(num_chains)
        self.job, self.machine, self.step, self.chain = (
            np.asarray(a, dtype=np.int64) for a in (job, machine, step, chain)
        )

    @property
    def m(self) -> int:
        return self._m

    @property
    def num_chains(self) -> int:
        return self._num_chains

    @property
    def length(self) -> int:
        return int(self.step.max()) + 1 if self.step.size else 0

    def machine_loads(self) -> np.ndarray:
        """Per-machine total units (Def 4.2 load is the max of these)."""
        return np.bincount(self.machine, minlength=self._m)

    def load(self) -> int:
        """The load (Def 4.2), the paper's ``Π_max`` and default delay range."""
        return int(self.machine_loads().max(initial=0))

    def cells(self) -> np.ndarray:
        """Each unit's (machine, step) cell as one index ``step · m + machine``."""
        return self.step * self._m + self.machine

    def max_collision(self) -> int:
        """Max number of jobs on one machine in one step (the SSW quantity)."""
        return int(np.bincount(self.cells()).max(initial=0))

    def with_delays(self, delays: Sequence[int]) -> "PseudoSchedule":
        """Shift chain ``k`` by ``delays[k]`` steps (the random-delay step)."""
        if len(delays) != self._num_chains:
            raise ValidationError(
                f"got {len(delays)} delays for {self._num_chains} chains"
            )
        shift = np.asarray(delays, dtype=np.int64)
        if (shift < 0).any():
            raise ValidationError("delay must be >= 0")
        return PseudoSchedule(
            self._m, self._num_chains, self.job, self.machine,
            self.step + shift[self.chain], self.chain,
        )

    def job_masses(self, instance: SUUInstance) -> np.ndarray:
        """Uncapped per-job mass: ``sum_i p_ij * units_ij``."""
        return np.bincount(
            self.job, weights=instance.p[self.machine, self.job], minlength=instance.n
        )

    def __repr__(self) -> str:
        return (
            f"PseudoSchedule(T={self.length}, m={self._m}, chains={self._num_chains}, "
            f"load={self.load()}, max_collision={self.max_collision()})"
        )


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass
class ScheduleResult:
    """Output of a scheduling algorithm.

    Attributes
    ----------
    schedule:
        The executable schedule (usually a :class:`CyclicSchedule`, or an
        :class:`AdaptivePolicy` for adaptive algorithms).
    finite_core:
        For oblivious constructions, the finite high-probability part
        (before the serial safety tail); ``None`` for adaptive policies.
    algorithm:
        Name of the producing algorithm.
    certificates:
        Per-construction invariants checked at build time (minimum mass,
        load bounds, collision counts, LP values, ...).  Keys are
        algorithm-specific; tests and benchmarks assert on them.
    meta:
        Free-form provenance (parameters, constants preset, timings).
    """

    schedule: ObliviousSchedule | CyclicSchedule | AdaptivePolicy | Regimen
    algorithm: str
    finite_core: ObliviousSchedule | None = None
    certificates: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def is_oblivious(self) -> bool:
        return isinstance(self.schedule, (ObliviousSchedule, CyclicSchedule))

    def __repr__(self) -> str:
        return (
            f"ScheduleResult(algorithm={self.algorithm!r}, "
            f"schedule={self.schedule!r})"
        )
