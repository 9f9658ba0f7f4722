"""Schedule representations (Definitions 2.1–2.3 and 4.1–4.2).

The paper works with four kinds of schedules:

* **General / adaptive schedules** (Def 2.1): an assignment function per
  (unfinished set, step).  Represented here by :class:`AdaptivePolicy`,
  a callable computing the assignment from the execution state — this covers
  SUU-I-ALG, the greedy baselines, and arbitrary custom policies.
* **Regimens** (Def 2.2, Malewicz): the assignment depends only on the
  unfinished set.  :class:`Regimen` stores the explicit table (exponential
  in ``n``; used by the exact solver on small instances).
* **Oblivious schedules** (Def 2.3): one fixed assignment per step,
  independent of the unfinished set.  :class:`ObliviousSchedule` is a finite
  ``(T, m)`` job table; :class:`CyclicSchedule` is a finite prefix followed
  by an infinitely repeated cycle — the shape of every schedule the paper's
  §3–4 constructions output (``Σ_{o,2} ∘ Σ_{o,3}^∞``).
* **Pseudo-schedules** (Def 4.1): a machine may be assigned a *set* of jobs
  per step; produced by LP rounding for chains, made feasible later by
  random delays + flattening.  :class:`PseudoSchedule` plus the structured
  :class:`ChainBands` / :class:`JobWindow` used by the chain pipeline.

Execution semantics (shared by the simulator): at each step the scheduled
job of each machine is looked up; if that job is already finished or not yet
eligible, the machine idles for the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from ..errors import ExactSolverLimitError, ScheduleError, ValidationError
from . import mass as mass_mod
from .instance import SUUInstance

__all__ = [
    "IDLE",
    "validate_assignment",
    "ObliviousSchedule",
    "CyclicSchedule",
    "AdaptivePolicy",
    "Regimen",
    "JobWindow",
    "ChainBand",
    "ChainBands",
    "PseudoSchedule",
    "ScheduleResult",
]

#: Sentinel job id meaning "machine is idle" (the paper's ⊥).
IDLE: int = -1


def validate_assignment(assignment: np.ndarray, n: int, m: int) -> np.ndarray:
    """Validate a one-step assignment vector and return it as int32.

    ``assignment[i]`` is the job machine ``i`` works on, or :data:`IDLE`.
    """
    a = np.asarray(assignment)
    if a.shape != (m,):
        raise ValidationError(f"assignment must have shape ({m},), got {a.shape}")
    a = a.astype(np.int32, copy=True)
    if np.any(a < IDLE) or np.any(a >= n):
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
    def single_step(cls, assignment: np.ndarray) -> "ObliviousSchedule":
        return cls(np.asarray(assignment, dtype=np.int32)[None, :])

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
        return cls(np.asarray(data["table"], dtype=np.int32))


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
        m = len(data["cycle"][0]) if data["cycle"] else 0
        prefix_tab = np.asarray(data["prefix"], dtype=np.int32)
        if prefix_tab.size == 0:
            prefix_tab = prefix_tab.reshape(0, m)
        return cls(
            ObliviousSchedule(prefix_tab),
            ObliviousSchedule(np.asarray(data["cycle"], dtype=np.int32)),
        )


# ----------------------------------------------------------------------
# Adaptive schedules
# ----------------------------------------------------------------------
@dataclass
class AdaptivePolicy:
    """A general schedule (Def 2.1) given by an assignment rule.

    ``rule(instance, unfinished, eligible, t, rng)`` returns the ``(m,)``
    assignment for step ``t`` (0-based) given the current sets of
    unfinished and eligible jobs (as frozensets of job ids).  The rule may
    use ``rng`` for randomized policies; deterministic rules simply ignore
    it.

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

    rule: Callable[
        [SUUInstance, frozenset[int], frozenset[int], int, np.random.Generator],
        np.ndarray,
    ]
    name: str = "adaptive"
    stationary: bool = False
    randomized: bool = True

    def assignment_for(
        self,
        instance: SUUInstance,
        unfinished: frozenset[int],
        eligible: frozenset[int],
        t: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        a = self.rule(instance, unfinished, eligible, t, rng)
        return validate_assignment(a, instance.n, instance.m)

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


#: Entry budget of a dense regimen table: ``2^n · m`` int32 entries, 128 MiB.
#: Room for a 2^22-state regimen (the exact solvers' default ceiling) at m = 8.
REGIMEN_MAX_ENTRIES = 1 << 25


def _check_regimen_shape(n: int, m: int) -> None:
    """Reject a bad size or a table over budget, before allocating it."""
    if n < 0 or m < 1:
        raise ValidationError(f"regimen needs n >= 0 and m >= 1, got n={n}, m={m}")
    entries = (1 << n) * m
    if entries > REGIMEN_MAX_ENTRIES:
        raise ExactSolverLimitError(
            f"regimen table would need 2^{n} x {m} = {entries} entries "
            f"(limit {REGIMEN_MAX_ENTRIES})"
        )


class Regimen:
    """An explicit regimen (Def 2.2): one assignment per unfinished set.

    Stored as one dense ``(2^n, m)`` int32 table: row ``S`` is the
    assignment in the unfinished-set bitmask ``S``.  A row of
    :attr:`UNDEFINED` marks a state the regimen assigns nothing; row 0
    (every job finished) never needs an assignment.  Exponential in ``n``
    and capped at :data:`REGIMEN_MAX_ENTRIES`.  Built by the exact
    Malewicz solver and the ``state_round_robin`` baseline, and read
    directly by the exact Markov engines.
    """

    #: Filler of a table row whose state has no assignment.
    UNDEFINED: int = -2

    __slots__ = ("_table",)

    def __init__(self, n: int, m: int, assignments: Mapping[int, np.ndarray]):
        """Sugar for :meth:`from_table`: fill the table from ``{state: a}``."""
        n, m = int(n), int(m)
        _check_regimen_shape(n, m)
        table = np.full((1 << n, m), self.UNDEFINED, dtype=np.int32)
        for state, a in assignments.items():
            s = int(state)
            if not 0 <= s < table.shape[0]:
                raise ValidationError(f"state {s:#x} is not a subset of {n} jobs")
            table[s] = validate_assignment(np.asarray(a), n, m)
        table.setflags(write=False)
        self._table = table

    @classmethod
    def from_table(cls, table: np.ndarray) -> "Regimen":
        """The regimen with dense ``(2^n, m)`` table ``table`` (copied).

        Each row must be an assignment (entries :data:`IDLE` or a job id
        in ``[0, n)``) or a row of :attr:`UNDEFINED`.
        """
        tab = np.asarray(table)
        rows = tab.shape[0] if tab.ndim == 2 else 0
        if rows == 0 or rows & (rows - 1) or not np.issubdtype(tab.dtype, np.integer):
            raise ValidationError(
                "regimen table must be an integer array of shape (2^n, m), "
                f"got {tab.dtype} {tab.shape}"
            )
        n = rows.bit_length() - 1
        _check_regimen_shape(n, tab.shape[1])
        undefined = np.all(tab == cls.UNDEFINED, axis=1)
        bad = np.any((tab < IDLE) | (tab >= n), axis=1) & ~undefined
        if np.any(bad):
            raise ValidationError(
                f"regimen table row {int(np.argmax(bad)):#x} holds an entry that "
                f"is neither IDLE nor a job id in [0, {n})"
            )
        regimen = cls.__new__(cls)
        regimen._table = tab.astype(np.int32, copy=True)
        regimen._table.setflags(write=False)
        return regimen

    @property
    def n(self) -> int:
        return self._table.shape[0].bit_length() - 1

    @property
    def m(self) -> int:
        return self._table.shape[1]

    @property
    def table(self) -> np.ndarray:
        """The read-only ``(2^n, m)`` int32 table."""
        return self._table

    def defined(self) -> np.ndarray:
        """``(2^n,)`` bool: which states have an assignment."""
        return self._table[:, 0] != self.UNDEFINED

    @property
    def states(self) -> list[int]:
        """The states that have an assignment, ascending."""
        return np.flatnonzero(self.defined()).tolist()

    def assignment_for_state(self, state: int) -> np.ndarray:
        """Assignment for the unfinished-set bitmask ``state``."""
        s = int(state)
        if not 0 <= s < self._table.shape[0] or self._table[s, 0] == self.UNDEFINED:
            raise ScheduleError(f"regimen has no assignment for state {s:#x}")
        return self._table[s]

    def as_policy(self) -> AdaptivePolicy:
        """View the regimen as an :class:`AdaptivePolicy` for the simulator."""

        def rule(instance, unfinished, eligible, t, rng):
            state = 0
            for j in unfinished:
                state |= 1 << j
            return self.assignment_for_state(state)

        # A regimen is a deterministic function of the unfinished set by
        # definition (Def 2.2), so the batched engine may memoize it.
        return AdaptivePolicy(rule, name="regimen", stationary=True, randomized=False)

    def __repr__(self) -> str:
        return f"Regimen(n={self.n}, m={self.m}, states={int(self.defined().sum())})"


# ----------------------------------------------------------------------
# Pseudo-schedules (Def 4.1) and chain bands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobWindow:
    """One job's slot inside a chain band.

    ``machine_units[i]`` machines-steps of machine ``i`` are placed at
    steps ``start .. start + machine_units[i] - 1`` (each machine occupies a
    prefix of the window, exactly as in the proof of Theorem 4.1).  The
    window has length ``length = max_i machine_units[i]`` (or the explicit
    ``d``-driven length if longer).
    """

    job: int
    start: int
    length: int
    machine_units: tuple[tuple[int, int], ...]  # sorted (machine, units) pairs

    @property
    def end(self) -> int:
        """One past the last step of the window."""
        return self.start + self.length

    def total_units(self) -> int:
        return sum(u for _, u in self.machine_units)

    def shifted(self, delay: int) -> "JobWindow":
        return JobWindow(self.job, self.start + delay, self.length, self.machine_units)


@dataclass(frozen=True)
class ChainBand:
    """The pseudo-schedule of one precedence chain: consecutive job windows."""

    chain_id: int
    windows: tuple[JobWindow, ...]

    def length(self) -> int:
        return max((w.end for w in self.windows), default=0)

    def shifted(self, delay: int) -> "ChainBand":
        if delay < 0:
            raise ValidationError("delay must be >= 0")
        return ChainBand(self.chain_id, tuple(w.shifted(delay) for w in self.windows))

    def jobs(self) -> list[int]:
        return [w.job for w in self.windows]

    def machine_load(self, m: int) -> np.ndarray:
        """Total units placed on each machine by this band."""
        load = np.zeros(m, dtype=np.int64)
        for w in self.windows:
            for i, u in w.machine_units:
                load[i] += u
        return load


class ChainBands:
    """A structured pseudo-schedule: one band per chain (proof of Thm 4.1).

    This keeps the chain structure explicit so the random-delay step can
    shift whole chains, and converts to a flat :class:`PseudoSchedule` on
    demand.
    """

    def __init__(self, m: int, bands: Sequence[ChainBand]):
        self._m = int(m)
        self._bands = tuple(bands)
        seen: set[int] = set()
        for band in self._bands:
            for w in band.windows:
                if w.job in seen:
                    raise ValidationError(f"job {w.job} appears in two bands")
                seen.add(w.job)
                for i, u in w.machine_units:
                    if not (0 <= i < self._m):
                        raise ValidationError(f"machine {i} out of range")
                    if u < 0:
                        raise ValidationError("machine units must be >= 0")
                    if u > w.length:
                        raise ValidationError(
                            f"job {w.job}: machine {i} has {u} units but window "
                            f"length is only {w.length}"
                        )

    @property
    def m(self) -> int:
        return self._m

    @property
    def bands(self) -> tuple[ChainBand, ...]:
        return self._bands

    def length(self) -> int:
        return max((b.length() for b in self._bands), default=0)

    def machine_loads(self) -> np.ndarray:
        """Per-machine total units (Def 4.2 load is the max of these)."""
        load = np.zeros(self._m, dtype=np.int64)
        for band in self._bands:
            load += band.machine_load(self._m)
        return load

    def load(self) -> int:
        """The pseudo-schedule load (Def 4.2): max over machines."""
        loads = self.machine_loads()
        return int(loads.max()) if loads.size else 0

    def pi_max(self) -> int:
        """The paper's ``Π_max``: the load, used as the delay range."""
        return self.load()

    def with_delays(self, delays: Sequence[int]) -> "ChainBands":
        """Shift band ``k`` by ``delays[k]`` steps (the random-delay step)."""
        if len(delays) != len(self._bands):
            raise ValidationError(
                f"got {len(delays)} delays for {len(self._bands)} bands"
            )
        return ChainBands(
            self._m, [b.shifted(int(d)) for b, d in zip(self._bands, delays)]
        )

    def to_pseudo(self) -> "PseudoSchedule":
        """Flatten the bands into a step-indexed pseudo-schedule."""
        T = self.length()
        steps: list[list[list[int]]] = [[[] for _ in range(self._m)] for _ in range(T)]
        for band in self._bands:
            for w in band.windows:
                for i, u in w.machine_units:
                    for t in range(w.start, w.start + u):
                        steps[t][i].append(w.job)
        return PseudoSchedule(self._m, steps)

    def job_masses(self, instance: SUUInstance) -> np.ndarray:
        """Uncapped per-job mass: ``sum_i p_ij * units_ij``."""
        mass = np.zeros(instance.n, dtype=np.float64)
        for band in self._bands:
            for w in band.windows:
                for i, u in w.machine_units:
                    mass[w.job] += instance.p[i, w.job] * u
        return mass

    def __repr__(self) -> str:
        return (
            f"ChainBands(m={self._m}, chains={len(self._bands)}, "
            f"length={self.length()}, load={self.load()})"
        )


class PseudoSchedule:
    """A flat pseudo-schedule (Def 4.1): per step, per machine, a job list.

    ``steps[t][i]`` is the list of jobs assigned to machine ``i`` in step
    ``t`` — possibly more than one, which is what makes it *pseudo* (and
    infeasible to execute directly).
    """

    def __init__(self, m: int, steps: Sequence[Sequence[Sequence[int]]]):
        self._m = int(m)
        self._steps: list[tuple[tuple[int, ...], ...]] = []
        for t, row in enumerate(steps):
            if len(row) != self._m:
                raise ValidationError(
                    f"step {t} has {len(row)} machine entries, expected {self._m}"
                )
            self._steps.append(tuple(tuple(int(j) for j in jobs) for jobs in row))

    @property
    def m(self) -> int:
        return self._m

    @property
    def length(self) -> int:
        return len(self._steps)

    def jobs_at(self, t: int, i: int) -> tuple[int, ...]:
        return self._steps[t][i]

    def machine_loads(self) -> np.ndarray:
        load = np.zeros(self._m, dtype=np.int64)
        for row in self._steps:
            for i, jobs in enumerate(row):
                load[i] += len(jobs)
        return load

    def load(self) -> int:
        """Def 4.2: maximum total units on any machine."""
        loads = self.machine_loads()
        return int(loads.max()) if loads.size else 0

    def max_collision(self) -> int:
        """Max number of jobs on one machine in one step (the SSW quantity)."""
        best = 0
        for row in self._steps:
            for jobs in row:
                if len(jobs) > best:
                    best = len(jobs)
        return best

    def collision_histogram(self) -> dict[int, int]:
        """How many (machine, step) pairs have each collision count >= 1."""
        hist: dict[int, int] = {}
        for row in self._steps:
            for jobs in row:
                c = len(jobs)
                if c:
                    hist[c] = hist.get(c, 0) + 1
        return hist

    def is_feasible(self) -> bool:
        """True iff no machine ever has more than one job (an oblivious schedule)."""
        return self.max_collision() <= 1

    def to_oblivious(self) -> ObliviousSchedule:
        """Convert, requiring feasibility (use delay+flatten otherwise)."""
        if not self.is_feasible():
            raise ScheduleError(
                "pseudo-schedule has collisions; apply delays/flattening first"
            )
        table = np.full((self.length, self._m), IDLE, dtype=np.int32)
        for t, row in enumerate(self._steps):
            for i, jobs in enumerate(row):
                if jobs:
                    table[t, i] = jobs[0]
        return ObliviousSchedule(table)

    def __repr__(self) -> str:
        return (
            f"PseudoSchedule(T={self.length}, m={self._m}, "
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
