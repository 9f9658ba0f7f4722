"""Exact expected makespan via the Markov chain over unfinished sets.

Figure 1 (left) of the paper depicts a regimen as a Markov chain whose
states are the subsets of unfinished jobs.  For small ``n`` we can compute
expected makespans *exactly* by dynamic programming over that chain:
transitions only remove jobs, so processing states in order of increasing
popcount solves the chain without any linear-system machinery — except for
self-loops, handled in closed form.

Two schedule shapes are supported:

* :class:`~repro.core.schedule.Regimen` (assignment depends on the state
  only): ``E[S] = (1 + sum_{S' ⊊ S} P(S→S') E[S']) / (1 - P(S→S))``.
* :class:`~repro.core.schedule.CyclicSchedule` (assignment depends on the
  step only): states are ``(S, τ)`` pairs with ``τ`` a position in the
  prefix+cycle; for fixed ``S`` the positions form a "rho" shape whose
  cycle part is a cyclic linear recurrence solved in closed form.

A job finishes only after its predecessors, so the chain visits only
*up-closed* unfinished sets, which hold every successor of each of their
jobs: ``O(n^w)`` of them on a DAG of width ``w``.  The solvers work on
those states only (:func:`~.lattice.state_index`), but keep their DP
tables dense over all ``2^n`` sets, so they stay guarded by
``max_states``, which caps the **full** DP allocation ``2^n × width``
(``width`` = schedule positions or horizon steps), not just the subset
count.  A regimen needs an assignment at the reachable states only.

Two engines implement the same four solvers (regimen and cyclic
makespan, completion curve, state distribution); their makespans agree
bit for bit, property-tested:

* :mod:`.sparse` — vectorized layered-sweep solvers over the reachable
  states (the default; a regimen on chains, whose rows sit at those
  states only, builds in ~1 ms and solves in under 10 ms at n = 22, and on
  independent jobs, where every state is reachable, solves at n = 18 in
  ~0.1 s);
* :mod:`.scalar` — the original per-state dict DP, kept as the golden
  reference behind ``engine="scalar"``; its regimen solver skips the
  states that are not up-closed, one state at a time, and its cyclic and
  forward solvers sweep the whole lattice; its per-state primitives
  :func:`~.scalar.eligible_bitmask` and
  :func:`~.scalar.transition_distribution` also serve the golden
  per-state Malewicz DP (:mod:`repro.opt.scalar`) and the execution tree;
* :mod:`.lattice` — the shared vectorized subset-lattice kernels: the
  index of reachable states, one subset-table builder and one ordered
  sum, which every sparse solver and the Malewicz DP use.

Reach them through :func:`repro.evaluate.evaluate` (``mode="exact"``),
which picks the engine module and opens the ``exact.solve`` span.
"""

from . import scalar, sparse

__all__ = ["scalar", "sparse"]
