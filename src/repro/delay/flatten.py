"""Flattening a pseudo-schedule into a feasible oblivious schedule (§4.1).

After random delays bound the per-(machine, step) congestion by ``c``, each
original step is expanded into ``c`` micro-steps and a machine's (at most
``c``) jobs of that step are laid out across them.  Expansion preserves the
relative order of distinct steps, so chain windows — and therefore the
AccMass precedence condition — survive; the schedule length multiplies by
exactly ``c``, which is where the ``O(log(n+m)/log log(n+m))`` factor of
Theorem 4.4 enters.
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import IDLE, ObliviousSchedule, PseudoSchedule

__all__ = ["flatten_pseudo"]


def flatten_pseudo(pseudo: PseudoSchedule) -> ObliviousSchedule:
    """Expand each step into ``c`` micro-steps, ``c`` the max collision.

    Within an expanded step each machine's jobs occupy the first
    micro-steps in unit order and the machine idles for the rest.
    """
    c = max(1, pseudo.max_collision())
    cells = pseudo.cells()
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    rank = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
    table = np.full((pseudo.length * c, pseudo.m), IDLE, dtype=np.int32)
    table[pseudo.step[order] * c + rank, pseudo.machine[order]] = pseudo.job[order]
    return ObliviousSchedule(table)
