"""Structured lint findings.

A :class:`Finding` is one violation at one source location.  Everything
downstream — the human renderer, ``--json`` export and the kill-tests —
consumes this one shape, so a rule never formats output itself: it states *what* is wrong and
*where*, and presentation is the engine's problem.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule_id), so a sorted findings list is
    stable across runs and across rule registration order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The canonical human rendering: ``path:line:col: rule-id: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"

    def to_dict(self) -> dict:
        return asdict(self)
