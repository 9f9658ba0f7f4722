"""ASCII tables for experiment output.

The benchmark harness prints "the rows the paper would report"; this module
renders them deterministically with aligned columns so bench output diffs
cleanly across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table"]


def _fmt(value: Any, ndigits: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{ndigits}f}"
    return str(value)


@dataclass
class Table:
    """A simple fixed-column table.

    >>> t = Table(["n", "ratio"], title="demo")
    >>> t.add_row([10, 1.5]); t.add_row([20, 1.75])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: list[str]
    title: str = ""
    ndigits: int = 3
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} entries, table has {len(self.headers)} columns"
            )
        self.rows.append(list(row))

    def _cells(self) -> list[list[str]]:
        return [[_fmt(v, self.ndigits) for v in row] for row in self.rows]

    def render(self) -> str:
        cells = self._cells()
        widths = [
            max(len(h), *(len(r[c]) for r in cells)) if cells else len(h)
            for c, h in enumerate(self.headers)
        ]
        lines: list[str] = []
        if self.title:
            lines.append(f"== {self.title} ==")
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
