"""Result cache for the evaluation server: in-memory LRU over disk JSON.

The disk layer is a :mod:`repro.store` directory, the experiment runner's
format applied to served evaluations: self-describing JSON files keyed by
job key — inspectable, diffable, safe to delete wholesale — living at
``.repro_cache/serve/`` beside ``.repro_cache/experiments/``.  A damaged
entry is a quiet miss; one written under another
:data:`repro.store.SCHEMA_VERSION` warns
(:class:`~repro.errors.StaleCacheWarning`) and reads as a miss, so stale
numbers are never silently replayed.

The in-memory layer is a bounded LRU of deserialized
:class:`~repro.evaluate.report.EvaluationReport` wire dicts, so a hot
key never touches the filesystem twice.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from .. import store

__all__ = ["ResultCache", "DEFAULT_SERVE_CACHE_DIR"]

#: Default on-disk cache location, a sibling of the experiments cache.
DEFAULT_SERVE_CACHE_DIR = Path(".repro_cache") / "serve"


class ResultCache:
    """Two-level (LRU memory, JSON disk) cache of served report dicts.

    Stores and returns the *wire dict* (``EvaluationReport.to_dict()``
    output), not report objects: the server replays cache hits onto the
    wire byte-identically without a decode/re-encode round trip, and
    tests rebuild reports via ``EvaluationReport.from_dict`` when they
    need the object.
    """

    def __init__(
        self,
        cache_dir: Path | str | None = DEFAULT_SERVE_CACHE_DIR,
        memory_entries: int = 256,
    ):
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._memory_entries = int(memory_entries)

    # -- paths -----------------------------------------------------------
    def path_for(self, key: str) -> Path | None:
        return self._dir / f"{key}.json" if self._dir is not None else None

    # -- lookup ----------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The cached wire dict for ``key``, or None on miss/stale/corrupt."""
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            return hit
        path = self.path_for(key)
        entry = store.read(path, "served report") if path is not None else None
        report = entry.get("report") if entry is not None else None
        if not isinstance(report, dict):
            return None
        self._remember(key, report)
        return report

    # -- store -----------------------------------------------------------
    def put(self, key: str, report_dict: dict) -> None:
        self._remember(key, report_dict)
        path = self.path_for(key)
        if path is not None:
            store.write(path, {"key": key, "report": report_dict})

    def _remember(self, key: str, report_dict: dict) -> None:
        self._memory[key] = report_dict
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)
