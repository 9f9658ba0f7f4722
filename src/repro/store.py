"""One on-disk format for every cached result.

The experiment runner (spec results and in-flight task outcomes) and the
evaluation server's disk cache keep their entries here: a plain directory
of self-describing JSON files, safe to delete wholesale.  This module owns
the format and the staleness rule, so every cache reads alike:

* :func:`digest` — the canonical-JSON content digest every key is made of;
* :func:`result_key` — a digest salted with :data:`RESULTS_VERSION` and
  the package version, for keys of computed numbers;
* :func:`read` — a missing file, unreadable JSON or a top level that is
  not an object is a quiet miss; an entry written under another
  :data:`SCHEMA_VERSION` warns (:class:`~repro.errors.StaleCacheWarning`)
  and misses, so stale numbers are neither reused nor dropped silently;
* :func:`write` — stamps the entry with :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

from .errors import StaleCacheWarning

__all__ = ["SCHEMA_VERSION", "RESULTS_VERSION", "digest", "result_key", "read", "write"]

#: Shape of a cache entry.  Bump when an entry's layout or the meaning of
#: a recorded field changes; entries written under another version are
#: discarded loudly, never reinterpreted.
SCHEMA_VERSION = 3

#: Salt of every result key.  Bump when the engines' numbers change at a
#: fixed payload (a change to a key's payload already changes its digest).
#: v7: one salt for the spec and request keys, which were salted
#: separately up to spec v6 and request v5.  v8: auto dispatch prices the
#: subset tables of the reachable states only, so a request near that
#: boundary may now route to exact where v7 sent it to Monte Carlo.
RESULTS_VERSION = 8


def digest(payload) -> str:
    """First 16 hex digits of the SHA-256 of ``payload``'s canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def result_key(payload: dict) -> str:
    """The :func:`digest` of ``payload`` salted with the results version."""
    from . import __version__

    return digest(
        {**payload, "__version__": RESULTS_VERSION, "__package_version__": __version__}
    )


def read(path: Path, what: str) -> dict | None:
    """The entry at ``path``, or None on a miss or a stale entry.

    ``what`` names the entry kind in the :class:`StaleCacheWarning`.
    """
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # missing or unreadable: recomputed and rewritten
    if not isinstance(entry, dict):
        return None
    version = entry.get("schema_version")
    if version != SCHEMA_VERSION:
        warnings.warn(
            StaleCacheWarning(
                f"discarding stale {what} {path.name}: written under "
                f"schema_version={version!r}, this build reads {SCHEMA_VERSION}; "
                "recomputing instead of reusing"
            ),
            stacklevel=3,
        )
        return None
    return entry


def write(path: Path, entry: dict) -> None:
    """Write ``entry`` to ``path`` under the current :data:`SCHEMA_VERSION`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **entry}, indent=2))
