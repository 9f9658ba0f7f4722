"""Spans, counters, and capture scopes — the collection half of ``repro.obs``.

Zero-dependency (stdlib only) and **off by default**: every hook is a
module-level function that checks one boolean and returns a shared no-op
object when collection is disabled, so instrumented code pays a single
attribute load + truth test per call site.  Instrumentation sites sit at
*phase boundaries* (one span per engine run, one counter flush per batch),
never inside per-step or per-replication loops, which is what keeps the
disabled path within noise of an un-instrumented build
(``benchmarks/bench_perf_batch_engine.py`` guards this).

Concepts
--------
* **Span** — a named, attributed wall-clock interval (``perf_counter_ns``).
  Spans nest: each thread holds a stack of open spans, a span closed with
  a non-empty stack becomes a child of the one below it, and a span closed
  on an empty stack becomes a root of the active :class:`Telemetry`
  collector.  ``__exit__`` always closes the span — engine exceptions
  (e.g. :class:`~repro.errors.ExactSolverLimitError`) unwind through the
  ``with`` statements, so a captured tree never contains unclosed or
  orphaned spans.
* **Counter** — a named monotonically-accumulated number (int unless a
  caller adds floats).  Counters are merged across worker processes by
  summation, which is what makes merged totals worker-count invariant:
  the shard plan is identical for every worker count, so the per-shard
  addends — and their integer sum — are too.
* **Capture** — :func:`capture` installs a fresh :class:`Telemetry`
  collector and enables collection until the ``with`` block exits.
  Captures nest (the innermost collector receives spans/counters), which
  is how an in-process worker shard records its own subtree even while
  the parent facade is capturing.

Cross-process protocol: a worker wraps its task in ``capture()``, ships
``Telemetry.snapshot()`` (a plain JSON-able dict) back inside the task
outcome, and the parent grafts it under its own open span with
:func:`graft_snapshot` — in shard-index order, so the merged tree is
deterministic.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

__all__ = [
    "Span",
    "Stopwatch",
    "Telemetry",
    "add",
    "capture",
    "counters",
    "counters_since",
    "disable",
    "enable",
    "enabled",
    "graft_snapshot",
    "span",
    "stopwatch",
]


# ----------------------------------------------------------------------
# Always-on timing primitive
# ----------------------------------------------------------------------
class Stopwatch:
    """A started wall-clock timer; the sanctioned way to measure elapsed time.

    The ``bare-timer`` lint rule bans bare ``time.perf_counter()``
    calls in first-party code outside ``repro/obs/`` — engine phases
    belong in spans, and the few legitimate "how long did this take"
    scalars (worker ``elapsed_s``, fuzz time budgets) go through this
    class so every timing call site is greppable.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter_ns()

    @property
    def elapsed_ns(self) -> int:
        return time.perf_counter_ns() - self._t0

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1e9


def stopwatch() -> Stopwatch:
    """Start and return a :class:`Stopwatch`."""
    return Stopwatch()


# ----------------------------------------------------------------------
# Collector state
# ----------------------------------------------------------------------
class Telemetry:
    """One capture's collector: finished root spans plus counter totals."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counters: dict[str, int | float] = {}
        self._lock = threading.Lock()

    def _add_root(self, node: "Span") -> None:
        with self._lock:
            self.roots.append(node)

    def _add_counter(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """JSON-able view of everything collected so far.

        The shape is the cross-process wire format: workers return this
        dict through the task protocol and the parent reassembles it with
        :func:`graft_snapshot`.
        """
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": [r.to_dict() for r in self.roots],
                "counters": dict(self.counters),
            }


#: Global collection switch — one load + truth test on the disabled path.
_enabled: bool = False

#: Stack of active collectors; the innermost (last) receives everything.
_collectors: list[Telemetry] = []
_state_lock = threading.Lock()
_tls = threading.local()


def _span_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def enabled() -> bool:
    """Is telemetry collection currently on?"""
    return _enabled


def _active() -> Telemetry | None:
    return _collectors[-1] if _collectors else None


def enable() -> Telemetry:
    """Install a persistent ambient collector (``REPRO_TRACE=1`` mode).

    Unlike :func:`capture` this does not scope collection to a ``with``
    block; callers that need the data read the per-call ``telemetry``
    block the facade attaches to every report.
    """
    global _enabled
    with _state_lock:
        tel = Telemetry()
        _collectors.append(tel)
        _enabled = True
    return tel


def disable() -> None:
    """Tear down every collector and switch collection off."""
    global _enabled
    with _state_lock:
        _collectors.clear()
        _enabled = False
    _tls.stack = []


class _Capture:
    """Context manager backing :func:`capture` (re-entrant, nestable)."""

    def __init__(self, on: bool):
        self._on = on
        self.telemetry: Telemetry | None = None

    def __enter__(self) -> Telemetry | None:
        if not self._on:
            return None
        global _enabled
        self.telemetry = Telemetry()
        with _state_lock:
            _collectors.append(self.telemetry)
            _enabled = True
        self._saved_stack = getattr(_tls, "stack", [])
        _tls.stack = []
        return self.telemetry

    def __exit__(self, *exc) -> None:
        if not self._on:
            return
        global _enabled
        with _state_lock:
            if self.telemetry in _collectors:
                _collectors.remove(self.telemetry)
            _enabled = bool(_collectors)
        _tls.stack = self._saved_stack


def capture(enabled: bool = True) -> _Capture:
    """Collect spans and counters for the duration of a ``with`` block.

    ``capture(enabled=False)`` yields ``None`` and collects nothing — the
    conditional form worker tasks use (``with capture(task.trace) as tel``)
    so the trace flag travels with the task instead of the environment.
    """
    return _Capture(enabled)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """An open (then closed) named interval; use via ``with span(...)``."""

    __slots__ = ("name", "attrs", "t0_ns", "dur_ns", "children", "pid", "tid")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.t0_ns = 0
        self.dur_ns: int | None = None
        self.children: list[Span] = []
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def set(self, **attrs) -> "Span":
        """Attach attributes after entry (e.g. a result-dependent count)."""
        self.attrs.update(attrs)
        return self

    @property
    def closed(self) -> bool:
        return self.dur_ns is not None

    def __enter__(self) -> "Span":
        self.t0_ns = time.perf_counter_ns()
        _span_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        # Always closes — an exception unwinding through the block still
        # produces a well-formed (closed, parented) span.
        self.dur_ns = time.perf_counter_ns() - self.t0_ns
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            tel = _active()
            if tel is not None:
                tel._add_root(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "t0_ns": self.t0_ns,
            "dur_ns": self.dur_ns,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.dur_ns / 1e6:.3f}ms" if self.closed else "open"
        return f"Span({self.name!r}, {dur}, children={len(self.children)})"


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def to_dict(self) -> dict:  # pragma: no cover - never exported
        return {}


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span (``with obs.span("mc.round", round=1, reps=200): ...``).

    Returns the shared no-op span when collection is disabled, so the
    disabled path allocates nothing.
    """
    if not _enabled:
        return _NULL_SPAN
    return Span(name, attrs)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def add(name: str, value: int | float = 1) -> None:
    """Accumulate ``value`` onto counter ``name`` (no-op when disabled)."""
    if not _enabled:
        return
    tel = _active()
    if tel is not None:
        tel._add_counter(name, value)


def counters() -> dict[str, int | float]:
    """Copy of the active collector's counter totals (empty when off)."""
    tel = _active()
    if tel is None:
        return {}
    with tel._lock:
        return dict(tel.counters)


def counters_since(before: dict[str, int | float]) -> dict[str, int | float]:
    """Counter deltas accumulated since a :func:`counters` snapshot."""
    now = counters()
    out: dict[str, int | float] = {}
    for name, value in now.items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


# ----------------------------------------------------------------------
# Cross-process reassembly
# ----------------------------------------------------------------------
def _span_from_dict(data: dict) -> Span:
    node = Span(data["name"], dict(data.get("attrs", {})))
    node.t0_ns = int(data.get("t0_ns", 0))
    node.dur_ns = int(data["dur_ns"]) if data.get("dur_ns") is not None else 0
    node.pid = int(data.get("pid", 0))
    node.tid = int(data.get("tid", 0))
    node.children = [_span_from_dict(c) for c in data.get("children", [])]
    return node


def graft_snapshot(snapshot: dict | None) -> None:
    """Reattach a worker's serialized telemetry under the current span.

    The snapshot's span trees become children of the innermost open span
    on this thread (or collector roots when none is open), and its
    counters fold into the active collector by summation.  Callers graft
    outcomes in shard-index order, making the merged tree deterministic;
    counter sums are order-independent by construction.  No-op when
    collection is disabled or the snapshot is ``None``.
    """
    if not _enabled or not snapshot:
        return
    tel = _active()
    if tel is None:
        return
    stack = _span_stack()
    for tree in snapshot.get("spans", ()):
        node = _span_from_dict(tree)
        if stack:
            stack[-1].children.append(node)
        else:
            tel._add_root(node)
    for name, value in snapshot.get("counters", {}).items():
        tel._add_counter(name, value)


# ----------------------------------------------------------------------
# Environment switch
# ----------------------------------------------------------------------
def _env_truthy(value: str | None) -> bool:
    return value is not None and value.strip().lower() not in ("", "0", "false", "no")


if _env_truthy(os.environ.get("REPRO_TRACE")):  # pragma: no cover - env-driven
    enable()
