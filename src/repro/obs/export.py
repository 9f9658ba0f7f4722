"""Exporters for captured telemetry: Chrome trace-event JSON and flat tables.

Two consumers, two formats:

* :func:`chrome_trace` — the `Trace Event Format`_ dict that
  ``chrome://tracing`` and Perfetto load directly.  Every span becomes a
  complete ("X") event; counter totals become counter ("C") events
  stamped at the trace end.  Spans grafted from worker processes keep
  their own ``pid``, so each process renders as its own track (their
  ``perf_counter_ns`` origins are per-process and are not aligned across
  tracks).  ``tools/trace_schema.json`` pins the subset of the format we
  emit; ``tools/validate_trace.py`` checks an export against it in CI.

* :func:`summarize_trace` / :func:`render_summary` — a flat per-name
  aggregation (count, total/mean/min/max milliseconds) of the "X" events
  in a trace dict, for ``suu trace summarize out.json`` and quick looks
  without a browser.

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json

from ..errors import ValidationError

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "summarize_trace",
    "render_summary",
]


def _emit_span(node: dict, events: list[dict]) -> None:
    events.append(
        {
            "name": node["name"],
            "cat": "repro",
            "ph": "X",
            "ts": node.get("t0_ns", 0) / 1000.0,  # microseconds
            "dur": (node.get("dur_ns") or 0) / 1000.0,
            "pid": int(node.get("pid", 0)),
            "tid": int(node.get("tid", 0)),
            "args": dict(node.get("attrs", {})),
        }
    )
    for child in node.get("children", ()):
        _emit_span(child, events)


def chrome_trace(snapshot: dict) -> dict:
    """Convert a ``Telemetry.snapshot()`` dict to a Chrome trace-event dict."""
    events: list[dict] = []
    pid = int(snapshot.get("pid", 0))
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        }
    )
    for tree in snapshot.get("spans", ()):
        _emit_span(tree, events)
    end_ts = max((e["ts"] + e.get("dur", 0) for e in events if e["ph"] == "X"), default=0)
    for name in sorted(snapshot.get("counters", {})):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": end_ts,
                "pid": pid,
                "tid": 0,
                "args": {"value": snapshot["counters"][name]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(snapshot: dict, indent: int | None = None) -> str:
    """The :func:`chrome_trace` dict serialized to JSON."""
    return json.dumps(chrome_trace(snapshot), indent=indent)


def summarize_trace(trace: dict) -> list[dict]:
    """Aggregate a trace dict's "X" events per span name.

    Returns one row per distinct span name, sorted by total time
    descending: ``{"name", "count", "total_ms", "mean_ms", "min_ms",
    "max_ms"}``.  Counter ("C") events are appended after the span rows as
    ``{"name", "counter": value}`` entries so one table shows both.

    A trace file is input: an event that is not an object, or an "X" or
    "C" event without a string ``name`` (or with a non-numeric ``dur``, or
    non-object ``args``), raises :class:`~repro.errors.ValidationError`
    naming the event.
    """
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    events = trace.get("traceEvents", [])
    if not isinstance(events, list):
        raise ValidationError("traceEvents must be a list of event objects")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise _malformed(index, event)
        ph, name = event.get("ph"), event.get("name")
        if ph == "X":
            dur = event.get("dur", 0)
            if not isinstance(name, str) or type(dur) not in (int, float):
                raise _malformed(index, event)
            spans.setdefault(name, []).append(dur / 1000.0)
        elif ph == "C":
            args = event.get("args", {})
            if not isinstance(name, str) or not isinstance(args, dict):
                raise _malformed(index, event)
            counters[name] = args.get("value", 0)
    rows = [
        {
            "name": name,
            "count": len(durs),
            "total_ms": sum(durs),
            "mean_ms": sum(durs) / len(durs),
            "min_ms": min(durs),
            "max_ms": max(durs),
        }
        for name, durs in spans.items()
    ]
    rows.sort(key=lambda r: (-r["total_ms"], r["name"]))
    rows.extend(
        {"name": name, "counter": counters[name]} for name in sorted(counters)
    )
    return rows


def _malformed(index: int, event) -> ValidationError:
    return ValidationError(f"malformed trace event {index}: {event!r}")


def render_summary(rows: list[dict]) -> str:
    """Plain-text table for :func:`summarize_trace` rows (stdlib only)."""
    span_rows = [r for r in rows if "counter" not in r]
    counter_rows = [r for r in rows if "counter" in r]
    header = ["span", "count", "total (ms)", "mean (ms)", "min (ms)", "max (ms)"]
    table = [header]
    for r in span_rows:
        table.append(
            [
                r["name"],
                str(r["count"]),
                f"{r['total_ms']:.3f}",
                f"{r['mean_ms']:.3f}",
                f"{r['min_ms']:.3f}",
                f"{r['max_ms']:.3f}",
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        cells = [
            row[0].ljust(widths[0]),
            *(c.rjust(w) for c, w in zip(row[1:], widths[1:])),
        ]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    if counter_rows:
        lines.append("")
        lines.append("counters:")
        width = max(len(r["name"]) for r in counter_rows)
        for r in counter_rows:
            lines.append(f"  {r['name'].ljust(width)}  {r['counter']}")
    return "\n".join(lines)
