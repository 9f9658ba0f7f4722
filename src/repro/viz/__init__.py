"""Terminal visualization: ASCII Gantt charts and machine timelines."""

from .gantt import render_gantt, render_machine_timeline

__all__ = ["render_gantt", "render_machine_timeline"]
