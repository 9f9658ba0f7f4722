"""Tests for the terminal visualization helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CyclicSchedule, ObliviousSchedule
from repro.viz import render_gantt, render_machine_timeline


class TestGantt:
    def test_basic_render(self):
        sched = ObliviousSchedule(np.array([[0, 1], [1, -1], [2, 2]]))
        out = render_gantt(sched)
        assert "m0" in out and "m1" in out
        lines = out.splitlines()
        m0 = next(line for line in lines if "m0" in line)
        assert m0.strip().endswith("012")
        m1 = next(line for line in lines if "m1" in line)
        assert "." in m1  # idle glyph

    def test_cyclic_render_marks_tail(self):
        sched = CyclicSchedule(
            ObliviousSchedule(np.array([[0], [1]])),
            ObliviousSchedule(np.array([[2]])),
        )
        out = render_gantt(sched, max_steps=5)
        assert "serial tail begins at step 2" in out

    def test_max_steps_truncates(self):
        sched = ObliviousSchedule(np.zeros((100, 1), dtype=np.int32))
        out = render_gantt(sched, max_steps=10)
        m0 = next(line for line in out.splitlines() if "m0" in line)
        assert m0.split()[-1].count("0") == 10

    def test_instance_footer(self, tiny_independent):
        sched = ObliviousSchedule(np.array([[0, 1, 2]]))
        out = render_gantt(sched, instance=tiny_independent)
        assert "jobs: 3" in out

    def test_many_jobs_glyphs(self):
        sched = ObliviousSchedule(np.array([[70]]))
        out = render_gantt(sched)
        assert "#" in out


class TestTimeline:
    def test_run_length_encoding(self):
        sched = ObliviousSchedule(
            np.array([[0], [0], [1], [-1], [-1], [2]], dtype=np.int32)
        )
        out = render_machine_timeline(sched, 0)
        assert out == "j0×2 → j1×1 → idle×2 → j2×1"

    def test_machine_range_checked(self):
        sched = ObliviousSchedule(np.array([[0]]))
        with pytest.raises(ValueError):
            render_machine_timeline(sched, 5)

    def test_empty(self):
        sched = ObliviousSchedule.empty(2)
        assert "empty" in render_machine_timeline(sched, 0)

