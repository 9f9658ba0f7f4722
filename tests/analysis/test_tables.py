"""Tests for the table renderer."""

from __future__ import annotations

import pytest

from repro.analysis import Table


class TestTable:
    def test_basic_render(self):
        t = Table(["a", "b"], title="demo")
        t.add_row([1, 2.5])
        out = t.render()
        assert "demo" in out
        assert "2.500" in out

    def test_row_length_checked(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_alignment_consistent(self):
        t = Table(["name", "x"])
        t.add_row(["long-name-here", 1])
        t.add_row(["s", 22])
        lines = t.render().splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_bool_formatting(self):
        t = Table(["ok"])
        t.add_row([True])
        assert "yes" in t.render()

    def test_nan(self):
        t = Table(["x"])
        t.add_row([float("nan")])
        assert "nan" in t.render()

    def test_ndigits(self):
        t = Table(["x"], ndigits=1)
        t.add_row([3.14159])
        assert "3.1" in t.render()

    def test_empty_table_renders(self):
        t = Table(["a"])
        assert "a" in t.render()

    def test_str(self):
        t = Table(["a"])
        t.add_row([1])
        assert str(t) == t.render()
