"""Tests for repro._util helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ValidationError
from repro._util import (
    as_rng,
    bitmask_from_iterable,
    ceil_log2,
    check_prob_matrix,
    iter_submasks,
    iterable_from_bitmask,
    log2p,
    popcount,
)


class TestAsRng:
    def test_from_seed(self):
        a = as_rng(7).random()
        b = as_rng(7).random()
        assert a == b

    def test_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            as_rng("seed")


class TestMath:
    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(5) == 3
        assert ceil_log2(0.5) == 0

    def test_log2p_floor(self):
        assert log2p(1) == 1.0
        assert log2p(2) == 1.0
        assert log2p(16) == 4.0


class TestBitmasks:
    def test_roundtrip(self):
        items = [0, 3, 5]
        assert iterable_from_bitmask(bitmask_from_iterable(items)) == items

    def test_popcount(self):
        assert popcount(0b1011) == 3
        assert popcount(0) == 0

    def test_iter_submasks_count(self):
        subs = list(iter_submasks(0b101))
        assert len(subs) == 4
        assert set(subs) == {0b101, 0b100, 0b001, 0b000}

    def test_iter_submasks_zero(self):
        assert list(iter_submasks(0)) == [0]


class TestProbMatrix:
    def test_copy_semantics(self):
        p = np.array([[0.5]])
        out = check_prob_matrix(p)
        assert out is not p
        p[0, 0] = 0.9
        assert out[0, 0] == 0.5

    def test_list_input(self):
        out = check_prob_matrix([[0.1, 0.2]])
        assert out.dtype == np.float64
