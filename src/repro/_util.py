"""Small shared helpers used across the ``repro`` package."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_rng",
    "ceil_log2",
    "check_prob_matrix",
    "json_numbers",
    "log2p",
    "popcount",
    "iter_submasks",
    "bitmask_from_iterable",
    "iterable_from_bitmask",
]


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh non-deterministic generator; an ``int`` is used
    as a seed; a generator is passed through unchanged.  All randomness in
    the package flows through generators obtained here, so seeding any entry
    point makes the whole computation reproducible.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise ValidationError(f"cannot interpret {rng!r} as a random generator")


def ceil_log2(x: float) -> int:
    """``ceil(log2(x))`` as an ``int``, with ``ceil_log2(x) = 0`` for x <= 1."""
    if x <= 1:
        return 0
    return int(math.ceil(math.log2(x)))


def log2p(n: int) -> float:
    """``max(1.0, log2(n))`` — the paper's ``log n`` factors, floored at 1.

    The approximation factors in the paper are asymptotic; for tiny ``n`` the
    raw logarithm can be 0 which would degenerate replication counts and
    round limits, so every use of ``log n`` in the algorithms goes through
    this helper.
    """
    return max(1.0, math.log2(max(2, n)))


def check_prob_matrix(p: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a success-probability matrix.

    Returns a C-contiguous float64 copy of shape ``(m, n)`` with entries in
    ``[0, 1]`` and at least one positive entry per column (the paper's
    standing assumption: for each job j there is a machine i with
    ``p_ij > 0``).
    """
    arr = np.array(p, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise ValidationError(f"probability matrix must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("probability matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probability matrix contains non-finite entries")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    if np.any(arr.max(axis=0) <= 0.0):
        bad = np.flatnonzero(arr.max(axis=0) <= 0.0)
        raise ValidationError(
            f"every job needs some machine with p_ij > 0; jobs {bad.tolist()} have none"
        )
    return np.ascontiguousarray(arr)


def json_numbers(value, dtype) -> np.ndarray:
    """Decoded JSON lists of numbers as a ``dtype`` array, strictly.

    ``np.asarray`` casts what it is given (``2.5``, ``true`` and ``"2"``
    become the integers 2, 1 and 2), so every ``from_dict`` decoder reads
    numbers here instead.  An integer ``dtype`` admits JSON integers only,
    a float ``dtype`` integers and reals.  Booleans, strings, ``null`` and
    ragged rows raise :class:`TypeError`, and an integer outside
    ``dtype``'s range raises :class:`OverflowError`; decoders run inside
    :func:`~repro.errors.payload_errors`, which names the payload.
    """
    entries = np.array(value, dtype=object)
    allowed = {int} if np.issubdtype(dtype, np.integer) else {int, float}
    bad = set(map(type, entries.flat)) - allowed
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        kind = "integers" if allowed == {int} else "numbers"
        raise TypeError(f"expected JSON {kind}, got {names}")
    return entries.astype(dtype)


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    return int(mask).bit_count()


def iter_submasks(mask: int) -> Iterable[int]:
    """Iterate over all submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bitmask_from_iterable(items: Iterable[int]) -> int:
    """Build a bitmask with bit ``i`` set for each ``i`` in ``items``."""
    mask = 0
    for i in items:
        mask |= 1 << int(i)
    return mask


def iterable_from_bitmask(mask: int) -> list[int]:
    """List the set-bit positions of ``mask`` in increasing order."""
    out: list[int] = []
    i = 0
    m = int(mask)
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return out

