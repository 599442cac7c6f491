"""Geometry of the probability simplex and its integer lattice.

A population profile over M types is a point of the (M-1)-dimensional
probability simplex, held as a plain float array of shape (M,) (or a
batch of them, (R, M)).  A finite population of size N lives on the
lattice slice of integer count vectors summing to N.  This module provides
the lattice point type, lattice enumeration with resource caps, rounding
onto the lattice, and the max-norm distance matrix used throughout the
package.  A set of types (a support, a face, the least-fit set) is a
sorted tuple of 1-based labels, the form the outputs write.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidNormalization, ResourceLimitExceeded

#: Cap on the number of lattice states an exhaustive operation may
#: enumerate.
STATE_CAP = 200_000


class LatticePoint:
    """Integer count vector of a finite population: M counts summing to N."""

    __slots__ = ("_counts", "_n")

    def __init__(self, counts: Iterable[int], n: int):
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("counts must be a non-empty 1-d vector")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(np.asarray(arr, dtype=np.float64))
            if not np.array_equal(rounded, np.asarray(arr, dtype=np.float64)):
                raise InvalidNormalization("counts must be integers")
            arr = rounded
        arr = arr.astype(np.int64, copy=True)
        if np.any(arr < 0):
            raise InvalidNormalization("counts must be non-negative")
        if int(arr.sum()) != int(n):
            raise InvalidNormalization(f"counts sum to {int(arr.sum())}, expected {n}")
        arr.flags.writeable = False
        self._counts = arr
        self._n = int(n)

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._counts.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticePoint)
            and self._n == other._n
            and np.array_equal(self._counts, other._counts)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._counts.tobytes()))

    def __repr__(self) -> str:
        return f"LatticePoint({self._counts.tolist()!r}, n={self._n})"


def linf_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (P, Q) max-norm distance matrix between the rows of ``a``
    (P, M) and ``b`` (Q, M).

    Built one coordinate at a time in one reused (P, Q) buffer with an
    in-place running maximum, so no (P, Q, M) temporary is formed.
    Subtraction, absolute value and maximum are exact, so the entries
    equal those of any other exact max-norm routine bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"cannot pair rows of shapes {a.shape} and {b.shape}")
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for j in range(a.shape[1]):
        np.subtract(a[:, None, j], b[None, :, j], out=diff)
        np.maximum(out, np.abs(diff, out=diff), out=out)
    return out


def lattice_size(m: int, n: int) -> int:
    """Number of count vectors of M non-negative integers summing to N."""
    return math.comb(n + m - 1, m - 1)


def lattice_counts(m: int, n: int) -> np.ndarray:
    """Every count vector of M non-negative integers summing to N, as one
    (S, M) int64 array in ascending lexicographic order.

    Built by stars and bars: each vector is a choice of M-1 bar positions
    among N+M-1 slots, and ``itertools.combinations`` lists the choices in
    the lexicographic order of the count vectors.  Refuses up front when
    the state count exceeds ``STATE_CAP``.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    size = lattice_size(m, n)
    if size > STATE_CAP:
        raise ResourceLimitExceeded(
            f"lattice for M={m}, N={n} has {size} states, exceeding the cap "
            f"of {STATE_CAP}"
        )
    slots = n + m - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), m - 1)),
        dtype=np.int64, count=size * (m - 1),
    ).reshape(size, m - 1)
    edges = np.empty((size, m + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:m] = bars
    edges[:, m] = slots
    return np.diff(edges, axis=1) - 1


def round_to_lattice(x: Iterable[float], n: int) -> LatticePoint:
    """Nearest count vector to ``n * x`` that sums exactly to ``n``.

    Uses largest-remainder apportionment: floor every scaled coordinate,
    then hand the leftover units to the largest fractional parts (ties go
    to the lowest index).  Deterministic.
    """
    arr = np.asarray(x, dtype=np.float64)
    return LatticePoint(_apportion(arr * n, n), n)


def _apportion(quota: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder counts for non-negative quotas: floor each, then
    hand the leftover units to the largest fractional parts, ties to the
    lowest index.  Floors that overshoot ``total`` (a start summing to
    just above 1, at large N) give the excess back in proportion to
    themselves by the same rule, so no count goes below zero.
    """
    base = np.floor(quota).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover > 0:
        # stable sort on (-remainder, index): largest remainders first,
        # lowest index wins ties
        order = np.lexsort((np.arange(quota.size), -(quota - base)))
        base[order[:leftover]] += 1
    elif leftover < 0:
        base -= _apportion(base * (-leftover / base.sum()), -leftover)
    return base
