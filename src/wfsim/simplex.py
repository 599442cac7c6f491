"""Geometry of the probability simplex and its integer lattice.

A population profile over M types is a point of the (M-1)-dimensional
probability simplex.  A finite population of size N lives on the lattice
slice of integer count vectors summing to N.  This module provides the two
point types and their supports, lattice enumeration with resource caps,
rounding onto the lattice, and the max-norm distance used throughout the
package.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import DimensionMismatch, InvalidNormalization, ResourceLimitExceeded

#: Sum tolerance for accepting a real vector as a probability vector.
SUM_TOL = 1e-12

#: Default cap on the number of lattice states an exhaustive operation may
#: enumerate.  Override with the WF_MAX_STATES environment variable.
DEFAULT_STATE_CAP = 200_000

#: Cap on (state x successor) pairs for dense exhaustive computations.
PAIR_CAP = 10_000_000


def state_cap() -> int:
    """Current lattice-state cap, honoring the WF_MAX_STATES override."""
    raw = os.environ.get("WF_MAX_STATES")
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceLimitExceeded(
            f"WF_MAX_STATES must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ResourceLimitExceeded("WF_MAX_STATES must be positive")
    return value


@dataclass(frozen=True)
class SupportSet:
    """Set of type labels (1-based) carrying positive mass.

    Labels are 1-based to match the usual numbering of types in reported
    tables; use :meth:`to_mask` / :meth:`from_mask` to convert to and from
    0-based numpy indexing.
    """

    labels: frozenset[int]

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SupportSet":
        return cls(frozenset(int(i) + 1 for i in np.flatnonzero(mask)))

    def to_mask(self, m: int) -> np.ndarray:
        mask = np.zeros(m, dtype=bool)
        for label in self.labels:
            if not 1 <= label <= m:
                raise DimensionMismatch(f"label {label} out of range 1..{m}")
            mask[label - 1] = True
        return mask

    def indices(self) -> np.ndarray:
        """Sorted 0-based indices."""
        return np.array(sorted(label - 1 for label in self.labels), dtype=np.intp)

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(sorted(self.labels))

    def __len__(self) -> int:
        return len(self.labels)


class SimplexPoint:
    """An M-vector of non-negative frequencies summing to one.

    Construction is strict by default: the input must already sum to 1
    within ``SUM_TOL`` and have no negative coordinate.  With
    ``normalize=True`` the vector is divided by its sum instead (tiny
    negative round-off, at most ``SUM_TOL`` in magnitude, is clamped to 0).
    Instances are immutable.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[float], normalize: bool = False):
        arr = np.asarray(coords, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("a simplex point must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InvalidNormalization("coordinates must be finite")
        if normalize:
            arr[(arr < 0) & (arr >= -SUM_TOL)] = 0.0
        if np.any(arr < 0):
            raise InvalidNormalization("coordinates must be non-negative")
        total = float(arr.sum())
        if normalize:
            if total <= 0:
                raise InvalidNormalization("cannot normalize a vector with non-positive sum")
            arr = arr / total
        elif abs(total - 1.0) > SUM_TOL:
            raise InvalidNormalization(
                f"coordinates sum to {total!r}, not 1 within {SUM_TOL}"
            )
        arr.flags.writeable = False
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def m(self) -> int:
        return self._coords.size

    def support(self, tol: float = 0.0) -> SupportSet:
        return SupportSet.from_mask(self._coords > tol)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexPoint) and np.array_equal(
            self._coords, other._coords
        )

    def __hash__(self) -> int:
        return hash(self._coords.tobytes())

    def __repr__(self) -> str:
        return f"SimplexPoint({self._coords.tolist()!r})"


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

    def as_frequencies(self) -> SimplexPoint:
        return SimplexPoint(self._counts / self._n)

    def support(self) -> SupportSet:
        return SupportSet.from_mask(self._counts > 0)

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


PointLike = Union[SimplexPoint, LatticePoint]


def linf_distance(x: PointLike, y: PointLike) -> float:
    """Max-norm distance between two profiles of equal dimension."""
    xa = x.as_frequencies().coords if isinstance(x, LatticePoint) else x.coords
    ya = y.as_frequencies().coords if isinstance(y, LatticePoint) else y.coords
    if xa.size != ya.size:
        raise DimensionMismatch(f"dimension mismatch: {xa.size} vs {ya.size}")
    return float(np.max(np.abs(xa - ya)))


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


def _check_lattice_cap(m: int, n: int, cap: int | None) -> int:
    size = lattice_size(m, n)
    limit = state_cap() if cap is None else cap
    if size > limit:
        raise ResourceLimitExceeded(
            f"lattice for M={m}, N={n} has {size} states, exceeding the cap "
            f"of {limit} (set WF_MAX_STATES to raise it)"
        )
    return size


def lattice_counts(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Every count vector of M non-negative integers summing to N, as one
    (S, M) int64 array in ascending lexicographic order.

    Built by stars and bars: each vector is a choice of M-1 bar positions
    among N+M-1 slots, and ``itertools.combinations`` lists the choices in
    the lexicographic order of the count vectors.  Refuses up front when
    the state count exceeds the cap.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    size = _check_lattice_cap(m, n, cap)
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
    scaled = arr * n
    base = np.floor(scaled).astype(np.int64)
    leftover = int(n - base.sum())
    if leftover < 0:
        raise ValueError("input does not look like a probability vector")
    if leftover > 0:
        remainders = scaled - base
        # stable sort on (-remainder, index): largest remainders first,
        # lowest index wins ties
        order = np.lexsort((np.arange(arr.size), -remainders))
        base[order[:leftover]] += 1
    return LatticePoint(base, n)
