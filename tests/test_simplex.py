"""Simplex geometry and population-count lattices."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from wfsim.errors import (
    DimensionMismatch,
    InvalidNormalization,
    ResourceLimitExceeded,
)
from wfsim.simplex import (
    LatticePoint,
    lattice_counts,
    lattice_size,
    linf_distances,
    round_to_lattice,
)


def simplex_points(m: int):
    """Strategy producing valid frequency vectors of length m."""
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=m, max_size=m
    ).map(lambda xs: np.array(xs) / np.sum(xs))


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

class TestLinfDistances:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("p,q", [(0, 4), (4, 0), (1, 1), (7, 11), (60, 45)])
    def test_matches_cdist_bit_for_bit(self, m, p, q):
        rng = np.random.default_rng(1000 * m + 10 * p + q)
        a = rng.dirichlet(np.ones(m), size=p)
        # rows shared with ``a`` put exact zeros in the matrix
        b = np.vstack([a[: q // 2], rng.normal(size=(q - min(q // 2, p), m))])
        got = linf_distances(a, b)
        assert got.shape == (p, q)
        np.testing.assert_array_equal(got, cdist(a, b, metric="chebyshev"))

    def test_lattice_nodes_against_themselves(self):
        nodes = lattice_counts(3, 30) / 30.0
        np.testing.assert_array_equal(linf_distances(nodes, nodes),
                                      cdist(nodes, nodes, metric="chebyshev"))

    @pytest.mark.parametrize("a,b", [
        (np.zeros((2, 3)), np.zeros((2, 2))),
        (np.zeros(3), np.zeros((2, 3))),
    ])
    def test_shape_mismatch(self, a, b):
        with pytest.raises(DimensionMismatch):
            linf_distances(a, b)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

class TestValidation:
    def test_lattice_counts_must_match_n(self):
        with pytest.raises(InvalidNormalization):
            LatticePoint([1, 2], 4)

    def test_lattice_negative_count_rejected(self):
        with pytest.raises(InvalidNormalization):
            LatticePoint([-1, 5], 4)


# ----------------------------------------------------------------------
# lattice enumeration
# ----------------------------------------------------------------------

class TestLattice:
    def test_two_types_two_individuals(self):
        pts = [tuple(p) for p in lattice_counts(2, 2)]
        assert pts == [(0, 2), (1, 1), (2, 0)]
        assert lattice_size(2, 2) == 3

    def test_three_types_two_individuals(self):
        assert lattice_size(3, 2) == 6
        assert len(lattice_counts(3, 2)) == 6

    def test_three_types_five_hundred(self):
        assert lattice_size(3, 500) == math.comb(502, 2) == 125751

    def test_enumeration_matches_size_and_is_sorted(self):
        arr = lattice_counts(3, 6)
        assert arr.shape == (lattice_size(3, 6), 3)
        assert np.all(arr.sum(axis=1) == 6)
        order = np.lexsort(arr.T[::-1])
        assert np.array_equal(order, np.arange(len(arr)))
        # reference: filter the full grid, which product lists in lex order
        for m, n in ((1, 4), (2, 5), (3, 6), (4, 5), (5, 3)):
            ref = [c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n]
            got = lattice_counts(m, n)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.array(ref))

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitExceeded):
            lattice_counts(4, 2000)


# ----------------------------------------------------------------------
# rounding to the lattice
# ----------------------------------------------------------------------

class TestRoundToLattice:
    def test_exact_point_passes_through(self):
        p = round_to_lattice([0.2, 0.3, 0.5], 10)
        assert tuple(p.counts) == (2, 3, 5)

    def test_largest_remainder(self):
        # 0.25*6 = 1.5 three ways plus 1.5: remainders tie; lowest index wins
        p = round_to_lattice([0.45, 0.35, 0.2], 10)
        assert tuple(p.counts) == (5, 3, 2)
        assert p.n == 10

    @pytest.mark.parametrize("start", [[0.5000000004, 0.5000000004],
                                       [0.5000000008, 0.0, 0.5]])
    @pytest.mark.parametrize("n", [2**40, 2**53])
    def test_floors_that_overshoot_give_units_back(self, start, n):
        # each start sums to within 1e-9 of 1, as a config start may, and
        # its floors add up to more than n
        quota = np.multiply(start, n)
        assert int(np.floor(quota).sum()) > n
        p = round_to_lattice(start, n)
        assert int(p.counts.sum()) == n
        assert p.counts.min() >= 0
        assert np.all(p.counts[np.asarray(start) == 0] == 0)
        # off by at most the excess mass plus one unit
        assert np.max(np.abs(p.counts - quota)) <= n * (sum(start) - 1.0) + 1.0

    def test_starts_whose_floors_fit_keep_their_counts(self):
        # reference: floor, then one unit to each of the largest remainders
        def reference(x, n):
            scaled = np.asarray(x, dtype=np.float64) * n
            base = np.floor(scaled).astype(np.int64)
            leftover = n - int(base.sum())
            order = np.lexsort((np.arange(scaled.size), -(scaled - base)))
            base[order[:leftover]] += 1
            return base, leftover

        rng = np.random.default_rng(21)
        checked = 0
        for m in (2, 3, 5):
            for n in (7, 500, 10**6, 2**40, 2**53):
                for x in rng.dirichlet(np.ones(m), size=40):
                    counts, leftover = reference(x, n)
                    if leftover >= 0:
                        np.testing.assert_array_equal(round_to_lattice(x, n).counts,
                                                      counts)
                        checked += 1
        assert checked > 500

    @settings(max_examples=200)
    @given(simplex_points(4), st.integers(min_value=1, max_value=2000))
    def test_rounding_properties(self, x, n):
        p = round_to_lattice(x, n)
        assert int(p.counts.sum()) == n
        # never off by a full unit from the real-valued target
        assert np.max(np.abs(p.counts - x * n)) < 1.0
