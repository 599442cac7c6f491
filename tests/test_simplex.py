"""Simplex geometry, support sets, and population-count lattices."""

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
    SimplexPoint,
    SupportSet,
    lattice_counts,
    lattice_size,
    linf_distance,
    linf_distances,
    round_to_lattice,
)


def simplex_points(m: int):
    """Strategy producing valid frequency vectors of length m."""
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=m, max_size=m
    ).map(lambda xs: SimplexPoint(np.array(xs) / np.sum(xs), normalize=True))


# ----------------------------------------------------------------------
# supports and faces
# ----------------------------------------------------------------------

class TestSupport:
    def test_mixed_five_type_profile(self):
        got = SimplexPoint([0.0, 1 / 2, 1 / 3, 1 / 6, 0.0]).support()
        assert got == SupportSet(labels=frozenset({2, 3, 4}))

    def test_vertex(self):
        assert set(SimplexPoint([1.0, 0.0, 0.0]).support()) == {1}

    def test_interior(self):
        assert set(SimplexPoint([1 / 3, 1 / 3, 1 / 3]).support()) == {1, 2, 3}

    def test_lattice_point_support(self):
        assert set(LatticePoint([0, 3, 2], 5).support()) == {2, 3}

    @given(simplex_points(4))
    def test_support_indices_sorted_zero_based(self, x):
        idx = x.support().indices()
        assert np.all(np.diff(idx) > 0)
        assert np.all(x.coords[idx] > 0)


class TestClassify:
    """The open face containing a point is the one spanned by its support."""

    def test_interior_point(self):
        x = SimplexPoint([1 / 3, 1 / 3, 1 / 3])
        assert len(x.support()) == x.m

    def test_proper_face(self):
        x = SimplexPoint([0.5, 0.5, 0.0])
        assert set(x.support()) == {1, 2}
        assert 1 < len(x.support()) < x.m

    def test_vertex(self):
        assert set(SimplexPoint([0.0, 1.0, 0.0]).support()) == {2}


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

class TestLinfDistance:
    def test_zero_at_equal_points(self):
        x = SimplexPoint([0.2, 0.3, 0.5])
        assert linf_distance(x, x) == 0.0

    def test_opposite_vertices(self):
        assert linf_distance(SimplexPoint([1.0, 0.0]), SimplexPoint([0.0, 1.0])) == 1.0

    def test_profile_to_equilibrium(self):
        d = linf_distance(
            SimplexPoint([0.8, 0.1, 0.1]),
            SimplexPoint([0.2477, 0.4112, 0.3411]),
        )
        assert d == pytest.approx(0.5523, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linf_distance(SimplexPoint([1.0, 0.0]), SimplexPoint([1.0, 0.0, 0.0]))

    @given(simplex_points(3), simplex_points(3))
    def test_metric_bounds(self, x, y):
        d = linf_distance(x, y)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(linf_distance(y, x))


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
    def test_negative_coordinate_rejected(self):
        with pytest.raises(InvalidNormalization):
            SimplexPoint([0.6, 0.5, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidNormalization):
            SimplexPoint([0.5, 0.4])

    def test_normalize_clamps_and_rescales(self):
        x = SimplexPoint([0.5, 0.25, 0.25000001], normalize=True)
        assert x.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_lattice_counts_must_match_n(self):
        with pytest.raises(InvalidNormalization):
            LatticePoint([1, 2], 4)

    def test_lattice_negative_count_rejected(self):
        with pytest.raises(InvalidNormalization):
            LatticePoint([-1, 5], 4)

    def test_lattice_frequencies(self):
        x = LatticePoint([2, 3, 0], 5)
        np.testing.assert_allclose(x.as_frequencies().coords, [0.4, 0.6, 0.0])


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
            lattice_counts(4, 2000, cap=1000)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("WF_MAX_STATES", "5")
        with pytest.raises(ResourceLimitExceeded):
            lattice_counts(3, 4)


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

    @settings(max_examples=200)
    @given(simplex_points(4), st.integers(min_value=1, max_value=2000))
    def test_rounding_properties(self, x, n):
        p = round_to_lattice(x.coords, n)
        assert int(p.counts.sum()) == n
        # never off by a full unit from the real-valued target
        assert np.max(np.abs(p.counts - x.coords * n)) < 1.0
