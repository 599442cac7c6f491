"""Deterministic dynamics: orbits, equilibria, stability, permanence."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from wfsim.errors import (
    ConfigError,
    DimensionMismatch,
    NoInteriorEquilibrium,
    PreconditionError,
)
from wfsim.fitness import (
    TabulatedFitness,
    UpdateRule,
    finite_difference_jacobian,
    make_rule,
)
from wfsim.meanfield import (
    build_meanfield_report,
    check_permanence,
    check_stability_assumptions,
    epsilon_chain_max_length,
    epsilon_chain_reachable,
    is_positive_definite_on_sum_zero,
    iterate,
    jacobian_at_equilibrium,
    lyapunov_check,
    random_pd_on_sum_zero_matrix,
    random_stability_matrix,
    solve_interior_equilibrium,
    spectral_radius_on_sum_zero,
    sum_zero_basis,
)
from wfsim.simplex import SimplexPoint, lattice_counts

from conftest import A1, A2, CHI1, CHI2, A_TWO, NON_SYMMETRIC


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

class TestIterate:
    def test_neutral_orbit_is_constant(self, rule_neutral3):
        orbit = iterate(rule_neutral3, [0.2, 0.5, 0.3], steps=20)
        np.testing.assert_allclose(
            orbit.states, np.tile(orbit.states[0], (len(orbit), 1)), atol=1e-14
        )

    def test_vertex_orbit_is_constant(self, rule_a2):
        orbit = iterate(rule_a2, [1.0, 0.0, 0.0], steps=10)
        np.testing.assert_allclose(orbit.states[-1], [1.0, 0.0, 0.0], atol=1e-14)

    def test_benchmark_orbit_converges_to_equilibrium(self, rule_a2):
        orbit = iterate(rule_a2, [0.1, 0.8, 0.1], steps=2000)
        np.testing.assert_allclose(orbit.final, CHI2, atol=1e-6)
        assert orbit.converged_at is not None

    def test_early_stop_keeps_prefix(self, rule_a2):
        full = iterate(rule_a2, [0.1, 0.8, 0.1], steps=2000)
        short = iterate(rule_a2, [0.1, 0.8, 0.1], steps=2000,
                        stop_on_convergence=True)
        assert len(short) <= len(full)
        np.testing.assert_allclose(
            full.states[: len(short)], short.states, atol=0
        )

    def test_point_accessor(self, rule_a2):
        orbit = iterate(rule_a2, [0.1, 0.8, 0.1], steps=5)
        assert isinstance(orbit.point(3), SimplexPoint)
        assert len(orbit) == 6


# ----------------------------------------------------------------------
# interior equilibria
# ----------------------------------------------------------------------

class TestEquilibrium:
    def test_first_benchmark(self):
        eq = solve_interior_equilibrium(A1)
        np.testing.assert_allclose(eq.vector, CHI1, atol=1e-6)
        assert eq.is_interior

    def test_second_benchmark(self):
        eq = solve_interior_equilibrium(A2)
        np.testing.assert_allclose(eq.vector, CHI2, atol=1e-6)
        # common payoff value at the equilibrium
        np.testing.assert_allclose(np.asarray(A2) @ eq.vector,
                                   eq.c * np.ones(3), atol=1e-9)

    def test_two_type_symmetry(self):
        eq = solve_interior_equilibrium(A_TWO)
        np.testing.assert_allclose(eq.vector, [0.5, 0.5], atol=1e-14)
        assert eq.c == pytest.approx(1.5)

    def test_singular_matrix_raises(self):
        with pytest.raises(NoInteriorEquilibrium, match="no interior equilibrium"):
            solve_interior_equilibrium([[1.0, 1.0], [1.0, 1.0]])

    def test_sum_lost_in_rounding_is_zero_mass(self):
        # v = (1/32, -1/32); its float sum is 3.5e-18, not 0
        with pytest.raises(NoInteriorEquilibrium, match="zero total mass"):
            solve_interior_equilibrium([[89.0, 57.0], [53.0, 21.0]])

    def test_boundary_solution_flagged(self):
        eq = solve_interior_equilibrium([[2.0, 2.0], [2.0, 1.0]])
        assert not eq.is_interior
        with pytest.raises(NoInteriorEquilibrium):
            _ = eq.point


# ----------------------------------------------------------------------
# derivative at the equilibrium
# ----------------------------------------------------------------------

class TestJacobianAtEquilibrium:
    def test_zero_interaction_probe_gives_identity(self):
        d = jacobian_at_equilibrium(np.zeros((3, 3)), omega=0.5, chi=np.full(3, 1 / 3))
        np.testing.assert_allclose(d, np.eye(3), atol=1e-14)

    def test_two_type_hand_value(self):
        d = jacobian_at_equilibrium(A_TWO, omega=0.5, chi=np.array([0.5, 0.5]))
        np.testing.assert_allclose(d, [[1.2, 0.4], [0.4, 1.2]], atol=1e-12)

    @pytest.mark.parametrize("a, omega", [
        (A2, 0.5),
        (A1, 1e-3 / (1 + 1e-3)),
        ([[1, 3], [2, 1]], 0.5),
        (NON_SYMMETRIC, 0.5),
        (NON_SYMMETRIC, 0.9),
        ([[1, 4, 2, 3], [3, 1, 4, 2], [2, 3, 1, 4], [4, 2, 3, 1.5]], 0.2),
    ], ids=["A2", "A1", "two-type-non-symmetric", "non-symmetric",
            "non-symmetric-strong", "four-type-non-symmetric"])
    def test_benchmark_matches_finite_differences(self, a, omega):
        chi = solve_interior_equilibrium(a).vector
        d = jacobian_at_equilibrium(a, omega=omega, chi=chi)
        d_fd = finite_difference_jacobian(make_rule(a, omega=omega), chi)
        basis = sum_zero_basis(chi.size)
        assert np.max(np.abs((d - d_fd) @ basis)) < 1e-8

    def test_wrong_point_rejected(self):
        with pytest.raises(PreconditionError):
            jacobian_at_equilibrium(A2, omega=0.5, chi=np.array([0.3, 0.4, 0.3]))


class TestSpectralRadius:
    def test_hand_value(self):
        got = spectral_radius_on_sum_zero(np.array([[1.2, 0.4], [0.4, 1.2]]))
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_identity_has_radius_one(self):
        assert spectral_radius_on_sum_zero(np.eye(4)) == pytest.approx(1.0)

    def test_first_benchmark_contracts(self):
        ratio = 1e-3
        omega = ratio / (1 + ratio)
        chi = solve_interior_equilibrium(A1).vector
        d = jacobian_at_equilibrium(A1, omega=omega, chi=chi)
        r = spectral_radius_on_sum_zero(d)
        assert 0.0 < r < 1.0

    def test_sum_zero_basis_is_orthonormal(self):
        for m in (2, 3, 4, 7):
            basis = sum_zero_basis(m)
            assert basis.shape == (m, m - 1)
            np.testing.assert_allclose(basis.T @ basis, np.eye(m - 1), atol=1e-12)
            np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# stability flags
# ----------------------------------------------------------------------

class TestStabilityFlags:
    def test_two_type_flags(self):
        rep = check_stability_assumptions(A_TWO)
        assert rep.symmetric and rep.positive_entries and rep.invertible
        assert rep.one_positive_eigenvalue
        assert rep.negative_definite_on_sum_zero
        assert rep.ok

    def test_identity_fails(self):
        rep = check_stability_assumptions(np.eye(3))
        assert not rep.positive_entries
        assert not rep.one_positive_eigenvalue
        assert not rep.ok

    @pytest.mark.parametrize("matrix", [A1, A2])
    def test_benchmarks_pass(self, matrix):
        assert check_stability_assumptions(matrix).ok

    def test_report_dict_round_trip(self):
        d = check_stability_assumptions(A2).to_dict()
        assert d["negative_definite_on_sum_zero"] is True


class TestPositiveDefiniteOnSumZero:
    def test_identity(self):
        assert is_positive_definite_on_sum_zero(np.eye(2))

    def test_two_type_benchmark_is_not(self):
        assert not is_positive_definite_on_sum_zero(A_TWO)

    def test_diagonally_dominant_is(self):
        assert is_positive_definite_on_sum_zero([[3.0, 1.0], [1.0, 3.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(PreconditionError):
            is_positive_definite_on_sum_zero([[1.0, 2.0], [0.0, 1.0]])


# ----------------------------------------------------------------------
# permanence
# ----------------------------------------------------------------------

class TestPermanence:
    def test_two_type_hand_case(self, rule_two):
        rep = check_permanence(rule_two)
        assert rep.permanent
        supports = {tuple(sorted(fp.support)) for fp in rep.fixed_points}
        assert supports == {(1,), (2,)}
        assert all(fp.margin > 0 for fp in rep.fixed_points)

    def test_first_benchmark_with_equilibrium_witness(self, rule_a1):
        rep = check_permanence(rule_a1)
        assert rep.permanent
        np.testing.assert_allclose(rep.witness, CHI1, atol=1e-6)

    def test_face_scan_hits_are_mapped_once(self, monkeypatch):
        # the singular {1,2} face is scanned in one batched call; its 39 grid
        # hits are kept as they are, and only the 3 vertices and the 2 face
        # equilibria are re-checked one profile at a time
        matrix = [[1, 1, 2], [1, 1, 3], [2, 3, 1]]
        rule = make_rule(matrix, omega=0.5)
        shapes = []
        update = rule.update_probs
        monkeypatch.setattr(rule, "update_probs",
                            lambda x: (shapes.append(np.shape(x)), update(x))[1])
        rep = check_permanence(rule)
        assert len(rep.fixed_points) == 44
        assert sum(len(s) == 2 for s in shapes) == 1
        assert sum(len(s) == 1 for s in shapes) == 5

    def test_asymmetric_matrix_rejected(self, rule_two):
        with pytest.raises(PreconditionError):
            check_permanence(make_rule([[2.0, 2.0], [1.0, 1.0]], omega=0.5))

    def test_rule_without_a_payoff_matrix_rejected(self):
        rule = UpdateRule(TabulatedFitness(lambda x: 1.0 + x, m=2))
        with pytest.raises(PreconditionError, match="payoff-driven"):
            check_permanence(rule)


# ----------------------------------------------------------------------
# monotone quantity along orbits
# ----------------------------------------------------------------------

def average_payoff(a):
    """The batch function x -> x'Ax, (R, M) -> (R,)."""
    a = np.asarray(a, dtype=np.float64)
    return lambda x: np.einsum("ij,jk,ik->i", x, a, x)


class TestLyapunov:
    def test_average_payoff_never_decreases(self, rule_a1):
        h = average_payoff(A1)
        rng = np.random.default_rng(17)
        sample = rng.dirichlet(np.ones(3), size=10_000)
        rep = lyapunov_check(rule_a1, h, sample)
        assert rep.ok
        assert rep.violations == []
        # reference: one point at a time through the same batch function
        loop = [h(rule_a1.update_probs(x)[None])[0] - h(x[None])[0] for x in sample]
        np.testing.assert_array_equal(rep.drift, loop)

    def test_neutral_rule_has_zero_increments(self, rule_neutral3):
        rng = np.random.default_rng(18)
        sample = rng.dirichlet(np.ones(3), size=50)
        rep = lyapunov_check(rule_neutral3, lambda x: x[:, 0], sample)
        assert rep.min_drift == pytest.approx(0.0, abs=1e-12)

    def test_fixed_point_has_zero_increment(self, rule_a2):
        chi = solve_interior_equilibrium(A2).vector
        rep = lyapunov_check(rule_a2, average_payoff(A2), [chi])
        assert rep.ok and abs(rep.min_drift) < 1e-9

    def test_empty_sample_and_violations(self, rule_a2):
        empty = lyapunov_check(rule_a2, average_payoff(A2), np.empty((0, 3)))
        assert empty.ok and empty.min_drift == 0.0 and empty.violations == []
        # -x'Ax decreases off the equilibrium, so every such point violates
        sample = np.array([[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])
        rep = lyapunov_check(rule_a2, lambda x: -average_payoff(A2)(x), sample)
        assert not rep.ok
        assert [tuple(x) for x, _ in rep.violations] == [tuple(x) for x in sample]
        assert rep.min_drift == min(d for _, d in rep.violations) < 0

    def test_scalar_function_rejected(self, rule_a2):
        with pytest.raises(DimensionMismatch):
            lyapunov_check(rule_a2, lambda x: float(x[0, 0]), [[0.2, 0.3, 0.5]])


# ----------------------------------------------------------------------
# discretized reachability
# ----------------------------------------------------------------------

class TestEpsilonChains:
    def test_huge_step_reaches_anything(self, rule_a2):
        res = epsilon_chain_reachable(
            rule_a2, [0.8, 0.1, 0.1], [0.0, 0.0, 1.0], epsilon=1.01,
            grid_resolution=12,
        )
        assert res.reachable

    def test_benchmark_reaches_equilibrium(self, rule_a2):
        chi = solve_interior_equilibrium(A2).vector
        res = epsilon_chain_reachable(
            rule_a2, [0.8, 0.1, 0.1], chi, epsilon=0.15, grid_resolution=30,
        )
        assert res.reachable

    def test_identity_map_needs_many_small_hops(self, rule_neutral3):
        # the map moves nothing, so a chain must walk on jump slack alone
        start, target = [0.9, 0.05, 0.05], [0.1, 0.45, 0.45]
        res = epsilon_chain_max_length(
            rule_neutral3, start, target, epsilon=0.2, grid_resolution=30,
        )
        assert res.max_length is not None
        gap = 0.8  # sup-distance between start and target
        assert res.max_length >= int(np.floor(gap / 0.2))

    @pytest.mark.parametrize("matrix, target, epsilon, resolution, as_predicate", [
        (A2, CHI2, 0.15, 20, False),
        (A2, CHI2, 0.15, 20, True),
        (A2, CHI2, 0.08, 30, False),
        (np.ones((3, 3)), [0.1, 0.45, 0.45], 0.2, 15, False),
        (A_TWO, [0.5, 0.5], 0.05, 40, False),
    ], ids=["a2-coarse", "a2-predicate", "a2-fine", "neutral", "two-type"])
    def test_lengths_match_graph_shortest_paths(self, matrix, target, epsilon,
                                                resolution, as_predicate):
        rule = make_rule(matrix, omega=0.5)
        nodes = lattice_counts(rule.m, resolution) / resolution
        images = np.array([rule.update_probs(v) for v in nodes])
        adjacency = np.max(np.abs(images[:, None, :] - nodes[None, :, :]), axis=2) < epsilon
        dist = shortest_path(csr_matrix(adjacency.astype(float)), unweighted=True)
        nearest = int(np.argmin(np.max(np.abs(nodes - np.asarray(target)), axis=1)))
        into_target = dist[:, nearest]
        if as_predicate:
            # a batch predicate true at the point target's node only
            target = lambda v: np.all(v == nodes[nearest], axis=1)  # noqa: E731
        for start in (0, nodes.shape[0] // 3, nodes.shape[0] - 1):
            res = epsilon_chain_reachable(rule, nodes[start], target, epsilon,
                                          resolution)
            expected = into_target[start]
            assert res.reachable == np.isfinite(expected)
            assert res.length == (int(expected) if np.isfinite(expected) else None)
        cover = epsilon_chain_max_length(rule, None, target, epsilon, resolution)
        assert cover.n_source == nodes.shape[0]
        assert cover.unreached == int(np.sum(~np.isfinite(into_target)))
        assert cover.max_length == (None if cover.unreached else int(into_target.max()))

    def test_equidistant_point_maps_to_the_lowest_node(self, rule_neutral3):
        # (1/8, 3/8, 1/2) lies exactly 1/8 from the nodes (0, 2, 2)/4 and
        # (1, 1, 2)/4; the first in lattice order is its nearest node
        tie = [0.125, 0.375, 0.5]
        first = epsilon_chain_reachable(rule_neutral3, [0.0, 0.5, 0.5], tie,
                                        epsilon=0.3, grid_resolution=4)
        second = epsilon_chain_reachable(rule_neutral3, [0.25, 0.25, 0.5], tie,
                                         epsilon=0.3, grid_resolution=4)
        assert (first.length, second.length) == (0, 1)

    def test_start_on_several_nodes_rejected(self, rule_a2):
        with pytest.raises(PreconditionError, match="exactly one grid node, not 2"):
            epsilon_chain_reachable(rule_a2, [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]],
                                    CHI2, epsilon=0.15, grid_resolution=20)

    @pytest.mark.parametrize("predicate, count", [
        (lambda v: np.zeros(len(v), dtype=bool), 0),
        (lambda v: v[:, 0] > 0.9, 3),
    ], ids=["no-node", "three-nodes"])
    def test_start_predicate_must_match_one_node(self, rule_a2, predicate, count):
        # at resolution 20 the nodes with x_1 > 0.9 are (19, 1, 0), (19, 0, 1)
        # and (20, 0, 0), over 20
        with pytest.raises(PreconditionError, match=f"not {count}"):
            epsilon_chain_reachable(rule_a2, predicate, CHI2, epsilon=0.15,
                                    grid_resolution=20)

    def test_epsilon_below_grid_spacing_rejected(self, rule_a2):
        with pytest.raises(ConfigError):
            epsilon_chain_reachable(
                rule_a2, [0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                epsilon=0.001, grid_resolution=10,
            )

    def test_dimension_cap(self):
        rule = make_rule(np.ones((4, 4)), omega=0.5)
        with pytest.raises(PreconditionError):
            epsilon_chain_reachable(
                rule, [0.25] * 4, [0.4, 0.2, 0.2, 0.2], epsilon=0.3,
            )


# ----------------------------------------------------------------------
# random instance generators
# ----------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stability_matrices_pass_their_own_flags(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            a = random_stability_matrix(m, rng)
            assert check_stability_assumptions(a).ok
            assert solve_interior_equilibrium(a).is_interior

    @pytest.mark.parametrize("m", [2, 3])
    def test_pd_matrices_are_pd_with_positive_entries(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(5):
            a = random_pd_on_sum_zero_matrix(m, rng)
            assert is_positive_definite_on_sum_zero(a)
            assert np.all(a.entries > 0)


# ----------------------------------------------------------------------
# combined report
# ----------------------------------------------------------------------

class TestReport:
    def test_benchmark_report(self, rule_a2):
        rep = build_meanfield_report(rule_a2, check_perm=True)
        d = rep.to_dict()
        np.testing.assert_allclose(d["equilibrium"], CHI2, atol=1e-6)
        assert d["interior"] is True
        assert 0.0 < d["spectral_radius_sum_zero"] < 1.0
        assert d["stability"]["symmetric"] is True
        assert d["permanence"]["status"] == "permanent"

    def test_exponential_rule_report(self):
        rule = make_rule(A2, fitness="exponential", beta=0.2)
        rep = build_meanfield_report(rule)
        # equal-payoff profile is a fixed point for this landscape as well
        np.testing.assert_allclose(rep.equilibrium, CHI2, atol=1e-6)
        assert rep.spectral_radius < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"omega": 0.5},
        {"omega": 0.5, "b": [1.0, 2.0, 1.5]},
        {"fitness": "exponential", "beta": 0.3},
        {"omega": 0.5, "mutation": np.full((3, 3), 0.05) + 0.85 * np.eye(3)},
    ], ids=["unit-baseline", "baseline", "exponential", "mutation"])
    def test_jacobian_is_the_rule_derivative(self, kwargs):
        rule = make_rule(A2, **kwargs)
        rep = build_meanfield_report(rule)
        np.testing.assert_array_equal(rep.jacobian, rule.jacobian(rep.equilibrium))
