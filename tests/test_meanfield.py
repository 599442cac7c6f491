"""Deterministic dynamics: orbits, equilibria, stability, permanence."""

from __future__ import annotations

import numpy as np
import pytest

from wfsim.errors import NoInteriorEquilibrium, PreconditionError
from wfsim.fitness import finite_difference_jacobian, make_rule
from wfsim.meanfield import (
    build_meanfield_report,
    check_permanence,
    check_stability_assumptions,
    is_positive_definite_on_sum_zero,
    iterate,
    random_pd_on_sum_zero_matrix,
    random_stability_matrix,
    solve_interior_equilibrium,
    spectral_radius_on_sum_zero,
    sum_zero_basis,
)

from conftest import A1, A2, CHI1, CHI2, A_TWO, NON_SYMMETRIC, jacobian_at_equilibrium


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
        chi = solve_interior_equilibrium(A2).vector
        np.testing.assert_allclose(orbit.states[-1], CHI2, atol=1e-6)
        # settled: the last steps sit on the equilibrium to rounding
        np.testing.assert_allclose(orbit.states[-4:], np.tile(chi, (4, 1)),
                                   rtol=0, atol=1e-12)


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
        assert eq.vector.min() <= 0


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
        assert rep["symmetric"] and rep["positive_entries"] and rep["invertible"]
        assert rep["one_positive_eigenvalue"]
        assert rep["negative_definite_on_sum_zero"]
        assert rep["ok"]

    def test_identity_fails(self):
        rep = check_stability_assumptions(np.eye(3))
        assert not rep["positive_entries"]
        assert not rep["one_positive_eigenvalue"]
        assert not rep["ok"]

    @pytest.mark.parametrize("matrix", [A1, A2])
    def test_benchmarks_pass(self, matrix):
        assert check_stability_assumptions(matrix)["ok"]

    def test_report_dict_round_trip(self):
        d = check_stability_assumptions(A2)
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
        # the two vertices are the only boundary fixed points
        rep = check_permanence(rule_two)
        assert rep["status"] == "permanent"
        assert rep["n_boundary_fixed_points"] == 2
        assert rep["min_margin"] > 0

    def test_first_benchmark_with_equilibrium_witness(self, rule_a1):
        rep = check_permanence(rule_a1)
        assert rep["status"] == "permanent"
        np.testing.assert_allclose(rep["witness"], CHI1, atol=1e-6)

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
        assert rep["n_boundary_fixed_points"] == 44
        assert sum(len(s) == 2 for s in shapes) == 1
        assert sum(len(s) == 1 for s in shapes) == 5

    @pytest.mark.parametrize("eps", [1e-16, 1e-15])
    def test_nearly_singular_face_is_scanned(self, eps):
        # at eps = 1e-15 np.linalg.solve succeeds on the {1,2} face, but the
        # face is singular to is_invertible's tolerance, so its 39 grid
        # points, all moved less than 1e-8 by the map, count as at eps = 1e-16
        rule = make_rule([[1, 1, 2], [1, 1 + eps, 3], [2, 3, 1]], omega=0.5)
        assert check_permanence(rule)["n_boundary_fixed_points"] == 44

    def test_asymmetric_matrix_rejected(self, rule_two):
        with pytest.raises(PreconditionError):
            check_permanence(make_rule([[2.0, 2.0], [1.0, 1.0]], omega=0.5))


# ----------------------------------------------------------------------
# the deterministic maximization principle
# ----------------------------------------------------------------------

def average_payoff(a):
    """The batch function x -> x'Ax, (R, M) -> (R,)."""
    a = np.asarray(a, dtype=np.float64)
    return lambda x: np.einsum("ij,jk,ik->i", x, a, x)


class TestLyapunov:
    """The deterministic maximization principle: x'Ax does not decrease
    under the update map of a symmetric payoff matrix,
    h(update(x)) - h(x) >= -1e-10."""

    def test_average_payoff_never_decreases(self, rule_a1):
        h = average_payoff(A1)
        x = np.random.default_rng(17).dirichlet(np.ones(3), size=10_000)
        drift = h(rule_a1.update_probs(x)) - h(x)
        assert drift.min() >= -1e-10
        # reference: one point at a time through the same batch function
        loop = [h(rule_a1.update_probs(p)[None])[0] - h(p[None])[0] for p in x]
        np.testing.assert_array_equal(drift, loop)

    def test_neutral_rule_has_zero_increments(self, rule_neutral3):
        x = np.random.default_rng(18).dirichlet(np.ones(3), size=50)
        h = lambda y: y[:, 0]  # noqa: E731
        np.testing.assert_allclose(h(rule_neutral3.update_probs(x)) - h(x), 0.0,
                                   atol=1e-12)

    def test_fixed_point_has_zero_increment(self, rule_a2):
        chi = solve_interior_equilibrium(A2).vector[None]
        h = average_payoff(A2)
        assert abs(float(h(rule_a2.update_probs(chi))[0] - h(chi)[0])) < 1e-9


# ----------------------------------------------------------------------
# random instance generators
# ----------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stability_matrices_pass_their_own_flags(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            a = random_stability_matrix(m, rng)
            assert check_stability_assumptions(a)["ok"]
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
        d = build_meanfield_report(rule_a2, check_perm=True)
        np.testing.assert_allclose(d["equilibrium"], CHI2, atol=1e-6)
        assert d["interior"] is True
        assert 0.0 < d["spectral_radius_sum_zero"] < 1.0
        assert d["stability"]["symmetric"] is True
        assert d["permanence"]["status"] == "permanent"

    def test_exponential_rule_report(self):
        rule = make_rule(A2, fitness="exponential", beta=0.2)
        rep = build_meanfield_report(rule)
        # equal-payoff profile is a fixed point for this landscape as well
        np.testing.assert_allclose(rep["equilibrium"], CHI2, atol=1e-6)
        assert rep["spectral_radius_sum_zero"] < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"omega": 0.5},
        {"omega": 0.5, "b": [1.0, 2.0, 1.5]},
        {"fitness": "exponential", "beta": 0.3},
        {"omega": 0.5, "mutation": np.full((3, 3), 0.05) + 0.85 * np.eye(3)},
    ], ids=["unit-baseline", "baseline", "exponential", "mutation"])
    def test_jacobian_is_the_rule_derivative(self, kwargs):
        rule = make_rule(A2, **kwargs)
        rep = build_meanfield_report(rule)
        np.testing.assert_array_equal(rep["jacobian"],
                                      rule.jacobian(np.array(rep["equilibrium"])))
