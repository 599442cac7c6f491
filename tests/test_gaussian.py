"""Fluctuation analysis: multinomial noise, linear recursions, residuals."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from wfsim import chain
from wfsim.errors import NumericRangeError, PreconditionError, ResourceLimitExceeded
from wfsim.fitness import make_rule
from wfsim.gaussian import (
    ar1_covariance,
    compare_residual_moments,
    noise_covariance,
    rescaled_residuals,
    stationary_covariance,
)
from wfsim.meanfield import iterate, solve_interior_equilibrium, sum_zero_basis

from conftest import A1, A2


@pytest.fixture(scope="module")
def eq_orbit(rule_a2):
    chi = solve_interior_equilibrium(A2).vector
    return iterate(rule_a2, chi, steps=30)


# ----------------------------------------------------------------------
# multinomial noise covariance
# ----------------------------------------------------------------------

class TestNoiseCovariance:
    def test_vertex_image_has_no_noise(self):
        np.testing.assert_array_equal(
            noise_covariance([1.0, 0.0]), np.zeros((2, 2))
        )

    def test_symmetric_two_type_hand_value(self):
        np.testing.assert_allclose(
            noise_covariance([0.5, 0.5]),
            [[0.25, -0.25], [-0.25, 0.25]],
        )

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0),
                    min_size=2, max_size=5))
    def test_rows_sum_to_zero(self, raw):
        p = np.asarray(raw) / np.sum(raw)
        sig = noise_covariance(p)
        np.testing.assert_allclose(sig.sum(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(sig, sig.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(sig)) > -1e-12


# ----------------------------------------------------------------------
# the linear Gaussian recursion
# ----------------------------------------------------------------------

class TestAr1Covariance:
    def test_noise_free_orbit_stays_at_zero(self, rule_a2):
        orbit = iterate(rule_a2, [0.0, 1.0, 0.0], steps=8)
        vk = ar1_covariance(orbit)
        np.testing.assert_allclose(vk, 0.0, atol=1e-15)

    def test_neutral_rule_gives_a_random_walk(self, rule_neutral3):
        orbit = iterate(rule_neutral3, [0.2, 0.5, 0.3], steps=12)
        d = rule_neutral3.jacobian(np.array([0.2, 0.5, 0.3]))
        # identity on every sum-zero direction (the ambient map renormalizes)
        w = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]).T
        np.testing.assert_allclose(d @ w, w, atol=1e-9)
        vk = ar1_covariance(orbit)
        sig = noise_covariance(np.array([0.2, 0.5, 0.3]))
        for k in range(13):
            np.testing.assert_allclose(vk[k], k * sig, atol=1e-9)

    def test_convergence_to_the_stationary_solution(self, rule_a2, eq_orbit):
        chi = eq_orbit.states[-1]
        d = rule_a2.jacobian(chi)
        sig = noise_covariance(rule_a2.update_probs(chi))
        vstar = stationary_covariance(d, sig)
        resid = np.max(np.abs(d @ vstar @ d.T + sig - vstar))
        assert resid < 1e-10
        # the recursion with its coefficients frozen at the equilibrium
        vk = np.zeros_like(sig)
        for _ in range(600):
            vk = d @ vk @ d.T + sig
        np.testing.assert_allclose(vk, vstar, atol=1e-8)

    def test_matches_scipy_lyapunov_solver(self):
        # at the interior equilibrium of each benchmark system
        for matrix in (A1, A2):
            rule = make_rule(matrix, omega=0.5)
            chi = iterate(rule, solve_interior_equilibrium(matrix).vector, steps=30).states[-1]
            d = rule.jacobian(chi)
            sig = noise_covariance(rule.update_probs(chi))
            vstar = stationary_covariance(d, sig)
            oracle = scipy.linalg.solve_discrete_lyapunov(d, sig)
            np.testing.assert_allclose(vstar, oracle, atol=1e-9)

    def test_expanding_map_diverges(self):
        with pytest.raises(NumericRangeError):
            stationary_covariance(1.1 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("matrix", [A1, A2], ids=["A1", "A2"])
    def test_weak_selection_fixed_point(self, matrix):
        # sum-zero spectral radius ~0.9999: iterating the recursion to its
        # fixed point takes longer than any practical step budget
        rule = make_rule(matrix, omega=1e-4 / (1.0 + 1e-4))
        chi = solve_interior_equilibrium(matrix).vector
        d = rule.jacobian(chi)
        sig = noise_covariance(rule.update_probs(chi))
        vstar = stationary_covariance(d, sig)
        scale = np.abs(vstar).max()
        np.testing.assert_allclose(vstar, vstar.T, rtol=0, atol=1e-12 * scale)
        assert np.linalg.eigvalsh(vstar).min() > -1e-12 * scale
        assert np.abs(vstar @ np.ones(3)).max() <= 1e-10 * scale
        assert np.abs(d @ vstar @ d.T + sig - vstar).max() <= 1e-10 * scale

    def test_noise_off_the_sum_zero_subspace_rejected(self):
        with pytest.raises(PreconditionError):
            stationary_covariance(0.5 * np.eye(3), np.eye(3))

    def test_first_system_past_the_byte_cap_is_refused_before_allocating(self):
        # M=58 is the first M whose (M-1)^2 x (M-1)^2 system passes the
        # 80,000,000-byte cap: 57^4 x 8 = 84.4 MB (M=57: 78.7 MB)
        m = 58
        assert (m - 1) ** 4 * 8 > chain.BLOCK_BYTE_CAP >= (m - 2) ** 4 * 8
        d, sig = 0.5 * np.eye(m), noise_covariance(np.full(m, 1.0 / m))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitExceeded, match="M=58"):
                stationary_covariance(d, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_system_is_built_in_one_buffer(self):
        # M=40: a 1521 x 1521 system of 18.5 MB. I and K as two arrays traced
        # 37.2 MB; one buffer 18.7 MB. LAPACK's copy inside solve is not traced
        m = 40
        rng = np.random.default_rng(67)
        pert = 0.01 * rng.normal(size=(m, m))
        d = 0.5 * np.eye(m) + pert - pert.mean(axis=0)     # columns keep their sum 0.5
        sig = noise_covariance(np.full(m, 1.0 / m))
        stationary_covariance(0.5 * np.eye(3), noise_covariance(np.full(3, 1.0 / 3)))
        tracemalloc.start()
        try:
            v = stationary_covariance(d, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * (m - 1) ** 4
        # the same bits as I - K formed from two arrays
        basis = sum_zero_basis(m)
        b_d, b_sig = basis.T @ d @ basis, basis.T @ sig @ basis
        w = np.linalg.solve(np.eye(b_d.size) - np.kron(b_d, b_d), b_sig.ravel())
        np.testing.assert_array_equal(v, basis @ w.reshape(b_sig.shape) @ basis.T)

    def test_byte_cap_bounds_the_system(self, monkeypatch):
        # M=3: a 4 x 4 system of 128 bytes
        rule = make_rule(A2, omega=0.5)
        chi = solve_interior_equilibrium(A2).vector
        d, sig = rule.jacobian(chi), noise_covariance(rule.update_probs(chi))
        want = stationary_covariance(d, sig)
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", 128)
        np.testing.assert_array_equal(stationary_covariance(d, sig), want)
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", 127)
        with pytest.raises(ResourceLimitExceeded):
            stationary_covariance(d, sig)


# ----------------------------------------------------------------------
# rescaled finite-population residuals
# ----------------------------------------------------------------------

class TestResiduals:
    def test_zero_steps_means_zero_residuals(self, rule_a2):
        sample = rescaled_residuals(
            rule_a2, n=100, start=[0.3, 0.4, 0.3], step=0,
            replicates=50, rng=np.random.default_rng(40),
        )
        np.testing.assert_array_equal(sample.residuals, 0.0)

    def test_one_step_moments_are_multinomial(self, rule_a2):
        n, reps = 400, 40_000
        start = [0.25, 0.5, 0.25]
        sample = rescaled_residuals(
            rule_a2, n=n, start=start, step=1,
            replicates=reps, rng=np.random.default_rng(41),
        )
        orbit = iterate(rule_a2, np.asarray(start), steps=1)
        pred = noise_covariance(orbit.states[1])
        comp = compare_residual_moments(sample.residuals, pred)
        assert comp.mean_ok and comp.cov_ok

    def test_multi_step_covariance_tracks_the_recursion(self, rule_a2):
        # small, fast version of the full-scale ensemble comparison
        n, k, reps = 2000, 10, 4000
        start = [0.1, 0.7, 0.2]
        sample = rescaled_residuals(
            rule_a2, n=n, start=start, step=k,
            replicates=reps, rng=np.random.default_rng(42),
        )
        orbit = iterate(rule_a2, sample.orbit.states[0], steps=k)
        pred = ar1_covariance(orbit)[k]
        comp = compare_residual_moments(sample.residuals, pred)
        assert comp.cov_ok

    def test_lattice_start_is_used_exactly(self, rule_a2):
        sample = rescaled_residuals(
            rule_a2, n=10, start=[0.31, 0.39, 0.30], step=0,
            replicates=3, rng=np.random.default_rng(43),
        )
        np.testing.assert_allclose(
            sample.orbit.states[0], np.array([3, 4, 3]) / 10
        )


class TestMomentComparison:
    def test_accepts_its_own_distribution(self):
        cov = noise_covariance([0.3, 0.45, 0.25])
        rng = np.random.default_rng(44)
        draws = rng.multivariate_normal(np.zeros(3), cov, size=30_000, method="eigh")
        comp = compare_residual_moments(draws, cov)
        assert comp.mean_ok and comp.cov_ok
        assert comp.max_mean_z < 3.0

    def test_rejects_a_misscaled_prediction(self):
        cov = noise_covariance([0.3, 0.45, 0.25])
        rng = np.random.default_rng(45)
        draws = rng.multivariate_normal(np.zeros(3), cov, size=30_000, method="eigh")
        comp = compare_residual_moments(draws, 2.0 * cov)
        assert not comp.cov_ok
