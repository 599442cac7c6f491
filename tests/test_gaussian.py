"""Fluctuation analysis: multinomial noise, linear recursions, residuals."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from wfsim.errors import NumericRangeError, PreconditionError
from wfsim.fitness import make_rule
from wfsim.gaussian import (
    ar1_covariance,
    ar1_sample,
    compare_residual_moments,
    noise_covariance,
    rescaled_residuals,
    sample_degenerate_gaussian,
    stationary_covariance,
)
from wfsim.meanfield import iterate, solve_interior_equilibrium

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


class TestDegenerateGaussian:
    def test_samples_live_on_the_sum_zero_subspace(self):
        cov = noise_covariance([0.2, 0.5, 0.3])
        rng = np.random.default_rng(31)
        draws = sample_degenerate_gaussian(cov, rng, size=2000)
        assert np.max(np.abs(draws.sum(axis=1))) < 1e-10

    def test_covariance_matches(self):
        cov = noise_covariance([0.2, 0.5, 0.3])
        rng = np.random.default_rng(32)
        draws = sample_degenerate_gaussian(cov, rng, size=200_000)
        emp = np.cov(draws, rowvar=False)
        assert np.max(np.abs(emp - cov)) < 5e-3

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NumericRangeError):
            sample_degenerate_gaussian(
                np.array([[1.0, 0.0], [0.0, -0.5]]), np.random.default_rng(33)
            )


# ----------------------------------------------------------------------
# the linear Gaussian recursion
# ----------------------------------------------------------------------

class TestAr1Sample:
    def test_vertex_orbit_is_deterministic(self, rule_a2):
        orbit = iterate(rule_a2, [1.0, 0.0, 0.0], steps=6)
        d = rule_a2.jacobian(np.array([1.0, 0.0, 0.0]))
        u0 = np.array([0.5, -0.25, -0.25])
        path = ar1_sample(orbit, u0, np.random.default_rng(34))
        expected = u0
        for k in range(1, 7):
            expected = d @ expected
            np.testing.assert_allclose(path[k], expected, atol=1e-12)

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

    @pytest.mark.parametrize("kwargs", [
        {}, {"paths": 500}, {"stationary": True, "steps": 60}, {"paths": 7},
    ], ids=["single", "ensemble", "stationary", "per-path-start"])
    def test_draws_are_pinned(self, rule_a2, kwargs):
        # reference: the recursion with explicit standard-normal draws
        orbit = iterate(rule_a2, [0.6, 0.2, 0.2], steps=40)
        paths = kwargs.get("paths")
        u0 = np.array([0.1, -0.05, -0.05])
        if paths == 7:
            u0 = np.random.default_rng(3).dirichlet(np.ones(3), paths) - 1 / 3
        got = ar1_sample(orbit, u0, np.random.default_rng(39), **kwargs)
        rng = np.random.default_rng(39)
        rows = np.broadcast_to(u0, (paths or 1, 3))
        expected = [rows]
        for k in range(kwargs.get("steps", len(orbit) - 1)):
            point = orbit.final if kwargs.get("stationary") else orbit.states[k]
            cov = noise_covariance(rule_a2.update_probs(point))
            evals, evecs = np.linalg.eigh(cov)
            root = evecs * np.sqrt(np.clip(evals, 0.0, None))
            rows = rows @ rule_a2.jacobian(point).T + rng.standard_normal(rows.shape) @ root.T
            expected.append(rows)
        expected = np.stack(expected, axis=1)
        np.testing.assert_array_equal(got, expected if paths else expected[0])

    def test_nonzero_sum_start_rejected(self, eq_orbit):
        with pytest.raises(PreconditionError):
            ar1_sample(eq_orbit, [0.1, 0.0, 0.0], np.random.default_rng(35))

    def test_path_longer_than_orbit_rejected(self, eq_orbit):
        with pytest.raises(PreconditionError):
            ar1_sample(eq_orbit, np.zeros(3), np.random.default_rng(36),
                       steps=len(eq_orbit) + 5)

    def test_stationary_ensemble_matches_fixed_point(self, rule_a2, eq_orbit):
        chi = eq_orbit.final
        d = rule_a2.jacobian(chi)
        sig = noise_covariance(rule_a2.update_probs(chi))
        vstar = stationary_covariance(d, sig)
        rng = np.random.default_rng(37)
        u0 = sample_degenerate_gaussian(vstar, rng, size=100_000)
        u0 -= u0.mean(axis=1, keepdims=True)  # strip eigen-root round-off
        ens = ar1_sample(eq_orbit, u0, rng, stationary=True, steps=50)
        emp = np.cov(ens[:, 50, :], rowvar=False)
        rel = np.abs(emp - vstar) / np.abs(vstar)
        assert rel.max() < 0.03

    def test_ensemble_covariance_tracks_the_recursion(self, rule_a2, eq_orbit):
        rng = np.random.default_rng(38)
        ens = ar1_sample(eq_orbit, np.zeros(3), rng, steps=10, paths=40_000)
        vk = ar1_covariance(eq_orbit, steps=10)
        for k in (1, 5, 10):
            emp = np.cov(ens[:, k, :], rowvar=False)
            se = np.sqrt(
                (np.outer(np.diag(vk[k]), np.diag(vk[k])) + vk[k] ** 2) / 40_000
            )
            assert np.all(np.abs(emp - vk[k]) < 4 * se)


class TestAr1Covariance:
    def test_noise_free_orbit_stays_at_zero(self, rule_a2):
        orbit = iterate(rule_a2, [0.0, 1.0, 0.0], steps=8)
        vk = ar1_covariance(orbit)
        np.testing.assert_allclose(vk, 0.0, atol=1e-15)

    def test_convergence_to_the_stationary_solution(self, rule_a2, eq_orbit):
        chi = eq_orbit.final
        d = rule_a2.jacobian(chi)
        sig = noise_covariance(rule_a2.update_probs(chi))
        vstar = stationary_covariance(d, sig)
        resid = np.max(np.abs(d @ vstar @ d.T + sig - vstar))
        assert resid < 1e-10
        vk = ar1_covariance(eq_orbit, stationary=True, steps=600)
        np.testing.assert_allclose(vk[-1], vstar, atol=1e-8)

    def test_matches_scipy_lyapunov_solver(self, rule_a2, eq_orbit):
        chi = eq_orbit.final
        d = rule_a2.jacobian(chi)
        sig = noise_covariance(rule_a2.update_probs(chi))
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
        rule = make_rule(matrix, omega_ratio=1e-4)
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
        draws = sample_degenerate_gaussian(cov, rng, size=30_000)
        comp = compare_residual_moments(draws, cov)
        assert comp.ok
        assert comp.max_mean_z < 3.0

    def test_rejects_a_misscaled_prediction(self):
        cov = noise_covariance([0.3, 0.45, 0.25])
        rng = np.random.default_rng(45)
        draws = sample_degenerate_gaussian(cov, rng, size=30_000)
        comp = compare_residual_moments(draws, 2.0 * cov)
        assert not comp.cov_ok
