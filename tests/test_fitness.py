"""Fitness models, the fitness-weighted update rule, and its derivatives."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from wfsim import fitness
from wfsim.errors import ConfigError, DimensionMismatch, PreconditionError
from wfsim.fitness import (
    FD_STEP,
    ExponentialFitness,
    LinearFractionalFitness,
    MutationMatrix,
    PayoffMatrix,
    UpdateRule,
    finite_difference_jacobian,
    make_rule,
    rng_stream,
    rng_streams,
    sampling_probs,
)
from wfsim.meanfield import solve_interior_equilibrium
from wfsim.simplex import lattice_counts

from conftest import A1, A2, CHI1, A_TWO, rule_of_kind


def random_interior(m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(m))


# ----------------------------------------------------------------------
# payoff matrices
# ----------------------------------------------------------------------

class TestPayoffMatrix:
    def test_flags_on_benchmark(self):
        p = PayoffMatrix(A1)
        assert p.is_symmetric and p.has_positive_entries and p.is_invertible

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            PayoffMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_singular_detected(self):
        assert not PayoffMatrix([[1.0, 1.0], [1.0, 1.0]]).is_invertible

    def test_invertibility_of_huge_payoffs(self):
        # det and max(1, max|A|)^M both leave the float range here
        assert PayoffMatrix([[1e300, 1.0], [1.0, 1e300]]).is_invertible
        assert not PayoffMatrix([[1e300, 1e300], [1e300, 1e300]]).is_invertible


# ----------------------------------------------------------------------
# fitness landscapes
# ----------------------------------------------------------------------

class TestLinearFractional:
    def test_two_type_hand_value(self):
        model = LinearFractionalFitness(PayoffMatrix(A_TWO), omega=0.5)
        np.testing.assert_allclose(
            model.scaled_weights(np.array([0.5, 0.5])), [1.25, 1.25]
        )

    def test_vanishing_selection_recovers_baseline(self):
        b = np.array([1.0, 2.0, 3.0])
        model = LinearFractionalFitness(PayoffMatrix(A1), omega=1e-12, b=b)
        x = np.array([0.3, 0.3, 0.4])
        np.testing.assert_allclose(model.scaled_weights(x), b, rtol=1e-10)

    def test_vertex_reads_payoff_column(self):
        omega = 1e-3 / (1.0 + 1e-3)
        model = LinearFractionalFitness(PayoffMatrix(A1), omega)
        e1 = np.array([1.0, 0.0, 0.0])
        expected = (1 - omega) + omega * np.array([1.0, 20.0, 45.0])
        np.testing.assert_allclose(model.scaled_weights(e1), expected, rtol=1e-14)

    def test_omega_bounds(self):
        with pytest.raises(ConfigError):
            LinearFractionalFitness(PayoffMatrix(A_TWO), omega=0.0)
        with pytest.raises(ConfigError):
            LinearFractionalFitness(PayoffMatrix(A_TWO), omega=1.0)

    def test_baseline_must_be_positive(self):
        with pytest.raises(ConfigError):
            LinearFractionalFitness(PayoffMatrix(A_TWO), omega=0.5, b=[1.0, 0.0])


class TestExponential:
    def test_matches_direct_formula(self):
        # the weights are exp(beta * A x) up to a positive scale: each
        # divided by its maximum, the two agree
        model = ExponentialFitness(PayoffMatrix(A2), beta=0.7)
        x = np.array([0.2, 0.5, 0.3])
        w = model.scaled_weights(x)
        raw = np.exp(0.7 * (np.asarray(A2) @ x))
        np.testing.assert_allclose(w / w.max(), raw / raw.max())

    def test_scaled_weights_survive_overflow(self):
        # exp(beta * A x) is exp(1000) here, past the float range
        big = PayoffMatrix(np.full((2, 2), 500.0))
        model = ExponentialFitness(big, beta=2.0)
        lw = model.scaled_weights(np.array([0.5, 0.5]))
        assert np.all(np.isfinite(lw))

    def test_beta_zero_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialFitness(PayoffMatrix(A_TWO), beta=0.0)


# ----------------------------------------------------------------------
# update rule: fitness-weighted renormalization
# ----------------------------------------------------------------------

class TestUpdateMap:
    def test_constant_fitness_is_identity(self, rule_neutral3):
        x = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(
            rule_neutral3.update_probs(x), x, atol=1e-15
        )

    def test_vertices_fixed(self, rule_a2):
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            np.testing.assert_allclose(
                rule_a2.update_probs(e), e, atol=1e-14
            )

    def test_benchmark_equilibrium_is_fixed(self, rule_a1):
        np.testing.assert_allclose(
            rule_a1.update_probs(CHI1), CHI1, atol=1e-6
        )

    def test_image_stays_on_simplex(self, rule_a2):
        rng = np.random.default_rng(5)
        for _ in range(25):
            y = rule_a2.update_probs(random_interior(3, rng))
            assert abs(y.sum() - 1.0) < 1e-12 and np.all(y >= 0)

    def test_batch_matches_loop(self, rule_a2):
        rng = np.random.default_rng(6)
        xs = rng.dirichlet(np.ones(3), size=40)
        batch = rule_a2.update_probs_batch(xs)
        loop = np.array([rule_a2.update_probs(x) for x in xs])
        np.testing.assert_array_equal(batch, loop)

    def test_batch_matches_loop_exponential(self):
        rule = make_rule(A2, fitness="exponential", beta=0.4)
        rng = np.random.default_rng(7)
        xs = rng.dirichlet(np.ones(3), size=20)
        np.testing.assert_array_equal(
            rule.update_probs_batch(xs),
            np.array([rule.update_probs(x) for x in xs]),
        )


class TestSamplingProbs:
    def test_profile_and_batch_agree_with_the_update_map(self, rule_a2):
        xs = np.random.default_rng(10).dirichlet(np.ones(3), size=20)
        batch = sampling_probs(rule_a2, xs)
        np.testing.assert_allclose(batch, rule_a2.update_probs_batch(xs), atol=1e-15)
        for x, row in zip(xs, batch):
            np.testing.assert_allclose(sampling_probs(rule_a2, x), row, atol=1e-15)

    def test_rounding_negatives_clamped_and_rows_renormalised(self):
        image = np.array([[-1e-17, 0.25, 0.5], [0.5, 0.5, 1.0]])
        rule = SimpleNamespace(update_probs=lambda xs: image[0] if xs.ndim == 1 else image)
        np.testing.assert_array_equal(sampling_probs(rule, np.zeros(3)),
                                      [0.0, 1 / 3, 2 / 3])
        np.testing.assert_array_equal(sampling_probs(rule, np.zeros((2, 3))),
                                      [[0.0, 1 / 3, 2 / 3], [0.25, 0.25, 0.5]])

    @pytest.mark.parametrize("rows", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("kind", ["linear-fractional", "exponential", "mutation"])
    def test_batch_rows_do_not_depend_on_the_batch(self, kind, rows):
        # a lockstep block must give each trial the bits of a one-row call,
        # and a one-row call the bits of the profile call sample_path makes
        rule = rule_of_kind(kind)
        lattice = lattice_counts(3, 60) / 60
        for start in (0, 450, len(lattice) - rows):
            xs = lattice[start:start + rows]
            alone = [sampling_probs(rule, xs[j:j + 1])[0] for j in range(rows)]
            np.testing.assert_array_equal(sampling_probs(rule, xs), np.array(alone))
            profiles = [sampling_probs(rule, x) for x in xs]
            np.testing.assert_array_equal(sampling_probs(rule, xs), np.array(profiles))


class TestRngStream:
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    def test_spelled_like_seed_sequence_spawning(self, seed):
        def draws(seq):
            return np.random.Generator(np.random.PCG64(seq)).integers(0, 2 ** 32, size=8)

        np.testing.assert_array_equal(rng_stream(seed).integers(0, 2 ** 32, size=8),
                                      draws(np.random.SeedSequence(seed)))
        for j, child in enumerate(np.random.SeedSequence(seed).spawn(4)):
            np.testing.assert_array_equal(
                rng_stream(seed, j).integers(0, 2 ** 32, size=8), draws(child))
        np.testing.assert_array_equal(
            rng_stream(seed, 2, 5).integers(0, 2 ** 32, size=8),
            draws(np.random.SeedSequence(seed, spawn_key=(2, 5))))


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 11, 20260814]
STREAM_KEYS = [(), (0,), (2, 5), (1, 2**32 - 1), (1, 2**32), (0, 2**40 + 7)]


class TestRngStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_states_match_rng_stream(self, seed):
        # one call over keys of every entropy length, and one call per key
        together = rng_streams(seed, STREAM_KEYS)
        for key, gen in zip(STREAM_KEYS, together):
            want = rng_stream(seed, *key).bit_generator.state
            assert gen.bit_generator.state == want, key
            assert rng_streams(seed, [key])[0].bit_generator.state == want, key

    def test_a_range_of_trials_draws_like_rng_stream(self):
        keys = [(1, t) for t in range(300)]
        draws = [g.integers(0, 2**32, size=4).tolist() for g in rng_streams(11, keys)]
        assert draws == [rng_stream(11, *key).integers(0, 2**32, size=4).tolist()
                         for key in keys]
        assert rng_streams(11, []) == []

    def test_hash_that_disagrees_with_numpy_raises(self, monkeypatch):
        seed_states = fitness._seed_states
        monkeypatch.setattr(fitness, "_seed_states", lambda entropy: seed_states(entropy) + 1)
        with pytest.raises(PreconditionError, match="SeedSequence"):
            rng_streams(3, [(0, t) for t in range(5)])

    @pytest.mark.parametrize("bad, error", [(-1, ValueError), (1.0, TypeError)])
    def test_keys_that_seed_sequence_refuses_raise(self, bad, error):
        with pytest.raises(error):
            rng_streams(3, [(0, 1), (0, bad)])


class TestMutation:
    def test_identity_mutation_matches_plain_update(self, rule_a2):
        rng = np.random.default_rng(8)
        with_id = UpdateRule(rule_a2.fitness, MutationMatrix(np.eye(3)))
        for _ in range(20):
            x = random_interior(3, rng)
            np.testing.assert_allclose(
                with_id.update_probs(x), rule_a2.update_probs(x), atol=1e-14
            )

    def test_total_mixing_forgets_the_state(self, rule_a2):
        theta = MutationMatrix(np.full((3, 3), 1 / 3))
        rule = UpdateRule(rule_a2.fitness, theta)
        uniform_image = rule_a2.update_probs(np.full(3, 1 / 3))
        rng = np.random.default_rng(9)
        for _ in range(10):
            np.testing.assert_allclose(
                rule.update_probs(random_interior(3, rng)),
                uniform_image,
                atol=1e-14,
            )

    def test_two_type_vertex_leaks(self):
        rule = make_rule(A_TWO, omega=0.5, mutation=[[0.9, 0.1], [0.2, 0.8]])
        got = rule.update_probs(np.array([1.0, 0.0]))
        base = make_rule(A_TWO, omega=0.5)
        expected = base.update_probs(np.array([0.9, 0.1]))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ConfigError):
            MutationMatrix([[0.9, 0.2], [0.2, 0.8]])

    def test_mutation_applies_before_reweighting(self, rule_a2):
        theta = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        rule = UpdateRule(rule_a2.fitness, MutationMatrix(theta))
        x = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(
            rule.update_probs(x), rule_a2.update_probs(x @ theta), atol=1e-14
        )


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------

class TestJacobian:
    @pytest.mark.parametrize("kind", ["linear", "exponential", "mutated"])
    def test_analytic_matches_finite_differences(self, kind):
        if kind == "linear":
            rule = make_rule(A2, omega=0.5)
        elif kind == "exponential":
            rule = make_rule(A2, fitness="exponential", beta=0.3)
        else:
            rule = make_rule(
                A2, omega=0.5,
                mutation=[[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
            )
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = 0.9 * random_interior(3, rng) + 0.1 / 3
            d = rule.jacobian(x)
            d_fd = finite_difference_jacobian(rule, x)
            assert np.max(np.abs(d - d_fd)) < 1e-6

    @pytest.mark.parametrize("kind", ["linear-fractional", "exponential", "mutation"])
    def test_batched_differences_match_a_column_loop(self, kind):
        # the 2M perturbed points go through the map as one batch; each
        # column must keep the bits of two profile calls, and each matrix
        # of a stack the bits of its own profile call
        rule = rule_of_kind(kind)
        rng = np.random.default_rng(12)
        step = FD_STEP
        xs = 0.9 * np.array([random_interior(3, rng) for _ in range(10)]) + 0.1 / 3
        singles = []
        for x in xs:
            reference = np.empty((3, 3))
            for j in range(3):
                hi, lo = x.copy(), x.copy()
                hi[j] += step
                lo[j] -= step
                reference[:, j] = (rule.update_probs(hi) - rule.update_probs(lo)) / (2.0 * step)
            singles.append(finite_difference_jacobian(rule, x))
            np.testing.assert_array_equal(singles[-1], reference)
        stacked = finite_difference_jacobian(rule, xs)
        assert stacked.shape == (10, 3, 3) and stacked.flags.c_contiguous
        np.testing.assert_array_equal(stacked, np.array(singles))

    def test_exponential_derivative_matches_the_raw_value_formula(self):
        # the derivative is taken at the shifted weights' scale; where the
        # raw values exp(beta * A x) are finite it equals their formula
        a, beta = np.asarray(A2), 0.3
        x = solve_interior_equilibrium(A2).vector
        phi = np.exp(beta * (a @ x))
        dphi = beta * phi[:, None] * a
        s = x @ phi
        raw = (np.diag(phi) + x[:, None] * dphi) / s
        raw -= np.outer(x * phi / s, phi + dphi.T @ x) / s
        rule = make_rule(A2, fitness="exponential", beta=beta)
        np.testing.assert_allclose(rule.jacobian(x), raw, rtol=0, atol=1e-14)

    def test_columns_of_jacobian_sum_preserving(self, rule_a2):
        # the update maps the simplex to itself, so derivative columns sum to 0
        # along directions tangent to the simplex
        x = np.array([0.3, 0.45, 0.25])
        d = rule_a2.jacobian(x)
        w = np.array([1.0, -1.0, 0.0])
        assert abs((d @ w).sum()) < 1e-9


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------

class TestMakeRule:
    def test_requires_exactly_one_mixing_weight(self):
        with pytest.raises(ConfigError):
            make_rule(A_TWO)

    def test_exponential_rejects_mixing_weight(self):
        with pytest.raises(ConfigError):
            make_rule(A_TWO, fitness="exponential", beta=1.0, omega=0.5)

    def test_linear_fractional_rejects_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            make_rule(A_TWO, omega=0.5, beta=3.0)

    def test_unknown_fitness_kind(self):
        with pytest.raises(ConfigError):
            make_rule(A_TWO, omega=0.5, fitness="quadratic")
