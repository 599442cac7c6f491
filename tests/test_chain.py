"""Finite-population resampling chain: sampling, exact analysis, QSD."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multinomial

from wfsim.chain import (
    absorbing_types,
    build_exact_chain,
    interior_qsd,
    qsd_power_iteration,
    quadratic_form_drift,
    recurrent_class_faces,
    sample_path,
    verify_submartingale,
)
from wfsim.errors import (
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
)
from wfsim.fitness import MutationMatrix, UpdateRule, make_rule, sampling_probs
from wfsim.simplex import LatticePoint

from conftest import A1, A2, A_TWO, neutral_rule


def constant_vertex_rule(m: int):
    """Rule whose update image is always the first vertex."""
    theta = np.zeros((m, m))
    theta[:, 0] = 1.0
    return UpdateRule(neutral_rule(m).fitness, MutationMatrix(theta))


def mixing_rule(base, u: float = 0.05):
    """Add a small uniform mutation floor so the image is always interior."""
    m = base.fitness.m
    theta = (1 - u) * np.eye(m) + u / m
    return UpdateRule(base.fitness, MutationMatrix(theta))


# ----------------------------------------------------------------------
# single-step sampling
# ----------------------------------------------------------------------

class TestStepSample:
    def test_degenerate_image_is_deterministic(self):
        rule = constant_vertex_rule(3)
        rng = np.random.default_rng(0)
        path = sample_path(rule, LatticePoint([2, 2, 2], 6), 1, rng)
        assert tuple(path[1]) == (6, 0, 0)

    def test_moments_match_the_update_image(self, rule_a2):
        n, reps = 100, 30_000
        x = LatticePoint([40, 30, 30], n)
        p = rule_a2.update_probs(x.counts / n)
        rng = np.random.default_rng(123)
        draws = np.array(
            [sample_path(rule_a2, x, 1, rng)[1] for _ in range(reps)],
            dtype=np.float64,
        ) / n
        se = np.sqrt(p * (1 - p) / (n * reps))
        assert np.all(np.abs(draws.mean(axis=0) - p) < 3 * se)
        # empirical covariance of one multinomial step scales like 1/N
        emp_cov = np.cov(draws, rowvar=False)
        pred = (np.diag(p) - np.outer(p, p)) / n
        assert np.max(np.abs(emp_cov - pred)) < 5e-5

    def test_sample_path_shapes_and_determinism(self, rule_a2):
        x0 = LatticePoint([400, 50, 50], 500)
        a = sample_path(rule_a2, x0, steps=30, rng=np.random.default_rng(7))
        b = sample_path(rule_a2, x0, steps=30, rng=np.random.default_rng(7))
        assert a.shape == (31, 3) and a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a.sum(axis=1), 500)

    def test_sample_path_stop_predicate(self, rule_a2):
        x0 = LatticePoint([400, 50, 50], 500)
        path = sample_path(
            rule_a2, x0, steps=10_000, rng=np.random.default_rng(8),
            stop=lambda c: c.min() == 0,
        )
        assert path[-1].min() == 0
        assert np.all(path[:-1].min(axis=1) > 0)


# ----------------------------------------------------------------------
# transition probabilities
# ----------------------------------------------------------------------

class TestTransitionProbs:
    """Single entries and whole rows of the exact transition matrix."""

    def test_two_type_hand_values(self):
        chain = build_exact_chain(neutral_rule(2), 2)
        row = chain.matrix[chain.state_index([1, 1])]
        assert row[chain.state_index([2, 0])] == pytest.approx(0.25)
        assert row[chain.state_index([1, 1])] == pytest.approx(0.5)

    def test_unreachable_when_image_coordinate_vanishes(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        row = chain.matrix[chain.state_index([6, 0, 0])]
        assert row[chain.state_index([5, 1, 0])] == 0.0
        assert row[chain.state_index([6, 0, 0])] == 1.0

    @pytest.mark.parametrize("rule", [
        make_rule(A1, omega_ratio=1e-3),
        make_rule(A2, omega=0.5, mutation=[[0.9, 0.1, 0.0], [0.0, 0.9, 0.1],
                                           [0.1, 0.0, 0.9]]),
        make_rule(A2, fitness="exponential", beta=0.3),
    ], ids=["linear-fractional", "mutation", "exponential"])
    def test_rows_sum_to_one_exhaustively(self, rule):
        # the chain renormalises its rows, so compare them with the exact
        # multinomial law of the sampler's cell probabilities, whose sum
        # over the lattice is 1 only when the lattice holds every composition
        chain = build_exact_chain(rule, 6)
        for i, counts in enumerate(chain.states):
            pmf = multinomial.pmf(chain.states, 6, sampling_probs(rule, counts / 6))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(chain.matrix[i], pmf, rtol=1e-12, atol=1e-300)
            np.testing.assert_array_equal(chain.matrix[i] > 0, pmf > 0)

    def test_absorbing_types_without_mutation(self, rule_a2):
        assert absorbing_types(rule_a2) == [1, 2, 3]

    def test_no_absorbing_types_under_mixing(self, rule_a2):
        assert absorbing_types(mixing_rule(rule_a2)) == []


# ----------------------------------------------------------------------
# exact chain structure
# ----------------------------------------------------------------------

class TestExactChain:
    def test_vertices_are_the_recurrent_classes_without_mutation(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        assert chain.n_states == 28
        assert len(chain.recurrent_classes) == 3
        recurrent_states = {
            tuple(chain.states[i]) for cls in chain.recurrent_classes for i in cls
        }
        assert recurrent_states == {(6, 0, 0), (0, 6, 0), (0, 0, 6)}
        assert all(p == 1 for p in chain.periods)
        assert len(chain.transient) == 25
        assert chain.state_index((6, 0, 0)) in chain.absorbing

    def test_neutral_two_type_absorption(self):
        chain = build_exact_chain(neutral_rule(2), 2)
        classes = {
            tuple(map(tuple, chain.states[cls])) for cls in chain.recurrent_classes
        }
        assert classes == {((0, 2),), ((2, 0),)}
        assert [tuple(chain.states[i]) for i in chain.transient] == [(1, 1)]

    def test_mixing_gives_single_aperiodic_class(self, rule_a2):
        chain = build_exact_chain(mixing_rule(rule_a2), 6)
        assert len(chain.recurrent_classes) == 1
        assert len(chain.recurrent_classes[0]) == chain.n_states
        assert chain.periods == [1]
        assert chain.transient.size == 0

    def test_mutation_swap_gives_a_period_two_class(self):
        # every individual switches type each generation: the two pure
        # states swap forever and every mixed state leads into them
        rule = make_rule([[1, 1], [1, 1]], omega=0.5, mutation=[[0, 1], [1, 0]])
        chain = build_exact_chain(rule, 6)
        assert [cls.tolist() for cls in chain.recurrent_classes] == [[0, 6]]
        assert chain.periods == [2]
        assert chain.transient.tolist() == [1, 2, 3, 4, 5]

    def test_rows_are_normalized(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        np.testing.assert_allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_state_cap(self, rule_a2, monkeypatch):
        monkeypatch.setenv("WF_MAX_STATES", "10")
        with pytest.raises(ResourceLimitExceeded, match="WF_MAX_STATES"):
            build_exact_chain(rule_a2, 6)

    def test_entry_cap_is_named_before_the_state_cap(self, rule_a2):
        # 246,051 states: past both caps, but only the entry cap's advice helps
        with pytest.raises(ResourceLimitExceeded, match="entries") as info:
            build_exact_chain(rule_a2, 700)
        assert "WF_MAX_STATES" not in str(info.value)


class TestRecurrentClassFaces:
    def test_vertex_classes_are_singleton_faces(self, rule_a2):
        chain = build_exact_chain(rule_a2, 5)
        for k in range(len(chain.recurrent_classes)):
            supports, is_union = recurrent_class_faces(chain, k)
            assert is_union
            assert len(supports) == 1 and len(supports[0]) == 1

    def test_irreducible_chain_is_the_full_face(self, rule_a2):
        chain = build_exact_chain(mixing_rule(rule_a2), 5)
        supports, is_union = recurrent_class_faces(chain, 0)
        assert is_union
        assert set(supports[0]) == {1, 2, 3}

    def test_block_mutation_yields_two_faces(self, rule_a2):
        # types 1 and 2 mix with each other; type 3 never arises from them
        theta = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
        rule = UpdateRule(rule_a2.fitness, MutationMatrix(theta))
        chain = build_exact_chain(rule, 6)
        face_sets = set()
        for k in range(len(chain.recurrent_classes)):
            supports, is_union = recurrent_class_faces(chain, k)
            assert is_union
            face_sets.add(frozenset(tuple(sorted(s)) for s in supports))
        assert face_sets == {frozenset({(1, 2)}), frozenset({(3,)})}


# ----------------------------------------------------------------------
# quasi-stationary distributions
# ----------------------------------------------------------------------

class TestQsd:
    def test_single_interior_state_toy(self):
        theta = MutationMatrix(np.full((2, 2), 0.5))
        rule = UpdateRule(neutral_rule(2).fitness, theta)
        chain = build_exact_chain(rule, 2)
        res = interior_qsd(chain)
        assert res.eigenvalue == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(res.weights, [1.0])
        assert res.leak_residual < 1e-12

    def test_survival_factor_grows_with_population(self, rule_a2):
        lams = []
        for n in (4, 6, 8):
            res = interior_qsd(build_exact_chain(rule_a2, n))
            assert res.leak_residual < 1e-10
            assert np.all(res.weights > 0)
            lams.append(res.eigenvalue)
        assert lams[0] < lams[1] < lams[2]

    def test_power_iteration_matches_dense_eigensolver(self, rule_a2):
        chain = build_exact_chain(rule_a2, 8)
        idx = chain.interior_indices()
        sub = chain.matrix[np.ix_(idx, idx)]
        res = qsd_power_iteration(sub)
        eigs = scipy.linalg.eigvals(sub)
        assert abs(res.eigenvalue - float(np.max(eigs.real))) < 1e-10

    def test_reducible_interior_detected(self):
        chain = build_exact_chain(constant_vertex_rule(2), 3)
        with pytest.raises(ReducibleInterior):
            interior_qsd(chain)

    def test_no_interior_states(self, rule_a2):
        chain = build_exact_chain(rule_a2, 2)
        with pytest.raises(PreconditionError):
            interior_qsd(chain)


# ----------------------------------------------------------------------
# exhaustive drift checks
# ----------------------------------------------------------------------

class TestDrift:
    def test_two_type_score_is_a_submartingale(self):
        a = np.array([[3.0, 1.0], [1.0, 3.0]])
        rule = make_rule(a, omega=0.3)
        for n in (2, 5, 10):
            low, low_off = quadratic_form_drift(rule, a, n)
            assert low >= -1e-12
            assert low_off > 0

    def test_vertices_have_zero_drift(self):
        a = np.array([[3.0, 1.0], [1.0, 3.0]])
        rule = make_rule(a, omega=0.3)
        chain = build_exact_chain(rule, 6)
        rep = verify_submartingale(chain, lambda f: float(f @ a @ f))
        assert rep.ok
        drifts = {
            tuple(chain.states[i]): None for i in range(chain.n_states)
        }
        hv = np.array([float(f @ a @ f) for f in chain.states / 6])
        drift = chain.matrix @ hv - hv
        for i, s in enumerate(map(tuple, chain.states)):
            if max(s) == 6:
                assert abs(drift[i]) < 1e-12
        assert drifts  # states enumerated

    def test_indefinite_form_rejected(self, rule_two):
        with pytest.raises(PreconditionError):
            quadratic_form_drift(rule_two, A_TWO, 4)
