"""Decoupling times between sampled paths and the deterministic orbit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from scipy.spatial.distance import cdist
from scipy.stats import multinomial
from hypothesis import strategies as st

from wfsim.deviation import (
    _PROBE_RESOLUTION,
    _PROBE_SHRINK,
    DeviationEnsemble,
    bound_table,
    contraction_coefficient,
    decoupling_time,
    estimate_lipschitz,
    expected_decoupling_lower_bound,
    hoeffding_bound,
    one_step_exceedance_upper,
    simulate_deviations,
    wilson_upper,
)
from wfsim.errors import DomainError, PreconditionError
from wfsim.fitness import (
    MutationMatrix,
    UpdateRule,
    finite_difference_jacobian,
    make_rule,
    sampling_probs,
)
from wfsim.meanfield import iterate
from wfsim.simplex import LatticePoint, lattice_counts, round_to_lattice

from conftest import A2, CHI2, neutral_rule


def constant_vertex_rule(m: int):
    theta = np.zeros((m, m))
    theta[:, 0] = 1.0
    return UpdateRule(neutral_rule(m).fitness, MutationMatrix(theta))


# ----------------------------------------------------------------------
# decoupling time of a single path
# ----------------------------------------------------------------------

class TestDecouplingTime:
    def test_degenerate_rule_never_decouples(self):
        rule = constant_vertex_rule(3)
        x0 = np.array([1.0, 0.0, 0.0])
        orbit = iterate(rule, x0, steps=10)
        path = np.tile(x0, (11, 1))
        assert decoupling_time(path, orbit, epsilon=0.01) is None

    def test_epsilon_at_least_one_never_decouples(self, rule_a2):
        orbit = iterate(rule_a2, [0.8, 0.1, 0.1], steps=5)
        path = np.tile(orbit.states[0], (6, 1))
        path[1:] = [0.0, 0.0, 1.0]  # as far away as the simplex allows
        assert decoupling_time(path, orbit, epsilon=1.0) is None
        assert decoupling_time(path, orbit, epsilon=0.5) == 1

    def test_first_exceedance_is_reported(self, rule_a2):
        orbit = iterate(rule_a2, [0.3, 0.4, 0.3], steps=8)
        path = orbit.states.copy()
        path[5:] = path[5:] + np.array([0.2, -0.1, -0.1])
        assert decoupling_time(path, orbit, epsilon=0.15) == 5
        assert decoupling_time(path, orbit, epsilon=0.25) is None

    def test_integer_counts_are_normalized(self, rule_a2):
        orbit = iterate(rule_a2, [0.5, 0.25, 0.25], steps=2)
        path = np.array([[2, 1, 1], [4, 0, 0], [4, 0, 0]], dtype=np.int64)
        t = decoupling_time(path, orbit, epsilon=0.3)
        assert t == 1

    def test_mismatched_start_rejected(self, rule_a2):
        orbit = iterate(rule_a2, [0.5, 0.25, 0.25], steps=2)
        path = np.tile([0.4, 0.3, 0.3], (3, 1))
        with pytest.raises(PreconditionError):
            decoupling_time(path, orbit, epsilon=0.1)


# ----------------------------------------------------------------------
# closed-form factors and bounds
# ----------------------------------------------------------------------

class TestContractionCoefficient:
    def test_unit_rho_limit(self):
        assert contraction_coefficient(1.0, 10) == pytest.approx(0.1, abs=1e-15)

    def test_one_step_horizon_is_one(self):
        for rho in (0.25, 0.5, 2.0, 9.5):
            assert contraction_coefficient(rho, 1) == pytest.approx(1.0)

    def test_long_horizon_tends_to_one_minus_rho(self):
        assert contraction_coefficient(0.5, 10_000) == pytest.approx(0.5)

    def test_expansive_map_past_float_range(self):
        # 3^1000 overflows a float; the exact factor is 2 / (3^1000 - 1)
        assert contraction_coefficient(3.0, 1000) == 0.0
        assert hoeffding_bound(epsilon=0.1, horizon=1000, n=500, m=3,
                               rho=3.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            contraction_coefficient(0.0, 5)
        with pytest.raises(DomainError):
            contraction_coefficient(0.5, 0)

    @given(
        rho=st.floats(min_value=0.01, max_value=0.99),
        k=st.integers(min_value=1, max_value=500),
    )
    def test_exceeds_one_minus_rho_for_contracting_maps(self, rho, k):
        c = contraction_coefficient(rho, k)
        assert 1.0 - rho <= c <= 1.0


class TestHoeffdingBound:
    def test_hand_value(self):
        got = hoeffding_bound(epsilon=0.1, horizon=1, n=500, m=3, rho=0.5)
        assert got == pytest.approx(6 * math.exp(-2.5), rel=1e-12)

    def test_decreases_to_zero_in_population_size(self):
        vals = [hoeffding_bound(0.1, 5, n, 3, 0.5)
                for n in (10_000, 40_000, 160_000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 1e-6

    def test_capped_at_one(self):
        assert hoeffding_bound(0.01, 50, 10, 3, 0.99) == 1.0

    @given(
        eps=st.floats(min_value=0.01, max_value=0.5),
        k=st.integers(min_value=1, max_value=50),
        rho=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_dominated_by_worst_case_coefficient_form(self, eps, k, rho):
        n, m = 800, 3
        loose = min(1.0, 2 * k * m * math.exp(-(eps ** 2) * ((1 - rho) ** 2) * n / 2))
        assert hoeffding_bound(eps, k, n, m, rho) <= loose + 1e-15


class TestExpectationBound:
    def test_hand_values(self):
        b = expected_decoupling_lower_bound(0.1, 500, 3, 0.5)
        assert b.value == pytest.approx(math.exp(0.625) / 6, rel=1e-12)
        b5k = expected_decoupling_lower_bound(0.1, 5000, 3, 0.5)
        assert b5k.value == pytest.approx(math.exp(6.25) / 6, rel=1e-12)
        assert b5k.value == pytest.approx(86.34, abs=0.05)
        assert b5k.applicable

    def test_small_population_flagged_inapplicable(self):
        b = expected_decoupling_lower_bound(0.1, 10, 3, 0.5)
        assert not b.applicable

    def test_rho_must_contract(self):
        with pytest.raises(DomainError):
            expected_decoupling_lower_bound(0.1, 500, 3, 1.2)

    def test_empirical_mean_exceeds_the_bound(self, rule_a2):
        # large population: the sampled system hugs the orbit much longer
        # than the worst-case guarantee
        bound = expected_decoupling_lower_bound(0.1, 5000, 3, 0.5)
        x0 = round_to_lattice([0.8, 0.1, 0.1], 5000)
        horizon = 120
        ens = simulate_deviations(
            rule_a2, x0, horizon=horizon, replicates=200,
            rng=np.random.default_rng(50),
        )
        assert ens.censored_mean(0.1) > bound.value


# ----------------------------------------------------------------------
# Lipschitz estimation
# ----------------------------------------------------------------------

class TestLipschitz:
    def test_identity_map(self, rule_neutral3):
        est = estimate_lipschitz(rule_neutral3, 60, np.random.default_rng(51))
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_map(self):
        est = estimate_lipschitz(
            constant_vertex_rule(3), 60, np.random.default_rng(52)
        )
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_benchmark_estimate_is_stable_across_seeds(self, rule_a2):
        vals = [
            estimate_lipschitz(rule_a2, 400, np.random.default_rng(s)).value
            for s in (53, 54)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=0.05)
        assert vals[0] > 1.0  # the benchmark map genuinely expands somewhere

    @pytest.mark.parametrize("rule", [
        make_rule(A2, omega=0.5),
        make_rule(A2, fitness="exponential", beta=0.3),
    ], ids=["linear-fractional", "exponential"])
    def test_jacobian_max_matches_a_probe_loop(self, rule, monkeypatch):
        # every probe's derivative comes from one stacked map call; the
        # result must keep the bits of one profile call per probe, and the
        # probe count seen through update_probs_batch must stay one call,
        # the samples plus the 91 grid nodes, as ``probes`` reports
        samples = 200
        rows = []
        batch = rule.update_probs_batch
        monkeypatch.setattr(rule, "update_probs_batch",
                            lambda xs: (rows.append(len(xs)), batch(xs))[1])
        est = estimate_lipschitz(rule, samples, np.random.default_rng(57))
        assert rows == [samples + 91]
        assert est.probes == sum(rows)

        grid = lattice_counts(3, _PROBE_RESOLUTION) / _PROBE_RESOLUTION
        grid = (1.0 - _PROBE_SHRINK) * grid + _PROBE_SHRINK / 3
        pts = np.random.default_rng(57).dirichlet(np.ones(3), size=samples)
        reference = 0.0
        for x in np.vstack([grid, pts]):
            jac = finite_difference_jacobian(rule, x)
            norm = float(np.abs(jac - np.median(jac, axis=1, keepdims=True)).sum(axis=1).max())
            reference = max(reference, norm)
        assert est.jacobian_max == reference

    @pytest.mark.parametrize("rule", [
        make_rule(A2, omega=0.5),
        make_rule(A2, fitness="exponential", beta=0.3),
        neutral_rule(3),
    ], ids=["linear-fractional", "exponential", "neutral"])
    def test_pair_max_matches_the_upper_triangle(self, rule):
        # both orders of each pair give the same quotient, so the maximum
        # over the full matrices is the one over i < j
        est = estimate_lipschitz(rule, 300, np.random.default_rng(59))
        grid = lattice_counts(3, _PROBE_RESOLUTION) / _PROBE_RESOLUTION
        grid = (1.0 - _PROBE_SHRINK) * grid + _PROBE_SHRINK / 3
        pts = np.vstack([grid, np.random.default_rng(59).dirichlet(np.ones(3), size=300)])
        images = rule.update_probs(pts)
        iu = np.triu_indices(pts.shape[0], k=1)
        num = cdist(images, images, metric="chebyshev")[iu]
        den = cdist(pts, pts, metric="chebyshev")[iu]
        keep = den > 1e-12
        assert est.pair_max == float((num[keep] / den[keep]).max())


# ----------------------------------------------------------------------
# Wilson upper confidence limit
# ----------------------------------------------------------------------

class TestWilsonUpper:
    def test_zero_successes_closed_form(self):
        z = 2.3263478740408408
        n = 1000
        assert wilson_upper(0, n) == pytest.approx(z * z / (n + z * z), rel=1e-12)

    def test_monotone_in_successes(self):
        vals = [wilson_upper(k, 100) for k in (0, 1, 5, 20, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_covers_the_point_estimate(self):
        assert wilson_upper(37, 500) > 37 / 500


# ----------------------------------------------------------------------
# exact one-step exceedance union
# ----------------------------------------------------------------------

def enumerated_one_step_exceedance(rule, x0, epsilon):
    """P(max_i |X_i/N - o_i| > epsilon) for one multinomial generation,
    summed over every lattice point."""
    n = x0.n
    p = rule.update_probs_batch(x0.counts[None, :] / n)[0]
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    o = iterate(rule, x0.as_frequencies(), 1).states[1]
    counts = lattice_counts(rule.m, n)
    dev = np.max(np.abs(counts / n - o), axis=1)
    return float(multinomial.pmf(counts, n, p)[dev > epsilon].sum())


class TestOneStepExceedance:
    def test_union_dominates_enumerated_probability(self, rule_a2):
        x0 = round_to_lattice(CHI2, 30)
        union = one_step_exceedance_upper(rule_a2, x0, 0.1)
        exact = enumerated_one_step_exceedance(rule_a2, x0, 0.1)
        assert 0.0 < exact <= union < 1.0
        assert union == pytest.approx(0.449, abs=1e-3)
        assert exact == pytest.approx(0.281, abs=1e-3)

    @pytest.mark.parametrize("n", [30, 60])
    def test_two_types_count_the_same_event_twice(self, rule_two, n):
        # X_2 = N - X_1 and o_2 = 1 - o_1: both marginal events coincide
        x0 = round_to_lattice([0.3, 0.7], n)
        exact = enumerated_one_step_exceedance(rule_two, x0, 0.1)
        assert 0.0 < exact < 0.5
        assert one_step_exceedance_upper(rule_two, x0, 0.1) == pytest.approx(
            2.0 * exact, rel=1e-10)

    @pytest.mark.parametrize("start", [[0.8, 0.1, 0.1], list(CHI2)])
    def test_never_exceeds_one_step_hoeffding_bound(self, rule_a2, start):
        for n in (30, 100, 500, 2000):
            x0 = round_to_lattice(start, n)
            for eps in (0.02, 0.05, 0.1, 0.2):
                union = one_step_exceedance_upper(rule_a2, x0, eps)
                assert union <= hoeffding_bound(eps, 1, n, 3, 2.0), (n, eps)

    def test_rejects_non_positive_epsilon(self, rule_a2):
        with pytest.raises(DomainError):
            one_step_exceedance_upper(rule_a2, round_to_lattice(CHI2, 30), 0.0)


# ----------------------------------------------------------------------
# simulated ensembles and the bound table
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble(rule_a2):
    x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
    return simulate_deviations(
        rule_a2, x0, horizon=50, replicates=400,
        rng=np.random.default_rng(55),
    )


class TestEnsembles:
    def test_shapes_and_ranges(self, ensemble):
        assert ensemble.deviations.shape == (400, 50)
        assert np.all(ensemble.deviations >= 0)
        assert np.all(ensemble.deviations <= 1)

    def test_censoring_convention(self, ensemble):
        taus = ensemble.decoupling_times(0.05)
        assert taus.shape == (400,)
        assert np.all((taus == -1) | (taus >= 1))

    def test_exceed_counts_are_cumulative(self, ensemble):
        counts = ensemble.exceed_counts(0.05)
        assert counts.shape == (50,)
        assert np.all(np.diff(counts) >= 0)
        taus = ensemble.decoupling_times(0.05)
        assert counts[-1] == int(np.sum(taus > 0))

    def test_censored_mean_bounded_by_horizon(self, ensemble):
        assert 1.0 <= ensemble.censored_mean(0.1) <= 50.0

    def test_reproducibility(self, rule_a2, ensemble):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
        again = simulate_deviations(
            rule_a2, x0, horizon=50, replicates=400,
            rng=np.random.default_rng(55),
        )
        np.testing.assert_array_equal(ensemble.deviations, again.deviations)

    @pytest.mark.parametrize("n", [50, 2000])
    def test_matches_a_replicate_major_loop(self, rule_a2, n):
        # the loop as it stood before deviations were stored step-major
        def reference(rule, x0, horizon, replicates, rng):
            orbit = iterate(rule, x0.as_frequencies(), horizon)
            counts = np.tile(x0.counts, (replicates, 1))
            devs = np.empty((replicates, horizon))
            for k in range(1, horizon + 1):
                counts = rng.multinomial(n, sampling_probs(rule, counts / n))
                devs[:, k - 1] = np.max(np.abs(counts / n - orbit.states[k]), axis=1)
            return devs

        x0 = round_to_lattice(CHI2, n)
        ens = simulate_deviations(rule_a2, x0, horizon=40, replicates=300,
                                  rng=np.random.default_rng(61))
        assert ens.deviations.shape == (300, 40)
        np.testing.assert_array_equal(
            ens.deviations,
            reference(rule_a2, x0, 40, 300, np.random.default_rng(61)))

    @pytest.mark.parametrize("epsilon", [0.05, 0.1])
    def test_bound_table_is_consistent_at_moderate_population(
        self, ensemble, rule_a2, epsilon
    ):
        est = estimate_lipschitz(rule_a2, 300, np.random.default_rng(56))
        rows = bound_table(ensemble, epsilon, est.with_safety(), m=3)
        assert len(rows) == 50
        for row in rows:
            assert row.wilson_upper <= row.bound or row.bound == 1.0
            assert row.consistent
        # the one-step row is non-vacuous: the factor is 1 whatever rho is
        assert rows[0].bound < 1.0 or epsilon < 0.1
