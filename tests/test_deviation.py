"""Decoupling times between sampled paths and the deterministic orbit."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from scipy.spatial.distance import cdist
from scipy.special import bdtr, bdtrc
from scipy.stats import multinomial
from hypothesis import strategies as st

from wfsim.deviation import (
    _PROBE_RESOLUTION,
    _PROBE_SHRINK,
    PAIR_BLOCK,
    _sum_zero_operator_norm,
    binomial_tails,
    bound_table,
    contraction_coefficient,
    estimate_lipschitz,
    expected_decoupling_lower_bound,
    hoeffding_bound,
    one_step_exceedance_upper,
    simulate_deviations,
    wilson_upper,
)
from wfsim.errors import DomainError, NumericRangeError
from wfsim.fitness import (
    MutationMatrix,
    UpdateRule,
    finite_difference_jacobian,
    make_rule,
    sampling_probs,
)
from wfsim.meanfield import iterate
from wfsim.simplex import lattice_counts, linf_distances, round_to_lattice

from conftest import A2, CHI2, neutral_rule, rule_of_kind


def constant_vertex_rule(m: int):
    theta = np.zeros((m, m))
    theta[:, 0] = 1.0
    return UpdateRule(neutral_rule(m).fitness, MutationMatrix(theta))


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

    @pytest.mark.parametrize("horizon, rho", [(1, 0.5), (3, 1.0), (3, 1.2)])
    def test_epsilon_squared_past_the_float_range_underflows(self, horizon, rho):
        # 1e200^2 overflows a double; the bound is exp of an exponent below -1e308
        assert hoeffding_bound(1e200, horizon, 50, 3, rho) == 0.0

    def test_vanishing_coefficient_keeps_the_trivial_bound(self):
        # rho^K past the float range sets c to 0: the exponent is 0, not nan
        assert hoeffding_bound(1e200, 1000, 50, 3, 1e10) == 1.0

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

    def test_bound_past_the_float_range_raises(self):
        # exponent 0.9^2 * 0.5^2 * 20000 / 2 = 2025: exp overflows a double
        with pytest.raises(NumericRangeError) as info:
            expected_decoupling_lower_bound(0.5, 20000, 3, 0.1)
        assert all(part in str(info.value)
                   for part in ("N=20000", "epsilon=0.5", "rho=0.1"))

    def test_exponent_past_the_float_range_raises(self):
        # epsilon^2 = 1e400 itself overflows, before exp is reached
        with pytest.raises(NumericRangeError, match="epsilon=1e\\+200"):
            expected_decoupling_lower_bound(1e200, 50, 3, 0.5)

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

    @pytest.mark.parametrize("samples", [2, 4, 5, 6, 36, 37, 38, 1000])
    @pytest.mark.parametrize("kind", ["linear-fractional", "exponential", "mutation"])
    def test_row_blocks_keep_the_all_pairs_bits(self, kind, samples):
        # with the 91 grid nodes, 4, 5 and 6 samples give 95, 96 and 97
        # probes, either side of three PAIR_BLOCKs, and 36, 37 and 38 give
        # 127, 128 and 129, either side of four; the reference pairs every
        # probe with every probe in (P, P) buffers
        assert PAIR_BLOCK == 32
        rule = rule_of_kind(kind)
        est = estimate_lipschitz(rule, samples, np.random.default_rng(63))
        grid = lattice_counts(3, _PROBE_RESOLUTION) / _PROBE_RESOLUTION
        grid = (1.0 - _PROBE_SHRINK) * grid + _PROBE_SHRINK / 3
        pts = np.vstack([grid, np.random.default_rng(63).dirichlet(np.ones(3), size=samples)])
        images = rule.update_probs_batch(pts)
        den = linf_distances(pts, pts)
        keep = den > 1e-12
        quotients = linf_distances(images, images)[keep] / den[keep]
        assert est.probes == pts.shape[0] == samples + 91
        assert est.pair_max == float(quotients.max())
        assert est.value == max(est.pair_max, est.jacobian_max)

    def test_pair_buffers_are_row_blocks(self, rule_a2):
        # all pairs at once traced 28.6 MiB here: (P, P) buffers at
        # P = 1,091 probes; row blocks hold O(PAIR_BLOCK x P), with the
        # quotients in the numerators' buffer (1.25 MiB traced; 4.45 MiB
        # with 128-row blocks and masked copies of the pairs)
        rng = np.random.default_rng(64)
        tracemalloc.start()
        try:
            estimate_lipschitz(rule_a2, 1000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_sum_zero_operator_norm_keeps_the_median_bits(self, m):
        # the row median from a sort, against np.median, on continuous
        # entries and on small integers, where rows tie
        rng = np.random.default_rng(65 + m)
        for jac in (rng.normal(size=(200, m, m)), rng.integers(-2, 3, size=(200, m, m)) / 3.0):
            centered = jac - np.median(jac, axis=-1, keepdims=True)
            np.testing.assert_array_equal(_sum_zero_operator_norm(jac),
                                          np.abs(centered).sum(axis=-1).max(axis=-1))


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
    o = iterate(rule, x0.counts / n, 1).states[1]
    counts = lattice_counts(rule.m, n)
    dev = np.max(np.abs(counts / n - o), axis=1)
    return float(multinomial.pmf(counts, n, p)[dev > epsilon].sum())


def scipy_one_step_union(rule, x0, epsilon):
    """The union of binomial tails of ``one_step_exceedance_upper``, from
    scipy's binomial CDFs ``bdtr`` and ``bdtrc``."""
    n = x0.n
    p = sampling_probs(rule, x0.counts / n)
    o = rule.update_probs(x0.counts / n)
    lo = np.floor(n * (o - epsilon) + 1e-9)
    hi = np.ceil(n * (o + epsilon) - 1e-9)
    below = np.where(lo >= 0, bdtr(np.maximum(lo, 0), n, p), 0.0)
    above = np.where(hi <= n, bdtrc(np.clip(hi - 1, -1, n), n, p), 0.0)
    return min(1.0, float(below.sum() + above.sum()))


class TestOneStepExceedance:
    @pytest.mark.parametrize("n", [500, 2000, 10000])
    def test_binomial_tails_match_scipy(self, n):
        # 23 cut-offs from 0 to N, p from 1e-3 to 0.999; both tails down to
        # where scipy's CDFs underflow
        p = np.geomspace(1e-3, 0.999, 40)
        p = np.concatenate([p, 1.0 - p[p < 0.5]])
        cuts, none_below = np.zeros(p.size), np.full(p.size, -1.0)
        none_above = np.full(p.size, n + 1.0)
        for cut in np.linspace(0, n, 23).round():
            cuts[:] = cut
            below = binomial_tails(n, p, cuts, none_above)
            above = binomial_tails(n, p, none_below, cuts)
            np.testing.assert_allclose(below, bdtr(cut, n, p), rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(above, bdtrc(cut - 1, n, p), rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize("start,n,eps", [
        (list(CHI2), 2000, 0.1),            # criterion 06's exact cell
        ([0.5, 0.5, 0.0], 500, 0.05),       # p_3 = 0: an absent type
        ([0.0, 1.0, 0.0], 500, 0.05),       # p_2 = 1: a vertex start
        ([0.8, 0.1, 0.1], 100, 0.1),
        (list(CHI2), 500, 1.5),             # no count outside (lo, hi)
    ], ids=["criterion-06", "absent-type", "vertex", "N=100", "wide-epsilon"])
    def test_union_matches_scipy_cdfs(self, rule_a2, start, n, eps):
        # no absolute slack, so the vertex and wide-epsilon unions must be exactly 0
        x0 = round_to_lattice(start, n)
        union = one_step_exceedance_upper(rule_a2, x0, eps)
        assert union == pytest.approx(scipy_one_step_union(rule_a2, x0, eps), rel=1e-9, abs=0)

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

def replicate_major_deviations(rule, x0, horizon, replicates, rng):
    """Every replicate's max-norm deviation at every step, (replicates,
    horizon): the full matrix that the ensemble's records summarise, by
    the replicate-major loop the library once ran."""
    n = x0.n
    orbit = iterate(rule, x0.counts / n, horizon)
    counts = np.tile(x0.counts, (replicates, 1))
    devs = np.empty((replicates, horizon))
    for k in range(1, horizon + 1):
        counts = rng.multinomial(n, sampling_probs(rule, counts / n))
        devs[:, k - 1] = np.max(np.abs(counts / n - orbit.states[k]), axis=1)
    return devs


def first_exceedances(devs, eps):
    """Each replicate's first step with deviation > eps; -1 if none."""
    exceeded = devs > eps
    return np.where(exceeded.any(axis=1), exceeded.argmax(axis=1) + 1, -1)


def running_records(devs):
    """Per replicate, the (steps, values) at which its deviation exceeds
    every earlier one, read off the full matrix."""
    out = []
    for row in devs:
        best = np.maximum.accumulate(row)
        new = np.concatenate([[True], row[1:] > best[:-1]])
        out.append((np.flatnonzero(new) + 1, row[new]))
    return out


def records_by_replicate(ens):
    """Per replicate, the (steps, values) of its records in ``ens``."""
    steps = [[] for _ in range(ens.replicates)]
    values = [[] for _ in range(ens.replicates)]
    for k, (indices, vals) in enumerate(ens.records, start=1):
        for i, v in zip(indices.tolist(), vals.tolist()):
            steps[i].append(k)
            values[i].append(v)
    return [(np.array(s), np.array(v)) for s, v in zip(steps, values)]


@pytest.fixture(scope="module")
def ensemble(rule_a2):
    x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
    return simulate_deviations(
        rule_a2, x0, horizon=50, replicates=400,
        rng=np.random.default_rng(55),
    )


@pytest.fixture(scope="module")
def deviations(rule_a2):
    """The full deviation matrix of the ``ensemble`` fixture's draws."""
    x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
    return replicate_major_deviations(rule_a2, x0, 50, 400,
                                      np.random.default_rng(55))


class TestEnsembles:
    def test_shapes_and_ranges(self, ensemble):
        assert (ensemble.replicates, ensemble.horizon) == (400, 50)
        assert len(ensemble.records) == 50
        for indices, values in ensemble.records:
            assert indices.shape == values.shape
            assert indices.dtype.kind == "i" and values.dtype == np.float64
            assert np.all(np.diff(indices) > 0)
            assert np.all((indices >= 0) & (indices < 400))
            assert np.all(values >= 0)
            assert np.all(values <= 1)

    def test_records_strictly_increase_from_step_one(self, ensemble):
        indices, _ = ensemble.records[0]
        np.testing.assert_array_equal(indices, np.arange(400))
        for steps, values in records_by_replicate(ensemble):
            assert steps[0] == 1
            assert np.all(np.diff(steps) > 0)
            assert np.all(np.diff(values) > 0)

    def test_a_path_that_never_moves_records_once(self, rule_a2):
        # at a vertex the paths and the orbit stay put, so every deviation
        # is 0: it records at step 1 (the running maximum starts below any
        # deviation) and never again (a tie is not a record)
        x0 = round_to_lattice([1.0, 0.0, 0.0], 50)
        ens = simulate_deviations(rule_a2, x0, horizon=5, replicates=7,
                                  rng=np.random.default_rng(0))
        np.testing.assert_array_equal(ens.records[0][0], np.arange(7))
        np.testing.assert_array_equal(ens.records[0][1], np.zeros(7))
        assert all(len(indices) == 0 for indices, _ in ens.records[1:])
        np.testing.assert_array_equal(ens.decoupling_times(0.0), np.full(7, -1))
        np.testing.assert_array_equal(ens.exceed_counts(0.0), np.zeros(5))
        assert ens.censored_mean(0.0) == 5.0

    def test_censoring_convention(self, ensemble):
        taus = ensemble.decoupling_times(0.05)
        assert taus.shape == (400,)
        assert np.all((taus == -1) | (taus >= 1))

    @pytest.mark.parametrize("eps", [0.0, 0.02, 0.05, 0.1, 1.0])
    def test_decoupling_times_are_first_exceedances(self, ensemble, deviations, eps):
        # the scan of the records against each replicate's first exceeding
        # step in the full matrix
        taus = ensemble.decoupling_times(eps)
        assert taus.dtype == np.int64
        np.testing.assert_array_equal(taus, first_exceedances(deviations, eps))

    def test_first_exceedances_at_every_deviation_value(self, ensemble, deviations):
        # a threshold equal to a deviation is not exceeded by it: the tie
        # at ">" across every distinct value some replicates take
        for eps in np.unique(deviations[:5]):
            np.testing.assert_array_equal(ensemble.decoupling_times(eps),
                                          first_exceedances(deviations, eps))

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
        assert len(again.records) == len(ensemble.records)
        for (i1, v1), (i2, v2) in zip(ensemble.records, again.records):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(v1, v2)

    @pytest.mark.parametrize("n", [50, 2000])
    def test_matches_a_replicate_major_loop(self, rule_a2, n):
        x0 = round_to_lattice(CHI2, n)
        ens = simulate_deviations(rule_a2, x0, horizon=40, replicates=300,
                                  rng=np.random.default_rng(61))
        devs = replicate_major_deviations(rule_a2, x0, 40, 300,
                                          np.random.default_rng(61))
        assert (ens.replicates, ens.horizon) == (300, 40)
        for got, want in zip(records_by_replicate(ens), running_records(devs)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        for eps in (0.0, 0.02, 0.05, 0.1):
            np.testing.assert_array_equal(ens.decoupling_times(eps),
                                          first_exceedances(devs, eps))

    def test_steps_run_in_fixed_buffers_and_records_hold_int32_indices(self, rule_a2):
        # the perfbench orbit_gap ensemble at N=2000, 16,000 x 100: its
        # records take 1.58 MiB (2.10 with int64 indices); a draw holds the
        # (R, M) laws and counts, the shares overwrite the counts, and the
        # gaps take two (R,) buffers. Traced 2.88 MiB; 4.03 MiB with the
        # shares held through the draw and a new (R, M) array for each gap
        x0 = round_to_lattice(CHI2, 2000)
        simulate_deviations(rule_a2, x0, 2, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            ens = simulate_deviations(rule_a2, x0, 100, 16_000, np.random.default_rng(66))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.7 * 2**20
        assert all(indices.dtype == np.int32 for indices, _ in ens.records)
        devs = replicate_major_deviations(rule_a2, x0, 100, 16_000, np.random.default_rng(66))
        for eps in (0.02, 0.05, 0.1):
            np.testing.assert_array_equal(ens.decoupling_times(eps),
                                          first_exceedances(devs, eps))

    @pytest.mark.parametrize("epsilon", [0.05, 0.1])
    def test_bound_table_is_consistent_at_moderate_population(
        self, ensemble, rule_a2, epsilon
    ):
        est = estimate_lipschitz(rule_a2, 300, np.random.default_rng(56))
        rows = bound_table(ensemble, epsilon, 1.2 * est.value, m=3)
        assert len(rows) == 50
        for row in rows:
            assert row.wilson_upper <= row.bound or row.bound == 1.0
            assert row.consistent
        # the one-step row is non-vacuous: the factor is 1 whatever rho is
        assert rows[0].bound < 1.0 or epsilon < 0.1
