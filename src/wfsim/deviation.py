"""Decoupling times and concentration bounds.

The decoupling time of a finite-population trajectory is the first
generation at which it strays from the deterministic orbit (started at
the same point) by more than a threshold in max-norm.  This module
computes the closed-form tail and expectation bounds driven by a
Lipschitz constant of the update map, estimates that constant from
samples, simulates decoupling-time ensembles, and compares empirical
exceedance frequencies against the bounds with one-sided confidence
limits.  At one step the exceedance probability also has an exact
union-of-binomial-tails upper bound, which certifies cells whose bound
lies below what the Monte Carlo confidence limit can resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericRangeError
from .fitness import (UpdateRule, _log0, finite_difference_jacobian, log_multinomial,
                      sampling_probs)
from .meanfield import iterate
from .simplex import LatticePoint, lattice_counts, linf_distances

#: One-sided 99% normal quantile used for Wilson upper confidence limits.
Z_99 = 2.3263478740408408


def contraction_coefficient(rho: float, horizon: int) -> float:
    """The horizon-dependent factor (1 - rho) / (1 - rho^K), with the
    continuous-limit value 1/K at rho = 1."""
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    if rho == 1.0:
        return 1.0 / horizon
    # 1 - rho^K via expm1 keeps precision when rho is close to 1; the
    # exact value never exceeds 1 (equality at K = 1), so clamp rounding
    try:
        den = -math.expm1(horizon * math.log(rho))
    except OverflowError:
        # rho^K > 1e308 with K >= 2 puts the factor below rho^(1 - K) < 1e-154
        return 0.0
    return min(1.0, (1.0 - rho) / den)


def hoeffding_bound(epsilon: float, horizon: int, n: int, m: int,
                    rho: float) -> float:
    """Union-of-Hoeffding tail bound on the probability that the
    decoupling time is at most ``horizon``."""
    if epsilon <= 0 or n < 1 or m < 1:
        raise DomainError("epsilon, N, M must be positive")
    c = contraction_coefficient(rho, horizon)
    try:
        exponent = -(epsilon ** 2) * (c ** 2) * n / 2.0
    except OverflowError:
        # epsilon^2 is past the float range; as c <= 1, (epsilon c)^2 is inf,
        # and the bound 0, only where the true exponent is below -1.8e308
        exponent = -(epsilon * c) * (epsilon * c) * n / 2.0
    return min(1.0, 2.0 * horizon * m * math.exp(exponent))


@dataclass(frozen=True)
class ExpectationBound:
    """Lower bound on the mean decoupling time, with its applicability
    condition (positive slack) evaluated."""

    value: float
    applicable: bool


def expected_decoupling_lower_bound(epsilon: float, n: int, m: int,
                                    rho: float) -> ExpectationBound:
    """Contraction-map lower bound exp((1-rho)^2 eps^2 N / 2) / (2M).

    Only meaningful for contracting maps (rho < 1) and when the tail mass
    outside the tube is strictly less than one; whether that condition
    holds is reported so inapplicable parameter sets are flagged rather
    than silently used; a value (or its exponent) past the float
    range raises NumericRangeError.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if epsilon <= 0 or n < 1 or m < 1:
        raise DomainError("epsilon, N, M must be positive")
    try:
        exponent = ((1.0 - rho) ** 2) * (epsilon ** 2) * n / 2.0
        value = math.exp(exponent) / (2.0 * m)
    except OverflowError:
        raise NumericRangeError(f"expectation bound past the float range at N={n}, "
                                f"epsilon={epsilon}, rho={rho}") from None
    return ExpectationBound(value=value, applicable=1.0 - 2.0 * m * math.exp(-exponent) > 0)


# ----------------------------------------------------------------------
# Lipschitz estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled estimate of the update map's max-norm Lipschitz constant.

    This is a lower estimate of the true constant (a maximum over finitely
    many probes); bound checks built on it are conditional on the estimate
    dominating the true constant over the visited region, which is why
    callers typically apply a safety factor.
    """

    value: float
    pair_max: float
    jacobian_max: float
    probes: int     # points the map was evaluated at: samples plus the grid


#: Resolution of the deterministic lattice probe grid; probe nodes are
#: pulled marginally toward the barycenter so finite differencing stays
#: inside the domain of rules that need the closed simplex.
_PROBE_RESOLUTION = 12
_PROBE_SHRINK = 1e-4

#: Probe rows paired at a time by :func:`estimate_lipschitz`: its distance
#: buffers are (PAIR_BLOCK, P) floats, never (P, P).
PAIR_BLOCK = 32


def _sum_zero_operator_norm(jac: np.ndarray) -> np.ndarray:
    """Induced max-norm of a derivative matrix, or of each matrix of a
    stack, over sum-zero displacements.

    Displacements between simplex points always sum to zero, so the
    relevant operator norm is sup ||J w||_inf over sum-zero w with
    ||w||_inf <= 1.  Per row r the supremum of r @ w under those
    constraints equals min_t ||r - t 1||_1 (linear-programming duality),
    attained at the row median, here with ``np.median``'s bits from a sort
    of the last axis (``np.median`` imports ``numpy.ma``).
    """
    m = jac.shape[-1]
    median = np.sort(jac, axis=-1)[..., (m - 1) // 2: m // 2 + 1].mean(axis=-1, keepdims=True)
    return np.abs(jac - median).sum(axis=-1).max(axis=-1)


def estimate_lipschitz(rule: UpdateRule, samples: int,
                       rng: np.random.Generator) -> LipschitzEstimate:
    """Estimate the max-norm Lipschitz constant of the update map.

    Takes the maximum of (a) difference quotients over all pairs of probe
    points, formed ``PAIR_BLOCK`` rows at a time, and (b)
    sum-zero-restricted induced max-norms of finite-difference derivative
    matrices at the probes.  The probes are ``samples`` Dirichlet-uniform
    draws plus a fixed coarse lattice grid, so the estimate has a
    deterministic component that captures boundary behavior and keeps
    repeated estimates stable across seeds.
    """
    if samples < 2:
        raise DomainError("need at least 2 sample points")
    pts = rng.dirichlet(np.ones(rule.m), size=samples)
    grid = lattice_counts(rule.m, _PROBE_RESOLUTION) / _PROBE_RESOLUTION
    grid = (1.0 - _PROBE_SHRINK) * grid + _PROBE_SHRINK / rule.m
    pts = np.vstack([grid, pts])
    images = rule.update_probs_batch(pts)
    # a block of rows against the rows at or after it: max-norm distances
    # are exactly symmetric, so these pairs carry every quotient there is
    maxima = []
    for lo in range(0, pts.shape[0], PAIR_BLOCK):
        den = linf_distances(pts[lo: lo + PAIR_BLOCK], pts[lo:])
        keep = den > 1e-12
        num = linf_distances(images[lo: lo + PAIR_BLOCK], images[lo:])
        np.divide(num, den, out=num, where=keep)
        maxima.append(num.max(initial=0.0, where=keep))
    pair_max = float(np.max(maxima))
    jac_max = float(_sum_zero_operator_norm(finite_difference_jacobian(rule, pts)).max())
    return LipschitzEstimate(value=max(pair_max, jac_max),
                             pair_max=pair_max, jacobian_max=jac_max,
                             probes=pts.shape[0])


# ----------------------------------------------------------------------
# empirical ensembles
# ----------------------------------------------------------------------

def wilson_upper(successes: int, trials: int) -> float:
    """One-sided 99% Wilson score upper confidence limit for a binomial
    proportion."""
    if trials < 1:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    z = Z_99
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return min(1.0, center + half)


def one_step_exceedance_upper(rule: UpdateRule, x0: LatticePoint,
                              epsilon: float) -> float:
    """Exact union bound on the probability of decoupling at step 1.

    One generation from ``x0`` draws counts X ~ Multinomial(N, p), with
    ``p`` the clipped, renormalised update map at ``x0`` exactly as
    :func:`simulate_deviations` samples it.  Each marginal is
    X_i ~ Binomial(N, p_i), so summing P(|X_i/N - o_i| >= epsilon) over
    the M types, with ``o`` the orbit's step-1 state, bounds
    P(max_i |X_i/N - o_i| > epsilon) from above.  Counts at distance
    exactly ``epsilon`` are counted as exceedances, which keeps the sum
    an upper bound under rounding.  Capped at 1, like
    :func:`hoeffding_bound`, which it never exceeds at K = 1 (Hoeffding's
    inequality bounds each marginal tail).
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    n = x0.n
    p = sampling_probs(rule, x0.counts / n)
    o = rule.update_probs(x0.counts / n)
    # X_i <= lo or X_i >= hi  <=>  |X_i/N - o_i| >= epsilon (up to tol)
    tol = 1e-9
    lo = np.floor(n * (o - epsilon) + tol)
    hi = np.ceil(n * (o + epsilon) - tol)
    return min(1.0, float(binomial_tails(n, p, lo, hi).sum()))


def binomial_tails(n: int, p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """P(X_i <= lo_i) + P(X_i >= hi_i), X_i ~ Binomial(n, p_i), with 0 log 0 = 0."""
    k = np.arange(n + 1)
    pmf = np.exp(log_multinomial(np.column_stack([k, n - k]), n)
                 + k * _log0(p)[:, None] + (n - k) * _log0(1.0 - p)[:, None])
    return np.where((k <= lo[:, None]) | (k >= hi[:, None]), pmf, 0.0).sum(axis=1)


@dataclass
class DeviationEnsemble:
    """Running-maximum records of the max-norm deviations from the orbit
    for a replicated simulation.

    ``records[k-1]`` is a pair ``(indices, values)``: the replicates whose
    distance from the orbit at step ``k`` (steps 1..horizon; step 0 is
    exactly zero by construction) exceeds every earlier one of theirs,
    and that distance.  Every replicate records at step 1, and each
    replicate's record steps and values strictly increase.  The first
    step whose deviation exceeds a threshold is always a new running
    maximum, so the records determine every decoupling time exactly,
    while they hold a few entries per replicate instead of one per step.
    """

    records: list[tuple[np.ndarray, np.ndarray]]
    n: int
    horizon: int
    replicates: int

    def decoupling_times(self, epsilon: float) -> np.ndarray:
        """Per-replicate decoupling time for one threshold; -1 = censored
        (never exceeded within the horizon).

        A scan down the steps' records: step k sets the time of the
        replicates that record above ``epsilon`` there and have no time
        yet.
        """
        taus = np.full(self.replicates, -1, dtype=np.int64)
        for k, (indices, values) in enumerate(self.records, start=1):
            hit = indices[values > epsilon]
            taus[hit[taus[hit] < 0]] = k
        return taus

    def exceed_counts(self, epsilon: float) -> np.ndarray:
        """Number of replicates with decoupling time <= K, for K = 1..horizon."""
        taus = self.decoupling_times(epsilon)
        return np.cumsum(np.bincount(taus[taus > 0] - 1, minlength=self.horizon))

    def censored_mean(self, epsilon: float) -> float:
        """Mean of min(decoupling time, horizon): a lower bound of the
        true mean decoupling time."""
        taus = self.decoupling_times(epsilon).astype(np.float64)
        taus[taus < 0] = self.horizon
        return float(taus.mean())


def simulate_deviations(rule: UpdateRule, x0: LatticePoint, horizon: int,
                        replicates: int,
                        rng: np.random.Generator) -> DeviationEnsemble:
    """Run ``replicates`` trajectories from ``x0`` alongside the orbit from
    the same point and record each replicate's running-maximum max-norm
    deviations (:class:`DeviationEnsemble`; int32 indices up to 2**31 replicates)."""
    n = x0.n
    orbit = iterate(rule, x0.counts / n, horizon)
    freqs = np.tile(x0.counts / n, (replicates, 1))
    # from -inf, so that every replicate records at step 1
    best = np.full(replicates, -np.inf)
    dev, gap = np.empty(replicates), np.empty(replicates)
    records = []
    for k in range(1, horizon + 1):
        # a step holds two (R, M) arrays at most: the shares go before the
        # draw, the laws after it, and the new shares overwrite the counts
        probs, freqs = sampling_probs(rule, freqs), None
        freqs, probs = rng.multinomial(n, probs), None
        freqs = np.divide(freqs, n, out=freqs.view(np.float64))
        # a running maximum over the M columns: a row reduction is slower
        np.abs(np.subtract(freqs[:, 0], orbit.states[k, 0], out=dev), out=dev)
        for j in range(1, x0.m):
            np.abs(np.subtract(freqs[:, j], orbit.states[k, j], out=gap), out=gap)
            np.maximum(dev, gap, out=dev)
        indices = np.flatnonzero(dev > best)
        values = dev[indices]
        best[indices] = values
        records.append((indices.astype(np.int32 if replicates <= 2**31 else np.intp), values))
    return DeviationEnsemble(records=records, n=n, horizon=horizon,
                             replicates=replicates)


@dataclass(frozen=True)
class BoundRow:
    """One horizon's empirical-versus-bound comparison."""

    horizon: int
    epsilon: float
    n: int
    exceed_count: int
    replicates: int
    empirical: float
    wilson_upper: float
    bound: float

    @property
    def consistent(self) -> bool:
        return self.wilson_upper <= self.bound


def bound_table(ensemble: DeviationEnsemble, epsilon: float, rho: float,
                m: int) -> list[BoundRow]:
    """Empirical exceedance frequencies with Wilson upper limits next to
    the closed-form tail bound, one row per horizon 1..ensemble.horizon."""
    r = ensemble.replicates
    rows = []
    for k, c in enumerate(ensemble.exceed_counts(epsilon).tolist(), start=1):
        rows.append(BoundRow(
            horizon=k, epsilon=epsilon, n=ensemble.n,
            exceed_count=c, replicates=r, empirical=c / r,
            wilson_upper=wilson_upper(c, r),
            bound=hoeffding_bound(epsilon, k, ensemble.n, m, rho),
        ))
    return rows
