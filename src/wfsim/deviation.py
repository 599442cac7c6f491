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
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, PreconditionError
from .fitness import UpdateRule, finite_difference_jacobian, sampling_probs
from .meanfield import Orbit, iterate
from .simplex import LatticePoint, lattice_counts, linf_distances

#: One-sided 99% normal quantile used for Wilson upper confidence limits.
Z_99 = 2.3263478740408408


def decoupling_time(path: np.ndarray, orbit: Orbit, epsilon: float,
                    n: Optional[int] = None) -> Optional[int]:
    """First step where a trajectory deviates from the orbit by more than
    ``epsilon`` in max-norm; None if it never does within the horizon.

    ``path`` holds one state per row, either integer counts (``n``
    inferred from the row sum) or frequencies.  The trajectory and orbit
    must start at the same state.
    """
    path = np.asarray(path)
    if path.ndim != 2 or path.shape[1] != orbit.m:
        raise DimensionMismatch("trajectory and orbit dimensions differ")
    if np.issubdtype(path.dtype, np.integer):
        if n is None:
            n = int(path[0].sum())
        freqs = path / n
    else:
        freqs = path.astype(np.float64)
    if float(np.max(np.abs(freqs[0] - orbit.states[0]))) > 1e-9:
        raise PreconditionError("trajectory and orbit have different initial states")
    k_max = min(freqs.shape[0], len(orbit))
    devs = np.max(np.abs(freqs[:k_max] - orbit.states[:k_max]), axis=1)
    hits = np.flatnonzero(devs > epsilon)
    return int(hits[0]) if hits.size else None


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
    exponent = -(epsilon ** 2) * (c ** 2) * n / 2.0
    return min(1.0, 2.0 * horizon * m * math.exp(exponent))


@dataclass(frozen=True)
class ExpectationBound:
    """Lower bound on the mean decoupling time, with its applicability
    condition (positive slack) evaluated."""

    value: float
    slack: float

    @property
    def applicable(self) -> bool:
        return self.slack > 0


def expected_decoupling_lower_bound(epsilon: float, n: int, m: int,
                                    rho: float) -> ExpectationBound:
    """Contraction-map lower bound exp((1-rho)^2 eps^2 N / 2) / (2M).

    Only meaningful for contracting maps (rho < 1) and when the tail mass
    outside the tube is strictly less than one; the slack of that
    condition is reported so inapplicable parameter sets are flagged
    rather than silently used.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if epsilon <= 0 or n < 1 or m < 1:
        raise DomainError("epsilon, N, M must be positive")
    exponent = ((1.0 - rho) ** 2) * (epsilon ** 2) * n / 2.0
    value = math.exp(exponent) / (2.0 * m)
    slack = 1.0 - 2.0 * m * math.exp(-exponent)
    return ExpectationBound(value=value, slack=slack)


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
    samples: int
    probes: int     # points the map was evaluated at: samples plus the grid

    def with_safety(self, factor: float = 1.2) -> float:
        return factor * self.value


#: Resolution of the deterministic lattice probe grid; probe nodes are
#: pulled marginally toward the barycenter so finite differencing stays
#: inside the domain of rules that need the closed simplex.
_PROBE_RESOLUTION = 12
_PROBE_SHRINK = 1e-4


def _sum_zero_operator_norm(jac: np.ndarray) -> np.ndarray:
    """Induced max-norm of a derivative matrix, or of each matrix of a
    stack, over sum-zero displacements.

    Displacements between simplex points always sum to zero, so the
    relevant operator norm is sup ||J w||_inf over sum-zero w with
    ||w||_inf <= 1.  Per row r the supremum of r @ w under those
    constraints equals min_t ||r - t 1||_1 (linear-programming duality),
    attained at the row median.
    """
    centered = jac - np.median(jac, axis=-1, keepdims=True)
    return np.abs(centered).sum(axis=-1).max(axis=-1)


def estimate_lipschitz(rule: UpdateRule, samples: int,
                       rng: np.random.Generator) -> LipschitzEstimate:
    """Estimate the max-norm Lipschitz constant of the update map.

    Takes the maximum of (a) difference quotients over all pairs of probe
    points and (b) sum-zero-restricted induced max-norms of
    finite-difference derivative matrices at the probes.  The probes are
    ``samples`` Dirichlet-uniform draws plus a fixed coarse lattice grid,
    so the estimate has a deterministic component that captures boundary
    behavior and keeps repeated estimates stable across seeds.
    """
    if samples < 2:
        raise DomainError("need at least 2 sample points")
    pts = rng.dirichlet(np.ones(rule.m), size=samples)
    grid = lattice_counts(rule.m, _PROBE_RESOLUTION) / _PROBE_RESOLUTION
    grid = (1.0 - _PROBE_SHRINK) * grid + _PROBE_SHRINK / rule.m
    pts = np.vstack([grid, pts])
    images = rule.update_probs_batch(pts)
    # both orders of every pair: the quotients are equal, so is the maximum
    den = linf_distances(pts, pts)
    keep = den > 1e-12
    quotients = linf_distances(images, images)[keep] / den[keep]
    pair_max = float(quotients.max()) if quotients.size else 0.0
    jac_max = float(_sum_zero_operator_norm(finite_difference_jacobian(rule, pts)).max())
    return LipschitzEstimate(value=max(pair_max, jac_max),
                             pair_max=pair_max, jacobian_max=jac_max,
                             samples=samples, probes=pts.shape[0])


# ----------------------------------------------------------------------
# empirical ensembles
# ----------------------------------------------------------------------

def wilson_upper(successes: int, trials: int, z: float = Z_99) -> float:
    """One-sided Wilson score upper confidence limit for a binomial
    proportion."""
    if trials < 1:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
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
    from scipy.special import bdtr, bdtrc

    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    n = x0.n
    p = sampling_probs(rule, x0.counts / n)
    o = iterate(rule, x0.as_frequencies(), 1).states[1]
    # X_i <= lo or X_i >= hi  <=>  |X_i/N - o_i| >= epsilon (up to tol)
    tol = 1e-9
    lo = np.floor(n * (o - epsilon) + tol)
    hi = np.ceil(n * (o + epsilon) - tol)
    below = np.where(lo >= 0, bdtr(np.maximum(lo, 0), n, p), 0.0)
    above = np.where(hi <= n, bdtrc(np.clip(hi - 1, -1, n), n, p), 0.0)
    return min(1.0, float(below.sum() + above.sum()))


@dataclass
class DeviationEnsemble:
    """Max-norm deviations from the orbit for a replicated simulation.

    ``deviations[r, k-1]`` is the distance of replicate ``r`` from the
    orbit at step ``k`` (steps 1..horizon; step 0 is exactly zero by
    construction).  :func:`simulate_deviations` stores it step-major: the
    array is the transpose of a C-ordered (horizon, replicates) buffer, so
    one step's deviations are contiguous and one replicate's are strided.
    """

    deviations: np.ndarray     # (replicates, horizon)
    orbit: Orbit
    n: int
    horizon: int

    @property
    def replicates(self) -> int:
        return self.deviations.shape[0]

    def decoupling_times(self, epsilon: float) -> np.ndarray:
        """Per-replicate decoupling time for one threshold; -1 = censored
        (never exceeded within the horizon)."""
        exceeded = self.deviations > epsilon
        any_hit = exceeded.any(axis=1)
        taus = np.where(any_hit, exceeded.argmax(axis=1) + 1, -1)
        return taus.astype(np.int64)

    def exceed_counts(self, epsilon: float) -> np.ndarray:
        """Number of replicates with decoupling time <= K, for K = 1..horizon."""
        taus = self.decoupling_times(epsilon)
        counts = np.zeros(self.horizon, dtype=np.int64)
        hit = taus[taus > 0]
        np.add.at(counts, hit - 1, 1)
        return np.cumsum(counts)

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
    the same point and record max-norm deviations at each step."""
    n = x0.n
    orbit = iterate(rule, x0.as_frequencies(), horizon)
    freqs = np.tile(x0.counts / n, (replicates, 1))
    # step-major: step k fills the contiguous row k - 1, a running maximum
    # over the M columns of its gaps
    devs = np.zeros((horizon, replicates))
    for k in range(1, horizon + 1):
        freqs = rng.multinomial(n, sampling_probs(rule, freqs)) / n
        gap = np.abs(freqs - orbit.states[k])
        for j in range(x0.m):
            np.maximum(devs[k - 1], gap[:, j], out=devs[k - 1])
    return DeviationEnsemble(deviations=devs.T, orbit=orbit, n=n, horizon=horizon)


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
                m: int, horizons: Optional[Sequence[int]] = None) -> list[BoundRow]:
    """Empirical exceedance frequencies with Wilson upper limits next to
    the closed-form tail bound, one row per horizon."""
    if horizons is None:
        horizons = range(1, ensemble.horizon + 1)
    counts = ensemble.exceed_counts(epsilon)
    r = ensemble.replicates
    rows = []
    for k in horizons:
        if not 1 <= k <= ensemble.horizon:
            raise DomainError(f"horizon {k} outside the simulated range")
        c = int(counts[k - 1])
        rows.append(BoundRow(
            horizon=int(k), epsilon=epsilon, n=ensemble.n,
            exceed_count=c, replicates=r, empirical=c / r,
            wilson_upper=wilson_upper(c, r),
            bound=hoeffding_bound(epsilon, int(k), ensemble.n, m, rho),
        ))
    return rows
