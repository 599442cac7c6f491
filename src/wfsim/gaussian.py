"""Gaussian linearization of the resampling chain around the
deterministic orbit.

Rescaled deviations of the finite population from the orbit approach a
time-inhomogeneous Gaussian linear recursion driven by multinomial noise:
the next deviation is the update-map derivative applied to the current
one plus a centered Gaussian with the multinomial covariance of the
current image.  This module builds those covariances, propagates the
recursion's second moments exactly, solves for their stationary value, and
rescales simulated trajectories for empirical comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError, PreconditionError, ResourceLimitExceeded
from .fitness import UpdateRule, sampling_probs
from .meanfield import Orbit, iterate, spectral_radius_on_sum_zero, sum_zero_basis
from .simplex import round_to_lattice

#: Moment comparison: standard errors allowed, and relative covariance error.
Z_LIMIT = 3.0
REL_TOL = 0.10


def noise_covariance(p) -> np.ndarray:
    """Covariance of one multinomial draw (scaled by N) with cell
    probabilities ``p``: diag(p) - p p'.

    ``p`` is the update image of the state of interest, i.e. the
    probability vector actually fed to the resampling step.  The result
    is symmetric positive semidefinite and annihilates the all-ones
    vector, so it is supported on the sum-zero subspace.
    """
    vec = np.asarray(p, dtype=np.float64)
    return np.diag(vec) - np.outer(vec, vec)


def ar1_covariance(orbit: Orbit) -> np.ndarray:
    """Exact second moments of the linear recursion: V_{k+1} = D V_k D' + S_k,
    from V_0 = 0 (a deterministic start), with D the update-map derivative
    at orbit point k and S the noise covariance of orbit point k+1.  Returns
    an array of shape (len(orbit), M, M).
    """
    rule, m = orbit.rule, orbit.m
    out = np.empty((len(orbit), m, m))
    out[0] = 0.0
    for k in range(len(orbit) - 1):
        d = rule.jacobian(orbit.states[k])
        out[k + 1] = d @ out[k] @ d.T + noise_covariance(orbit.states[k + 1])
    return out


def stationary_covariance(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Fixed point of V = D V D' + Sigma, solved directly.

    The noise lives on the sum-zero subspace with orthonormal basis B, so
    V = B W B' where W solves the discrete Lyapunov equation of the pair
    (B'DB, B'Sigma B): vec W = (I - B'DB (x) B'DB)^-1 vec B'Sigma B, one
    dense solve in (M-1)^2 unknowns.  Raises when D does not contract that
    subspace, when Sigma or D does not keep to it, and, before allocating,
    when that system would take more than ``chain.BLOCK_BYTE_CAP`` bytes.
    """
    from .chain import BLOCK_BYTE_CAP       # looked up at each call, as chain does
    d = np.asarray(d, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if (nbytes := 8 * (d.shape[0] - 1) ** 4) > BLOCK_BYTE_CAP:
        raise ResourceLimitExceeded(f"stationary covariance at M={d.shape[0]} solves a "
                                    f"{nbytes}-byte system (cap {BLOCK_BYTE_CAP})")
    if spectral_radius_on_sum_zero(d) >= 1.0:
        raise NumericRangeError(
            "covariance recursion diverges (spectral radius >= 1 on the "
            "noise subspace)"
        )
    basis = sum_zero_basis(d.shape[0])
    ones = np.ones(d.shape[0])
    if (np.abs(sigma @ ones).max() > 1e-10 * np.abs(sigma).max()
            or np.abs(ones @ d @ basis).max() > 1e-10 * max(1.0, np.abs(d).max())):
        raise PreconditionError(
            "stationary covariance needs a noise covariance that annihilates "
            "the all-ones vector and a derivative that keeps the sum-zero subspace"
        )
    b_d, b_sigma = basis.T @ d @ basis, basis.T @ sigma @ basis
    w = np.linalg.solve(np.eye(b_d.size) - np.kron(b_d, b_d), b_sigma.ravel())
    return basis @ w.reshape(b_sigma.shape) @ basis.T


# ----------------------------------------------------------------------
# empirical residuals
# ----------------------------------------------------------------------

@dataclass
class ResidualSample:
    """Rescaled end-of-horizon deviations of simulated trajectories.

    ``residuals[r] = sqrt(N) * (X_k^(r) - psi_k)`` where the deterministic
    orbit restarts from the lattice-rounded initial point, so residuals
    are exactly zero at step 0.
    """

    residuals: np.ndarray       # (replicates, M)
    orbit: Orbit


def rescaled_residuals(rule: UpdateRule, n: int, start, step: int,
                       replicates: int, rng: np.random.Generator) -> ResidualSample:
    """Simulate ``replicates`` trajectories for ``step`` generations and
    return the rescaled deviations from the deterministic orbit.

    The start is rounded to the size-``n`` lattice and the orbit is
    recomputed from the rounded point, so stochastic and deterministic
    paths share their initial state exactly.
    """
    x0 = round_to_lattice(start, n)
    orbit = iterate(rule, x0.counts / n, step)
    counts = np.tile(x0.counts, (replicates, 1))
    for k in range(step):
        counts = rng.multinomial(n, sampling_probs(rule, counts / n))
    residuals = np.sqrt(n) * (counts / n - orbit.states[step])
    return ResidualSample(residuals=residuals, orbit=orbit)


@dataclass(frozen=True)
class MomentComparison:
    """Entrywise agreement report between empirical and predicted moments."""

    mean_ok: bool
    cov_ok: bool
    max_mean_z: float           # |empirical mean| in standard-error units
    max_cov_excess: float       # worst (|diff| - allowance), <= 0 when cov_ok
    predicted_cov: np.ndarray
    empirical_cov: np.ndarray


def compare_residual_moments(residuals: np.ndarray,
                             predicted_cov: np.ndarray) -> MomentComparison:
    """Check empirical mean against zero and empirical covariance against
    a prediction, at Monte Carlo resolution.

    The mean test uses ``Z_LIMIT`` standard errors per coordinate; the
    covariance test allows ``max(REL_TOL * |predicted|, Z_LIMIT * SE)``
    per entry, with the usual Gaussian standard error for sample
    covariances, SE(C_ij) = sqrt((V_ii V_jj + V_ij^2) / R).
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    predicted = np.asarray(predicted_cov, dtype=np.float64)
    r = residuals.shape[0]
    emp_mean = residuals.mean(axis=0)
    emp_cov = np.cov(residuals, rowvar=False, bias=False)

    mean_se = np.sqrt(np.clip(np.diag(emp_cov), 1e-300, None) / r)
    mean_z = np.abs(emp_mean) / mean_se
    mean_ok = bool(np.all(mean_z <= Z_LIMIT))

    diag = np.diag(predicted)
    cov_se = np.sqrt((np.outer(diag, diag) + predicted ** 2) / r)
    allowance = np.maximum(REL_TOL * np.abs(predicted), Z_LIMIT * cov_se)
    excess = np.abs(emp_cov - predicted) - allowance
    return MomentComparison(
        mean_ok=mean_ok,
        cov_ok=bool(np.all(excess <= 0)),
        max_mean_z=float(mean_z.max()),
        max_cov_excess=float(excess.max()),
        predicted_cov=predicted,
        empirical_cov=emp_cov,
    )
