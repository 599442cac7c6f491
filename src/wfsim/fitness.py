"""Fitness landscapes and the induced expected-update map.

A fitness model, linear-fractional or exponential, assigns every type a
non-negative reproductive weight built on a payoff matrix and the current
profile.  The expected next-generation profile is the fitness-weighted
renormalization of the current one; an optional row-stochastic mutation
matrix is applied to the profile first.  Every sampler in the package
draws from the multinomial cell probabilities of :func:`sampling_probs`;
every command seeds its random streams with :func:`rng_stream` and builds
its rule with :func:`make_rule`, which checks the parameters each fitness
family takes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitness,
    DimensionMismatch,
    NumericRangeError,
)

#: |det A| must exceed this times max(1, max|A|)^M to count as invertible.
DET_TOL = 1e-10

#: Row sums of a mutation matrix must be 1 within this tolerance.
ROW_SUM_TOL = 1e-12


class PayoffMatrix:
    """Square real matrix of pairwise interaction payoffs.

    Structural flags (symmetry, positive entries, invertibility) are
    computed on demand and cached; the entries themselves are immutable.
    """

    __slots__ = ("_entries", "_flags")

    def __init__(self, entries: Iterable[Iterable[float]]):
        arr = np.asarray(entries, dtype=np.float64).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch("payoff matrix must be square and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("payoff entries must be finite")
        arr.flags.writeable = False
        self._entries = arr
        self._flags: dict[str, bool] = {}

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def m(self) -> int:
        return self._entries.shape[0]

    @property
    def is_symmetric(self) -> bool:
        if "sym" not in self._flags:
            a = self._entries
            self._flags["sym"] = bool(np.allclose(a, a.T, rtol=0, atol=1e-12))
        return self._flags["sym"]

    @property
    def has_positive_entries(self) -> bool:
        if "pos" not in self._flags:
            self._flags["pos"] = bool(np.all(self._entries > 0))
        return self._flags["pos"]

    @property
    def is_invertible(self) -> bool:
        if "inv" not in self._flags:
            # compared in log space: the determinant and the scale can
            # leave the float range for large finite payoffs
            sign, log_det = np.linalg.slogdet(self._entries)
            log_scale = self.m * np.log(max(1.0, float(np.abs(self._entries).max())))
            self._flags["inv"] = bool(sign != 0 and log_det > np.log(DET_TOL) + log_scale)
        return self._flags["inv"]

    def __repr__(self) -> str:
        return f"PayoffMatrix({self._entries.tolist()!r})"


class FitnessModel:
    """Base class of the payoff-driven fitness families: maps a profile to a
    vector of per-type fitness values built on ``payoff``."""

    m: int
    payoff: PayoffMatrix

    def values(self, x: np.ndarray) -> np.ndarray:
        """Raw fitness vector at profile ``x`` (may overflow; see subclasses)."""
        raise NotImplementedError

    def scaled_weights(self, xs: np.ndarray) -> np.ndarray:
        """Range-guarded substitute used inside the update map.

        Takes a profile ``(M,)`` or a batch ``(R, M)`` and returns, per
        profile, ``w = c * values(x)`` for some positive scalar ``c``, in
        one array expression; the update map is invariant under such
        scaling, so subclasses may shift into a safe numeric range here.
        """
        raise NotImplementedError

    def weights_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``w = c * values(x)`` at a profile ``(M,)`` and their
        derivative matrix dw_i/dx_j, both at one positive scale ``c``.
        The derivative of the update map is invariant under that scale."""
        raise NotImplementedError


class LinearFractionalFitness(FitnessModel):
    """Affine fitness: baseline vector blended with payoff interaction.

    ``fitness(x) = (1 - omega) * b + omega * A x`` with mixing weight
    ``omega`` in (0, 1) and strictly positive baseline ``b``.
    """

    def __init__(self, payoff: PayoffMatrix, omega: float, b: Iterable[float] | None = None):
        if not 0.0 < omega < 1.0:
            raise ConfigError(f"omega must lie in (0, 1), got {omega}")
        self.payoff = payoff
        self.omega = float(omega)
        self.m = payoff.m
        if b is None:
            b_arr = np.ones(self.m)
        else:
            b_arr = np.asarray(b, dtype=np.float64).copy()
            if b_arr.shape != (self.m,):
                raise DimensionMismatch("baseline b has the wrong length")
            if np.any(b_arr <= 0):
                raise ConfigError("baseline b must be strictly positive")
        b_arr.flags.writeable = False
        self.b = b_arr
        # precomputed pieces for the hot path
        self._b_part = (1.0 - self.omega) * self.b
        self._wa = self.omega * payoff.entries

    @classmethod
    def from_ratio(cls, payoff: PayoffMatrix, omega_ratio: float,
                   b: Iterable[float] | None = None) -> "LinearFractionalFitness":
        """Construct from the odds form ``omega / (1 - omega)``."""
        if omega_ratio <= 0:
            raise ConfigError("omega ratio must be positive")
        return cls(payoff, omega_ratio / (1.0 + omega_ratio), b)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._b_part + self._wa @ x

    def scaled_weights(self, xs: np.ndarray) -> np.ndarray:
        # einsum sums each row in a fixed order, so a profile and a batch row
        # get the same bits; BLAS matmul runs gemv at one row and gemm at several
        return self._b_part + np.einsum("...k,ik->...i", xs, self._wa)

    def weights_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.values(x), self._wa


class ExponentialFitness(FitnessModel):
    """Exponential payoff response: ``fitness_i(x) = exp(beta * (A x)_i)``."""

    def __init__(self, payoff: PayoffMatrix, beta: float):
        if beta <= 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        self.payoff = payoff
        self.beta = float(beta)
        self.m = payoff.m

    def values(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            out = np.exp(self.beta * (self.payoff.entries @ x))
        if not np.all(np.isfinite(out)):
            raise NumericRangeError(
                "exponential fitness overflowed; use the update map, which "
                "is scale-invariant and evaluates in a guarded range"
            )
        return out

    def scaled_weights(self, xs: np.ndarray) -> np.ndarray:
        # shift each exponent by its maximum; the update map is invariant
        # under positive scalar rescaling of fitness
        z = self.beta * np.einsum("...k,ik->...i", xs, self.payoff.entries)
        return np.exp(z - z.max(axis=-1, keepdims=True))

    def weights_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the shifted weights stay finite where the raw values overflow
        w = self.scaled_weights(x)
        return w, self.beta * w[:, None] * self.payoff.entries


class MutationMatrix:
    """Row-stochastic matrix of per-generation type-switch probabilities."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Iterable[float]]):
        arr = np.asarray(entries, dtype=np.float64).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch("mutation matrix must be square")
        if np.any(arr < 0):
            raise ConfigError("mutation probabilities must be non-negative")
        rows = arr.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            raise ConfigError("every mutation-matrix row must sum to 1")
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def m(self) -> int:
        return self._entries.shape[0]


class UpdateRule:
    """Expected next-generation profile map.

    Composition: optionally push the profile through the mutation matrix,
    then reweight by fitness and renormalize.  Without mutation the map
    never creates mass on types absent from the input.
    """

    def __init__(self, fitness: FitnessModel, mutation: MutationMatrix | None = None):
        if mutation is not None and mutation.m != fitness.m:
            raise DimensionMismatch("fitness and mutation dimensions differ")
        self.fitness = fitness
        self.mutation = mutation
        self.m = fitness.m

    # -- hot path -----------------------------------------------------
    def update_probs(self, xs) -> np.ndarray:
        """Expected next profile of a profile ``(M,)`` or of each row of a
        batch ``(R, M)`` (returned raw).  A profile and a batch row get the
        same bits, whatever the batch."""
        if self.mutation is not None:
            xs = np.einsum("...k,kj->...j", xs, self.mutation.entries)
        return self._replicator_probs(xs)

    #: The same map under a second name.  It stays only because the traced
    #: ``orbit_gap`` replay in ``perfbench/layers.py`` wraps it to count
    #: Lipschitz probes; it goes with ROADMAP.md item 1.
    update_probs_batch = update_probs

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Derivative matrix of the update map at ``x``, from the fitness
        model's analytic weight gradient."""
        x = np.asarray(x, dtype=np.float64)
        if self.mutation is not None:
            inner = x @ self.mutation.entries
            return self._replicator_jacobian(inner) @ self.mutation.entries.T
        return self._replicator_jacobian(x)

    def _replicator_jacobian(self, x: np.ndarray) -> np.ndarray:
        phi, dphi = self.fitness.weights_gradient(x)
        s = float(np.dot(x, phi))
        if not s > 0:
            raise DegenerateFitness("total fitness is zero at this profile")
        gamma = x * phi / s
        grad_s = phi + dphi.T @ x
        jac = (np.diag(phi) + x[:, None] * dphi) / s
        jac -= np.outer(gamma, grad_s) / s
        return jac

    def _replicator_probs(self, xs: np.ndarray) -> np.ndarray:
        num = xs * self.fitness.scaled_weights(xs)
        totals = num.sum(axis=-1, keepdims=True)
        if not totals.min(initial=np.inf) > 0:        # NaN fails too
            raise DegenerateFitness("total fitness is zero at some profile")
        return num / totals


def sampling_probs(rule: UpdateRule, freqs: np.ndarray) -> np.ndarray:
    """Multinomial cell probabilities of one resampling step.

    The update-map image of a profile ``(M,)``, or of each row of a batch
    ``(R, M)``, with rounding negatives clamped to 0 and each row
    renormalised, so the multinomial sampler never rejects it.  A profile
    and a batch row get the same bits.
    """
    p = np.maximum(rule.update_probs(freqs), 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The one random stream scheme: PCG64 seeded by ``seed`` with spawn
    key ``key``, so results depend only on these integers, never on
    scheduling.  ``SeedSequence(seed).spawn(k)[j]`` is ``rng_stream(seed, j)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def finite_difference_jacobian(rule: UpdateRule, xs: np.ndarray,
                               step: float = 1e-6) -> np.ndarray:
    """Central-difference derivative matrix of the update map at a profile
    ``(M,)``, or ``(R, M, M)`` at each profile of a stack ``(R, M)`` with
    the bits of its own profile call.

    The map extends smoothly to a neighborhood of the simplex, so the
    perturbed points are evaluated without renormalizing the input.
    """
    # rows j and m + j of each profile's block are it moved by +step and
    # -step along e_j; the blocks of a whole stack go through one map call
    xs = np.asarray(xs, dtype=np.float64)
    m = xs.shape[-1]
    shift = step * np.eye(m)
    pts = np.concatenate([xs[..., None, :] + shift, xs[..., None, :] - shift], axis=-2)
    images = rule.update_probs(pts.reshape(-1, m)).reshape(pts.shape)
    return ((images[..., :m, :] - images[..., m:, :]) / (2.0 * step)).swapaxes(-1, -2).copy()


def make_rule(matrix, *, omega: float | None = None,
              omega_ratio: float | None = None, b=None,
              fitness: str = "linear_fractional", beta: float | None = None,
              mutation=None) -> UpdateRule:
    """Build an update rule from plain (JSON-friendly) parameters.

    The mixing weight may be given directly (``omega``) or in odds form
    (``omega_ratio`` = omega / (1 - omega)), but not both.  A parameter
    of the other fitness family (``beta``; ``omega``, ``omega_ratio``,
    ``b``) is a config error.
    """
    payoff = PayoffMatrix(matrix)
    mut = MutationMatrix(mutation) if mutation is not None else None
    if fitness == "linear_fractional":
        if beta is not None:
            raise ConfigError("beta does not apply to linear-fractional fitness")
        if (omega is None) == (omega_ratio is None):
            raise ConfigError(
                "linear-fractional fitness needs exactly one of omega, omega_ratio"
            )
        if omega is None:
            model: FitnessModel = LinearFractionalFitness.from_ratio(
                payoff, omega_ratio, b)
        else:
            model = LinearFractionalFitness(payoff, omega, b)
    elif fitness == "exponential":
        if beta is None:
            raise ConfigError("exponential fitness needs beta")
        if omega is not None or omega_ratio is not None or b is not None:
            raise ConfigError("omega/b do not apply to exponential fitness")
        model = ExponentialFitness(payoff, beta)
    else:
        raise ConfigError(f"unknown fitness kind {fitness!r}")
    return UpdateRule(model, mut)
