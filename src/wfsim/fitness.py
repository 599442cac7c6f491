"""Fitness landscapes and the induced expected-update map.

A fitness model, linear-fractional or exponential, assigns every type a
non-negative reproductive weight built on a payoff matrix and the current
profile.  Each has ``scaled_weights`` (the fitness of a profile or batch,
at a positive scale the update map ignores) and ``weights_gradient`` (those
weights and their derivative at a profile).  The expected next-generation
profile is the fitness-weighted renormalization of the current one; an
optional row-stochastic mutation matrix is applied to the profile first.
Every sampler draws from the multinomial cell probabilities of :func:`sampling_probs`;
every command seeds its random streams with :func:`rng_stream` and builds
its rule with :func:`make_rule`, which checks the parameters each fitness
family takes; :func:`rng_streams` builds many of those streams at once,
and :func:`_c_multinomial` draws from them.  numpy.random loads on the
first stream built, so commands that never sample do not pay for it.
"""

from __future__ import annotations

import ctypes
import math
import operator
from functools import cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateFitness, DimensionMismatch, InvalidNormalization,
                     PreconditionError)

#: |det A| must exceed this times max(1, max|A|)^M to count as invertible.
DET_TOL = 1e-10

#: Row sums of a mutation matrix must be 1 within this tolerance.
ROW_SUM_TOL = 1e-12

#: Step of the central differences of :func:`finite_difference_jacobian`.
FD_STEP = 1e-6

#: numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``): its
#: entropy pool size in 32-bit words, its hashmix seeds and multipliers (A
#: mixes the entropy in, B draws the state out) and its mix multipliers.
_POOL_WORDS = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

#: Scratch bytes for numpy's ``binomial_t`` parameter cache, one per
#: drawing loop: an int and 16 eight-byte fields (136 bytes), and spare.
BINOMIAL_CACHE_BYTES = 256


class PayoffMatrix:
    """Square real matrix of pairwise interaction payoffs.

    Structural flags (symmetry, positive entries, invertibility) are
    computed when read; the entries themselves are immutable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Iterable[float]]):
        arr = np.asarray(entries, dtype=np.float64).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch("payoff matrix must be square and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("payoff entries must be finite")
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def m(self) -> int:
        return self._entries.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self._entries, self._entries.T, rtol=0, atol=1e-12))

    @property
    def has_positive_entries(self) -> bool:
        return bool(np.all(self._entries > 0))

    @property
    def is_invertible(self) -> bool:
        # compared in log space: the determinant and the scale can leave
        # the float range for large finite payoffs
        sign, log_det = np.linalg.slogdet(self._entries)
        log_scale = self.m * np.log(max(1.0, float(np.abs(self._entries).max())))
        return bool(sign != 0 and log_det > np.log(DET_TOL) + log_scale)

    def __repr__(self) -> str:
        return f"PayoffMatrix({self._entries.tolist()!r})"


class LinearFractionalFitness:
    """Affine fitness: baseline vector blended with payoff interaction.

    ``fitness(x) = (1 - omega) * b + omega * A x`` with mixing weight
    ``omega`` in (0, 1) and strictly positive baseline ``b``.
    """

    def __init__(self, payoff: PayoffMatrix, omega: float, b: Iterable[float] | None = None):
        if not 0.0 < omega < 1.0:
            raise ConfigError(f"omega must lie in (0, 1), got {omega}")
        self.payoff = payoff
        self.m = payoff.m
        omega = float(omega)
        b = np.ones(self.m) if b is None else np.asarray(b, dtype=np.float64)
        if b.shape != (self.m,):
            raise DimensionMismatch("baseline b has the wrong length")
        if np.any(b <= 0):
            raise ConfigError("baseline b must be strictly positive")
        # precomputed pieces for the hot path
        self._b_part = (1.0 - omega) * b
        self._wa = omega * payoff.entries

    def scaled_weights(self, xs: np.ndarray) -> np.ndarray:
        # einsum sums each row in a fixed order, so a profile and a batch row
        # get the same bits; BLAS matmul runs gemv at one row and gemm at several
        return self._b_part + np.einsum("...k,ik->...i", xs, self._wa)

    def weights_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # matmul, not scaled_weights: the two can differ in the last bit
        return self._b_part + self._wa @ x, self._wa


class ExponentialFitness:
    """Exponential payoff response: ``fitness_i(x) = exp(beta * (A x)_i)``."""

    def __init__(self, payoff: PayoffMatrix, beta: float):
        if beta <= 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        self.payoff = payoff
        self.beta = float(beta)
        self.m = payoff.m

    def scaled_weights(self, xs: np.ndarray) -> np.ndarray:
        # shift each exponent by its maximum; the update map is invariant
        # under positive scalar rescaling of fitness
        z = self.beta * np.einsum("...k,ik->...i", xs, self.payoff.entries)
        return np.exp(z - z.max(axis=-1, keepdims=True))

    def weights_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the shifted weights stay finite where exp(beta * A x) overflows
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

    def __init__(self, fitness: LinearFractionalFitness | ExponentialFitness,
                 mutation: MutationMatrix | None = None):
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
        num = xs * self.fitness.scaled_weights(xs)
        totals = _row_sums(num)
        if not totals.min(initial=np.inf) > 0:        # NaN fails too
            raise DegenerateFitness("total fitness is zero at some profile")
        return num / totals

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


def sampling_probs(rule: UpdateRule, freqs: np.ndarray) -> np.ndarray:
    """Multinomial cell probabilities of one resampling step.

    The update-map image of a profile ``(M,)``, or of each row of a batch
    ``(R, M)``, with rounding negatives clamped to 0 and each row
    renormalised, so the multinomial sampler never rejects it.  A profile
    and a batch row get the same bits.
    """
    p = np.maximum(rule.update_probs(freqs), 0.0)
    p /= _row_sums(p)
    return p


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis of a profile ``(M,)`` or a batch ``(R, M)``,
    shaped to broadcast against it: one column added at a time, left to
    right.  Up to M=7 that is numpy's own order (its pairwise sum starts at
    8 terms), so the bits are those of ``a.sum(axis=-1)``, at a tenth of its
    cost on a (16000, 3) batch."""
    if a.ndim == 1:     # the same additions on Python floats, at a quarter of the cost
        return np.array([reduce(operator.add, a.tolist())])
    total = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        total += a[..., k]
    return total[..., None]


def log_multinomial(counts: np.ndarray, n: int) -> np.ndarray:
    """log n!/prod_k s_k! per row s of ``counts`` (rows summing to n), from ``math.lgamma``."""
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    return log_factorial[n] - log_factorial[counts].sum(axis=-1)


def _log0(x: np.ndarray) -> np.ndarray:
    """log x, with a finite stand-in for log 0 that keeps 0 * log 0 at 0
    and sends a positive multiple to a number whose exp is exactly 0."""
    return np.log(x, out=np.full_like(x, -1e300), where=x > 0)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The one random stream scheme: PCG64 seeded by ``seed`` with spawn
    key ``key``, so results depend only on these integers, never on
    scheduling.  ``SeedSequence(seed).spawn(k)[j]`` is ``rng_stream(seed, j)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def rng_streams(seed: int, keys: Sequence[Sequence[int]]) -> list[np.random.Generator]:
    """``[rng_stream(seed, *key) for key in keys]``, bit for bit, for a
    fifth of its cost: numpy's SeedSequence hash runs once over all the
    keys as uint32 array operations, and each PCG64 takes its state through
    a stand-in seed sequence.  The first stream of each entropy length is
    checked against numpy's own SeedSequence; a mismatch raises
    :class:`PreconditionError`."""
    run = _uint32_words(seed)
    padded = run + [0] * (_POOL_WORDS - len(run))
    # numpy pads the seed's words to the pool size when there is a key
    entropy = [(padded if key else run) + [w for k in key for w in _uint32_words(k)]
               for key in keys]
    lengths: dict[int, list[int]] = {}
    for j, words in enumerate(entropy):
        lengths.setdefault(len(words), []).append(j)
    generator, pcg64, preset = _preset_pcg64()
    gens = [None] * len(entropy)
    for picks in lengths.values():
        states = _seed_states(np.array([entropy[j] for j in picks], dtype=np.uint32))
        for j, state in zip(picks, states):
            gens[j] = generator(pcg64(preset(state)))
        first = picks[0]
        if gens[first].bit_generator.state != rng_stream(seed, *keys[first]).bit_generator.state:
            raise PreconditionError(f"numpy {np.__version__}'s SeedSequence does not match "
                                    "the hash rng_streams replicates")
    return gens


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's words of a non-negative integer: 32 bits each, least
    significant first, one word for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of an
    entropy array (R, L) uint32, as (R, 4) uint64: numpy's hash with every
    step applied to a column at once.  uint32 array products wrap mod 2**32
    as the C code's do; the hash multipliers depend on the step only."""
    rows, length = entropy.shape
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _MULT_A & _MASK32
        value = value * np.uint32(mult)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> np.uint32(16))

    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, length):
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    state = np.empty((rows, 8), dtype=np.uint32)
    mult = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ np.uint32(mult)
        mult = mult * _MULT_B & _MASK32
        value = value * np.uint32(mult)
        state[:, i] = value ^ (value >> np.uint32(16))
    # numpy pairs the words little-endian whatever the platform
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _preset_pcg64():
    """numpy's Generator and PCG64, and a seed sequence that hands PCG64 a
    state already computed.  Built on first use, so numpy.random loads with
    the first stream."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words once, at construction
            return self.state

    return np.random.Generator, np.random.PCG64, PresetState


@cache
def _c_multinomial():
    """numpy's C draw ``random_multinomial(bitgen_t *, int64 n, int64 *out,
    double *p, npy_intp d, binomial_t *)``, which every per-stream draw calls
    for ``Generator.multinomial``'s bits and stream advances without its lock,
    and ``bitgen(gen)``, a Generator's ``bitgen_t *``.  Resolved on first use,
    as reading ``np.random`` loads numpy.random; ``PyDLL`` keeps the GIL."""
    draw = getattr(ctypes.PyDLL(np.random._generator.__file__), "random_multinomial", None)
    if draw is None:
        raise PreconditionError(f"numpy {np.__version__} exports no random_multinomial "
                                "from numpy.random._generator; every draw is made with it")
    # no argtypes: ctypes objects of the C types pass unconverted, ~30% faster a draw
    draw.restype = None
    # a c_void_p subclass comes back as itself, where c_void_p would become an int
    pointer = ctypes.PYFUNCTYPE(type("bitgen_t", (ctypes.c_void_p,), {}), ctypes.py_object,
                                ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))

    def bitgen(gen: np.random.Generator) -> ctypes.c_void_p:
        return pointer(gen.bit_generator.capsule, b"BitGenerator")
    return draw, bitgen


def _check_law(law: np.ndarray) -> np.ndarray:
    """``law``, a profile law (M,) or a whole law (L, M), once it passes
    ``Generator.multinomial``'s checks: every cell in [0, 1] and not NaN,
    and the first M-1 cells of each row summing to at most 1 + 1e-12."""
    if law.ndim == 1:       # in Python, at a seventh of the array checks' cost
        cells = law.tolist()
        inside, head = all(0.0 <= p <= 1.0 for p in cells), reduce(operator.add, cells[:-1], 0.0)
    else:
        inside, head = law.min() >= 0.0 and law.max() <= 1.0, _row_sums(law[:, :-1]).max()
    if not inside:
        raise InvalidNormalization("sampling law has a NaN or a cell outside [0, 1]")
    if head > 1.0 + 1e-12:
        raise InvalidNormalization(f"sampling law's first M-1 cells sum to {head!r} > 1 + 1e-12")
    return law


def finite_difference_jacobian(rule: UpdateRule, xs: np.ndarray) -> np.ndarray:
    """Central-difference derivative matrix of the update map at a profile
    ``(M,)``, or ``(R, M, M)`` at each profile of a stack ``(R, M)`` with
    the bits of its own profile call.

    The map extends smoothly to a neighborhood of the simplex, so the
    perturbed points are evaluated without renormalizing the input.
    """
    # rows j and m + j of each profile's block are it moved by +FD_STEP and
    # -FD_STEP along e_j; the blocks of a whole stack go through one map call
    xs = np.asarray(xs, dtype=np.float64)
    m = xs.shape[-1]
    shift = FD_STEP * np.eye(m)
    pts = np.concatenate([xs[..., None, :] + shift, xs[..., None, :] - shift], axis=-2)
    images = rule.update_probs(pts.reshape(-1, m)).reshape(pts.shape)
    return ((images[..., :m, :] - images[..., m:, :]) / (2.0 * FD_STEP)).swapaxes(-1, -2).copy()


def make_rule(matrix, *, omega: float | None = None, b=None,
              fitness: str = "linear_fractional", beta: float | None = None,
              mutation=None) -> UpdateRule:
    """Build an update rule from plain (JSON-friendly) parameters, such as
    the keywords of a resolved config (which has turned ``omega_ratio``
    into ``omega``).  A parameter of the other fitness family (``beta``;
    ``omega``, ``b``) is a config error.
    """
    payoff = PayoffMatrix(matrix)
    mut = MutationMatrix(mutation) if mutation is not None else None
    if fitness == "linear_fractional":
        if beta is not None:
            raise ConfigError("beta does not apply to linear-fractional fitness")
        if omega is None:
            raise ConfigError(
                "linear-fractional fitness needs exactly one of omega, omega_ratio"
            )
        model = LinearFractionalFitness(payoff, omega, b)
    elif fitness == "exponential":
        if beta is None:
            raise ConfigError("exponential fitness needs beta")
        if omega is not None or b is not None:
            raise ConfigError("omega/b do not apply to exponential fitness")
        model = ExponentialFitness(payoff, beta)
    else:
        raise ConfigError(f"unknown fitness kind {fitness!r}")
    return UpdateRule(model, mut)
