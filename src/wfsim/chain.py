"""Finite-population resampling chain.

One generation draws the next composition from a multinomial whose cell
probabilities are the expected-update image of the current composition.
This module provides trajectory sampling, fully enumerated transition
matrices for small populations (with a state cap and a byte cap on each
kernel block), structural classification of states (recurrent classes
and their periods, transient) from the supports of the sampling laws,
face-closure checks for recurrent classes, the quasi-stationary
distribution of the interior restriction (applied through per-type power
tables, without the interior block),
and the exact one-step drift of the average score x'Ax from the
multinomial moments, without a chain (the check of the maximization
principle).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
    WfsimError,
)
from .fitness import (BINOMIAL_CACHE_BYTES, UpdateRule, _c_multinomial, _check_law, _log0,
                      log_multinomial, sampling_probs)
from .simplex import LatticePoint, lattice_counts


#: Distinct states whose law one sample_path call keeps (~250 B each at M=3);
#: the box that fills it may overshoot by less than LAW_BOX.
LAW_MEMO = 1 << 16

#: States a sample_path memo miss may compute at once: the box around the
#: missed state has half-width r, the largest with (2r+1)^(M-1) <= LAW_BOX
#: (r=7 at M=3, r=0 from M=7 on).
LAW_BOX = 256

#: Power-iteration steps a QSD solve may take before it gives up.
QSD_MAX_ITER = 200_000

#: Kernel rows assembled at a time: one (KERNEL_BLOCK, S) float64 buffer,
#: 0.6 MiB at N=70.  Blocks of a few rows are not bit-identical to the
#: whole-matrix product (BLAS takes another kernel for them).
KERNEL_BLOCK = 32

#: Bytes a kernel block (rows x cols float64), the power tables of an
#: ``InteriorKernel`` or the linear system of ``gaussian.stationary_covariance``
#: may take; a larger one is refused before anything is allocated.
BLOCK_BYTE_CAP = 80_000_000

#: Spread of N log p_ir (natural-log units) over the rows of one
#: ``InteriorKernel`` band, so each band's rescaled factors stay in float
#: range: more than one band per reference type needs N log M > 128.
BAND_LOG = 128.0

#: Bytes of one transient row chunk of an ``InteriorKernel`` product.
TABLE_CHUNK_BYTES = 1 << 20

#: OpenBLAS's (get, set) thread-count symbols: numpy 2 wheels, numpy 1.x
#: wheels, a system OpenBLAS.
BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _box_offsets(m: int) -> np.ndarray:
    """Sum-zero integer offsets (K, M): every first M-1 coordinates in
    [-r, r], the last balancing them, with r the LAW_BOX half-width.
    Built once per M and shared, so the array is read-only."""
    r = 0
    while m > 1 and (2 * r + 3) ** (m - 1) <= LAW_BOX:
        r += 1
    grid = np.array(list(itertools.product(range(-r, r + 1), repeat=m - 1)),
                    dtype=np.int64).reshape((2 * r + 1) ** (m - 1), m - 1)
    offsets = np.column_stack([grid, -grid.sum(axis=1)])
    offsets.flags.writeable = False
    return offsets


def sample_path(rule: UpdateRule, x0: LatticePoint, steps: int,
                rng: np.random.Generator,
                stop: Optional[Callable[[np.ndarray], bool]] = None) -> np.ndarray:
    """Sample a trajectory of counts, optionally stopping early.

    Returns an integer array of shape (k+1, M) where k <= steps; the last
    row is the first state satisfying ``stop`` (row 0 when ``x0`` does).
    Each step draws through :func:`wfsim.fitness._c_multinomial` with
    ``rng.multinomial``'s bits (no other thread may draw from ``rng``
    meanwhile).  Laws ``sampling_probs(rule, counts / n)`` are checked and
    memoised per state, each as a pointer into its array.  The first miss
    (the start, unless it stops) computes its state alone, so a short path
    pays for no box.  Every later miss at counts c computes, in one batched
    call, the law of every lattice state c + d not yet memoised
    (``_box_offsets``, clipped to counts >= 0) and keeps them all; a batch
    row has the bits of the profile call, so the path is that of a
    per-state loop.  If that call raises a ``WfsimError`` (the box reached
    a state where the map is undefined), or once the memo holds
    ``LAW_MEMO`` states, the miss computes c alone, so the path raises
    exactly where a per-state loop would.  ``rule`` must therefore be a
    pure function of the profile: every ``make_rule`` rule is.  Without
    ``stop`` every row is written, so the path is allocated at once; with
    ``stop`` it grows geometrically, so a run that stops early costs only
    the rows it reached.
    """
    n, m, laws = x0.n, x0.m, {}        # counts bytes -> pointer to the law
    width, offsets, cache_c = 8 * m, _box_offsets(m), (ctypes.c_char * BINOMIAL_CACHE_BYTES)()
    (draw, bitgen), counts = _c_multinomial(), (ctypes.c_char * width)()  # int64 cells, as bytes
    state, n_c, m_c, zeros = bitgen(rng), ctypes.c_int64(n), ctypes.c_ssize_t(m), bytes(width)
    path = np.empty((steps + 1 if stop is None else min(steps + 1, 1024), m), dtype=np.int64)
    out, key = memoryview(path).cast("B"), x0.counts.tobytes()
    out[:width] = key
    for k in range(steps):
        if stop is not None and stop(path[k]):
            return path[: k + 1]
        law = laws.get(key)
        if law is None:
            law = _memo_miss(rule, path[k], key, n, offsets, laws)
        if k + 1 == len(path):
            grown = np.empty((min(2 * len(path), steps + 1), m), dtype=np.int64)
            grown[: k + 1] = path
            path, out = grown, memoryview(grown).cast("B")
        counts.raw = zeros             # the C draw writes no cell after the count runs out
        draw(state, n_c, counts, law, m_c, cache_c)
        out[width * (k + 1): width * (k + 2)] = key = counts.raw
    return path


def _memo_miss(rule: UpdateRule, counts: np.ndarray, key: bytes, n: int,
               offsets: np.ndarray, laws: dict) -> object:
    """A pointer to the law at ``counts`` (whose bytes are ``key``), after
    memoising the laws of its box in ``laws`` (only its own when the memo is
    empty or full, or the box raises).  Pointers offset a ``c_double`` over
    the first cell: a ctypes array type per box size would stay cached."""
    if 0 < len(laws) < LAW_MEMO:
        box = counts + offsets
        box = box[box.min(axis=1) >= 0]
        raw = box.tobytes()
        keys = [raw[i: i + len(key)] for i in range(0, len(raw), len(key))]
        fresh = [i for i, row in enumerate(keys) if row not in laws]
        try:
            probs = _check_law(sampling_probs(rule, box[fresh] / n))
        except WfsimError:
            pass
        else:
            first, row = ctypes.c_double.from_buffer(probs), len(key)
            laws.update((keys[i], ctypes.byref(first, row * j)) for j, i in enumerate(fresh))
            return laws[key]
    law = _check_law(sampling_probs(rule, counts / n))
    law = ctypes.byref(ctypes.c_double.from_buffer(law))
    if len(laws) < LAW_MEMO:
        laws[key] = law
    return law


# ----------------------------------------------------------------------
# exact chains
# ----------------------------------------------------------------------

@dataclass
class ExactChain:
    """Fully enumerated transition matrix over all compositions of size N.

    States are ordered ascending-lexicographically by their count vectors;
    ``matrix[i, j]`` is the probability of moving from state i to state j
    in one generation.  ``matrix`` is ``kernel_block`` on every row,
    assembled when first read, and kept; only the benchmark's traced replay
    and tests read it, and it goes with ``kernel_block`` (ROADMAP.md item
    1).  The structural classification (``scc_labels``,
    ``recurrent_classes``, ``periods``, ``transient``) is computed when
    first read, and kept, by ``classify_states`` on the supports of the
    states and of their sampling laws: no kernel entry (so no underflow
    to 0) enters it.
    ``scc_labels`` numbers the strongly connected components (like
    ``recurrent_classes``) ascending by smallest member.
    """

    rule: UpdateRule
    n: int
    states: np.ndarray                 # (S, M) int64

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:    # (S, S) float64, row-stochastic
        return kernel_block(self, np.arange(self.n_states))

    @cached_property
    def _classification(self) -> tuple[np.ndarray, list, list, np.ndarray]:
        return classify_states(self.states > 0,
                               sampling_probs(self.rule, self.states / self.n) > 0)

    @property
    def scc_labels(self) -> np.ndarray:
        """(S,) strongly connected component ids."""
        return self._classification[0]

    @property
    def recurrent_classes(self) -> list[np.ndarray]:
        """State indices, one ascending array per sink class."""
        return self._classification[1]

    @property
    def periods(self) -> list[int]:
        """Periods aligned with ``recurrent_classes``."""
        return self._classification[2]

    @property
    def transient(self) -> np.ndarray:
        """Indices of the states outside every recurrent class."""
        return self._classification[3]

    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(np.all(self.states > 0, axis=1))


def build_exact_chain(rule: UpdateRule, n: int) -> ExactChain:
    """Enumerate every composition of size ``n`` (refused past the state
    cap); the dense transition matrix is assembled when ``matrix`` is
    first read, under ``kernel_block``'s byte cap."""
    return ExactChain(rule, n, lattice_counts(rule.m, n))


def kernel_block(chain: ExactChain, rows: np.ndarray) -> np.ndarray:
    """Transition probabilities from the states ``rows`` (an index array)
    to every state, in order, assembled ``KERNEL_BLOCK`` rows at a time.
    Refuses, before allocating, a block of more than ``BLOCK_BYTE_CAP``
    bytes.

    Row i is the multinomial law of sampling_probs at state i, normalised
    over all S destinations j:
    log N! - sum_k log s_jk! + sum_k s_jk log p_ik.  A finite stand-in for
    log 0 keeps 0 * log 0 at 0 and sends every s_jk > 0 entry to exactly 0.
    """
    states, n = chain.states, chain.n
    shape = (rows.size, len(states))
    if shape[0] * shape[1] * 8 > BLOCK_BYTE_CAP:
        raise ResourceLimitExceeded(
            f"kernel block {shape} would take {shape[0] * shape[1] * 8} bytes "
            f"(cap {BLOCK_BYTE_CAP}); reduce N or M"
        )
    dest = states.T.astype(np.float64)
    log_count = log_multinomial(states, n)
    out = np.empty(shape)
    for lo in range(0, rows.size, KERNEL_BLOCK):
        p = sampling_probs(chain.rule, states[rows[lo: lo + KERNEL_BLOCK]] / n)
        law = _log0(p) @ dest
        law += log_count
        np.exp(law, out=law)
        np.divide(law, law.sum(axis=1, keepdims=True), out=out[lo: lo + KERNEL_BLOCK])
    return out


def classify_states(support: np.ndarray,
                    reach: np.ndarray) -> tuple[np.ndarray, list, list, np.ndarray]:
    """SCC labels of the digraph with an edge i -> j exactly when
    ``support[j]`` lies within ``reach[i]`` (both (S, M) boolean), its sink
    classes with their periods, and its transient states.  With the types
    present at each state and the positive cells of its sampling law, that
    is the multinomial kernel's positive pattern.

    Runs on the hub graph of the distinct ``reach`` rows (at most 2^M - 1),
    h -> h' when a state that fits h has hub h'.  A state is on a cycle when
    its hub reaches a hub it fits; states on cycles with mutually reachable
    hubs form one class, whose period is their hub component's, and every
    other state is a singleton.  A sink class has no hub step out of it.
    """
    patterns, hub = _distinct_rows(reach)
    fits = (support[None] <= patterns[:, None]).all(axis=-1)        # (H, S)
    groups = np.split(np.argsort(hub, kind="stable"), np.cumsum(np.bincount(hub))[:-1])
    step = np.column_stack([fits[:, cols].any(axis=1) for cols in groups])   # (H, H)
    closure = step | np.eye(len(patterns), dtype=bool)
    for _ in range(len(patterns).bit_length()):     # paths of up to 2^k steps after k
        closure = closure @ closure
    on_cycle = np.empty(len(hub), dtype=bool)
    for h, cols in enumerate(groups):
        on_cycle[cols] = fits[np.ix_(closure[h], cols)].any(axis=0)
    mutual = closure & closure.T                    # [h, h']: one hub component
    sink = on_cycle & ~(mutual & (step & ~mutual).any(axis=1)).any(axis=1)[hub]
    key = np.where(on_cycle, mutual.argmax(axis=1)[hub], len(patterns) + np.arange(len(hub)))
    _, smallest, comp = np.unique(key, return_index=True, return_inverse=True)
    _, labels = np.unique(smallest[comp], return_inverse=True)   # ascending by smallest member

    def period(nodes: np.ndarray) -> int:
        # breadth-first levels; the gcd of level[u] + 1 - level[v] over internal edges
        sub, level = step[np.ix_(nodes, nodes)], np.r_[0, np.full(nodes.sum() - 1, -1)]
        for depth in range(1, len(sub)):
            level[sub[level == depth - 1].any(axis=0) & (level < 0)] = depth
        rows, cols = np.nonzero(sub)
        return int(np.gcd.reduce(level[rows] + 1 - level[cols]))

    classes = [np.flatnonzero(labels == cid) for cid in np.unique(labels[sink])]
    periods = [period(mutual[hub[members[0]]]) for members in classes]
    return labels, classes, periods, np.flatnonzero(~sink)


def recurrent_class_faces(chain: ExactChain,
                          class_index: int) -> tuple[list[tuple[int, ...]], bool]:
    """Maximal supports appearing in a recurrent class, as ascending tuples
    of 1-based labels in sorted order, plus whether the class is exactly
    the union of the full compositions on those supports (every
    composition whose support fits inside a maximal support)."""
    members = chain.recurrent_classes[class_index]
    support = chain.states > 0                                  # (S, M)
    supports, _ = _distinct_rows(support[members])              # (K, M)
    inside = (supports[:, None] <= supports[None]).all(axis=-1)  # [a, b]: a within b
    maximal = supports[inside.sum(axis=1) == 1]                 # within only itself
    fits = (support[:, None] <= maximal[None]).all(axis=-1).any(axis=1)
    is_union = np.array_equal(np.flatnonzero(fits), np.sort(members))
    faces = sorted(tuple(int(j) + 1 for j in np.flatnonzero(row)) for row in maximal)
    return faces, is_union


# ----------------------------------------------------------------------
# quasi-stationary distribution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QsdResult:
    """Left Perron data of the interior restriction.

    ``weights`` is the normalized quasi-stationary distribution over the
    interior states ``states``, ``eigenvalue`` the per-step survival
    factor, and ``leak_residual`` the defect in the identity
    ``1 - eigenvalue = sum_x weights(x) * P(x, leave)``.
    """

    weights: np.ndarray
    states: np.ndarray
    eigenvalue: float
    iterations: int
    leak_residual: float


class InteriorKernel:
    """The kernel restricted to the interior states (every type present),
    as an operator: ``apply(mu)`` is ``mu @ Q`` for the (T, T) interior
    block Q, which is never built.

    Entry Q[i, s] is C(s) prod_k p_ik^s_k / Z_i, with C(s) = N!/prod_k s_k!,
    p_i = ``sampling_probs`` at interior state i, and Z_i the row's sum over
    all S destinations.  With the reference type r = argmax_k p_ik,
    prod_k p_ik^s_k = p_ir^N prod_{k != r} rho_ik^s_k, rho_ik = p_ik/p_ir <= 1,
    so a row is one power table per non-reference type.  Rows are grouped
    into bands: one reference type, and N log p_ir within ``BAND_LOG``.  A
    band's tables hold (rho_ik/rhobar_k)^a (rhobar_k is the band's largest
    rho_ik), and its destination factor C(s) pbar^N prod_k rhobar_k^s_k
    (pbar is the band's largest p_ir) is taken from log space at every
    interior s; the row factor (p_ir/pbar)^N cancels in the row's
    normaliser.  So every factor stays in float range, also at M=2 with N
    in the thousands, where p_ir^N and C(s) do not.

    A band keeps, for a in [1, N-M+1] (an interior coordinate's range), the
    row-wise Khatri-Rao product of its first M-2 tables over the distinct
    first M-2 coordinates (prefixes) of the interior states (the first
    table itself at M=3, nothing at M=2), and its last table divided by
    Z_i.  ``mu @ Q`` is then one matrix product per band, read at the
    interior states: a vector-matrix product at M=2, an (N-2, rows, N-2)
    product at M=3, of which the prefixes in the second half need only the
    first half of the columns.  Z_i, the float sum of the row's factored
    entries over every destination, is taken once by Horner's scheme; it
    cancels the rounding the factors share, so a row sums to 1 in this
    form.  An interior row is all positive when every p_ik > 0 and all
    zero otherwise, so ``pieces``, the count of strongly connected pieces,
    is read off the rows.  The kept arrays, T (U + N-M+1) float64 for U
    distinct prefixes (U = 0 at M=2), are refused past ``BLOCK_BYTE_CAP``
    before anything is allocated.
    """

    def __init__(self, chain: ExactChain):
        idx = chain.interior_indices()
        states, n = chain.states, chain.n
        m = states.shape[1]
        if m < 2:
            raise PreconditionError("the interior kernel needs at least two types")
        width = n - m + 1
        # U = C(W+M-3, M-2) interior prefixes: M-2 kept columns summing to < W
        shape = (idx.size, (math.comb(width + m - 3, m - 2) if m > 2 else 0) + width)
        if shape[0] * shape[1] * 8 > BLOCK_BYTE_CAP:
            raise ResourceLimitExceeded(
                f"interior power tables {shape} would take {shape[0] * shape[1] * 8} "
                f"bytes (cap {BLOCK_BYTE_CAP}); reduce N or M"
            )
        self.size = idx.size
        interior = states[idx]
        p = sampling_probs(chain.rule, interior / n)
        positive = (p > 0).all(axis=1)
        self.pieces = 1 if positive.all() else int((~positive).sum()) + int(positive.any())
        log_count = log_multinomial(states, n)
        ref = p.argmax(axis=1)
        p_ref = p[np.arange(idx.size), ref]
        band = np.floor(n * np.log(p_ref) / BAND_LOG).astype(np.int64)
        self._bands = []
        for r in np.flatnonzero(np.bincount(ref, minlength=m)):
            others = [k for k in range(m) if k != r]
            # interior destinations in kept columns (a - 1), prefixes ascending
            # by sum, so the second half needs only the last columns its
            # destinations reach; every destination in full columns (a)
            inner = interior[:, others] - 1
            cols, count, at = _prefixes(inner[:, :-1])
            half = (count + 1) // 2
            need = int(inner[at >= half, -1].max(initial=-1)) + 1
            at = at * width + inner[:, -1]
            full_count, full_at, levels = _horner_levels(states[:, others[:-1]])
            full_at = full_at * (n + 1) + states[:, others[-1]]
            for b in np.flatnonzero(np.bincount(-band[ref == r])):
                rows = np.flatnonzero((ref == r) & (band == -b))
                ratio = p[rows][:, others] / p_ref[rows, None]
                top = ratio.max(axis=0)
                log_x = _log0(np.divide(ratio, top, out=np.zeros_like(ratio),
                                        where=top > 0))
                factor = np.exp(log_count + n * math.log(p_ref[rows].max())
                                + states[:, others] @ _log0(top))
                grid = np.zeros((full_count, n + 1))
                np.put(grid, full_at, factor)
                head = np.empty((rows.size, count)) if m > 2 else None
                last = np.empty((rows.size, width))
                step = _chunk_rows(max(full_count, (m - 1) * (n + 1)))
                for lo in range(0, rows.size, step):
                    full = log_x[lo: lo + step, :, None] * np.arange(n + 1)
                    tables = np.exp(full, out=full).transpose(1, 0, 2)
                    # the normalisers: the last table against the grid, then one
                    # coordinate of the prefixes at a time (Horner's scheme)
                    z = tables[-1] @ grid.T
                    for table, (col, starts) in zip(tables[-2::-1], levels):
                        z = np.add.reduceat(z * table[:, col], starts, axis=1)
                    kept = tables[:, :, 1: width + 1]
                    np.divide(kept[-1], z, out=last[lo: lo + step])
                    if head is not None:
                        head[lo: lo + step] = _khatri_rao(kept[:-1], cols)
                self._bands.append((rows, head, last, half, need, at, factor[idx],
                                    _chunk_rows(width)))

    def apply(self, mu: np.ndarray) -> np.ndarray:
        """``mu @ Q`` for a (T,) row vector ``mu``."""
        out = np.zeros(self.size)
        for rows, head, last, half, need, at, factor, step in self._bands:
            acc = np.zeros((1 if head is None else head.shape[1], last.shape[1]))
            for lo in range(0, rows.size, step):
                w = mu[rows[lo: lo + step]]
                if head is None:                   # M=2: one empty prefix
                    left, right = w[:, None], last[lo: lo + step]
                else:
                    left, right = head[lo: lo + step], w[:, None] * last[lo: lo + step]
                acc[:half] += left[:, :half].T @ right
                acc[half:, :need] += left[:, half:].T @ right[:, :need]
            out += factor * np.take(acc, at)
        return out


def _chunk_rows(width: int) -> int:
    """Rows of a (rows, width) float64 chunk within ``TABLE_CHUNK_BYTES``."""
    return max(1, TABLE_CHUNK_BYTES // (8 * width))


def _prefixes(coords: np.ndarray) -> tuple[list, int, np.ndarray]:
    """The distinct rows of (K, M-2) table columns ``coords``, ascending by
    their sum, as one column array per table, their count U, and each
    row's index among them."""
    prefixes, at = _distinct_rows(coords)
    order = np.argsort(prefixes.sum(axis=1), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return list(prefixes[order].T), len(prefixes), rank[at]


def _horner_levels(coords: np.ndarray) -> tuple[int, np.ndarray, list]:
    """The distinct rows of (K, J) table columns ``coords`` in lexicographic
    order: their count U, each row's index among them, and per prefix
    length L = J, ..., 1 the last column of each distinct length-L prefix
    and where each group sharing its first L-1 columns starts."""
    prefixes, at = _distinct_rows(coords)
    count, levels = len(prefixes), []
    for length in range(coords.shape[1], 0, -1):
        shorter = prefixes[:, :length - 1]
        starts = np.flatnonzero(np.r_[True, (shorter[1:] != shorter[:-1]).any(axis=1)])
        levels.append((prefixes[:, length - 1], starts))
        prefixes = shorter[starts]
    return count, at, levels


def _distinct_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (K, J) integer or boolean array in
    lexicographic order, as ``np.unique(coords, axis=0)`` gives them (one
    empty row when J = 0), and each row's index among them.  Sorted by
    ``np.lexsort`` over the columns, so any J and any values are safe;
    ``np.unique`` imports ``numpy.ma``, 1.6 MiB of resident memory."""
    # lexsort's last key leads; the zero key of lowest priority makes J = 0 one row
    order = np.lexsort((np.zeros(len(coords), dtype=np.int8), *coords.T[::-1]))
    ranked = coords[order]
    fresh = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    at = np.empty_like(order)
    at[order] = np.cumsum(fresh) - 1
    return ranked[fresh], at


def _khatri_rao(tables: np.ndarray, cols: list) -> np.ndarray:
    """(R, U) row-wise products prod_j tables[j, i, cols[j][u]] of (J, R, W)
    ``tables``, J >= 1, at U column selections."""
    out = tables[0][:, cols[0]]
    for table, col in zip(tables[1:], cols[1:]):
        out = out * table[:, col]
    return out


@cache
def _openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of the OpenBLAS numpy calls, or
    None when numpy's BLAS is not OpenBLAS (MKL, Accelerate).  They are
    looked up with dlsym through numpy's own linear-algebra extension, which
    links the BLAS numpy loaded."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for get_name, set_name in BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


#: Held while a block runs on one OpenBLAS thread: the count is
#: process-wide, so blocks on several Python threads run one at a time, and
#: each restores the count it found.
_ONE_BLAS_THREAD = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's
    count (also when the block raises); does nothing without OpenBLAS.
    Under ``wf`` the pool is already one thread (``wfsim.cli`` sets
    ``OPENBLAS_NUM_THREADS`` before numpy loads); the pin is for library
    callers whose numpy started a pool."""
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _ONE_BLAS_THREAD:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


@_one_blas_thread()
def interior_qsd(chain: ExactChain, tol: float = 1e-12) -> QsdResult:
    """Quasi-stationary distribution of the chain restricted to the strictly
    interior compositions (every type present): the left Perron vector of
    ``InteriorKernel`` (no (T, T) block is built) by power iteration with
    L1 renormalization, stopped when an L1 step falls below ``tol``; gives
    up after ``QSD_MAX_ITER`` steps.

    The interior must be one strongly connected piece, so the law is unique
    and strictly positive.  The leak residual takes the mass that leaves in
    one step from the final weights, ``sum(weights) - sum(weights @ Q)``.

    Every BLAS product (the kernel's construction, the power loop, the leak
    step) runs on one OpenBLAS thread, whatever the caller's count, which is
    restored on return: the result does not depend on the core count, and a
    product never waits on a pool thread that another process has descheduled.
    Under ``wf`` numpy already loads with one OpenBLAS thread; the pin keeps
    the bits for library callers on OpenBLAS's default pool.
    """
    idx = chain.interior_indices()
    if idx.size == 0:
        raise PreconditionError(
            f"no interior compositions at N={chain.n} with M={chain.states.shape[1]}"
        )
    kernel = InteriorKernel(chain)
    if kernel.pieces > 1:
        raise ReducibleInterior(
            f"restriction splits into {kernel.pieces} strongly connected pieces; "
            "the quasi-stationary law is not unique"
        )
    mu = np.full(idx.size, 1.0 / idx.size)
    for its in range(1, QSD_MAX_ITER + 1):
        nxt = kernel.apply(mu)
        lam = float(nxt.sum())
        if lam <= 0:
            raise PreconditionError("restriction annihilates the iterate")
        nxt /= lam
        delta = float(np.abs(nxt - mu).sum())
        mu = nxt
        if delta < tol:
            break
    else:
        raise PreconditionError(
            f"power iteration did not converge in {QSD_MAX_ITER} iterations"
        )
    residual = abs((1.0 - lam) - (float(mu.sum()) - float(kernel.apply(mu).sum())))
    return QsdResult(weights=mu, states=chain.states[idx],
                     eigenvalue=lam, iterations=its, leak_residual=residual)


# ----------------------------------------------------------------------
# exact one-step drift
# ----------------------------------------------------------------------

def quadratic_form_drift(rule: UpdateRule, n: int) -> tuple[float, float]:
    """Exhaustive conditional drift of the average-score function x'Ax,
    with A the payoff matrix of the payoff-driven ``rule``.

    Requires a rule without mutation and a symmetric, invertible,
    positive-entry matrix whose quadratic form is positive definite on
    sum-zero vectors; under that hypothesis the expected one-step change of
    x'Ax is non-negative everywhere and strictly positive off the vertices.
    Returns ``(min drift over all states, min drift over non-vertex states)``.

    The next frequencies are a multinomial draw of size n with law
    p = ``sampling_probs`` at x, so E[x'_next A x_next] = p'Ap +
    (sum_i a_ii p_i - p'Ap)/n, and the drift at every ``lattice_counts``
    state is the selection term p'Ap - x'Ax plus that noise term: no
    chain is built.
    """
    from .meanfield import is_positive_definite_on_sum_zero
    if rule.mutation is not None:
        raise PreconditionError("drift oracle needs a rule without mutation")
    payoff = rule.fitness.payoff
    if not (payoff.is_symmetric and payoff.is_invertible
            and payoff.has_positive_entries):
        raise PreconditionError(
            "drift oracle needs a symmetric invertible positive-entry matrix"
        )
    if not is_positive_definite_on_sum_zero(payoff):
        raise PreconditionError(
            "drift oracle needs the form to be positive definite on sum-zero vectors"
        )
    states = lattice_counts(rule.m, n)
    x = states / n
    p = sampling_probs(rule, x)
    a = payoff.entries
    pap = np.einsum("ij,jk,ik->i", p, a, p)
    drift = (pap - np.einsum("ij,jk,ik->i", x, a, x)) + (p @ np.diag(a) - pap) / n
    off_vertex = drift[~(states == n).any(axis=1)]
    # at n = 1 every lattice state is a vertex: the off-vertex clause is vacuous
    off_min = float(off_vertex.min()) if off_vertex.size else float("inf")
    return float(drift.min()), off_min
