"""Finite-population resampling chain.

One generation draws the next composition from a multinomial whose cell
probabilities are the expected-update image of the current composition.
This module provides trajectory sampling, fully enumerated transition
matrices for small populations (with a state cap and a byte cap on each
kernel block), structural classification of states (recurrent classes
and their periods, transient), face-closure checks for recurrent
classes, quasi-stationary distributions of the interior restriction,
and the exact one-step drift of a batch function at every state (the
check of the maximization principle).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
    WfsimError,
)
from .fitness import UpdateRule, sampling_probs
from .meanfield import is_positive_definite_on_sum_zero
from .simplex import LatticePoint, SupportSet, lattice_counts


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

#: Bytes a kernel block (rows x cols float64) may take; a larger one is
#: refused before anything is allocated.
BLOCK_BYTE_CAP = 80_000_000


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
    Laws ``sampling_probs(rule, counts / n)`` are memoised per state.  The
    first miss (the start, unless it stops) computes its state alone, so a
    short path pays for no box.  Every later miss at counts c computes, in
    one batched call, the law of every lattice state c + d not yet
    memoised (``_box_offsets``, clipped to counts >= 0) and keeps them
    all; a batch row has the bits of the profile call, so the path is that
    of a per-state loop.  If that call raises a ``WfsimError`` (the box
    reached a state where the map is undefined), or once the memo holds
    ``LAW_MEMO`` states, the miss computes c alone, so the path raises
    exactly where a per-state loop would.  ``rule`` must therefore be a
    pure function of the profile: every ``make_rule`` rule is.  Without
    ``stop`` every row is written, so the path is allocated at once; with
    ``stop`` it grows geometrically, so a run that stops early costs only
    the rows it reached.
    """
    n, laws = x0.n, {}                 # counts.tobytes() -> law
    offsets = _box_offsets(x0.m)
    rows = steps + 1 if stop is None else min(steps + 1, 1024)
    path = np.empty((rows, x0.m), dtype=np.int64)
    path[0] = counts = x0.counts
    for k in range(steps):
        if stop is not None and stop(counts):
            return path[: k + 1]
        law = laws.get(counts.tobytes())
        if law is None:
            law = _memo_miss(rule, counts, n, offsets, laws)
        if k + 1 == len(path):
            grown = np.empty((min(2 * len(path), steps + 1), x0.m), dtype=np.int64)
            grown[: k + 1] = path
            path = grown
        path[k + 1] = counts = rng.multinomial(n, law)
    return path


def _memo_miss(rule: UpdateRule, counts: np.ndarray, n: int,
               offsets: np.ndarray, laws: dict) -> np.ndarray:
    """The law at ``counts``, after memoising the laws of its box in
    ``laws`` (only ``counts`` when the memo is empty or full, or the box
    raises)."""
    if 0 < len(laws) < LAW_MEMO:
        box = counts + offsets
        box = box[box.min(axis=1) >= 0]
        keys = [row.tobytes() for row in box]
        fresh = [i for i, key in enumerate(keys) if key not in laws]
        try:
            probs = sampling_probs(rule, box[fresh] / n)
        except WfsimError:
            pass
        else:
            laws.update(zip([keys[i] for i in fresh], probs))
            return laws[counts.tobytes()]
    law = sampling_probs(rule, counts / n)
    if len(laws) < LAW_MEMO:
        laws[counts.tobytes()] = law
    return law


# ----------------------------------------------------------------------
# exact chains
# ----------------------------------------------------------------------

@dataclass
class ExactChain:
    """Fully enumerated transition matrix over all compositions of size N.

    States are ordered ascending-lexicographically by their count vectors;
    ``matrix[i, j]`` is the probability of moving from state i to state j
    in one generation.  ``matrix`` is ``kernel_block`` on every row and
    column, assembled when first read, and kept; so is the structural
    classification (``scc_labels``, ``recurrent_classes``, ``periods``,
    ``transient``), computed by ``classify_states(matrix > 0)``.
    ``scc_labels`` numbers the strongly connected components (like
    ``recurrent_classes``) ascending by smallest member, not scipy's
    component ids.
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
        return classify_states(self.matrix > 0)

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


def kernel_block(chain: ExactChain, rows: np.ndarray,
                 cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Transition probabilities from the states ``rows`` to the states
    ``cols`` (index arrays; None for every state, in order, without a
    column copy), assembled ``KERNEL_BLOCK`` rows at a time.  Refuses,
    before allocating, a block of more than ``BLOCK_BYTE_CAP`` bytes.

    Row i is the multinomial law of sampling_probs at state i, normalised
    over all S destinations j before the columns are kept:
    log N! - sum_k log s_jk! + sum_k s_jk log p_ik.  A finite stand-in for
    log 0 keeps 0 * log 0 at 0 and sends every s_jk > 0 entry to exactly 0.
    """
    states, n = chain.states, chain.n
    shape = (rows.size, len(states) if cols is None else cols.size)
    if shape[0] * shape[1] * 8 > BLOCK_BYTE_CAP:
        raise ResourceLimitExceeded(
            f"kernel block {shape} would take {shape[0] * shape[1] * 8} bytes "
            f"(cap {BLOCK_BYTE_CAP}); reduce N or M"
        )
    dest = states.T.astype(np.float64)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_count = log_factorial[n] - log_factorial[states].sum(axis=1)
    out = np.empty(shape)
    for lo in range(0, rows.size, KERNEL_BLOCK):
        p = sampling_probs(chain.rule, states[rows[lo: lo + KERNEL_BLOCK]] / n)
        law = np.log(p, out=np.full_like(p, -1e300), where=p > 0) @ dest
        law += log_count
        np.exp(law, out=law)
        total = law.sum(axis=1, keepdims=True)
        if cols is None:
            np.divide(law, total, out=out[lo: lo + KERNEL_BLOCK])
        else:
            block = np.take(law, cols, axis=1, out=out[lo: lo + KERNEL_BLOCK])
            block /= total
    return out


def classify_states(positive: np.ndarray) -> tuple[np.ndarray, list, list, np.ndarray]:
    """SCC labels of the digraph with boolean adjacency ``positive`` (S, S),
    its sink classes with their periods, and its transient states.

    Runs on a hub graph: the S states plus one hub per distinct row, with
    edges i -> hub(row i) -> every j in that row (none for an empty row),
    so S + nnz(distinct rows) edges.  Reachability between states is that
    of ``positive``, and every cycle doubles, so periods are halved.
    """
    from scipy.sparse import csgraph, csr_matrix

    s = positive.shape[0]
    packed = np.packbits(positive, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, hub = np.unique(keys, return_index=True, return_inverse=True)
    patterns, live = positive[first], positive.any(axis=1)
    indices = np.concatenate([s + hub[live], np.nonzero(patterns)[1]])
    indptr = np.cumsum(np.concatenate([[0], live, patterns.sum(axis=1)]))
    size = s + first.size
    graph = csr_matrix((np.ones(indices.size), indices, indptr), shape=(size, size))
    n_comp, node_labels = csgraph.connected_components(graph, connection="strong")
    src = node_labels[np.repeat(np.arange(size), np.diff(indptr))]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[src[src != node_labels[indices]]] = True
    _, smallest, comp = np.unique(node_labels[:s], return_index=True, return_inverse=True)
    _, labels = np.unique(smallest[comp], return_inverse=True)   # ascending by smallest member
    sink = ~has_exit[node_labels[:s]]

    def period(node_label: int) -> int:
        # breadth-first levels; the gcd of level[u] + 1 - level[v] over internal edges
        nodes = np.flatnonzero(node_labels == node_label)
        sub = graph[nodes][:, nodes]
        level = csgraph.shortest_path(sub, unweighted=True, indices=0).astype(np.int64)
        rows, cols = sub.nonzero()
        return int(np.gcd.reduce(level[rows] + 1 - level[cols])) // 2 or 1

    classes = [np.flatnonzero(labels == cid) for cid in np.unique(labels[sink])]
    periods = [period(node_labels[members[0]]) for members in classes]
    return labels, classes, periods, np.flatnonzero(~sink)


def _reached_from_zero(step: Callable[[np.ndarray], np.ndarray], s: int) -> np.ndarray:
    """States reached from state 0 of S, one breadth-first level at a time:
    ``step(frontier)`` is the (S,) mask one edge away from a frontier mask."""
    seen = np.zeros(s, dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = step(frontier) & ~seen
    return seen


def is_irreducible(weights: np.ndarray) -> bool:
    """Whether the digraph with an edge i -> j where ``weights[i, j] > 0``
    ((S, S), S >= 1, non-negative or boolean) is one strongly connected
    component: state 0 reaches every state, and every state reaches state
    0.  Each level is one vector-matrix product, so no (S, S) mask is made."""
    s = weights.shape[0]
    return bool(_reached_from_zero(lambda f: f @ weights > 0, s).all()
                and _reached_from_zero(lambda f: weights @ f > 0, s).all())


def recurrent_class_faces(chain: ExactChain,
                          class_index: int) -> tuple[list[SupportSet], bool]:
    """Maximal supports appearing in a recurrent class, plus whether the
    class is exactly the union of the full compositions on those supports
    (every composition whose support fits inside a maximal support)."""
    members = chain.recurrent_classes[class_index]
    support = chain.states > 0                                  # (S, M)
    supports = np.unique(support[members], axis=0)              # (K, M)
    inside = (supports[:, None] <= supports[None]).all(axis=-1)  # [a, b]: a within b
    maximal = supports[inside.sum(axis=1) == 1]                 # within only itself
    fits = (support[:, None] <= maximal[None]).all(axis=-1).any(axis=1)
    is_union = np.array_equal(np.flatnonzero(fits), np.sort(members))
    labels = [SupportSet.from_mask(row) for row in maximal]
    labels.sort(key=lambda s: sorted(s.labels))
    return labels, is_union


# ----------------------------------------------------------------------
# quasi-stationary distribution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QsdResult:
    """Left Perron data of a substochastic restriction.

    ``weights`` is the normalized quasi-stationary distribution over the
    kept states, ``eigenvalue`` the per-step survival factor, and
    ``leak_residual`` the defect in the identity
    ``1 - eigenvalue = sum_x weights(x) * P(x, leave)``.
    """

    weights: np.ndarray
    states: np.ndarray
    eigenvalue: float
    iterations: int
    leak_residual: float


def qsd_power_iteration(sub_matrix: np.ndarray,
                        states: Optional[np.ndarray] = None,
                        tol: float = 1e-12) -> QsdResult:
    """Left Perron vector of a substochastic matrix by power iteration
    with L1 renormalization, stopped when an L1 step falls below ``tol``;
    gives up after ``QSD_MAX_ITER`` steps.

    The restriction must be irreducible (one strongly connected component)
    so the quasi-stationary distribution is unique and strictly positive.
    """
    sub = np.asarray(sub_matrix, dtype=np.float64)
    if sub.ndim != 2 or sub.shape[0] != sub.shape[1]:
        raise DimensionMismatch("restriction matrix must be square")
    s = sub.shape[0]
    if s == 0:
        raise PreconditionError("empty restriction has no quasi-stationary law")
    if not (sub.min() >= 0 and np.isfinite(sub.max())):
        raise PreconditionError("restriction entries must be finite and non-negative")
    if not is_irreducible(sub):
        n_comp = int(classify_states(sub > 0)[0].max()) + 1
        raise ReducibleInterior(
            f"restriction splits into {n_comp} strongly connected pieces; "
            "the quasi-stationary law is not unique"
        )
    mu = np.full(s, 1.0 / s)
    lam = 0.0
    its = 0
    for its in range(1, QSD_MAX_ITER + 1):
        nxt = mu @ sub
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
    leak = 1.0 - sub.sum(axis=1)
    residual = abs((1.0 - lam) - float(mu @ leak))
    if states is None:
        states = np.arange(s)
    return QsdResult(weights=mu, states=np.asarray(states),
                     eigenvalue=lam, iterations=its, leak_residual=residual)


def interior_qsd(chain: ExactChain, tol: float = 1e-12) -> QsdResult:
    """Quasi-stationary distribution of the chain restricted to the strictly
    interior compositions (every type present): only that block is built."""
    idx = chain.interior_indices()
    if idx.size == 0:
        raise PreconditionError(
            f"no interior compositions at N={chain.n} with M={chain.states.shape[1]}"
        )
    return qsd_power_iteration(kernel_block(chain, idx, idx),
                               states=chain.states[idx], tol=tol)


# ----------------------------------------------------------------------
# exact one-step drift
# ----------------------------------------------------------------------

def one_step_drift(chain: ExactChain,
                   h: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Exact one-step drift ``E[h(next) | x] - h(x)`` at every state of an
    exact chain, as an (S,) array aligned with ``chain.states``.  ``h``
    maps a batch of frequency profiles ``(S, M)`` to ``(S,)``."""
    hv = np.asarray(h(chain.states / chain.n))
    if hv.shape != (chain.n_states,):
        raise DimensionMismatch(
            f"function on a batch of {chain.n_states} states returned shape "
            f"{hv.shape}, expected ({chain.n_states},)"
        )
    return chain.matrix @ hv - hv


def quadratic_form_drift(rule: UpdateRule, n: int) -> tuple[float, float]:
    """Exhaustive conditional drift of the average-score function x'Ax,
    with A the payoff matrix of the payoff-driven ``rule``.

    Requires a symmetric, invertible, positive-entry matrix whose
    quadratic form is positive definite on sum-zero vectors; under that
    hypothesis the expected one-step change of x'Ax is non-negative
    everywhere and strictly positive off the vertices.  Returns
    ``(min drift over all states, min drift over non-vertex states)``
    computed exactly from the enumerated transition matrix.
    """
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
    chain = build_exact_chain(rule, n)
    entries = payoff.entries
    drift = one_step_drift(chain, lambda f: np.einsum("ij,jk,ik->i", f, entries, f))
    off_vertex = drift[~(chain.states == n).any(axis=1)]
    # at n = 1 every lattice state is a vertex: the off-vertex clause is vacuous
    off_min = float(off_vertex.min()) if off_vertex.size else float("inf")
    return float(drift.min()), off_min
