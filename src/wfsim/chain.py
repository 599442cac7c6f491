"""Finite-population resampling chain.

One generation draws the next composition from a multinomial whose cell
probabilities are the expected-update image of the current composition.
This module provides trajectory sampling, fully enumerated transition
matrices for small populations (with state/entry caps), structural
classification of states (absorbing, recurrent classes and their periods,
transient), face-closure checks for recurrent classes, quasi-stationary
distributions of the interior restriction, and an exhaustive drift check
for scalar functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import gammaln

from .errors import (
    DimensionMismatch,
    DomainError,
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
)
from .fitness import UpdateRule, sampling_probs
from .simplex import (
    PAIR_CAP,
    LatticePoint,
    SupportSet,
    lattice_counts,
    lattice_size,
    state_cap,
)


def sample_path(rule: UpdateRule, x0: LatticePoint, steps: int,
                rng: np.random.Generator,
                stop: Optional[Callable[[np.ndarray], bool]] = None) -> np.ndarray:
    """Sample a trajectory of counts, optionally stopping early.

    Returns an integer array of shape (k+1, M) where k <= steps; the last
    row is the first state satisfying ``stop`` if that happens earlier.
    """
    n = x0.n
    path = np.empty((steps + 1, x0.m), dtype=np.int64)
    path[0] = x0.counts
    counts = x0.counts
    for k in range(1, steps + 1):
        counts = rng.multinomial(n, sampling_probs(rule, counts / n))
        path[k] = counts
        if stop is not None and stop(counts):
            return path[: k + 1]
    return path


def absorbing_types(rule: UpdateRule, tol: float = 1e-12) -> list[int]:
    """1-based labels of types whose pure composition is a fixed point of
    the update map."""
    out = []
    for j in range(rule.m):
        e = np.zeros(rule.m)
        e[j] = 1.0
        if float(np.max(np.abs(rule.update_probs(e) - e))) <= tol:
            out.append(j + 1)
    return out


# ----------------------------------------------------------------------
# exact chains
# ----------------------------------------------------------------------

@dataclass
class ExactChain:
    """Fully enumerated transition matrix over all compositions of size N.

    States are ordered ascending-lexicographically by their count vectors;
    ``matrix[i, j]`` is the probability of moving from state i to state j
    in one generation.
    """

    rule: UpdateRule
    n: int
    states: np.ndarray                 # (S, M) int64
    matrix: np.ndarray                 # (S, S) float64, row-stochastic
    scc_labels: np.ndarray             # (S,) strongly-connected component ids
    recurrent_classes: list[np.ndarray]  # state indices, one array per class
    periods: list[int]                 # aligned with recurrent_classes
    transient: np.ndarray              # state indices
    _index: dict = None                # counts -> index, built on first lookup

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def state_index(self, counts) -> int:
        if self._index is None:
            self._index = {tuple(row): i for i, row in enumerate(self.states.tolist())}
        key = tuple(int(c) for c in np.asarray(counts).ravel())
        try:
            return self._index[key]
        except KeyError:
            raise DomainError(f"{key} is not a composition of size {self.n}") from None

    def lattice_point(self, i: int) -> LatticePoint:
        return LatticePoint(self.states[i], self.n)

    @property
    def absorbing(self) -> np.ndarray:
        """Indices of singleton recurrent classes with a self-loop of mass 1."""
        out = [cls[0] for cls in self.recurrent_classes
               if cls.size == 1 and self.matrix[cls[0], cls[0]] >= 1.0 - 1e-12]
        return np.array(sorted(out), dtype=np.int64)

    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(np.all(self.states > 0, axis=1))


def _scc_period(adj: sp.csr_matrix, members: np.ndarray) -> int:
    """Period of one strongly connected class via breadth-first levels:
    the gcd of level[u] + 1 - level[v] over internal edges (u, v)."""
    sub = adj[members][:, members].tocsr()
    level = shortest_path(sub, unweighted=True, indices=0).astype(np.int64)
    rows, cols = sub.nonzero()
    return int(np.gcd.reduce(level[rows] + 1 - level[cols])) or 1


def build_exact_chain(rule: UpdateRule, n: int) -> ExactChain:
    """Enumerate every composition of size ``n`` and assemble the dense
    transition matrix, then sort its states into recurrent classes and
    transient states.

    Refuses (rather than subsampling) when the state count exceeds the
    state cap or the matrix would exceed the entry cap.
    """
    m = rule.m
    size = lattice_size(m, n)
    # the entry cap binds first (at 3,163 states): raising the state cap
    # cannot help past it
    if size * size > PAIR_CAP:
        raise ResourceLimitExceeded(
            f"dense matrix would have {size * size} entries "
            f"(cap {PAIR_CAP}); reduce N or M"
        )
    cap = state_cap()
    if size > cap:
        raise ResourceLimitExceeded(
            f"{size} states exceeds the cap of {cap}; "
            f"set WF_MAX_STATES to raise it deliberately"
        )
    states = lattice_counts(m, n)
    # row i is the multinomial law of sampling_probs at state i:
    # log N! - sum_k log s_jk! + sum_k s_jk log p_ik over destinations j.
    # A finite stand-in for log 0 keeps 0 * log 0 at 0 (factor 1 where
    # s_jk = 0) and still sends every s_jk > 0 entry to exactly 0.
    p = sampling_probs(rule, states / n)
    logp = np.log(p, out=np.full_like(p, -1e300), where=p > 0)
    matrix = logp @ states.T.astype(np.float64)
    matrix += gammaln(n + 1.0) - gammaln(states + 1.0).sum(axis=1)
    np.exp(matrix, out=matrix)
    matrix /= matrix.sum(axis=1, keepdims=True)

    adj = sp.csr_matrix(matrix > 0)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    rows, cols = adj.nonzero()
    cross = labels[rows] != labels[cols]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[rows[cross]]] = True
    recurrent_classes = [np.flatnonzero(labels == cid)
                         for cid in np.flatnonzero(~has_exit)]
    periods = [_scc_period(adj, members) for members in recurrent_classes]
    transient = np.flatnonzero(has_exit[labels])

    return ExactChain(rule=rule, n=n, states=states, matrix=matrix,
                      scc_labels=labels, recurrent_classes=recurrent_classes,
                      periods=periods, transient=transient)


def recurrent_class_faces(chain: ExactChain,
                          class_index: int) -> tuple[list[SupportSet], bool]:
    """Maximal supports appearing in a recurrent class, plus whether the
    class is exactly the union of the full compositions on those supports
    (every composition whose support fits inside a maximal support)."""
    members = chain.recurrent_classes[class_index]
    supports = {frozenset(np.flatnonzero(chain.states[i] > 0).tolist())
                for i in members}
    maximal = [s for s in supports
               if not any(s < other for other in supports)]
    member_set = set(members.tolist())
    predicted = set()
    for i in range(chain.n_states):
        supp = frozenset(np.flatnonzero(chain.states[i] > 0).tolist())
        if any(supp <= mx for mx in maximal):
            predicted.add(i)
    is_union = predicted == member_set
    labels = [SupportSet(frozenset(j + 1 for j in s)) for s in maximal]
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
                        tol: float = 1e-12,
                        max_iter: int = 200_000) -> QsdResult:
    """Left Perron vector of a substochastic matrix by power iteration
    with L1 renormalization.

    The restriction must be irreducible (one strongly connected component)
    so the quasi-stationary distribution is unique and strictly positive.
    """
    sub = np.asarray(sub_matrix, dtype=np.float64)
    if sub.ndim != 2 or sub.shape[0] != sub.shape[1]:
        raise DimensionMismatch("restriction matrix must be square")
    s = sub.shape[0]
    if s == 0:
        raise PreconditionError("empty restriction has no quasi-stationary law")
    n_comp, _ = connected_components(sp.csr_matrix(sub > 0), directed=True,
                                     connection="strong")
    if n_comp != 1:
        raise ReducibleInterior(
            f"restriction splits into {n_comp} strongly connected pieces; "
            "the quasi-stationary law is not unique"
        )
    mu = np.full(s, 1.0 / s)
    lam = 0.0
    its = 0
    for its in range(1, max_iter + 1):
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
            f"power iteration did not converge in {max_iter} iterations"
        )
    leak = 1.0 - sub.sum(axis=1)
    residual = abs((1.0 - lam) - float(mu @ leak))
    if states is None:
        states = np.arange(s)
    return QsdResult(weights=mu, states=np.asarray(states),
                     eigenvalue=lam, iterations=its, leak_residual=residual)


def interior_qsd(chain: ExactChain, tol: float = 1e-12) -> QsdResult:
    """Quasi-stationary distribution of the chain restricted to the
    strictly interior compositions (every type present)."""
    idx = chain.interior_indices()
    if idx.size == 0:
        raise PreconditionError(
            f"no interior compositions at N={chain.n} with M={chain.states.shape[1]}"
        )
    sub = chain.matrix[np.ix_(idx, idx)]
    return qsd_power_iteration(sub, states=chain.states[idx], tol=tol)


# ----------------------------------------------------------------------
# exhaustive drift check
# ----------------------------------------------------------------------

@dataclass
class DriftReport:
    n_states: int
    min_drift: float
    violations: list[tuple[np.ndarray, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_submartingale(chain: ExactChain, h: Callable[[np.ndarray], float],
                         tol: float = 1e-10) -> DriftReport:
    """Check ``E[h(next) | x] >= h(x) - tol`` at every state of an exact
    chain, reporting all violations."""
    freqs = chain.states / chain.n
    hv = np.array([float(h(f)) for f in freqs])
    drift = chain.matrix @ hv - hv
    violations = [(chain.states[i].copy(), float(drift[i]))
                  for i in np.flatnonzero(drift < -tol)]
    return DriftReport(n_states=chain.n_states,
                       min_drift=float(drift.min()),
                       violations=violations)


def quadratic_form_drift(rule: UpdateRule, a, n: int) -> tuple[float, float]:
    """Exhaustive conditional drift of the average-score function x'Ax.

    Requires a symmetric, invertible, positive-entry matrix whose
    quadratic form is positive definite on sum-zero vectors; under that
    hypothesis the expected one-step change of x'Ax is non-negative
    everywhere and strictly positive off the vertices.  Returns
    ``(min drift over all states, min drift over non-vertex states)``
    computed exactly from the enumerated transition matrix.
    """
    from .fitness import PayoffMatrix
    from .meanfield import is_positive_definite_on_sum_zero

    payoff = a if isinstance(a, PayoffMatrix) else PayoffMatrix(a)
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
    freqs = chain.states / n
    hv = np.einsum("ij,jk,ik->i", freqs, entries, freqs)
    drift = chain.matrix @ hv - hv
    vertex = (chain.states == n).any(axis=1)
    off_vertex = drift[~vertex]
    # at n = 1 every lattice state is a vertex: the off-vertex clause is vacuous
    off_min = float(off_vertex.min()) if off_vertex.size else float("inf")
    return float(drift.min()), off_min
