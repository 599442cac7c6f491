"""Deterministic skeleton of the population process.

The infinite-population dynamics iterate the expected-update map.  This
module computes orbits, interior equilibria of partnership payoff
matrices, the spectral radius on the sum-zero subspace of the update
map's derivative there, diagnostic checks of the stability hypotheses
(symmetry, definiteness on sum-zero directions, permanence), and random
test matrices that meet or break them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateFitness,
    NoInteriorEquilibrium,
    NumericRangeError,
    PreconditionError,
)
from .fitness import PayoffMatrix, UpdateRule
from .simplex import lattice_counts

#: Permanence: interior candidates lie on the barycentric grid of resolution
#: CANDIDATE_RESOLUTION, singular faces are scanned on that of FACE_RESOLUTION,
#: and the update map moves a boundary fixed point less than the residual.
CANDIDATE_RESOLUTION = 12
FACE_RESOLUTION = 40
FIXED_POINT_RESIDUAL = 1e-8

#: Draws a random test-matrix sampler makes before giving up.
SAMPLE_TRIES = 200

MatrixLike = Union[PayoffMatrix, np.ndarray, Sequence[Sequence[float]]]


def _as_matrix(a: MatrixLike) -> PayoffMatrix:
    return a if isinstance(a, PayoffMatrix) else PayoffMatrix(a)


def sum_zero_basis(m: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero subspace as an (m, m-1) matrix.

    Column k is proportional to (1, ..., 1, -k, 0, ..., 0) with k ones, so
    the basis is deterministic and exactly reproducible.
    """
    basis = np.zeros((m, m - 1))
    for k in range(1, m):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return basis


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

@dataclass
class Orbit:
    """A forward orbit of the update map: states[k+1] = update(states[k])."""

    states: np.ndarray            # (K+1, M)
    rule: UpdateRule

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[1]


def iterate(rule: UpdateRule, x0, steps: int) -> Orbit:
    """Iterate the update map ``steps`` times from ``x0``."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = np.asarray(x0, dtype=np.float64)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    for k in range(1, steps + 1):
        states[k] = rule.update_probs(states[k - 1])
    return Orbit(states=states, rule=rule)


# ----------------------------------------------------------------------
# interior equilibrium and its contraction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumResult:
    """Solution of ``A v = const * ones`` renormalized to total mass 1."""

    vector: np.ndarray
    c: float
    is_interior: bool


def solve_interior_equilibrium(a: MatrixLike) -> EquilibriumResult:
    """Profile at which all types have equal payoff: solve ``A v = ones``.

    The solution is scaled to sum 1; the constant ``c`` is the common
    payoff value.  Raises when the matrix is singular; a solution with a
    non-positive coordinate is returned with ``is_interior=False`` rather
    than raised.
    """
    payoff = _as_matrix(a)
    entries = payoff.entries
    ones = np.ones(payoff.m)
    try:
        v = np.linalg.solve(entries, ones)
    except np.linalg.LinAlgError as exc:
        raise NoInteriorEquilibrium(
            "no interior equilibrium: payoff matrix is singular"
        ) from exc
    total = float(v.sum())
    # a sum lost in rounding (|sum v| <= 1e-12 sum |v|) counts as zero
    if not np.isfinite(total) or abs(total) <= 1e-12 * float(np.abs(v).sum()):
        raise NoInteriorEquilibrium("equal-payoff solution has zero total mass")
    chi = v / total
    c = 1.0 / total
    residual = float(np.max(np.abs(entries @ chi - c * ones)))
    scale = max(1.0, float(np.abs(entries).max()))
    if residual > 1e-9 * scale:
        raise NumericRangeError(
            f"equilibrium residual {residual:.3e} exceeds 1e-9 * {scale:.3e}"
        )
    return EquilibriumResult(vector=chi, c=c, is_interior=bool(np.all(chi > 0)))


def spectral_radius_on_sum_zero(d: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a matrix compressed to the sum-zero
    subspace."""
    d = np.asarray(d, dtype=np.float64)
    m = d.shape[0]
    basis = sum_zero_basis(m)
    try:
        eigs = np.linalg.eigvals(basis.T @ d @ basis)
    except np.linalg.LinAlgError as exc:
        raise NumericRangeError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))


# ----------------------------------------------------------------------
# hypothesis checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Flags for the partnership-stability hypotheses on a payoff matrix.

    ``negative_definite_on_sum_zero`` is the projected-eigenvalue test of
    the quadratic form; ``one_positive_eigenvalue`` is the equivalent
    full-spectrum signature test (the two agree whenever an interior
    equilibrium exists).
    """

    symmetric: bool
    positive_entries: bool
    invertible: bool
    one_positive_eigenvalue: bool
    negative_definite_on_sum_zero: bool
    interior_equilibrium: bool

    @property
    def ok(self) -> bool:
        return (self.symmetric and self.positive_entries and self.invertible
                and self.negative_definite_on_sum_zero
                and self.interior_equilibrium)

    def to_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "positive_entries": self.positive_entries,
            "invertible": self.invertible,
            "one_positive_eigenvalue": self.one_positive_eigenvalue,
            "negative_definite_on_sum_zero": self.negative_definite_on_sum_zero,
            "interior_equilibrium": self.interior_equilibrium,
            "ok": self.ok,
        }


def check_stability_assumptions(a: MatrixLike) -> StabilityReport:
    """Diagnostic flags: symmetry, positive entries, invertibility, sign
    structure of the quadratic form, and interior-equilibrium existence."""
    payoff = _as_matrix(a)
    sym_part = 0.5 * (payoff.entries + payoff.entries.T)
    eigs = np.linalg.eigvalsh(sym_part)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(eigs))))
    one_positive = (int(np.sum(eigs > tol)) == 1
                    and int(np.sum(eigs < -tol)) == payoff.m - 1)
    basis = sum_zero_basis(payoff.m)
    proj_eigs = np.linalg.eigvalsh(basis.T @ sym_part @ basis)
    proj_tol = 1e-10 * max(1.0, float(np.max(np.abs(proj_eigs))))
    neg_def = bool(np.all(proj_eigs < -proj_tol))
    try:
        interior = solve_interior_equilibrium(payoff).is_interior
    except NoInteriorEquilibrium:
        interior = False
    return StabilityReport(
        symmetric=payoff.is_symmetric,
        positive_entries=payoff.has_positive_entries,
        invertible=payoff.is_invertible,
        one_positive_eigenvalue=one_positive,
        negative_definite_on_sum_zero=neg_def,
        interior_equilibrium=interior,
    )


def is_positive_definite_on_sum_zero(a: MatrixLike) -> bool:
    """Whether the quadratic form of a symmetric matrix is positive on all
    non-zero sum-zero vectors."""
    payoff = _as_matrix(a)
    if not payoff.is_symmetric:
        raise PreconditionError("definiteness test requires a symmetric matrix")
    basis = sum_zero_basis(payoff.m)
    eigs = np.linalg.eigvalsh(basis.T @ payoff.entries @ basis)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    return bool(np.all(eigs > tol))


# ----------------------------------------------------------------------
# permanence
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFixedPoint:
    margin: float           # witness payoff advantage at this point


@dataclass
class PermanenceReport:
    """Result of the sufficient-condition test that the boundary repels.

    ``status`` is "permanent" when there is no boundary fixed point or
    some interior profile strictly out-scores every boundary fixed point
    against itself, and "not-verified" when no tried candidate does.
    """

    status: str
    witness: Optional[np.ndarray]
    fixed_points: list[BoundaryFixedPoint] = field(default_factory=list)


def check_permanence(rule: UpdateRule) -> PermanenceReport:
    """Test the interior-dominance sufficient condition for permanence of
    a payoff-driven rule, on its own payoff matrix.

    Enumerates the fixed points of the update map on every proper face
    (equal-payoff solutions of the face submatrix, vertices, and a dense
    grid scan where the submatrix is singular) and searches for an
    interior profile ``y`` whose payoff against each boundary fixed point
    ``z`` strictly exceeds ``z``'s payoff against itself.
    """
    payoff = rule.fitness.payoff
    if not payoff.is_symmetric:
        raise PreconditionError("permanence test requires a symmetric payoff matrix")
    m = payoff.m
    if m > 5:
        raise PreconditionError("face enumeration is limited to m <= 5")
    entries = payoff.entries

    fixed: list[np.ndarray] = []
    for size in range(1, m):
        for combo in itertools.combinations(range(m), size):
            idx = np.array(combo, dtype=np.intp)
            candidates: list[np.ndarray] = []
            if size == 1:
                z = np.zeros(m)
                z[idx[0]] = 1.0
                candidates.append(z)
            else:
                sub = entries[np.ix_(idx, idx)]
                try:
                    eq = solve_interior_equilibrium(sub)
                    if eq.is_interior:
                        z = np.zeros(m)
                        z[idx] = eq.vector
                        candidates.append(z)
                except NoInteriorEquilibrium:
                    # singular face submatrix: scan the face's strictly
                    # positive grid points; a batch row has its profile's
                    # bits, so the hits need no re-check
                    counts = lattice_counts(size, FACE_RESOLUTION)
                    counts = counts[np.all(counts > 0, axis=1)]
                    grid = np.zeros((len(counts), m))
                    grid[:, idx] = counts / FACE_RESOLUTION
                    gaps = np.abs(rule.update_probs(grid) - grid).max(axis=-1)
                    fixed.extend(grid[gaps < FIXED_POINT_RESIDUAL])
            for z in candidates:
                try:
                    ok = np.max(np.abs(rule.update_probs(z) - z)) < FIXED_POINT_RESIDUAL
                except DegenerateFitness:
                    ok = False
                if ok:
                    fixed.append(z)

    if not fixed:
        return PermanenceReport(status="permanent", witness=None)

    # never empty: the grid has interior points for every m <= 5
    candidates_y: list[np.ndarray] = []
    try:
        eq = solve_interior_equilibrium(payoff)
        if eq.is_interior:
            candidates_y.append(eq.vector)
    except NoInteriorEquilibrium:
        pass
    interior_counts = lattice_counts(m, CANDIDATE_RESOLUTION)
    interior_counts = interior_counts[np.all(interior_counts > 0, axis=1)]
    candidates_y.extend(interior_counts / CANDIDATE_RESOLUTION)

    z_mat = np.array(fixed)
    self_scores = np.einsum("ij,jk,ik->i", z_mat, entries, z_mat)
    best_y = best_margins = None
    for y in candidates_y:
        margins = z_mat @ (entries @ y) - self_scores
        if best_margins is None or margins.min() > best_margins.min():
            best_margins = margins
            best_y = y
        if margins.min() > 0:
            break

    return PermanenceReport(
        status="permanent" if best_margins.min() > 0 else "not-verified",
        witness=best_y,
        fixed_points=[BoundaryFixedPoint(margin=float(mrg)) for mrg in best_margins],
    )


# ----------------------------------------------------------------------
# random test matrices
# ----------------------------------------------------------------------

def random_stability_matrix(m: int, rng: np.random.Generator) -> PayoffMatrix:
    """Sample a symmetric positive-entry matrix that is negative definite
    on sum-zero vectors and has an interior equilibrium.

    Construction: ``A = c * ones - Q`` with ``Q`` symmetric positive
    definite and ``c`` above the largest entry of ``Q``; the quadratic
    form on sum-zero vectors is then ``-w' Q w < 0`` automatically, and
    the remaining flags are enforced by rejection.
    """
    for _ in range(SAMPLE_TRIES):
        g = rng.normal(size=(m, m))
        q = g @ g.T + 0.05 * np.eye(m)
        c = float(q.max()) + rng.uniform(0.1, 2.0) * max(1.0, float(np.abs(q).max()))
        a = PayoffMatrix(c * np.ones((m, m)) - q)
        if check_stability_assumptions(a).ok:
            return a
    raise NumericRangeError("failed to sample a conforming matrix")


def random_pd_on_sum_zero_matrix(m: int, rng: np.random.Generator) -> PayoffMatrix:
    """Sample a symmetric positive-entry matrix whose quadratic form is
    positive definite on sum-zero vectors (``A = Q + c * ones``, Q SPD)."""
    for _ in range(SAMPLE_TRIES):
        g = rng.normal(size=(m, m))
        q = g @ g.T + 0.05 * np.eye(m)
        c = max(0.0, -float(q.min())) + rng.uniform(0.1, 2.0) * max(1.0, float(np.abs(q).max()))
        a = PayoffMatrix(q + c * np.ones((m, m)))
        if a.has_positive_entries and is_positive_definite_on_sum_zero(a):
            return a
    raise NumericRangeError("failed to sample a conforming matrix")


# ----------------------------------------------------------------------
# aggregate report
# ----------------------------------------------------------------------

@dataclass
class MeanFieldReport:
    """Equilibrium, local derivative data, and hypothesis flags for one
    payoff system."""

    equilibrium: np.ndarray
    c: float
    interior: bool
    stability: StabilityReport
    jacobian: Optional[np.ndarray] = None
    spectral_radius: Optional[float] = None
    permanence: Optional[PermanenceReport] = None

    def to_dict(self) -> dict:
        out = {
            "equilibrium": self.equilibrium.tolist(),
            "c": self.c,
            "interior": self.interior,
            "stability": self.stability.to_dict(),
            "jacobian": None if self.jacobian is None else self.jacobian.tolist(),
            "spectral_radius_sum_zero": self.spectral_radius,
        }
        if self.permanence is not None:
            out["permanence"] = {
                "status": self.permanence.status,
                "witness": (None if self.permanence.witness is None
                            else np.asarray(self.permanence.witness).tolist()),
                "n_boundary_fixed_points": len(self.permanence.fixed_points),
                "min_margin": (min((fp.margin for fp in self.permanence.fixed_points),
                                   default=None)),
            }
        return out


def build_meanfield_report(rule: UpdateRule,
                           check_perm: bool = False) -> MeanFieldReport:
    """Equilibrium + derivative + flags for a payoff-driven update rule.

    Interior equilibria of fitness-monotone payoff responses all solve the
    same equal-payoff system.  The derivative at the equilibrium is the
    full derivative of the update map, ``rule.jacobian``, for every rule.
    """
    payoff = rule.fitness.payoff
    stability = check_stability_assumptions(payoff)
    eq = solve_interior_equilibrium(payoff)
    jac = None
    radius = None
    if eq.is_interior:
        jac = rule.jacobian(eq.vector)
        radius = spectral_radius_on_sum_zero(jac)
    perm = None
    if check_perm:
        perm = check_permanence(rule)
    return MeanFieldReport(equilibrium=eq.vector, c=eq.c, interior=eq.is_interior,
                           stability=stability, jacobian=jac,
                           spectral_radius=radius, permanence=perm)
