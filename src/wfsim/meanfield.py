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
from dataclasses import dataclass
from typing import Sequence, Union

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

def check_stability_assumptions(a: MatrixLike) -> dict:
    """Diagnostic flags: symmetry, positive entries, invertibility, sign
    structure of the quadratic form, and interior-equilibrium existence.

    ``negative_definite_on_sum_zero`` is the projected-eigenvalue test of
    the quadratic form; ``one_positive_eigenvalue`` is the equivalent
    full-spectrum signature test (the two agree whenever an interior
    equilibrium exists).  ``ok`` is the AND of the five other flags.
    """
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
    flags = {
        "symmetric": payoff.is_symmetric,
        "positive_entries": payoff.has_positive_entries,
        "invertible": payoff.is_invertible,
        "negative_definite_on_sum_zero": neg_def,
        "interior_equilibrium": interior,
    }
    return {**flags, "one_positive_eigenvalue": one_positive, "ok": all(flags.values())}


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

def _is_fixed(rule: UpdateRule, z: np.ndarray) -> Union[bool, np.ndarray]:
    """Whether the update map moves a profile ``(M,)``, or each row of a
    batch ``(R, M)``, by less than FIXED_POINT_RESIDUAL.  A profile where
    the map is undefined (zero total fitness) is not fixed; a batch is
    mapped in one call unless one of its rows is such a profile.  A batch
    row has its profile's bits, so neither route moves a result."""
    try:
        return np.abs(rule.update_probs(z) - z).max(axis=-1) < FIXED_POINT_RESIDUAL
    except DegenerateFitness:
        if z.ndim == 1:
            return False
        return np.array([_is_fixed(rule, row) for row in z], dtype=bool)


def check_permanence(rule: UpdateRule) -> dict:
    """Test the interior-dominance sufficient condition for permanence of
    a payoff-driven rule, on its own payoff matrix.

    Enumerates the fixed points of the update map on every proper face
    (the equal-payoff solution of the face submatrix, which is the vertex
    on a 1 x 1 face, or a grid scan where the submatrix is singular by
    :attr:`PayoffMatrix.is_invertible`) and
    searches for an interior profile ``y`` whose payoff against each
    boundary fixed point ``z`` strictly exceeds ``z``'s payoff against
    itself.  ``status`` is "permanent" when there is no boundary fixed
    point or some tried ``y`` strictly out-scores every one, and
    "not-verified" otherwise; ``witness`` is the best ``y`` and
    ``min_margin`` its smallest payoff advantage.
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
            face, eq = PayoffMatrix(entries[np.ix_(idx, idx)]), None
            # singular by is_invertible's tolerance, not by whether the solve
            # happens to fail on a nearly singular face
            if face.is_invertible:
                try:
                    eq = solve_interior_equilibrium(face)
                except NoInteriorEquilibrium:       # a solution of zero mass
                    pass
            if eq is None:
                # scan the face's strictly positive grid points
                counts = lattice_counts(size, FACE_RESOLUTION)
                counts = counts[np.all(counts > 0, axis=1)]
                grid = np.zeros((len(counts), m))
                grid[:, idx] = counts / FACE_RESOLUTION
                fixed.extend(grid[_is_fixed(rule, grid)])
                continue
            z = np.zeros(m)
            z[idx] = eq.vector
            if eq.is_interior and _is_fixed(rule, z):
                fixed.append(z)

    if not fixed:
        return {"status": "permanent", "witness": None,
                "n_boundary_fixed_points": 0, "min_margin": None}

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

    return {
        "status": "permanent" if best_margins.min() > 0 else "not-verified",
        "witness": best_y.tolist(),
        "n_boundary_fixed_points": len(fixed),
        "min_margin": min(best_margins.tolist()),
    }


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
        if check_stability_assumptions(a)["ok"]:
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

def build_meanfield_report(rule: UpdateRule, check_perm: bool = False) -> dict:
    """Equilibrium + derivative + flags for a payoff-driven update rule: the
    mapping ``wf meanfield`` writes as ``report.json``.

    Interior equilibria of fitness-monotone payoff responses all solve the
    same equal-payoff system.  The derivative at the equilibrium is the
    full derivative of the update map, ``rule.jacobian``, for every rule;
    ``jacobian`` and ``spectral_radius_sum_zero`` are None when the
    equilibrium is not interior.
    """
    payoff = rule.fitness.payoff
    stability = check_stability_assumptions(payoff)
    eq = solve_interior_equilibrium(payoff)
    jac = rule.jacobian(eq.vector) if eq.is_interior else None
    report = {
        "equilibrium": eq.vector.tolist(),
        "c": eq.c,
        "interior": eq.is_interior,
        "stability": stability,
        "jacobian": None if jac is None else jac.tolist(),
        "spectral_radius_sum_zero": None if jac is None else spectral_radius_on_sum_zero(jac),
    }
    if check_perm:
        report["permanence"] = check_permanence(rule)
    return report
