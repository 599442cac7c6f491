"""Shared fixtures: the two benchmark three-type systems and small helpers."""

from __future__ import annotations

import numpy as np
import pytest

from wfsim.errors import PreconditionError
from wfsim.fitness import UpdateRule, make_rule
from wfsim.meanfield import MatrixLike, _as_matrix

# Three-type payoff matrices used throughout the experiments, with their
# equal-payoff interior equilibria (coordinates reproduced to 8 digits).
A1 = [[1.0, 20.0, 45.0], [20.0, 21.0, 30.0], [45.0, 30.0, 1.0]]
A2 = [[1.0, 20.0, 35.0], [20.0, 21.0, 30.0], [35.0, 30.0, 1.0]]
CHI1 = np.array([0.24766355, 0.41121495, 0.3411215])
CHI2 = np.array([0.0246914, 0.7345679, 0.2407407])

# Symmetric two-type matrix small enough for hand evaluation.
A_TWO = [[1.0, 2.0], [2.0, 1.0]]

# Non-symmetric three-type matrix with interior equilibrium (4, 5, 6) / 15.
NON_SYMMETRIC = [[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.5]]

# Three-type laws that Generator.multinomial refuses: a NaN, a negative
# cell, and first two cells summing to 1 + 1e-9.
BAD_LAWS = {"nan": [np.nan, 0.5, 0.5], "negative": [-0.1, 0.6, 0.5],
            "head-over-one": [0.5, 0.5 + 1e-9, 0.0]}


@pytest.fixture(scope="session")
def rule_a1():
    return make_rule(A1, omega=1e-3 / (1.0 + 1e-3))


@pytest.fixture(scope="session")
def rule_a2():
    return make_rule(A2, omega=0.5)


@pytest.fixture(scope="session")
def rule_two():
    return make_rule(A_TWO, omega=0.5)


def neutral_rule(m: int):
    """Constant-fitness rule: the update map is the identity on the simplex."""
    return make_rule(np.ones((m, m)), omega=0.5)


@pytest.fixture(scope="session")
def rule_neutral3():
    return neutral_rule(3)


def rule_of_kind(kind: str) -> UpdateRule:
    """One rule per code path of the update map, on the A2 payoffs."""
    return {"linear-fractional": make_rule(A2, omega=0.5),
            "exponential": make_rule(A2, fitness="exponential", beta=0.3),
            "mutation": make_rule(A2, omega=0.5, mutation=np.full((3, 3), 0.01)
                                  + 0.97 * np.eye(3))}[kind]


# The closed form that the analytic derivative, rule.jacobian, is checked against.
def jacobian_at_equilibrium(a: MatrixLike, omega: float, chi: np.ndarray) -> np.ndarray:
    """Derivative matrix of the affine-fitness update map at its interior
    equilibrium.

    For the unit-baseline affine fitness with mixing weight ``omega``, the
    derivative at the equilibrium acts on sum-zero perturbations as
    ``I + (diag(chi) B - chi chi' (B - B')) / (1 + r)`` where
    ``B = omega / (1 - omega) * A`` and ``r`` is the common value of
    ``B chi``; the ``B - B'`` term vanishes when A is symmetric.  It agrees
    with ``rule.jacobian`` on sum-zero directions only: the full derivative
    of the map also sends the equilibrium itself to zero, which this closed
    form does not.
    """
    payoff = _as_matrix(a)
    chi = np.asarray(chi, dtype=np.float64)
    if chi.shape != (payoff.m,):
        raise PreconditionError("equilibrium vector has the wrong length")
    if np.any(chi <= 0):
        raise PreconditionError("equilibrium must be interior (all coordinates > 0)")
    ratio = omega / (1.0 - omega)
    b_mat = ratio * payoff.entries
    bchi = b_mat @ chi
    r = float(bchi.mean())
    if float(np.max(np.abs(bchi - r))) > 1e-8 * (1.0 + abs(r)):
        raise PreconditionError(
            "chi is not an equal-payoff interior equilibrium of this matrix"
        )
    d = np.eye(payoff.m) + chi[:, None] * b_mat / (1.0 + r)
    d -= np.outer(chi, chi @ (b_mat - b_mat.T)) / (1.0 + r)
    return d
