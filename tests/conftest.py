"""Shared fixtures: the two benchmark three-type systems and small helpers."""

from __future__ import annotations

import numpy as np
import pytest

from wfsim.fitness import TabulatedFitness, UpdateRule, make_rule

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


@pytest.fixture(scope="session")
def rule_a1():
    return make_rule(A1, omega_ratio=1e-3)


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
    if kind == "tabulated":
        return UpdateRule(TabulatedFitness(
            lambda x: 1.0 + np.sin(3.0 * x) + x @ np.asarray(A2) / 50, m=3))
    return {"linear-fractional": make_rule(A2, omega=0.5),
            "exponential": make_rule(A2, fitness="exponential", beta=0.3),
            "mutation": make_rule(A2, omega=0.5, mutation=np.full((3, 3), 0.01)
                                  + 0.97 * np.eye(3))}[kind]
