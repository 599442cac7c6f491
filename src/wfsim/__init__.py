"""Simulation and numerical-analysis toolkit for multinomial resampling
dynamics with fitness-weighted updates.

The package covers the full pipeline: the simplex state space and its
count lattices (:mod:`wfsim.simplex`), fitness landscapes and the
expected-update map (:mod:`wfsim.fitness`), deterministic orbits,
equilibria, and stability diagnostics (:mod:`wfsim.meanfield`), the
finite-population resampling chain with exact small-scale analysis
(:mod:`wfsim.chain`), the Gaussian linearization around the orbit
(:mod:`wfsim.gaussian`), decoupling-time concentration bounds
(:mod:`wfsim.deviation`), metastability and extinction-route ensembles
(:mod:`wfsim.extinction`), and a reproducible command-line front end
(:mod:`wfsim.cli`).
"""

from .errors import (
    ConfigError,
    DegenerateFitness,
    DimensionMismatch,
    DomainError,
    InvalidNormalization,
    NoInteriorEquilibrium,
    NumericRangeError,
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
    WfsimError,
)
from .fitness import (
    ExponentialFitness,
    FitnessModel,
    LinearFractionalFitness,
    MutationMatrix,
    PayoffMatrix,
    UpdateRule,
    make_rule,
)
from .simplex import LatticePoint, SupportSet, round_to_lattice

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WfsimError", "ConfigError", "DimensionMismatch", "ResourceLimitExceeded",
    "NumericRangeError", "DegenerateFitness", "InvalidNormalization",
    "NoInteriorEquilibrium", "PreconditionError", "DomainError",
    "ReducibleInterior",
    # core types
    "LatticePoint", "SupportSet", "round_to_lattice",
    "PayoffMatrix", "FitnessModel", "LinearFractionalFitness",
    "ExponentialFitness", "MutationMatrix", "UpdateRule", "make_rule",
]
