"""Exception hierarchy shared by all wfsim modules.

The command-line layer maps these onto stable exit codes: configuration
problems exit with 1, precondition/numeric/resource problems with 2.
"""


class WfsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WfsimError):
    """Malformed or inconsistent configuration input."""


class DimensionMismatch(WfsimError):
    """Operands have incompatible sizes."""


class ResourceLimitExceeded(WfsimError):
    """An exhaustive operation would exceed a fixed cap: the lattice state
    cap (``simplex.STATE_CAP``) or the block byte cap (``chain.BLOCK_BYTE_CAP``)."""


class NumericRangeError(WfsimError):
    """A computation produced non-finite values or failed to converge."""


class DegenerateFitness(WfsimError):
    """Total population fitness is zero; the update map is undefined."""


class InvalidNormalization(WfsimError):
    """A normalizing scalar that must be positive is not, or a sampling law
    is not a probability vector."""


class NoInteriorEquilibrium(WfsimError):
    """The linear system for an interior equilibrium has no solution."""


class PreconditionError(WfsimError):
    """An operation's documented precondition does not hold."""


class DomainError(WfsimError):
    """A parameter lies outside its admissible interval."""


class ReducibleInterior(PreconditionError):
    """The interior-restricted transition matrix is not irreducible."""
