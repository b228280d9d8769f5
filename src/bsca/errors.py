"""Exception types raised by the solvers and their plumbing."""


class BscaError(Exception):
    """Base class for all package errors."""


class InvalidPartitionError(BscaError, ValueError):
    """Block sizes do not describe a valid partition."""


class FeasibilityError(BscaError, ValueError):
    """A point violates its per-block constraint set."""


class InvalidArgumentError(BscaError, ValueError):
    """A numeric argument is outside its admissible range."""


class ConfigError(BscaError, ValueError):
    """Solver configuration violates a validity condition."""


class LineSearchError(BscaError, RuntimeError):
    """Backtracking exhausted its exponent budget or was handed a
    non-descent direction; usually indicates a wrong descent quantity."""


class NoClosedFormError(BscaError, RuntimeError):
    """The regularizer has no shipped closed-form elementwise best
    response."""


class DegenerateDirectionError(BscaError, RuntimeError):
    """A nonzero update direction produced a zero-curvature profile."""


class DegenerateDiagonalError(BscaError, ValueError):
    """A diagonal scaling required to be strictly positive vanished."""


class ProfileMismatchError(BscaError, RuntimeError):
    """Closed-form stepsize coefficients disagree with direct objective
    evaluation; indicates a coefficient bug."""


class ProductDriftError(BscaError, RuntimeError):
    """Products a problem maintains across steps drifted from fresh ones
    beyond rounding; indicates a wrong update."""
