"""Exception hierarchy shared by all denslab modules."""


class DenslabError(Exception):
    """Base class for all denslab errors."""


class InvalidParameterError(DenslabError):
    """A numeric argument is outside its admissible range."""


class DomainTooSmallError(InvalidParameterError):
    """Spatial domain is narrower than the unit-ball window requires."""


class GridMismatchError(DenslabError):
    """Two objects that must share a grid (spatial or temporal) do not."""


class DegenerateDensityError(DenslabError):
    """A density with zero (or no in-domain) mass where a probability is required."""


class NotAProbabilityError(DenslabError):
    """Input weights/values do not describe a probability measure."""


class NumericOverflowError(DenslabError):
    """A requested quantity is not representable in double precision."""


class InvalidDriftError(DenslabError):
    """A drift specification violates one of its admissibility checks."""


class SolverFailureError(DenslabError):
    """The PDE solver produced a non-finite or unsolvable state."""


class NoConvergenceError(DenslabError):
    """Fixed-point iteration failed to converge; carries diagnostics."""

    def __init__(self, message, ratios=None):
        super().__init__(message)
        self.ratios = tuple(ratios) if ratios is not None else ()


class InsufficientSpanError(DenslabError):
    """A scaling fit was requested on too narrow a span of abscissae."""


class InvalidDataError(DenslabError):
    """Data passed to a regression/fit routine is unusable."""


class ConfigError(DenslabError):
    """Configuration file or override is invalid; names the offending key."""
