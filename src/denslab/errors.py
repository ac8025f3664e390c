"""Exception hierarchy shared by all denslab modules: one class per failure exit
status of the CLI, and two subclasses that callers catch or read."""


class DenslabError(Exception):
    """Base class for all denslab errors; the CLI exits 3 on any that is not an
    InvalidParameterError."""


class InvalidParameterError(DenslabError):
    """A parameter, config key or drift is inadmissible; the CLI exits 2."""


class NumericalError(DenslabError):
    """Data or a computation cannot yield the requested quantity; the CLI exits 3."""


class NumericOverflowError(NumericalError):
    """A requested quantity is not representable in double precision; exit 3."""


class NoConvergenceError(NumericalError):
    """Fixed-point iteration failed to converge; carries the ratios; exit 3."""

    def __init__(self, message, ratios=None):
        super().__init__(message)
        self.ratios = tuple(ratios) if ratios is not None else ()
