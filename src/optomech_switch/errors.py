"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError and
subclasses -> 3, OutputError -> 4.
"""


class OptomechError(Exception):
    """Base class for all package errors."""


class ConfigError(OptomechError):
    """Invalid scenario configuration.

    Carries an optional 1-based line number of the offending input line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalError(OptomechError):
    """Base class for failures of the numerical routines."""


class DegenerateModelError(NumericalError):
    """The steady-state polynomial vanished identically."""


class SingularResponseError(NumericalError):
    """A response denominator is (numerically) zero."""


class NoConvergenceError(NumericalError):
    """Newton iteration failed to converge."""


class UnstableStateError(NumericalError):
    """Operation requires a dynamically stable steady state."""


class UndefinedRatioError(NumericalError):
    """Switch ratio undefined (no stable T-periodic response, or
    non-positive minimum output)."""


class UndefinedGainError(NumericalError):
    """Gain undefined (zero input modulation)."""


class DegenerateGridError(NumericalError):
    """A scan grid has fewer than 2 points or is not strictly ascending."""


class IntegrationFailureError(NumericalError):
    """Time integration aborted (state blow-up, integrator failure or non-finite state)."""

    def __init__(self, message, last_valid_time):
        self.last_valid_time = last_valid_time
        super().__init__(f"{message} (last valid time t={last_valid_time:.6g})")


class OutputError(OptomechError):
    """Result files could not be written."""
