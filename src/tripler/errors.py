"""Exception and warning types shared across the package.

Every package error is a :class:`TriplerError`.  An argument outside its
domain (a NaN, an infinity, a negative damping, a detuning off the model)
raises :class:`DomainError`, which names the argument; :func:`domain`
builds the one message rule, ``"<name> must be <requirement>, got
<value>"``.
"""


class TriplerError(Exception):
    """Base class for all package errors."""


class DomainError(TriplerError, ValueError):
    """An argument outside its domain; ``name`` is the argument.

    Also a ``ValueError``, so callers that catch one keep working.
    """

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def domain(name: str, value, requirement: str) -> DomainError:
    """The :class:`DomainError` for argument ``name`` that is not
    ``requirement``: ``"{name} must be {requirement}, got {value!r}"``.

    Callers test the domain inline (``0.0 <= value < math.inf``, which NaN
    fails too) and build the error only when it fails, so a valid call pays
    one comparison per argument.  ``value`` is a scalar; for an array,
    raise :class:`DomainError` with a message that gives its shape or a
    count instead.
    """
    return DomainError(name, f"{name} must be {requirement}, got {value!r}")


class ConfigError(TriplerError):
    """Malformed or incomplete configuration input."""

    def __init__(self, message, line=None, source=None):
        where = [source] if source else []
        if line is not None:
            where.append(f"line {line}")
        if where:
            message = f"{', '.join(where)}: {message}"
        super().__init__(message)
        self.line = line
        self.source = source


class DegenerateFluxError(TriplerError):
    """Flux bias at (or numerically indistinguishable from) half a flux quantum."""


class FluxRangeError(TriplerError):
    """Flux bias outside the validity range of the device model."""


class MissingCouplingError(TriplerError):
    """Neither a coupling capacitance nor an external quality factor was given."""


class ConvergenceError(TriplerError):
    """An iterative solve failed; carries diagnostics of the last state."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BelowThresholdError(TriplerError):
    """Detuning above the subharmonic threshold: no oscillation exists there."""


class PhaseDomainError(TriplerError):
    """Requested phases do not exist for the given amplitudes."""


class ResidualError(TriplerError):
    """A state claimed stationary does not satisfy the stationary equations."""


class DivergenceError(TriplerError):
    """Time integration blew past the amplitude ceiling or stopped being
    finite."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class EmptyTrajectoryError(TriplerError):
    """Operation on a trajectory with no samples."""


class OverlappingRadiusError(TriplerError):
    """Classification radius too large for the reference-state spacing."""


class NoSignalError(TriplerError):
    """The signal does not clear the noise floor: too few points above it
    to fit, or a floor above every predicted peak output."""


class FormatError(TriplerError):
    """Malformed binary or CSV payload."""


class RegimeWarning(UserWarning):
    """An asymptotic formula is being used outside its validity regime."""


class StepSizeWarning(UserWarning):
    """Integration step too coarse for the fastest timescale of the system."""
