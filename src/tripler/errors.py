"""Exception and warning types shared across the package."""


class TriplerError(Exception):
    """Base class for all package errors."""


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


class OvercurrentError(TriplerError):
    """Current through the SQUID at or above its critical current."""


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
    """Time integration blew past the configured amplitude ceiling."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class EmptyTrajectoryError(TriplerError):
    """Operation on a trajectory with no samples."""


class OverlappingRadiusError(TriplerError):
    """Classification radius too large for the reference-state spacing."""


class NoSignalError(TriplerError):
    """Not enough data points above the noise floor to fit."""


class FormatError(TriplerError):
    """Malformed binary or CSV payload."""


class RegimeWarning(UserWarning):
    """An asymptotic formula is being used outside its validity regime."""


class StepSizeWarning(UserWarning):
    """Integration step too coarse for the fastest timescale of the system."""


class StabilityMismatchWarning(UserWarning):
    """Closed-form and numeric stability verdicts disagree."""
