"""Two-mode model of period-tripling oscillations in a tunable resonator."""

from . import calibration, circuit, config, dynamics, io, steady
from .circuit import CircuitParams, FluxPoint, ModeProfile, reference_params
from .dynamics import NoiseConfig, Trajectory, TwoModeSystem
from .steady import DimensionlessPoint, SteadyState

__version__ = "0.1.0"

__all__ = [
    "CircuitParams",
    "DimensionlessPoint",
    "FluxPoint",
    "ModeProfile",
    "NoiseConfig",
    "SteadyState",
    "Trajectory",
    "TwoModeSystem",
    "calibration",
    "circuit",
    "config",
    "dynamics",
    "io",
    "reference_params",
    "steady",
]
