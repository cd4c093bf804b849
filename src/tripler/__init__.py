"""Two-mode model of period-tripling oscillations in a tunable resonator.

Submodules and the re-exported names load on first access (PEP 562), so
``import tripler`` imports no submodule and each CLI command loads only
the layers it runs.
"""

import importlib

__version__ = "0.1.0"

#: re-exported name -> the submodule that defines it
_NAMES = {
    "CircuitParams": "circuit",
    "FluxPoint": "circuit",
    "ModeProfile": "circuit",
    "reference_params": "circuit",
    "NoiseConfig": "dynamics",
    "Trajectory": "dynamics",
    "TwoModeSystem": "dynamics",
    "DimensionlessPoint": "steady",
    "SteadyState": "steady",
}

_SUBMODULES = ("calibration", "circuit", "config", "dynamics", "io", "steady")

__all__ = sorted([*_NAMES, *_SUBMODULES])


def __getattr__(name):
    # errors and _roots are not exported, but stay reachable as attributes
    if name in _SUBMODULES or name in ("errors", "_roots"):
        return importlib.import_module(f".{name}", __name__)
    if name in _NAMES:
        value = getattr(importlib.import_module(f".{_NAMES[name]}", __name__),
                        name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
