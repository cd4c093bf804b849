"""Two-mode model of period-tripling oscillations in a tunable resonator.

Submodules and the re-exported names load on first access (PEP 562), so
``import tripler`` imports no submodule and each CLI command loads only
the layers it runs.  The modules with scalar entry points (``cli``, ``io``,
``steady``, ``calibration``) bind numpy through :func:`_lazy_import`, so a
command that computes on no array (``spectrum``, ``thresholds``) never
loads it.
"""

import importlib
import importlib.util
import sys

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


def _lazy_import(name):
    """Module ``name``, executed on its first attribute access.

    Returns the module itself if it is already imported; otherwise a
    ``LazyLoader`` module registered in ``sys.modules``, so that a later
    ``import`` of the name anywhere gets the same object.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def __dir__():
    return sorted({*globals(), *__all__})
