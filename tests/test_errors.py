"""One domain error at the library boundary.

Every public function that takes scalars names the argument it rejects with
a ``DomainError``, which is both a ``TriplerError`` and a ``ValueError``,
and the library builds no bare ``ValueError`` of its own.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripler
from tripler import calibration, circuit, dynamics, steady
from tripler.errors import (
    BelowThresholdError,
    DomainError,
    FluxRangeError,
    TriplerError,
    domain,
)

#: the package the tests import
SRC = Path(tripler.__file__).resolve().parent


def test_domain_error_is_a_tripler_and_a_value_error():
    exc = domain("gamma1", -1.0, "non-negative and finite")
    assert isinstance(exc, TriplerError) and isinstance(exc, ValueError)
    assert exc.name == "gamma1"
    assert str(exc) == "gamma1 must be non-negative and finite, got -1.0"


def _builds_value_error(node) -> bool:
    """A call of ``ValueError`` (or ``x.ValueError``), or a ``raise`` of the
    class itself, which Python instantiates."""
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.Raise):
        node = node.exc
    else:
        return False
    return (isinstance(node, ast.Name) and node.id == "ValueError") or \
        (isinstance(node, ast.Attribute) and node.attr == "ValueError")


def test_no_module_constructs_value_error():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10, SRC         # the package was found
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _builds_value_error(node)]
    assert found == [], "raise DomainError (errors.domain) instead"


# ---------------------------------------------------------------------------
# every scalar argument of the public functions, one at a time

POINT = steady.DimensionlessPoint(delta=-20.0, Delta=1500.0, gamma1=1.93,
                                  gamma2=13.6, gamma2_ext=13.1, beta=1.3,
                                  alpha1=1.0, flux=0.0)
SYSTEM = dynamics.TwoModeSystem(delta1=-9.0, delta2=-7.0, alpha1=1.0,
                                alpha2=2.0736, Gamma1=1.0, Gamma2=1.5,
                                Gamma2_ext=1.4, drive_b2=0.5)
TRAJ = dynamics.Trajectory(dt=0.1, a1=np.ones(10, complex),
                           a2=np.zeros(10, complex), drive_b2=0.0,
                           drive_phase=0.0)
PARAMS = circuit.reference_params()
CHAIN = calibration.CalibrationChain(gain_db=66.0, noise_floor_w=0.44e-9,
                                     x=9.97e11)
R1_SQ = steady.stable_branch(-20.0, 1.93, 2.0)

#: (function, valid keyword arguments, scalar arguments whose domain admits
#: negative values, scalar arguments whose domain does not)
CASES = [
    (steady.threshold_detuning, dict(gamma1=1.93), (), ("gamma1",)),
    (steady.existence_window, dict(delta=-20.0, gamma1=1.93), ("delta",),
     ("gamma1",)),
    (steady.subharmonic_branches, dict(delta=-20.0, gamma1=1.93, r2_sq=2.0),
     ("delta",), ("gamma1", "r2_sq")),
    (steady.stable_branch, dict(delta=-20.0, gamma1=1.93, r2_sq=2.0),
     ("delta",), ("gamma1", "r2_sq")),
    (steady.triad_phases, dict(delta=-20.0, gamma1=1.93, r1_sq=R1_SQ,
                               r2_sq=2.0, phi2=0.0),
     ("delta", "phi2"), ("gamma1", "r1_sq", "r2_sq")),
    (steady.max_intensity, dict(delta=-20.0, gamma1=1.93), ("delta",),
     ("gamma1",)),
    (steady.closed_form_lambda_sq, dict(delta=-20.0, r1_sq=R1_SQ, r2_sq=2.0,
                                        branch=1),
     ("delta", "branch"), ("r1_sq", "r2_sq")),
    (steady.ground_eigenvalue, dict(point=POINT, r2_sq=2.0), (), ("r2_sq",)),
    (steady.DimensionlessPoint,
     {f.name: getattr(POINT, f.name) for f in dataclasses.fields(POINT)},
     ("delta", "Delta", "drive_phase", "flux"),
     ("gamma1", "gamma2", "gamma2_ext", "beta", "alpha1", "drive_b2")),
    (calibration.output_power, dict(a1_sq=10.0, gamma1_ext=1e5, gain_db=66.0,
                                    omega=3.4e10),
     ("gain_db",), ("gamma1_ext", "omega")),
    (calibration.CalibrationChain, dict(gain_db=66.0, noise_floor_w=0.44e-9,
                                        x=9.97e11, scale07=0.7),
     ("gain_db",), ("noise_floor_w", "x", "scale07")),
    (calibration.predict_max_output, dict(params=PARAMS, flux=0.0,
                                          delta1=-2e7, chain=CHAIN),
     ("flux", "delta1"), ()),
    (dynamics.TwoModeSystem,
     {f.name: getattr(SYSTEM, f.name) for f in dataclasses.fields(SYSTEM)},
     ("delta1", "delta2", "drive_phase"),
     ("alpha1", "alpha2", "Gamma1", "Gamma2", "Gamma2_ext", "drive_b2")),
    (dynamics.NoiseConfig, dict(d1=0.05, d2=0.05), (), ("d1", "d2")),
    (dynamics.NoiseConfig.thermal, dict(system=SYSTEM, n_th=0.05), (),
     ("n_th",)),
    (dynamics.suggested_timestep, dict(system=SYSTEM, n1_max=1.0, n2_max=1.0),
     (), ("n1_max", "n2_max")),
    (dynamics.integrate, dict(system=SYSTEM, initial=(0.1, 0.0), duration=0.5,
                              dt=0.005, seed=1, store_every=1, ceiling=1e9),
     (), ("duration", "dt", "seed", "store_every", "ceiling")),
    (dynamics.boxcar_demodulate, dict(traj=TRAJ, fs=1.0, scale=2.0),
     ("scale",), ("fs",)),
    (dynamics.classify_samples, dict(samples=np.array([0.0, 3.0]),
                                     refs=[0.0, 3.0], radius=1.0),
     (), ("radius",)),
    (circuit.CircuitParams,
     {f.name: getattr(PARAMS, f.name) for f in dataclasses.fields(PARAMS)},
     (), ("d", "Ic", "CJ", "L0", "C0", "Q_int_1", "Q_ext_1", "Cc", "Q_int_2",
          "Phi0")),
]

ARGUMENTS = [(fn, kwargs, name)
             for fn, kwargs, signed, unsigned in CASES
             for name in (*signed, *unsigned)]
UNSIGNED = [(fn, kwargs, name)
            for fn, kwargs, _, unsigned in CASES for name in unsigned]


def _ids(arguments):
    return [f"{fn.__qualname__}-{name}" for fn, _, name in arguments]


def _finite(value) -> bool:
    """Whether every number in ``value`` (nested in tuples, lists and
    dataclasses) is finite."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float, complex, np.number, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


@pytest.mark.parametrize("fn, kwargs", [case[:2] for case in CASES],
                         ids=[case[0].__qualname__ for case in CASES])
def test_valid_arguments_give_finite_values(fn, kwargs):
    assert _finite(fn(**kwargs))


def _check_named(fn, kwargs, name, bad):
    """Call ``fn`` with ``bad`` for ``name``: it returns finite values (a
    ceiling may be infinite) or raises the DomainError naming ``name``; a
    flux keeps its FluxRangeError."""
    try:
        out = fn(**dict(kwargs, **{name: bad}))
    except DomainError as exc:
        assert exc.name == name, str(exc)
    except FluxRangeError:
        assert name == "flux"
    else:
        assert _finite(out), out


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn, kwargs, name", ARGUMENTS, ids=_ids(ARGUMENTS))
def test_non_finite_scalar_is_named(fn, kwargs, name, bad):
    _check_named(fn, kwargs, name, bad)


@pytest.mark.parametrize("fn, kwargs, name", UNSIGNED, ids=_ids(UNSIGNED))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(bad=st.floats(max_value=-1e-300, allow_infinity=False))
def test_negative_scalar_is_named(fn, kwargs, name, bad):
    # only where the domain admits no negative value: for a detuning or a
    # phase a negative value is valid input
    _check_named(fn, kwargs, name, bad)


#: the closed forms that square a detuning, damping or pump intensity
SQUARING = [(fn, kwargs, name) for fn, kwargs, name in ARGUMENTS
            if fn in (steady.existence_window, steady.max_intensity,
                      steady.subharmonic_branches, steady.stable_branch)]


@pytest.mark.parametrize("bad", [1e200, -1e200])
@pytest.mark.parametrize("fn, kwargs, name", SQUARING, ids=_ids(SQUARING))
def test_finite_scalar_too_large_to_square_is_named(fn, kwargs, name, bad):
    # x**2 overflows past about 1.34e154; that is a DomainError, not a raw
    # OverflowError.  max_intensity above threshold stays a
    # BelowThresholdError.
    try:
        _check_named(fn, kwargs, name, bad)
    except BelowThresholdError:
        assert fn is steady.max_intensity


#: a point past no threshold, whose solve finds only the silent state
SILENT = dict(delta=1.0, Delta=20.0, gamma1=1.0, gamma2=1.5, gamma2_ext=1.4,
              beta=1.2, alpha1=1.0)


@pytest.mark.parametrize("name, value", [
    ("delta", 1e200),       # squared by the branch tolerance of every solve
    ("Delta", 1e200),       # delta2^2 in the silent-state response cubic
    ("drive_b2", 1e160),    # R^2 there
    ("beta", 1e100),        # beta^4 there, with beta^2 finite
])
def test_solve_names_the_input_that_overflows_the_silent_cubic(name, value):
    point = steady.DimensionlessPoint(**{**SILENT, name: value})
    with pytest.raises(DomainError) as exc:
        steady.solve_selfconsistent(point)
    assert exc.value.name == name


@pytest.mark.parametrize("drive_b2", [0.0, 1.0])
def test_solve_names_a_beta_too_large_to_square(drive_b2):
    # the point itself refuses it, before any consumer squares beta
    with pytest.raises(DomainError, match="^beta must be small enough to "
                                          "square") as exc:
        point = steady.DimensionlessPoint(**{**SILENT, "beta": 1e200,
                                             "delta": -10.0,
                                             "drive_b2": drive_b2})
        steady.solve_selfconsistent(point, all_branches=True)
    assert exc.value.name == "beta"


@pytest.mark.parametrize("consumer", [steady.max_drive,
                                      steady.second_mode_response])
def test_consumers_name_a_beta_too_large_to_square(consumer):
    with pytest.raises(DomainError, match="^beta must be small enough to "
                                          "square") as exc:
        consumer(steady.DimensionlessPoint(**{**SILENT, "beta": 1e200,
                                              "delta": -10.0,
                                              "drive_b2": 1.0}))
    assert exc.value.name == "beta"


def test_solve_verifies_the_silent_state_at_a_huge_detuning():
    # delta2^2 = 9e200 is finite, and the undriven state is v = 0 exactly
    point = steady.DimensionlessPoint(**{**SILENT, "delta": 1e100})
    (state,) = steady.solve_selfconsistent(point)
    assert (state.kind, state.r2_sq, state.residual) == ("ground", 0.0, 0.0)
    assert state.stable


@pytest.mark.parametrize("fields, name", [
    (dict(d=1e-200, L0=1e-200, C0=1e190), "L0"),    # L0*d underflows to 0
    (dict(L0=1e200, C0=1e200), "L0"),               # L0*C0 overflows
    (dict(d=1e-200, C0=1e-200, L0=1e190), "C0"),    # C0*d underflows to 0
])
def test_circuit_product_out_of_range_is_named(fields, name):
    # each field is positive and finite, but a product the properties divide
    # by or take the root of is not
    with pytest.raises(DomainError) as exc:
        dataclasses.replace(PARAMS, **fields)
    assert exc.value.name == name
