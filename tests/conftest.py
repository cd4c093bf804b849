import math

import pytest
from hypothesis import settings

from tripler import circuit
from tripler.steady import DimensionlessPoint

TWO_PI = 2.0 * math.pi

# Hypothesis draws constants found in the loaded test modules into its
# examples, so a derandomized failure in the whole suite need not recur when
# one file runs alone.  The printed @reproduce_failure blob replays it
# either way; this changes reporting only, not examples or deadlines.
settings.register_profile("tripler", print_blob=True)
settings.load_profile("tripler")


@pytest.fixture(scope="session")
def params():
    return circuit.reference_params()


@pytest.fixture(scope="session")
def modes0(params):
    """Both mode profiles at zero flux."""
    return (circuit.mode_profile(params, 0.0, 1),
            circuit.mode_profile(params, 0.0, 2))


@pytest.fixture(scope="session")
def point0(params):
    """Undriven reduced operating point of the device at zero flux."""
    return circuit.device_point(params, 0.0, delta1=0.0)


@pytest.fixture()
def soft_point():
    """Hand-picked moderate-stiffness point for affordable time integration."""
    return DimensionlessPoint(delta=-9.0, Delta=20.0, gamma1=1.0,
                              gamma2=1.5, gamma2_ext=1.4, beta=1.2,
                              alpha1=1.0)
