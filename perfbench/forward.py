"""Forward model that generates benchmark inputs from public tripler functions.

The benchmark must keep working while the program's internals change, so
nothing here touches a private name: the synthetic linecuts and the drive
that makes a pump intensity self-consistent are rebuilt from
``circuit.mode_profile``, ``steady.existence_window``, ``steady.stable_branch``
and ``calibration.output_power``.
"""

from __future__ import annotations

import math

import numpy as np

from tripler import calibration, circuit, steady

#: reduced Planck constant in J s (exact in SI since 2019: h / 2 pi)
HBAR = 6.62607015e-34 / (2.0 * math.pi)


def modes(params, flux):
    """Both filled-in mode profiles at one flux."""
    return (circuit.mode_profile(params, flux, 1),
            circuit.mode_profile(params, flux, 2))


def pump_intensity(pd_w, x, m1, m2, delta1):
    """Reduced pump intensity r2^2 of generator power ``pd_w`` (stiff pump).

    r2^2 = beta^2 omega2 P_d / (3 hbar omega (3 omega1 - omega2)^2 X), with
    beta = (alpha2/alpha1)^(1/4) and omega the signal frequency.
    """
    beta_sq = math.sqrt(m2.alpha / m1.alpha)
    anh = 3.0 * m1.omega - m2.omega
    omega = m1.omega + delta1
    return beta_sq * m2.omega * np.asarray(pd_w, dtype=float) \
        / (3.0 * HBAR * omega * anh**2 * x)


def linecut_power(pd_w, x, m1, m2, delta1, gain_db):
    """Detected power along a linecut: stable branch inside the window, else 0."""
    delta = delta1 / m1.alpha
    gamma1 = m1.gamma / m1.alpha
    v = pump_intensity(pd_w, x, m1, m2, delta1)
    out = np.zeros_like(v)
    window = steady.existence_window(delta, gamma1)
    if window is None:
        return out
    lo, hi = window
    for i, vi in enumerate(v):
        if lo < vi < hi:
            r1_sq = steady.stable_branch(delta, gamma1, float(vi))
            out[i] = calibration.output_power(r1_sq, m1.gamma_ext, gain_db,
                                              m1.omega + delta1)
    return out


def synthetic_linecut(params, flux, delta1, x, gain_db, noise, rng, n=40):
    """Linecut spanning the existence window at chain parameter ``x``.

    Drive powers run geometrically from half the lower window edge to 1.2
    times the upper one; output powers carry relative Gaussian noise.
    """
    m1, m2 = modes(params, flux)
    window = steady.existence_window(delta1 / m1.alpha, m1.gamma / m1.alpha)
    if window is None:
        raise ValueError(f"delta1 {delta1:.4g} rad/s is above threshold")
    per_watt = float(pump_intensity(1.0, x, m1, m2, delta1))
    pd = np.geomspace(0.5 * window[0] / per_watt, 1.2 * window[1] / per_watt, n)
    pout = linecut_power(pd, x, m1, m2, delta1, gain_db)
    pout = np.maximum(pout * (1.0 + noise * rng.standard_normal(n)), 0.0)
    return calibration.Linecut(delta1=delta1, flux=flux, pd_w=pd, pout_w=pout)


def consistent_drive(point, v):
    """Drive |B2| (s^-1/2) for which pump intensity ``v`` is a stationary triad.

    With r1^2 on the stable branch and the relative phase fixed by the
    fundamental-mode equation (r1 r2 cos theta = -delta - 2 v - r1^2,
    r1 r2 sin theta = gamma1), the second-mode equation gives the modulus
    R of the reduced drive; R = beta sqrt(2 gamma2_ext / alpha1) |B2|.
    """
    r1_sq = steady.stable_branch(point.delta, point.gamma1, v)
    b2 = point.beta**2
    sqv = math.sqrt(v)
    re = (point.delta2 + b2 * (v + 2.0 * r1_sq)) * sqv \
        + (b2 / 3.0) * r1_sq * (-point.delta - 2.0 * v - r1_sq) / sqv
    im = point.gamma2 * sqv + (b2 / 3.0) * r1_sq * point.gamma1 / sqv
    return abs(complex(re, im)) / (
        point.beta * math.sqrt(2.0 * point.gamma2_ext / point.alpha1))


def reduced_flow(point, u1, u2):
    """Reduced equations of motion, written out independently of the program.

    du1/dtau = (i(delta + |u1|^2 + 2 b^2 |u2|^2) - gamma1) u1 + i b conj(u1)^2 u2
    du2/dtau = (i(delta2 + b^4 |u2|^2 + 2 b^2 |u1|^2) - gamma2) u2
               + i (b/3) u1^3 - i (R/b) exp(i phi_B)
    """
    b = point.beta
    b2 = b * b
    n1 = abs(u1) ** 2
    n2 = abs(u2) ** 2
    drive = point.drive_scale / b * complex(math.cos(point.drive_phase),
                                            math.sin(point.drive_phase))
    du1 = (1j * (point.delta + n1 + 2.0 * b2 * n2) - point.gamma1) * u1 \
        + 1j * b * u1.conjugate() ** 2 * u2
    du2 = (1j * (point.delta2 + b2 * b2 * n2 + 2.0 * b2 * n1) - point.gamma2) * u2 \
        + 1j * (b / 3.0) * u1**3 - 1j * drive
    return du1, du2


def state_amplitudes(point, state):
    """(u1, u2) of a steady state from its polar fields; u2 carries 1/beta."""
    u1 = math.sqrt(max(state.r1_sq, 0.0)) * complex(math.cos(state.phi1),
                                                    math.sin(state.phi1))
    u2 = math.sqrt(max(state.r2_sq, 0.0)) / point.beta * complex(
        math.cos(state.phi2), math.sin(state.phi2))
    return u1, u2
