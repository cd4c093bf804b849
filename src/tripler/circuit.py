"""Device-derived coefficients of the flux-tunable two-mode resonator.

A quarter-wave coplanar resonator is grounded through a symmetric SQUID and
capacitively read out at the other end.  This module turns the physical
circuit constants (geometry, critical current, line constants, quality
factors) into the mode quantities the dynamics needs: wave numbers, angular
frequencies, Kerr coefficients and dampings, all as functions of the flux
bias.  Everything is a pure function of immutable inputs.

Flux is always expressed in units of the flux quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

from ._roots import bisect
from .errors import (
    DegenerateFluxError,
    FluxRangeError,
    MissingCouplingError,
    OvercurrentError,
)
from .steady import DimensionlessPoint

#: reduced Planck constant (J s) and magnetic flux quantum h/2e (Wb), both
#: exact in SI from the defined Planck constant and elementary charge
HBAR = 6.62607015e-34 / (2 * math.pi)
PHI0 = 6.62607015e-34 / (2 * 1.602176634e-19)

#: beyond this flux magnitude the two-mode description degrades and the
#: dispersion equation approaches its degenerate point
FLUX_LIMIT = 0.45

#: per-junction vs total-SQUID energy entering the Kerr formula; the default
#: is the convention that reproduces the measured fundamental Kerr shift
KERR_CONVENTIONS = ("per_junction", "total")

_SPECTRUM_RTOL = 1e-12


@dataclass(frozen=True)
class CircuitParams:
    """Physical constants of the device.

    Parameters
    ----------
    d:
        Resonator length (m).
    Ic:
        SQUID critical current (A), the parallel combination of the two
        junctions.
    CJ:
        SQUID capacitance (F).
    L0, C0:
        Line inductance (H/m) and capacitance (F/m) per unit length.
    Cc:
        Coupling capacitance to the transmission line (F).  Optional: when
        absent it is inferred from ``Q_ext_1``.
    Q_int_1, Q_ext_1:
        Internal and external quality factors of the fundamental mode at
        zero flux.  ``Q_int_2`` defaults to ``Q_int_1``.
    Phi0:
        Magnetic flux quantum (Wb).
    kerr_energy:
        Which Josephson energy enters the Kerr formula: "per_junction"
        (default) or "total".
    """

    d: float
    Ic: float
    CJ: float
    L0: float
    C0: float
    Q_int_1: float
    Q_ext_1: float | None = None
    Cc: float | None = None
    Q_int_2: float | None = None
    Phi0: float = PHI0
    kerr_energy: str = "per_junction"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("d", "Ic", "CJ", "L0", "C0", "Q_int_1", "Phi0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("Q_ext_1", "Cc", "Q_int_2"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when given")
        if self.kerr_energy not in KERR_CONVENTIONS:
            raise ValueError(f"kerr_energy must be one of {KERR_CONVENTIONS}")
        if not 0.0 < self.participation_ratio < 1.0:
            raise ValueError(
                f"SQUID participation ratio {self.participation_ratio:.3g} "
                "outside (0, 1)")
        if self.C_cav <= self.CJ:
            raise ValueError("resonator capacitance C0*d must exceed CJ")

    @property
    def velocity(self) -> float:
        """Phase velocity 1/sqrt(L0*C0) of the bare line (m/s)."""
        return 1.0 / math.sqrt(self.L0 * self.C0)

    @property
    def C_cav(self) -> float:
        """Total resonator capacitance C0*d (F)."""
        return self.C0 * self.d

    @property
    def inductive_energy(self) -> float:
        """Cavity inductive energy scale (Phi0/2pi)^2 / (L0*d) in J."""
        phi_r = self.Phi0 / (2.0 * math.pi)
        return phi_r**2 / (self.L0 * self.d)

    @property
    def squid_energy_zero(self) -> float:
        """Josephson energy of the whole SQUID at zero flux (J)."""
        return self.Phi0 / (2.0 * math.pi) * self.Ic

    @property
    def participation_ratio(self) -> float:
        """Zero-flux SQUID inductance over the line inductance, L_J0/(L0*d)."""
        return self.Phi0 / (2.0 * math.pi * self.Ic) / (self.L0 * self.d)

    def squid_energy(self, flux: float) -> float:
        """Flux-modulated SQUID Josephson energy (J)."""
        c = abs(math.cos(math.pi * flux))
        if c < 1e-12:
            raise DegenerateFluxError(
                f"flux {flux} (in flux quanta) is at the degenerate half-quantum point")
        return self.squid_energy_zero * c

    def kerr_josephson_energy(self, flux: float) -> float:
        """The E_J entering the Kerr formula under the configured convention."""
        e = self.squid_energy(flux)
        return 0.5 * e if self.kerr_energy == "per_junction" else e

    def coupling_ratio_sq(self) -> float:
        """(Cc/C_cav)^2, direct or inverted from Q_ext_1 at zero flux."""
        return self._coupling_ratio_sq

    @cached_property
    def _coupling_ratio_sq(self) -> float:
        # solved once per instance: every mode profile needs it, and the
        # inversion from Q_ext_1 costs a dispersion bisection
        if self.Cc is not None:
            return (self.Cc / self.C_cav) ** 2
        if self.Q_ext_1 is not None:
            kd1 = _dispersion_root(self, 0.0, 1)
            # Gamma_ext = omega*kd*(Cc/Ccav)^2 must equal omega/(2*Q_ext)
            return 1.0 / (2.0 * self.Q_ext_1 * kd1)
        raise MissingCouplingError(
            "neither Cc nor Q_ext_1 given: external damping is undetermined")


@dataclass(frozen=True)
class ModeProfile:
    """Derived quantities of one resonator mode at a given flux.

    ``alpha`` and the dampings are ``None`` until filled in by
    :func:`mode_kerr` / :func:`mode_damping` (or use :func:`mode_profile`).
    """

    n: int
    kd: float
    omega: float
    alpha: float | None = None
    gamma_ext: float | None = None
    gamma_int: float | None = None
    gamma: float | None = None


@dataclass(frozen=True)
class ModeCouplings:
    """Cross-mode Kerr couplings derived from the two mode Kerr constants."""

    alpha_cross: float   # sqrt(alpha1*alpha2)
    alpha_tilde: float   # (alpha1^3*alpha2)^(1/4)
    beta: float          # (alpha2/alpha1)^(1/4)


def squid_inductance(params: CircuitParams, flux: float, current: float = 0.0) -> float:
    """SQUID inductance Phi0 / (2*pi*|cos(pi*flux)|*sqrt(Ic^2 - Is^2)) in H.

    ``flux`` in flux quanta, ``current`` in A.  Grows monotonically with
    both |flux| (toward the half-quantum degeneracy) and |current| (toward
    the critical current).
    """
    if abs(current) >= params.Ic:
        raise OvercurrentError(
            f"|Is| = {abs(current):.3e} A at or above Ic = {params.Ic:.3e} A")
    c = abs(math.cos(math.pi * flux))
    if c < 1e-12:
        raise DegenerateFluxError(
            f"flux {flux} (in flux quanta) is at the degenerate half-quantum point")
    return params.Phi0 / (2.0 * math.pi * c * math.sqrt(params.Ic**2 - current**2))


def _check_flux(flux: float):
    if not abs(flux) <= FLUX_LIMIT:     # also rejects NaN
        raise FluxRangeError(
            f"flux {flux} is outside the model validity range "
            f"|flux| <= {FLUX_LIMIT}")


def _dispersion_rhs_coeffs(params: CircuitParams, flux: float):
    A = params.squid_energy(flux) / params.inductive_energy
    B = params.CJ / params.C_cav
    return A, B


def _dispersion_root(params: CircuitParams, flux: float, n: int) -> float:
    """Root of (kd)tan(kd) = A - B*(kd)^2 inside ((n-1)pi, (n-1)pi + pi/2).

    The left side rises monotonically from 0 to +inf across the bracket
    while the right side falls, so the root exists and is unique; plain
    bisection to 1e-12 relative is ample.
    """
    A, B = _dispersion_rhs_coeffs(params, flux)
    lo = (n - 1) * math.pi
    hi = lo + 0.5 * math.pi

    def f(x):
        return x * math.tan(x) + B * x * x - A

    eps = 1e-13 * max(1.0, hi)
    return bisect(f, lo + eps, hi - eps, rtol=_SPECTRUM_RTOL)


def solve_spectrum(params: CircuitParams, flux: float, n: int) -> ModeProfile:
    """Wave number and frequency of mode ``n`` (1 or 2) at the given flux.

    Solves the dispersion relation of the SQUID-terminated line,
    ``(kd)tan(kd) = E_S(flux)/E_L - (CJ/C_cav)(kd)^2``, on the branch
    bracketed in ``((n-1)*pi, (n-1)*pi + pi/2)``; ``omega = kd*v/d``.
    """
    if n not in (1, 2):
        raise ValueError("only the two lowest modes are modeled")
    _check_flux(flux)
    kd = _dispersion_root(params, flux, n)
    return ModeProfile(n=n, kd=kd, omega=kd * params.velocity / params.d)


def mode_kerr(params: CircuitParams, flux: float, profile: ModeProfile) -> float:
    """Kerr coefficient alpha_n = hbar*omega_n^2*E_L^2 / (16*E_J^3(flux)) in rad/s."""
    _check_flux(flux)
    ej = params.kerr_josephson_energy(flux)
    return HBAR * profile.omega**2 * params.inductive_energy**2 / (16.0 * ej**3)


def mode_damping(params: CircuitParams, flux: float, profile: ModeProfile):
    """External, internal and total damping of a mode (rad/s).

    Gamma_ext = omega*kd*(Cc/C_cav)^2 with the coupling ratio held flux
    independent; Gamma_int = omega/(2*Q_int), also flux independent in Q.
    """
    _check_flux(flux)
    cc2 = params.coupling_ratio_sq()
    gamma_ext = profile.omega * profile.kd * cc2
    q_int = params.Q_int_1 if (profile.n == 1 or params.Q_int_2 is None) \
        else params.Q_int_2
    gamma_int = profile.omega / (2.0 * q_int)
    return gamma_ext, gamma_int, gamma_ext + gamma_int


def mode_profile(params: CircuitParams, flux: float, n: int) -> ModeProfile:
    """Complete :class:`ModeProfile` (spectrum, Kerr and dampings) for one mode."""
    prof = solve_spectrum(params, flux, n)
    alpha = mode_kerr(params, flux, prof)
    g_ext, g_int, g = mode_damping(params, flux, prof)
    return replace(prof, alpha=alpha, gamma_ext=g_ext, gamma_int=g_int, gamma=g)


def couplings(mode1: ModeProfile, mode2: ModeProfile) -> ModeCouplings:
    """Cross-Kerr couplings from the two filled-in mode profiles."""
    a1, a2 = mode1.alpha, mode2.alpha
    if a1 is None or a2 is None:
        raise ValueError("mode profiles must carry Kerr coefficients")
    return ModeCouplings(alpha_cross=math.sqrt(a1 * a2),
                         alpha_tilde=(a1**3 * a2) ** 0.25,
                         beta=(a2 / a1) ** 0.25)


def reduce_operating_point(mode1: ModeProfile, mode2: ModeProfile,
                           cpl: ModeCouplings, signal_omega: float,
                           drive_b2: float = 0.0, drive_phase: float = 0.0,
                           flux: float | None = None) -> DimensionlessPoint:
    """Reduce a physical operating point to alpha1 units.

    ``signal_omega`` is the angular frequency of the fundamental-mode
    response; the drive sits at three times it.  The identity
    delta2/alpha1 = 3*delta + Delta holds by construction.
    """
    a1 = mode1.alpha
    return DimensionlessPoint(
        delta=(signal_omega - mode1.omega) / a1,
        Delta=(3.0 * mode1.omega - mode2.omega) / a1,
        gamma1=mode1.gamma / a1,
        gamma2=mode2.gamma / a1,
        gamma2_ext=mode2.gamma_ext / a1,
        beta=cpl.beta,
        alpha1=a1,
        drive_b2=drive_b2,
        drive_phase=drive_phase,
        flux=flux,
    )


@dataclass(frozen=True)
class FluxPoint:
    """The device at one flux bias: both mode profiles and their couplings."""

    flux: float
    mode1: ModeProfile
    mode2: ModeProfile
    couplings: ModeCouplings

    def operating_point(self, delta1: float, drive_b2: float = 0.0,
                        drive_phase: float = 0.0) -> DimensionlessPoint:
        """Reduced operating point at signal detuning ``delta1`` (rad/s)."""
        return reduce_operating_point(self.mode1, self.mode2, self.couplings,
                                      signal_omega=self.mode1.omega + delta1,
                                      drive_b2=drive_b2,
                                      drive_phase=drive_phase, flux=self.flux)


def at_flux(params: CircuitParams, flux: float) -> FluxPoint:
    """Both filled-in mode profiles and their couplings at one flux bias."""
    m1 = mode_profile(params, flux, 1)
    m2 = mode_profile(params, flux, 2)
    return FluxPoint(flux=flux, mode1=m1, mode2=m2, couplings=couplings(m1, m2))


def device_point(params: CircuitParams, flux: float, delta1: float,
                 drive_b2: float = 0.0, drive_phase: float = 0.0) -> DimensionlessPoint:
    """Operating point for a device at given flux and signal detuning (rad/s)."""
    return at_flux(params, flux).operating_point(delta1, drive_b2, drive_phase)


def reference_params() -> CircuitParams:
    """Constants of the 5.08 mm tunable sample used for tests and CLI defaults."""
    return CircuitParams(
        d=5080e-6,
        Ic=1.90e-6,
        CJ=86.1e-15,
        L0=0.44e-6,
        C0=0.16e-9,
        Q_int_1=61.1e3,
        Q_ext_1=19.0e3,
    )
