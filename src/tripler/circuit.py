"""Device-derived coefficients of the flux-tunable two-mode resonator.

A quarter-wave coplanar resonator is grounded through a symmetric SQUID and
capacitively read out at the other end.  This module turns the physical
circuit constants (geometry, critical current, line constants, quality
factors) into the mode quantities the dynamics needs: wave numbers, angular
frequencies, Kerr coefficients and dampings, all as functions of the flux
bias.  Everything is a pure function of immutable inputs.  One path leads
from device to dynamics: :func:`mode_profile` builds one mode,
:func:`at_flux` both as a :class:`FluxPoint`, and
:meth:`FluxPoint.operating_point` reduces them to units of the fundamental
Kerr shift; :func:`device_point` does all three in one call.

Flux is always expressed in units of the flux quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import TYPE_CHECKING

from ._roots import bisect
from .errors import (
    DegenerateFluxError,
    DomainError,
    FluxRangeError,
    MissingCouplingError,
    domain,
)

if TYPE_CHECKING:
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
                raise domain(f.name, value, "finite")
        for name in ("d", "Ic", "CJ", "L0", "C0", "Q_int_1", "Phi0"):
            if getattr(self, name) <= 0:
                raise domain(name, getattr(self, name), "positive")
        for name in ("Q_ext_1", "Cc", "Q_int_2"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise domain(name, val, "positive when given")
        # the products the properties divide by or take the root of
        for name, other in (("L0", "d"), ("L0", "C0"), ("C0", "d")):
            product = getattr(self, name) * getattr(self, other)
            if not 0.0 < product < math.inf:
                raise DomainError(name, f"{name}*{other} must be positive "
                                  f"and finite, got {product!r}")
        if self.kerr_energy not in KERR_CONVENTIONS:
            raise domain("kerr_energy", self.kerr_energy,
                         f"one of {KERR_CONVENTIONS}")
        if not 0.0 < self.participation_ratio < 1.0:
            raise DomainError(
                "Ic", "Ic must give a SQUID participation ratio "
                f"Phi0/(2*pi*Ic)/(L0*d) inside (0, 1), got "
                f"{self.participation_ratio:.3g}")
        if self.C_cav <= self.CJ:
            raise domain("CJ", self.CJ, "below the resonator capacitance "
                         f"C0*d = {self.C_cav!r}")

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

    @cached_property
    def coupling_ratio_sq(self) -> float:
        """(Cc/C_cav)^2, direct or inverted from Q_ext_1 at zero flux.

        Solved once per instance: every mode profile needs it, and the
        inversion from Q_ext_1 costs a dispersion bisection.
        """
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
    """One resonator mode at a given flux: index ``n``, wave number ``kd``,
    and ``omega``, ``alpha`` and the dampings in rad/s."""

    n: int
    kd: float
    omega: float
    alpha: float
    gamma_ext: float
    gamma_int: float
    gamma: float


def _dispersion_root(params: CircuitParams, flux: float, n: int) -> float:
    """Root of (kd)tan(kd) = A - B*(kd)^2 inside ((n-1)pi, (n-1)pi + pi/2).

    A = E_S(flux)/E_L and B = CJ/C_cav.  The left side rises monotonically
    from 0 to +inf across the bracket while the right side falls, so the
    root exists and is unique; plain bisection to 1e-12 relative is ample.
    """
    A = params.squid_energy(flux) / params.inductive_energy
    B = params.CJ / params.C_cav
    lo = (n - 1) * math.pi
    hi = lo + 0.5 * math.pi

    def f(x):
        return x * math.tan(x) + B * x * x - A

    eps = 1e-13 * max(1.0, hi)
    return bisect(f, lo + eps, hi - eps, rtol=_SPECTRUM_RTOL)


def mode_profile(params: CircuitParams, flux: float, n: int) -> ModeProfile:
    """Spectrum, Kerr coefficient and dampings of mode ``n`` (1 or 2).

    The wave number solves the dispersion relation of the SQUID-terminated
    line, ``(kd)tan(kd) = E_S(flux)/E_L - (CJ/C_cav)(kd)^2``, on the branch
    bracketed in ``((n-1)*pi, (n-1)*pi + pi/2)``; ``omega = kd*v/d``.  The
    Kerr coefficient is ``alpha = hbar*omega^2*E_L^2 / (16*E_J^3(flux))``.
    Gamma_ext = omega*kd*(Cc/C_cav)^2 with the coupling ratio held flux
    independent; Gamma_int = omega/(2*Q_int), also flux independent in Q.
    """
    if n not in (1, 2):
        raise domain("n", n, "1 or 2: only the two lowest modes are modeled")
    if not abs(flux) <= FLUX_LIMIT:     # also rejects NaN
        raise FluxRangeError(
            f"flux {flux} is outside the model validity range "
            f"|flux| <= {FLUX_LIMIT}")
    kd = _dispersion_root(params, flux, n)
    omega = kd * params.velocity / params.d
    ej = params.kerr_josephson_energy(flux)
    gamma_ext = omega * kd * params.coupling_ratio_sq
    q_int = params.Q_int_1 if (n == 1 or params.Q_int_2 is None) \
        else params.Q_int_2
    gamma_int = omega / (2.0 * q_int)
    return ModeProfile(
        n=n, kd=kd, omega=omega,
        alpha=HBAR * omega**2 * params.inductive_energy**2 / (16.0 * ej**3),
        gamma_ext=gamma_ext, gamma_int=gamma_int, gamma=gamma_ext + gamma_int)


@dataclass(frozen=True)
class FluxPoint:
    """The device at one flux bias: both mode profiles."""

    flux: float
    mode1: ModeProfile
    mode2: ModeProfile

    @property
    def beta(self) -> float:
        """Mode coupling ratio (alpha2/alpha1)^(1/4)."""
        return (self.mode2.alpha / self.mode1.alpha) ** 0.25

    def operating_point(self, delta1: float, drive_b2: float = 0.0,
                        drive_phase: float = 0.0) -> DimensionlessPoint:
        """Operating point at signal detuning ``delta1`` (rad/s) in alpha1 units.

        The signal oscillates at omega1 + delta1 and the drive at three
        times that, so delta2/alpha1 = 3*delta + Delta holds by construction.
        The rotating frame needs that frequency in (0, 2*omega1), so a
        :class:`DomainError` rejects |delta1| >= omega1 (and NaN).
        """
        m1, m2 = self.mode1, self.mode2
        if not abs(delta1) < m1.omega:
            raise domain("delta1", float(delta1), "inside (-omega1, omega1) = "
                         f"+-{m1.omega!r} rad/s")
        a1 = m1.alpha
        return _dimensionless_point()(
            # detuning from the signal frequency, rounded as that frequency is
            delta=((m1.omega + delta1) - m1.omega) / a1,
            Delta=(3.0 * m1.omega - m2.omega) / a1,
            gamma1=m1.gamma / a1,
            gamma2=m2.gamma / a1,
            gamma2_ext=m2.gamma_ext / a1,
            beta=self.beta,
            alpha1=a1,
            drive_b2=drive_b2,
            drive_phase=drive_phase,
            flux=self.flux,
        )


@cache
def _dimensionless_point() -> type[DimensionlessPoint]:
    """``steady.DimensionlessPoint``, imported on first use so that circuit
    alone (the ``spectrum`` command) does not load the steady layer; cached,
    since an import statement would cost each reduction a microsecond or two.
    """
    from .steady import DimensionlessPoint

    return DimensionlessPoint


def at_flux(params: CircuitParams, flux: float) -> FluxPoint:
    """Both mode profiles at one flux bias."""
    return FluxPoint(flux=flux, mode1=mode_profile(params, flux, 1),
                     mode2=mode_profile(params, flux, 2))


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
