"""Stationary solutions of the driven two-mode system in reduced units.

All quantities here are dimensionless: detunings and dampings are measured
in units of the fundamental-mode Kerr coefficient alpha1, amplitudes are the
polar variables (r1, r2) of the two modes, and time runs in units of
1/alpha1.  The only dimensional quantity carried along is ``alpha1`` itself
(rad/s), so results can be restored to laboratory units.

The fundamental mode oscillates at one third of the drive frequency; the
second mode, driven near resonance, acts as an effective pump.  For red
detuning beyond ``-sqrt(7)*gamma1`` the system supports, besides the always
stable silent state, a triplet of excited states of equal amplitude whose
phases differ by 2*pi/3.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from ._roots import bisect, bracket_roots
from .errors import (
    BelowThresholdError,
    ConvergenceError,
    PhaseDomainError,
    RegimeWarning,
    ResidualError,
    StabilityMismatchWarning,
)

THRESHOLD_FACTOR = math.sqrt(7.0)

#: residual (in units of alpha1) below which a state counts as stationary
STATIONARY_TOL = 1e-9

#: eigenvalue real part (units of alpha1) below which a state counts as stable
STABILITY_TOL = -1e-9

#: residual (units of alpha1) above which a state handed to a stability
#: check is rejected as not stationary at all
_VERIFY_TOL = 1e-6


@dataclass(frozen=True)
class DimensionlessPoint:
    """Operating point of the two-mode system in units of alpha1.

    Parameters
    ----------
    delta:
        Signal detuning (omega - omega1) / alpha1.
    Delta:
        Spectrum anharmonicity (3*omega1 - omega2) / alpha1.
    gamma1, gamma2:
        Total mode dampings Gamma_n / alpha1.
    gamma2_ext:
        External part of the second-mode damping, Gamma_2ext / alpha1.
    beta:
        Mode asymmetry (alpha2/alpha1)**(1/4).
    alpha1:
        Kerr coefficient of the fundamental mode in rad/s, kept for unit
        restoration.
    drive_b2:
        Drive amplitude |B2| in s**-1/2.
    drive_phase:
        Drive phase phi_B in radians.
    """

    delta: float
    Delta: float
    gamma1: float
    gamma2: float
    gamma2_ext: float
    beta: float
    alpha1: float
    drive_b2: float = 0.0
    drive_phase: float = 0.0
    flux: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.gamma1 < 0 or self.gamma2 < 0 or self.gamma2_ext < 0:
            raise ValueError("dampings must be non-negative")
        if self.gamma2_ext > self.gamma2 * (1 + 1e-12):
            raise ValueError("gamma2_ext cannot exceed gamma2")
        if self.alpha1 <= 0:
            raise ValueError("alpha1 must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.drive_b2 < 0:
            raise ValueError("drive amplitude is a magnitude, >= 0")

    @property
    def delta2(self) -> float:
        """Second-mode detuning (3*omega - omega2)/alpha1 = 3*delta + Delta."""
        return 3.0 * self.delta + self.Delta

    @property
    def drive_scale(self) -> float:
        """Dimensionless drive strength beta*sqrt(2*gamma2_ext/alpha1)*|B2|."""
        return self.beta * math.sqrt(2.0 * self.gamma2_ext / self.alpha1) * self.drive_b2

    def with_drive(self, b2: float, phase: float | None = None) -> "DimensionlessPoint":
        """Copy of this point with a different drive amplitude (and phase)."""
        kw = {"drive_b2": b2}
        if phase is not None:
            kw["drive_phase"] = phase
        return replace(self, **kw)


@dataclass(frozen=True)
class SteadyState:
    """One stationary solution branch.

    ``kind`` is "ground" for silent states (r1 = 0) and "triad" for excited
    states; the three triad members share identical amplitudes and relative
    phase ``theta = 3*phi1 - phi2`` and differ in phi1 by exactly 2*pi/3
    (``copy`` indexes them 0..2).  ``branch`` numbers coexisting response
    roots.  Eigenvalues are in units of alpha1.
    """

    kind: str
    r1_sq: float
    r2_sq: float
    theta: float
    phi1: float
    phi2: float
    stable: bool
    eigenvalues: tuple[complex, ...]
    residual: float
    branch: int = 0
    copy: int = 0
    root_sign: int = +1
    back_bending: bool = False

    def amplitudes(self, point: DimensionlessPoint) -> tuple[complex, complex]:
        """Complex mode amplitudes (u1, u2) with u2 carrying the 1/beta scale."""
        u1 = math.sqrt(max(self.r1_sq, 0.0)) * cmath.exp(1j * self.phi1)
        u2 = math.sqrt(max(self.r2_sq, 0.0)) / point.beta * cmath.exp(1j * self.phi2)
        return u1, u2


@dataclass(frozen=True)
class ResponseBranch:
    """One silent-state root of the second-mode response at fixed drive."""

    r2_sq: float
    back_bending: bool       # on a segment where drive power falls with r2


def threshold_detuning(gamma1: float) -> float:
    """Largest (least red) detuning at which excited states exist."""
    return -THRESHOLD_FACTOR * gamma1


def existence_window(delta: float, gamma1: float):
    """Pump-intensity interval (r2m_sq, r2p_sq) where excited states exist.

    Returns ``None`` when the detuning is above threshold, i.e. when
    ``delta > -sqrt(7)*gamma1``.  At exact threshold the window degenerates
    to the single point 2*|delta|/7.
    """
    if gamma1 < 0:
        raise ValueError("gamma1 must be non-negative")
    if delta >= 0 or delta > threshold_detuning(gamma1):
        return None
    adelta = -delta
    root = math.sqrt(max(1.0 - 7.0 * gamma1**2 / delta**2, 0.0))
    lo = 2.0 * adelta / 7.0 * (1.0 - root)
    hi = 2.0 * adelta / 7.0 * (1.0 + root)
    return lo, hi


def branch_quadratic(delta, gamma1, r2_sq):
    """Centre and discriminant of the closed fundamental-mode equation.

    The stationary fundamental intensity obeys (r1^2 - base)^2 = disc, so
    ``r1^2 = base +- sqrt(disc)`` with base = -(delta + 1.5*r2^2) and
    disc = -r2^2*delta - 1.75*r2^4 - gamma1^2.  Array friendly.
    """
    return -(delta + 1.5 * r2_sq), -r2_sq * delta - 1.75 * r2_sq**2 - gamma1**2


def subharmonic_branches(delta: float, gamma1: float, r2_sq: float):
    """Real non-negative roots r1^2 of the closed fundamental-mode equation.

    Returns a list of ``(r1_sq, branch)`` with ``branch`` +1 for the upper
    (stable) root and -1 for the lower one.  Zero, one or two roots exist
    depending on whether the pump intensity lies outside, on the edge of,
    or inside the existence window.
    """
    if r2_sq < 0:
        raise ValueError("r2_sq must be non-negative")
    base, disc = branch_quadratic(delta, gamma1, r2_sq)
    scale = max(1.0, delta**2, gamma1**2)
    if disc < -1e-12 * scale:
        return []
    if disc <= 1e-12 * scale:
        return [(base, +1)] if base >= 0 else []
    root = math.sqrt(disc)
    out = []
    for sign in (+1, -1):
        val = base + sign * root
        if val >= 0:
            out.append((val, sign))
    return out


def stable_branch(delta: float, gamma1: float, r2_sq: float) -> float:
    """Upper-root r1^2; raises if the pump lies outside the window."""
    for val, sign in subharmonic_branches(delta, gamma1, r2_sq):
        if sign == +1:
            return val
    raise BelowThresholdError(
        f"no excited state at delta={delta}, gamma1={gamma1}, r2_sq={r2_sq}")


def _theta_exact(delta: float, gamma1: float, r1_sq: float, r2_sq: float) -> float:
    """Relative phase 3*phi1 - phi2 from the stationary conditions (any branch)."""
    rr = math.sqrt(r1_sq * r2_sq)
    if rr == 0.0:
        raise PhaseDomainError("phase undefined at zero amplitude")
    sin_t = gamma1 / rr
    cos_t = (-delta - 2.0 * r2_sq - r1_sq) / rr
    if sin_t > 1.0 + 1e-9:
        raise PhaseDomainError(
            f"gamma1/(r1*r2) = {sin_t:.3g} > 1: amplitudes too small for damping")
    return math.atan2(min(sin_t, 1.0), cos_t) % (2.0 * math.pi)


def triad_phases(delta: float, gamma1: float, r1_sq: float, r2_sq: float,
                 phi2: float = 0.0):
    """Relative phase theta and the three fundamental-mode phases.

    For a stable-branch state ``sin(theta) = gamma1/(r1*r2)`` with theta in
    (pi/2, pi]; the three degenerate phase choices are
    ``phi1 = (theta + phi2)/3 + 2*pi*k/3``.
    """
    theta = _theta_exact(delta, gamma1, r1_sq, r2_sq)
    phis = tuple((theta + phi2) / 3.0 + 2.0 * math.pi * k / 3.0 for k in range(3))
    return theta, phis


def max_intensity(delta: float, gamma1: float):
    """Peak excited-state intensity over the pump window, and its location.

    Returns ``(r1_max_sq, argmax_r2_sq)``.  The peak value
    ``(4/7)*(|delta| + sqrt(delta^2 - 7*gamma1^2))`` is exact; the reported
    location ``|delta|/14`` is the far-from-threshold expression (the true
    argmax drifts up toward 2|delta|/7 as the threshold is approached, but
    the intensity profile is flat there).
    """
    if delta > threshold_detuning(gamma1):
        raise BelowThresholdError(
            f"delta={delta} above threshold {threshold_detuning(gamma1):.6g}")
    adelta = -delta
    r1_max_sq = 4.0 / 7.0 * (adelta + math.sqrt(max(delta**2 - 7.0 * gamma1**2, 0.0)))
    return r1_max_sq, adelta / 14.0


def max_drive(point: DimensionlessPoint) -> float:
    """Drive power |B2|^2 (s^-1) beyond which the excited states disappear.

    Far-from-threshold estimate 2*Delta^2*|delta|*alpha1/(7*beta^2*gamma2_ext);
    warns when used at |delta| < 3*gamma1 where it loses accuracy.
    """
    if point.gamma2_ext <= 0:
        raise ValueError("max_drive requires gamma2_ext > 0")
    if abs(point.delta) < 3.0 * point.gamma1:
        warnings.warn(
            f"|delta|={abs(point.delta):.3g} < 3*gamma1={3 * point.gamma1:.3g}: "
            "max-drive estimate used outside its regime", RegimeWarning,
            stacklevel=2)
    return (2.0 * point.Delta**2 * abs(point.delta) * point.alpha1
            / (7.0 * point.beta**2 * point.gamma2_ext))


# ---------------------------------------------------------------------------
# second-mode response


def second_mode_response(point: DimensionlessPoint):
    """All pump-intensity branches r2^2 of a silent state (r1 = 0).

    With the fundamental mode silent the second mode is a driven Duffing
    oscillator: M(x) = beta^2 x^3 + delta2 x with x = r2 satisfies
    M(x)^2 + gamma2^2 x^2 = R^2, R the dimensionless drive.  Every real
    non-negative root is returned with a back-bending tag for segments
    where the root moves opposite to the drive power (the hallmark of the
    unstable middle branch of a multivalued response).
    """
    scale = max(1.0, abs(point.delta2), point.drive_scale ** (1 / 3.0))
    b2, c1 = point.beta**2, point.delta2
    R = point.drive_scale
    if point.gamma2 == 0.0:
        # the squared equation factors into M(x) = +R and M(x) = -R;
        # rooting the cubics directly avoids the double roots the squared
        # form would produce
        raw = []
        for rhs in {R, -R}:
            raw.extend(np.polynomial.polynomial.polyroots(
                np.array([-rhs, c1, 0.0, b2])))
    else:
        # (b2 x^3 + c1 x)^2 + g2^2 x^2 - R^2, ascending powers of x
        raw = np.polynomial.polynomial.polyroots(np.array([
            -(R * R), 0.0, c1**2 + point.gamma2**2, 0.0, 2.0 * b2 * c1,
            0.0, b2**2]))
    xs = sorted(r.real for r in raw
                if abs(r.imag) <= 1e-9 * scale and r.real >= -1e-12 * scale)

    out = []
    for x in xs:
        x = max(x, 0.0)
        if out and abs(x - math.sqrt(out[-1].r2_sq)) <= 1e-9 * max(1.0, x):
            continue  # collapse multiple roots
        M = b2 * x**3 + c1 * x
        # dR^2/dx < 0 marks the back-bending segment
        dM = 3.0 * b2 * x**2 + c1
        slope = 2.0 * M * dM + 2.0 * point.gamma2**2 * x
        out.append(ResponseBranch(r2_sq=x * x, back_bending=slope < 0.0))
    return out


# ---------------------------------------------------------------------------
# full flow, Jacobian, stability


class _Coefficients(NamedTuple):
    """Constants of :func:`_flow`: laboratory (rad/s) or reduced (:meth:`reduced`).

    Plain ``float``/``complex`` values keep numpy scalars out of the scalar
    hot loop.  Each hoisted product is the leading factor of its term in
    the equations, so hoisting leaves the rounding of array runs unchanged.
    """

    delta1: float
    delta2: float
    alpha1: float
    alpha2: float
    alpha_cross2: float         # 2*alpha_x
    Gamma1: float
    Gamma2: float
    i_alpha_tilde: complex      # i*alpha_t
    i_alpha_tilde3: complex     # i*alpha_t/3
    i_drive: complex            # i*sqrt(2*Gamma2_ext)*B2

    @classmethod
    def reduced(cls, point: DimensionlessPoint) -> "_Coefficients":
        """The laboratory constants divided by alpha1, with u = a.

        alpha1 -> 1, alpha2 -> beta^4, 2*alpha_x -> 2*beta^2,
        alpha_t -> beta and the drive -> drive_scale/beta * exp(i*phi_B).
        """
        b = point.beta
        b2 = b * b
        drive = point.drive_scale / b * np.exp(1j * point.drive_phase)
        return cls(point.delta, point.delta2, 1.0, b2 * b2, 2.0 * b2,
                   point.gamma1, point.gamma2, 1j * b, 1j * (b / 3.0),
                   complex(1j * drive))


def _rates_and_flow(c: _Coefficients, a1, a2):
    """Linear rates ``L = i*(detuning + Kerr) - Gamma`` and the flow.

    Returns ``(L1, L2, da1/dt, da2/dt)``; each mode's flow is ``L*a`` plus
    its coupling (and, for mode 2, drive) term.  Uses only operators that
    Python ``complex`` and numpy arrays share, so one expression serves
    single trajectories and ensembles.
    """
    d1, d2, al1, al2, ax2, g1, g2, iat, iat3, idrive = c
    n1 = abs(a1) ** 2
    n2 = abs(a2) ** 2
    l1 = 1j * (d1 + al1 * n1 + ax2 * n2) - g1
    l2 = 1j * (d2 + al2 * n2 + ax2 * n1) - g2
    return (l1, l2, l1 * a1 + iat * a1.conjugate() ** 2 * a2,
            l2 * a2 + iat3 * a1**3 - idrive)


def _flow(c: _Coefficients, a1, a2):
    """The equations of motion over hoisted constants.

    The flow of :func:`_rates_and_flow`, without the rates.
    """
    _, _, da1, da2 = _rates_and_flow(c, a1, a2)
    return da1, da2


class _FlowWork(NamedTuple):
    """Constants, scratch and prebuilt views of :func:`_flow_into`.

    Built once per ensemble run by :meth:`build`; row 0 is mode 1 and row 1
    mode 2 throughout.  ``views`` holds ``(x, x[0], x[1])`` for each buffer
    ``x`` passed to :meth:`build`, in order.
    """

    delta: np.ndarray       # (2, M) detunings
    alpha: np.ndarray       # (2, M) self-Kerr coefficients
    gamma: np.ndarray       # (2, M) complex dampings Gamma + 0j
    constants: tuple        # 2*alpha_x, i*alpha_t, i*alpha_t/3, i*drive, 1j
                            # and the power 3 + 0j of a1, as 0-d arrays (a
                            # ufunc converts a Python scalar on every call)
    n: np.ndarray           # (2, M) scratch: |a|^2
    kerr: np.ndarray        # (2, M) scratch: detuning plus self-Kerr
    cross: tuple            # (2, M) scratch 2*alpha_x*|a|^2, and it with
                            # rows swapped: the cross-Kerr shift per mode
    phase: tuple            # (2, M) complex scratch of imaginary part 0,
                            # and its real part
    linear: np.ndarray      # (2, M) complex: the rates L of the last call
    coupling: tuple         # (2, M) complex scratch and its rows
    term: tuple             # two (M,) complex scratch rows
    views: tuple

    @classmethod
    def build(cls, c: _Coefficients, *buffers: np.ndarray) -> "_FlowWork":
        m = buffers[0].shape[1]

        def rows(x1, x2, dtype=float):
            return np.repeat(np.array([[x1], [x2]], dtype=dtype), m, axis=1)

        n, kerr, cross = np.empty((3, 2, m))
        phase = np.zeros((2, m), dtype=complex)
        linear, coupling = np.empty((2, 2, m), dtype=complex)
        constants = tuple(map(np.asarray, (c.alpha_cross2, c.i_alpha_tilde,
                                           c.i_alpha_tilde3, c.i_drive, 1j,
                                           3 + 0j)))
        return cls(rows(c.delta1, c.delta2), rows(c.alpha1, c.alpha2),
                   rows(c.Gamma1, c.Gamma2, complex), constants, n, kerr,
                   (cross, cross[::-1]), (phase, phase.real), linear,
                   (coupling, *coupling),
                   tuple(np.empty((2, m), dtype=complex)),
                   tuple((x, *x) for x in buffers))


def _flow_into(work: _FlowWork, a: tuple, out: tuple) -> None:
    """:func:`_flow` of a stacked ``(2, M)`` ensemble, written into ``out``.

    ``a`` and ``out`` are entries of ``work.views`` whose buffers share no
    memory; ``a`` holds mode 1 in row 0 and mode 2 in row 1.  The terms
    both modes share are evaluated once for both rows, the couplings and
    the drive per row.  Views and constants come prebuilt and each ufunc
    takes its output by position, so a call allocates nothing.  Each
    elementwise operation and the order of its operands are those of
    :func:`_flow`, and no complex product is written over one of its
    factors (numpy rounds such a product differently when M = 1), so the
    result is bit-identical to ``np.stack(_flow(c, a1, a2))``, and
    ``work.linear`` to the rates L of :func:`_rates_and_flow`.
    """
    (delta, alpha, gamma, (ax2, iat, iat3, idrive, i, three), n, kerr,
     (cross, cross_shift), (phase, phase_real), linear,
     (coupling, coupling1, coupling2), (term1, term2), _) = work
    (a, a1, a2), (out, _, out2) = a, out
    multiply, add = np.multiply, np.add
    np.absolute(a, n)
    np.square(n, n)
    multiply(alpha, n, kerr)
    add(delta, kerr, kerr)
    multiply(ax2, n, cross)
    add(kerr, cross_shift, phase_real)
    multiply(i, phase, linear)
    np.subtract(linear, gamma, linear)
    multiply(linear, a, out)
    np.conjugate(a1, term1)
    np.square(term1, term2)
    multiply(iat, term2, term1)
    multiply(term1, a2, coupling1)
    np.power(a1, three, term2)
    multiply(iat3, term2, coupling2)
    add(out, coupling, out)
    np.subtract(out2, idrive, out2)


def flow(point: DimensionlessPoint, u1, u2):
    """Time derivatives (du1/dtau, du2/dtau) of the reduced two-mode system.

    tau = alpha1 * t; accepts scalars or numpy arrays.
    """
    return _flow(_Coefficients.reduced(point), u1, u2)


def stationary_residual(point: DimensionlessPoint, u1: complex, u2: complex) -> float:
    """Max modulus of the two stationary equations at (u1, u2)."""
    du1, du2 = flow(point, u1, u2)
    return max(abs(du1), abs(du2))


def _real_block(A: complex, B: complex) -> np.ndarray:
    """2x2 real block for df = A du + B d(conj u) in (Re, Im) coordinates."""
    return np.array([
        [(A + B).real, -(A - B).imag],
        [(A + B).imag, (A - B).real],
    ])


def jacobian(point: DimensionlessPoint, u1: complex, u2: complex) -> np.ndarray:
    """4x4 real Jacobian of the flow in quadratures (p1, q1, p2, q2).

    Includes the damping terms; the drive is held fixed, so it drops out of
    the linearization.  The constants are those of :func:`flow`.
    """
    d1, d2, al1, al2, ax2, g1, g2, iat, _, _ = _Coefficients.reduced(point)
    n1 = abs(u1) ** 2
    n2 = abs(u2) ** 2
    A11 = 1j * (d1 + 2.0 * al1 * n1 + ax2 * n2) - g1
    B11 = 1j * al1 * u1 * u1 + 2.0 * iat * np.conj(u1) * u2
    A12 = 1j * ax2 * np.conj(u2) * u1 + iat * np.conj(u1) ** 2
    B12 = 1j * ax2 * u2 * u1
    A21 = 1j * ax2 * np.conj(u1) * u2 + iat * u1 * u1    # 3*iat3 = iat
    B21 = 1j * ax2 * u1 * u2
    A22 = 1j * (d2 + 2.0 * al2 * n2 + ax2 * n1) - g2
    B22 = 1j * al2 * u2 * u2
    J = np.empty((4, 4))
    J[0:2, 0:2] = _real_block(A11, B11)
    J[0:2, 2:4] = _real_block(A12, B12)
    J[2:4, 0:2] = _real_block(A21, B21)
    J[2:4, 2:4] = _real_block(A22, B22)
    return J


def ground_eigenvalue(point: DimensionlessPoint, r2_sq: float) -> complex:
    """Fundamental-mode fluctuation exponent of a silent state.

    lambda0 = i*(delta + 2*beta^2*|u2|^2) - gamma1, always with negative
    real part: the silent state never loses stability on its own.
    """
    n2 = r2_sq / point.beta**2  # |u2|^2
    return 1j * (point.delta + 2.0 * point.beta**2 * n2) - point.gamma1


def closed_form_lambda_sq(delta: float, r1_sq: float, r2_sq: float,
                          branch: int) -> float:
    """Squared fluctuation exponent of an excited branch, far from threshold.

    For the upper branch (+1) this is -6*r1^2*r2*sqrt(|delta| - 7*r2^2/4)
    (negative: oscillatory, damped once gamma1 is restored); the lower
    branch (-1) flips the sign and is unstable.  Valid for |delta| >>
    gamma1.
    """
    X = abs(delta) - 1.75 * r2_sq
    if X < 0:
        raise PhaseDomainError("pump intensity outside the undamped window")
    return -branch * 6.0 * r1_sq * math.sqrt(r2_sq) * math.sqrt(X)


def stability(state: SteadyState, point: DimensionlessPoint):
    """Stability verdict and eigenvalues (units of alpha1) for a state.

    Silent states get the analytic fundamental-mode exponent plus the
    numeric second-mode pair; excited states are classified by the dense
    eigenvalues of the full 4x4 Jacobian.  Where the far-from-threshold
    closed form applies (|delta| >= 10*gamma1) its sign is cross-checked
    against the numeric verdict and a warning is raised on disagreement.
    """
    u1, u2 = state.amplitudes(point)
    res = stationary_residual(point, u1, u2)
    if res > _VERIFY_TOL:
        raise ResidualError(
            f"state residual {res:.3g} exceeds {_VERIFY_TOL:.3g}")
    J = jacobian(point, u1, u2)
    eig = tuple(complex(z) for z in
                sorted(np.linalg.eigvals(J), key=lambda z: -z.real))
    verdict = bool(max(z.real for z in eig) < STABILITY_TOL)
    if state.kind == "triad" and point.gamma1 >= 1e-6 \
            and abs(point.delta) >= 10.0 * point.gamma1:
        # the closed form linearizes the fundamental mode at frozen pump, so
        # compare it against that same sub-block; the full spectrum above
        # stays authoritative for the verdict (it also sees pump-side folds)
        branch = +1 if state.r1_sq + point.delta + 1.5 * state.r2_sq >= 0 else -1
        try:
            lam_sq = closed_form_lambda_sq(point.delta, state.r1_sq,
                                           state.r2_sq, branch)
        except PhaseDomainError:
            lam_sq = None
        if lam_sq is not None:
            sub_stable = max(np.linalg.eigvals(J[0:2, 0:2]).real) < STABILITY_TOL
            if (lam_sq < 0) != sub_stable:
                warnings.warn(
                    f"closed-form exponent sign ({lam_sq:+.3g}) disagrees with "
                    "the numeric fundamental-mode linearization "
                    f"({'stable' if sub_stable else 'unstable'})",
                    StabilityMismatchWarning, stacklevel=2)
    return verdict, eig


# ---------------------------------------------------------------------------
# self-consistent solve


def _branch_value(delta: float, gamma1: float, v: float, branch: int):
    roots = subharmonic_branches(delta, gamma1, v)
    for val, sign in roots:
        if sign == branch:
            return val
    if len(roots) == 1:
        return roots[0][0]   # merged double root at a window edge
    return None


def _response_lhs(point: DimensionlessPoint, v: float, branch: int = +1):
    """Complex stationary LHS of the second-mode equation on one branch.

    v is the pump intensity r2^2; the fundamental amplitude and the exact
    relative phase are substituted from the closed branch solution, so a
    zero of |LHS| - R solves both stationary equations at once.  ``branch``
    is +1 or -1 for the upper or lower closed branch, and 0 for the silent
    state r1 = 0, where every back-action term vanishes exactly.
    """
    r1_sq = _branch_value(point.delta, point.gamma1, v, branch) if branch else 0.0
    if r1_sq is None:
        raise BelowThresholdError(
            f"branch {branch} absent at delta={point.delta}, r2_sq={v}")
    sqv = math.sqrt(v)
    b2 = point.beta**2
    # r1^3 * exp(i theta) expressed through the stationary conditions:
    # r1 cos(theta) = (-delta - 2v - r1^2)/sqrt(v), r1 sin(theta) = gamma1/sqrt(v)
    re = (point.delta2 + b2 * (v + 2.0 * r1_sq)) * sqv \
        + (b2 / 3.0) * r1_sq * (-point.delta - 2.0 * v - r1_sq) / sqv
    im = point.gamma2 * sqv + (b2 / 3.0) * r1_sq * point.gamma1 / sqv
    return complex(re, im), r1_sq


def _triad_states(point: DimensionlessPoint, v: float, branch_id: int,
                  root_sign: int):
    lhs, r1_sq = _response_lhs(point, v, root_sign)
    phi2 = (point.drive_phase - cmath.phase(lhs)) % (2.0 * math.pi)
    theta, phis = triad_phases(point.delta, point.gamma1, r1_sq, v, phi2)
    states = []
    for k, phi1 in enumerate(phis):
        phi1 %= 2.0 * math.pi
        st = SteadyState(kind="triad", r1_sq=r1_sq, r2_sq=v, theta=theta,
                         phi1=phi1, phi2=phi2, stable=False, eigenvalues=(),
                         residual=math.nan, branch=branch_id, copy=k,
                         root_sign=root_sign)
        u1, u2 = st.amplitudes(point)
        res = stationary_residual(point, u1, u2)
        if res > STATIONARY_TOL:
            st, res = _newton_polish(point, st, u1, u2)
        verdict, eig = stability(replace(st, residual=res), point)
        states.append(replace(st, stable=verdict, eigenvalues=eig, residual=res))
    return states


def _newton_polish(point: DimensionlessPoint, state: SteadyState,
                   u1: complex, u2: complex):
    """Up to 3 Newton steps on the full stationary equations from (u1, u2).

    Next to a window edge the closed branch r1^2(r2^2) has a square-root
    singularity, so the 1D reduction loses digits there; the 4x4 Jacobian
    stays well conditioned.  Returns the state rebuilt from the polished
    amplitudes (stability not yet assessed) and its residual.
    """
    for _ in range(3):
        du1, du2 = flow(point, u1, u2)
        dx = np.linalg.solve(jacobian(point, u1, u2),
                             [du1.real, du1.imag, du2.real, du2.imag])
        u1 -= complex(dx[0], dx[1])
        u2 -= complex(dx[2], dx[3])
        phi1 = cmath.phase(u1) % (2.0 * math.pi)
        phi2 = cmath.phase(u2) % (2.0 * math.pi)
        state = replace(state, r1_sq=abs(u1) ** 2,
                        r2_sq=(point.beta * abs(u2)) ** 2,
                        theta=(3.0 * phi1 - phi2) % (2.0 * math.pi),
                        phi1=phi1, phi2=phi2)
        res = stationary_residual(point, *state.amplitudes(point))
        if res <= STATIONARY_TOL:
            break
    return state, res


def _ground_states(point: DimensionlessPoint):
    states = []
    branches = second_mode_response(point)
    if not branches:
        branches = [ResponseBranch(0.0, False)]
    for i, br in enumerate(branches):
        v = br.r2_sq
        if v > 0:
            lhs, _ = _response_lhs(point, v, branch=0)
            phi2 = (point.drive_phase - cmath.phase(lhs)) % (2.0 * math.pi)
        else:
            phi2 = 0.0
        st = SteadyState(kind="ground", r1_sq=0.0, r2_sq=v, theta=0.0,
                         phi1=0.0, phi2=phi2, stable=False, eigenvalues=(),
                         residual=math.nan, branch=i, back_bending=br.back_bending)
        u1, u2 = st.amplitudes(point)
        res = stationary_residual(point, u1, u2)
        if res > _VERIFY_TOL:
            raise ConvergenceError("silent-state response root failed to verify",
                                   diagnostics={"r2_sq": v, "residual": res})
        # a1 = 0 decouples the Jacobian into mode blocks: report the analytic
        # fundamental pair first, then the numeric pump-mode pair
        J = jacobian(point, u1, u2)
        lam0 = ground_eigenvalue(point, v)
        mode2 = np.linalg.eigvals(J[2:4, 2:4])
        eig = (lam0, lam0.conjugate()) + tuple(
            complex(z) for z in sorted(mode2, key=lambda z: -z.real))
        verdict = bool(max(z.real for z in np.linalg.eigvals(J)) < STABILITY_TOL)
        states.append(replace(st, stable=verdict, eigenvalues=eig, residual=res))
    return states


def solve_selfconsistent(point: DimensionlessPoint, scan_points: int = 10000,
                         all_branches: bool = False):
    """Every stationary state at the given operating point.

    Returns the silent state(s) plus, when the detuning is past threshold,
    each pump intensity in the existence window where the closed
    upper-branch fundamental solution and the second-mode response agree.
    Each excited root expands into its three phase copies; all states carry
    a stability verdict and eigenvalues.  ``all_branches`` adds the
    self-consistent roots built on the lower fundamental branch as well
    (usually saddles, but the pump back-action can stabilize them at
    moderate detuning).

    The solve is the 1D reduction: the closed r1^2(r2^2) branch is
    substituted into the response equation, which is then scanned and
    bisected in r2^2 at a resolution of 1e-4 of the window.
    """
    states = _ground_states(point)
    window = existence_window(point.delta, point.gamma1)
    if window is None or point.drive_scale == 0.0:
        return states
    lo, hi = window
    if hi <= lo:
        return states
    pad = 1e-9 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, scan_points)
    R = point.drive_scale
    branch_id = len(states)
    for root_sign in (+1, -1) if all_branches else (+1,):

        def f(v):
            lhs, _ = _response_lhs(point, v, root_sign)
            return abs(lhs) - R

        vals = np.array([f(v) for v in grid])
        if not np.all(np.isfinite(vals)):
            raise ConvergenceError("response mismatch not finite over the window",
                                   diagnostics={"window": window})
        for a, b in bracket_roots(vals, grid):
            v = a if a == b else bisect(f, a, b, rtol=1e-14)
            states.extend(_triad_states(point, v, branch_id, root_sign))
            branch_id += 1
    for st in states:
        if st.kind == "triad" and st.residual > STATIONARY_TOL:
            raise ConvergenceError(
                "self-consistent state exceeds the stationary tolerance",
                diagnostics={"r2_sq": st.r2_sq, "residual": st.residual})
    return states
