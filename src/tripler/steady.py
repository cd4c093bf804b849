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
import operator
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from ._roots import bisect, brent_min, polyroots
from .errors import (
    BelowThresholdError,
    ConvergenceError,
    DomainError,
    PhaseDomainError,
    RegimeWarning,
    ResidualError,
    domain,
)

THRESHOLD_FACTOR = math.sqrt(7.0)

#: the requirement of an argument whose ``x**2`` overflows, which Python
#: raises as OverflowError (``x*x`` would give inf, but does not round as
#: ``x**2`` does on every libm)
_SQUARABLE = "small enough to square, below about 1.34e154 in magnitude"

#: residual (in units of alpha1) below which a state counts as stationary
STATIONARY_TOL = 1e-9

#: eigenvalue real part (units of alpha1) below which a state counts as stable
STABILITY_TOL = -1e-9

#: residual (units of alpha1) above which a state handed to a stability
#: check is rejected as not stationary at all
_VERIFY_TOL = 1e-6

#: knots of the response table over the existence window in
#: :func:`_response_knots`, and their positions as fractions of the window:
#: Chebyshev-Lobatto points (1 - cos(pi*k/399))/2, clustered toward both
#: edges, where the closed branch has its square-root singularity.  A cell
#: is 3.9e-3 of the window wide mid-window and 1.5e-5 at the edges.  The
#: table can miss a pair of extrema of the response curve less than two
#: cells apart, and with them a pair of roots; a smaller table widens that
#: gap
_TABLE_SIZE = 400
_TABLE_SPACING = tuple((1.0 - math.cos(math.pi * k / (_TABLE_SIZE - 1))) / 2.0
                       for k in range(_TABLE_SIZE))


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
        Mode asymmetry (alpha2/alpha1)**(1/4), small enough to square.
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
        for name in _POINT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise domain(name, value, "finite")
        for name in ("gamma1", "gamma2", "gamma2_ext", "drive_b2"):
            if getattr(self, name) < 0:
                raise domain(name, getattr(self, name), "non-negative")
        if self.gamma2_ext > self.gamma2 * (1 + 1e-12):
            raise domain("gamma2_ext", self.gamma2_ext,
                         f"at most gamma2 = {self.gamma2!r}")
        for name in ("alpha1", "beta"):
            if getattr(self, name) <= 0:
                raise domain(name, getattr(self, name), "positive")
        try:    # every consumer squares beta
            self.beta**2
        except OverflowError:
            raise domain("beta", self.beta, _SQUARABLE) from None

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


#: the field names of :class:`DimensionlessPoint` in declaration order, which
#: its check walks on every construction (``fields()`` rebuilds the tuple)
_POINT_FIELDS = tuple(f.name for f in fields(DimensionlessPoint))


class _Polar(NamedTuple):
    """The polar fields of a state, in :class:`SteadyState` order."""

    r1_sq: float
    r2_sq: float
    theta: float
    phi1: float
    phi2: float

    def amplitudes(self, point: DimensionlessPoint) -> tuple[complex, complex]:
        """Complex mode amplitudes (u1, u2) with u2 carrying the 1/beta scale."""
        u1 = math.sqrt(max(self.r1_sq, 0.0)) * cmath.exp(1j * self.phi1)
        u2 = math.sqrt(max(self.r2_sq, 0.0)) / point.beta * cmath.exp(1j * self.phi2)
        return u1, u2


@dataclass(frozen=True)
class SteadyState:
    """One stationary solution branch.

    ``kind`` is "ground" for silent states (r1 = 0) and "triad" for excited
    states; the three triad members share identical amplitudes and relative
    phase ``theta = 3*phi1 - phi2`` and differ in phi1 by exactly 2*pi/3
    (``copy`` indexes them 0..2).  ``branch`` numbers coexisting response
    roots.  Eigenvalues are in units of alpha1; ``stable`` is read off them.
    """

    kind: str
    r1_sq: float
    r2_sq: float
    theta: float
    phi1: float
    phi2: float
    eigenvalues: tuple[complex, ...]
    residual: float
    branch: int = 0
    copy: int = 0
    root_sign: int = +1
    back_bending: bool = False

    amplitudes = _Polar.amplitudes      # it reads only the polar fields

    @property
    def stable(self) -> bool:
        """The one stability rule: every real part below STABILITY_TOL."""
        return max(z.real for z in self.eigenvalues) < STABILITY_TOL


@dataclass(frozen=True)
class ResponseBranch:
    """One silent-state root of the second-mode response at fixed drive."""

    r2_sq: float
    back_bending: bool       # on a segment where drive power falls with r2


def threshold_detuning(gamma1: float) -> float:
    """Largest (least red) detuning at which excited states exist."""
    if not 0.0 <= gamma1 < math.inf:
        raise domain("gamma1", gamma1, "non-negative and finite")
    return -THRESHOLD_FACTOR * gamma1


def existence_window(delta: float, gamma1: float):
    """Pump-intensity interval (r2m_sq, r2p_sq) where excited states exist.

    Returns ``None`` when the detuning is above threshold, i.e. when
    ``delta > -sqrt(7)*gamma1``.  At exact threshold the window degenerates
    to the single point 2*|delta|/7.
    """
    if not -math.inf < delta < math.inf:
        raise domain("delta", delta, "finite")
    # the threshold first: it checks gamma1
    if delta > threshold_detuning(gamma1) or delta >= 0:
        return None
    adelta = -delta
    try:
        root = math.sqrt(max(1.0 - 7.0 * gamma1**2 / delta**2, 0.0))
    except OverflowError:   # past threshold |delta| is the larger argument
        raise domain("delta", delta, _SQUARABLE) from None
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


def _branch_tolerance(delta: float, gamma1: float) -> float:
    """Discriminant magnitude below which the two closed-branch roots merge."""
    try:
        return 1e-12 * max(1.0, delta**2, gamma1**2)
    except OverflowError:   # the larger argument is past about 1.34e154
        big = ("delta", delta) if abs(delta) >= gamma1 else ("gamma1", gamma1)
        raise domain(*big, _SQUARABLE) from None


def _closed_branches(delta: float, gamma1: float, tol: float, r2_sq: float):
    """Closed-branch r1^2 of branches +1 and -1 at pump intensity r2_sq.

    The one branch rule.  A discriminant within ``tol`` of zero
    (:func:`_branch_tolerance`) gives one merged double root, and a negative
    root is dropped; where a single root is left it serves both branches,
    and where none is, both values are ``None``.  Index the pair with
    ``branch < 0``.
    """
    base, disc = branch_quadratic(delta, gamma1, r2_sq)
    if disc < -tol:
        return None, None
    if disc <= tol:
        return (base, base) if base >= 0 else (None, None)
    root = math.sqrt(disc)
    upper, lower = base + root, base - root
    if lower >= 0:
        return upper, lower
    return (upper, upper) if upper >= 0 else (None, None)


def subharmonic_branches(delta: float, gamma1: float, r2_sq: float):
    """Real non-negative roots r1^2 of the closed fundamental-mode equation.

    Returns a list of ``(r1_sq, branch)`` with ``branch`` +1 for the upper
    (stable) root and -1 for the lower one.  Zero, one or two roots exist
    depending on whether the pump intensity lies outside, on the edge of,
    or inside the existence window.
    """
    if not -math.inf < delta < math.inf:
        raise domain("delta", delta, "finite")
    if not 0.0 <= gamma1 < math.inf:
        raise domain("gamma1", gamma1, "non-negative and finite")
    if not 0.0 <= r2_sq < math.inf:
        raise domain("r2_sq", r2_sq, "non-negative and finite")
    tol = _branch_tolerance(delta, gamma1)
    try:
        upper, lower = _closed_branches(delta, gamma1, tol, r2_sq)
    except OverflowError:   # r2_sq**2; delta and gamma1 squared above
        raise domain("r2_sq", r2_sq, _SQUARABLE) from None
    if upper is None:
        return []
    # distinct roots differ by 2*sqrt(disc) > 2e-6*max(1, |delta|), which no
    # rounding of base (at most |delta| where both are non-negative) hides
    if lower == upper:
        return [(upper, +1)]
    return [(upper, +1), (lower, -1)]


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
    for name, value in (("delta", delta), ("phi2", phi2)):
        if not -math.inf < value < math.inf:
            raise domain(name, value, "finite")
    for name, value in (("gamma1", gamma1), ("r1_sq", r1_sq), ("r2_sq", r2_sq)):
        if not 0.0 <= value < math.inf:
            raise domain(name, value, "non-negative and finite")
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
    if not -math.inf < delta < math.inf:
        raise domain("delta", delta, "finite")
    if delta > threshold_detuning(gamma1):
        raise BelowThresholdError(
            f"delta={delta} above threshold {threshold_detuning(gamma1):.6g}")
    adelta = -delta
    try:
        r1_max_sq = 4.0 / 7.0 * (
            adelta + math.sqrt(max(delta**2 - 7.0 * gamma1**2, 0.0)))
    except OverflowError:   # past threshold |delta| is the larger argument
        raise domain("delta", delta, _SQUARABLE) from None
    return r1_max_sq, adelta / 14.0


def max_drive(point: DimensionlessPoint) -> float:
    """Drive power |B2|^2 (s^-1) beyond which the excited states disappear.

    Far-from-threshold estimate 2*Delta^2*|delta|*alpha1/(7*beta^2*gamma2_ext);
    warns when used at |delta| < 3*gamma1 where it loses accuracy.
    """
    return _drive_bound(point, point.delta)


def _drive_bound(point: DimensionlessPoint, delta):
    """The bound of :func:`max_drive` and its regime rule at detuning
    ``delta``, with the other constants of ``point``.

    ``delta`` is a float or a 1-D numpy array, one bound per entry: the
    bound takes operators only, so steady needs no numpy.  A
    :class:`RegimeWarning` names the first |delta| < 3*gamma1, once per
    call and at the caller's caller.
    """
    if point.gamma2_ext <= 0:
        raise DomainError("point", "max_drive requires gamma2_ext > 0, got "
                          f"{point.gamma2_ext!r}")
    adelta = abs(delta)
    near = adelta < 3.0 * point.gamma1
    if near is True or (near is not False and near.any()):
        first = adelta if near is True else adelta[near][0]
        warnings.warn(
            f"|delta|={first:.3g} < 3*gamma1={3 * point.gamma1:.3g}: "
            "max-drive estimate used outside its regime", RegimeWarning,
            stacklevel=3)
    return (2.0 * point.Delta**2 * adelta * point.alpha1
            / (7.0 * point.beta**2 * point.gamma2_ext))


# ---------------------------------------------------------------------------
# second-mode response


def second_mode_response(point: DimensionlessPoint):
    """All pump-intensity branches r2^2 of a silent state (r1 = 0).

    With the fundamental mode silent the second mode is a driven Duffing
    oscillator (Landau & Lifshitz, *Mechanics*, section 29): v = r2^2
    solves the cubic v*((beta^2 v + delta2)^2 + gamma2^2) = R^2, R the
    dimensionless drive, whose real roots are positive (v = 0 for R = 0).
    Each is returned in increasing v and tagged back-bending, the middle
    branch of a multivalued response, where the slope dR^2/dv is negative
    (:func:`_pump_block`).  A coefficient that overflows raises
    :class:`DomainError` naming its input.
    """
    b2, d2, g2, R = point.beta**2, point.delta2, point.gamma2, point.drive_scale
    coeffs = (-(R * R), d2 * d2 + g2 * g2, 2.0 * b2 * d2, b2 * b2)
    if not all(map(math.isfinite, coeffs)):
        name = ("beta" if b2 * b2 == math.inf
                else "drive_b2" if R * R == math.inf
                else "gamma2" if g2 * g2 == math.inf
                else "delta" if abs(3.0 * point.delta) >= abs(point.Delta)
                else "Delta")
        raise domain(name, getattr(point, name),
                     "small enough for a finite silent-state response")
    out = []
    for z in polyroots(coeffs):
        v, fold = z.real, False
        if z.imag or v < 0.0 or out and v == out[-1].r2_sq:
            continue
        if out and v - out[-1].r2_sq <= 1e-7 * v:
            # a double root (a fold), which the rounded cubic splits by about
            # sqrt(eps): one Newton step on the slope, where it is a simple
            # root, from the middle of the pair
            v, fold = 0.5 * (v + out.pop().r2_sq), True
            v -= _pump_block(point, v)[0] / (2.0 * b2 * (2.0 * d2 + 3.0 * b2 * v))
        out.append(ResponseBranch(v, not fold and _pump_block(point, v)[0] < 0.0))
    return out


def _pump_block(point: DimensionlessPoint, v: float):
    """Slope dR^2/dv of the silent response at v and its state's pump pair.

    With P = (delta2 + beta^2 v)(delta2 + 3 beta^2 v) the pump block of the
    Jacobian at u1 = 0 has the eigenvalues -gamma2 +- sqrt(-P), sorted as
    :func:`_eigvals` sorts, and the determinant P + gamma2^2, the slope:
    where the slope is negative, one eigenvalue is positive (a saddle).
    """
    b2v = point.beta**2 * v
    P = (point.delta2 + b2v) * (point.delta2 + 3.0 * b2v)
    root = cmath.sqrt(-P)
    g2 = point.gamma2
    return P + g2 * g2, (-g2 + root, -g2 - root)


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
        drive = point.drive_scale / b * cmath.exp(1j * point.drive_phase)
        return cls(point.delta, point.delta2, 1.0, b2 * b2, 2.0 * b2,
                   point.gamma1, point.gamma2, 1j * b, 1j * (b / 3.0),
                   complex(1j * drive))


def _rates_and_flow(c: _Coefficients, a1, a2):
    """Linear rates ``L = i*(detuning + Kerr) - Gamma`` and the flow.

    Returns ``(L1, L2, da1/dt, da2/dt)``; each mode's flow is ``L*a`` plus
    its coupling (and, for mode 2, drive) term.  Uses only operators that
    Python ``complex`` and numpy arrays share, so one expression serves
    scalars and arrays.  ``dynamics``' compiled step (``_step.c``) repeats
    this expression operation for operation; |a|^2 is re^2 + im^2, which
    C computes as cheaply as Python and without libm's ``hypot``/``pow``.

    Every operand of a complex operation is complex: a float x enters as
    ``complex(x, 0.0)``, the operand CPython 3.11 makes of it (an array
    enters as it is, since numpy promotes it so already).  Python 3.14
    adds and multiplies a float into a complex directly (C99 Annex G),
    which gives some signed zeros otherwise; this way the Python runners
    of ``dynamics`` give 3.11's bits, the ones ``_step.c`` gives, on any
    version.
    """
    d1, d2, al1, al2, ax2, g1, g2, iat, iat3, idrive = c
    n1 = a1.real * a1.real + a1.imag * a1.imag
    n2 = a2.real * a2.real + a2.imag * a2.imag
    w1 = d1 + al1 * n1 + ax2 * n2       # detuning plus Kerr shifts
    w2 = d2 + al2 * n2 + ax2 * n1
    if isinstance(w1, float):           # both scalars, as a1 and a2 are
        w1, w2 = complex(w1, 0.0), complex(w2, 0.0)
    l1 = 1j * w1 - complex(g1, 0.0)
    l2 = 1j * w2 - complex(g2, 0.0)
    return (l1, l2, l1 * a1 + iat * a1.conjugate() ** 2 * a2,
            l2 * a2 + iat3 * a1**3 - idrive)


def _flow(c: _Coefficients, a1, a2):
    """The equations of motion over hoisted constants.

    The flow of :func:`_rates_and_flow`, without the rates.
    """
    _, _, da1, da2 = _rates_and_flow(c, a1, a2)
    return da1, da2


def flow(point: DimensionlessPoint, u1, u2):
    """Time derivatives (du1/dtau, du2/dtau) of the reduced two-mode system.

    tau = alpha1 * t; accepts scalars or numpy arrays.
    """
    return _flow(_Coefficients.reduced(point), u1, u2)


def stationary_residual(point: DimensionlessPoint, u1: complex, u2: complex) -> float:
    """Max modulus of the two stationary equations at (u1, u2)."""
    du1, du2 = flow(point, u1, u2)
    return max(abs(du1), abs(du2))


def _real_block(A: complex, B: complex):
    """2x2 real block for df = A du + B d(conj u) in (Re, Im) coordinates,
    as two row tuples."""
    return (((A + B).real, -(A - B).imag),
            ((A + B).imag, (A - B).real))


def jacobian(point: DimensionlessPoint, u1: complex, u2: complex):
    """4x4 real Jacobian of the flow in quadratures (p1, q1, p2, q2).

    Returned as four row tuples of floats (``np.asarray`` makes it an
    array).  Includes the damping terms; the drive is held fixed, so it
    drops out of the linearization.  The constants are those of
    :func:`flow`.
    """
    d1, d2, al1, al2, ax2, g1, g2, iat, _, _ = _Coefficients.reduced(point)
    n1 = u1.real * u1.real + u1.imag * u1.imag      # |u|^2 as in the flow
    n2 = u2.real * u2.real + u2.imag * u2.imag
    A11 = 1j * (d1 + 2.0 * al1 * n1 + ax2 * n2) - g1
    B11 = 1j * al1 * u1 * u1 + 2.0 * iat * u1.conjugate() * u2
    A12 = 1j * ax2 * u2.conjugate() * u1 + iat * u1.conjugate() ** 2
    B12 = 1j * ax2 * u2 * u1
    A21 = 1j * ax2 * u1.conjugate() * u2 + iat * u1 * u1    # 3*iat3 = iat
    B21 = 1j * ax2 * u1 * u2
    A22 = 1j * (d2 + 2.0 * al2 * n2 + ax2 * n1) - g2
    B22 = 1j * al2 * u2 * u2
    top = zip(_real_block(A11, B11), _real_block(A12, B12))
    bottom = zip(_real_block(A21, B21), _real_block(A22, B22))
    return tuple(left + right for left, right in (*top, *bottom))


def _eigvals(rows):
    """Eigenvalues of a small real matrix given as row sequences.

    The roots (:func:`polyroots`) of its characteristic polynomial, whose
    coefficients come from the Faddeev-LeVerrier recursion
    M_k = A M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(A M_k)/k.  Sorted by
    descending real part, a conjugate pair with its positive imaginary part
    first.
    """
    n = len(rows)
    m = [list(row) for row in rows]         # A M_1, with M_1 = I
    coeffs = [1.0]
    for k in range(1, n):
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
        m = [[sum(map(operator.mul, row, col)) for col in zip(*m)]
             for row in rows]
    coeffs.append(-sum(m[i][i] for i in range(n)) / n)
    return sorted(polyroots(coeffs[::-1]), key=lambda z: (-z.real, -z.imag))


def ground_eigenvalue(point: DimensionlessPoint, r2_sq: float) -> complex:
    """Fundamental-mode fluctuation exponent of a silent state.

    lambda0 = i*(delta + 2*beta^2*|u2|^2) - gamma1, always with negative
    real part: the silent state never loses stability on its own.
    """
    if not 0.0 <= r2_sq < math.inf:
        raise domain("r2_sq", r2_sq, "non-negative and finite")
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
    if not -math.inf < delta < math.inf:
        raise domain("delta", delta, "finite")
    for name, value in (("r1_sq", r1_sq), ("r2_sq", r2_sq)):
        if not 0.0 <= value < math.inf:
            raise domain(name, value, "non-negative and finite")
    if branch not in (1, -1):
        raise domain("branch", branch, "+1 or -1")
    X = abs(delta) - 1.75 * r2_sq
    if X < 0:
        raise PhaseDomainError("pump intensity outside the undamped window")
    return -branch * 6.0 * r1_sq * math.sqrt(r2_sq) * math.sqrt(X)


def _spectrum(point: DimensionlessPoint, u1: complex, u2: complex):
    """Eigenvalues of the 4x4 Jacobian at (u1, u2), as :func:`_eigvals`."""
    return tuple(_eigvals(jacobian(point, u1, u2)))


def stability(state: SteadyState, point: DimensionlessPoint):
    """Stability verdict and eigenvalues (units of alpha1) for a state.

    The eigenvalues are the full 4x4 Jacobian's (:func:`_spectrum`), as the
    solve gives triad states, and the verdict :attr:`SteadyState.stable`
    reads off them; the solve gives silent states their analytic pairs
    instead (:func:`_ground_states`).  A residual not within _VERIFY_TOL,
    NaN included, raises :class:`ResidualError`.
    """
    u1, u2 = state.amplitudes(point)
    res = stationary_residual(point, u1, u2)
    if not res <= _VERIFY_TOL:
        raise ResidualError(
            f"state residual {res:.3g} exceeds {_VERIFY_TOL:.3g}")
    state = replace(state, eigenvalues=_spectrum(point, u1, u2))
    return state.stable, state.eigenvalues


# ---------------------------------------------------------------------------
# self-consistent solve


class _Response:
    """The second-mode response at one operating point, constants bound once.

    ``lhs(v, r1_sq)`` is the one response formula: the complex stationary
    LHS of the second-mode equation at pump intensity v = r2^2, with the
    fundamental intensity r1_sq and the exact relative phase substituted
    from the stationary conditions, so a zero of |LHS| - R solves both
    stationary equations at once; at r1_sq = 0, the silent state, every
    back-action term vanishes exactly.  Calling the instance with
    ``(v, branch)`` takes r1_sq from the closed branch (+1 upper, -1 lower)
    and returns ``(LHS, r1_sq)``.
    """

    __slots__ = ("point", "lhs", "tol")

    def __init__(self, point: DimensionlessPoint):
        delta, gamma1, gamma2 = point.delta, point.gamma1, point.gamma2
        delta2 = point.delta2
        b2 = point.beta**2
        b2_3 = b2 / 3.0

        def lhs(v, r1_sq):
            sqv = math.sqrt(v)
            # r1^3 * exp(i theta) expressed through the stationary conditions:
            # r1 cos(theta) = (-delta - 2v - r1^2)/sqrt(v),
            # r1 sin(theta) = gamma1/sqrt(v)
            re = (delta2 + b2 * (v + 2.0 * r1_sq)) * sqv \
                + b2_3 * r1_sq * (-delta - 2.0 * v - r1_sq) / sqv
            im = gamma2 * sqv + b2_3 * r1_sq * gamma1 / sqv
            return complex(re, im)

        self.point = point
        self.lhs = lhs
        self.tol = _branch_tolerance(delta, gamma1)

    def __call__(self, v: float, branch: int):
        delta = self.point.delta
        r1_sq = _closed_branches(delta, self.point.gamma1, self.tol,
                                 v)[branch < 0]
        if r1_sq is None:
            raise BelowThresholdError(
                f"branch {branch} absent at delta={delta}, r2_sq={v}")
        return self.lhs(v, r1_sq), r1_sq


def _response_knots(response: _Response, lo: float, hi: float, branch: int):
    """Knots ``(v, m)`` of the curve m(v) = |LHS| on one closed branch.

    m is tabulated on :data:`_TABLE_SIZE` points of ``[lo, hi]`` at the
    :data:`_TABLE_SPACING`; each interior turn of the table's slope is
    polished to the extremum of m by :func:`brent_min`.  Returned are the
    window ends and the polished extrema in increasing v, each with its m,
    so that m is monotone between consecutive knots.  The curve does not
    depend on the drive: the states at drive R are its crossings of the
    level R.  A point where the branch is absent raises as a call of
    ``response`` there does.
    """
    def m(v):
        return abs(response(v, branch)[0])

    span = hi - lo
    vs = [lo + span * s for s in _TABLE_SPACING[:-1]] + [hi]
    ms = [m(v) for v in vs]
    if not all(map(math.isfinite, ms)):
        raise ConvergenceError("response curve not finite over the window",
                               diagnostics={"window": (lo, hi)})
    knots = [(lo, ms[0]), (hi, ms[-1])]
    rising = None           # direction of the last slope that was not flat
    for k in range(_TABLE_SIZE - 1):
        step = ms[k + 1] - ms[k]
        if step == 0.0:
            continue
        if rising is not None and (step > 0.0) != rising:
            # the slope turns at knot k: a minimum of m where it turns up,
            # a maximum (a minimum of -m) where it turns down
            sign = 1.0 if step > 0.0 else -1.0
            v = brent_min(lambda x: sign * m(x), vs[k - 1], vs[k], vs[k + 1])
            knots.append((v, m(v)))
        rising = step > 0.0
    return sorted(knots)


def _triad_states(response: _Response, v: float, branch_id: int,
                  root_sign: int):
    """The three phase copies of the triad root at v, each built once.

    A copy whose residual misses STATIONARY_TOL is polished first.  Copies
    1 and 2 are copy 0 under u1 -> u1*exp(2*pi*i*k/3), which makes their
    Jacobians similar to its: all carry copy 0's final spectrum.
    """
    point = response.point
    lhs, r1_sq = response(v, root_sign)
    phi2 = (point.drive_phase - cmath.phase(lhs)) % (2.0 * math.pi)
    theta, phis = triad_phases(point.delta, point.gamma1, r1_sq, v, phi2)
    states = []
    for k, phi1 in enumerate(phis):
        polar = _Polar(r1_sq, v, theta, phi1 % (2.0 * math.pi), phi2)
        u1, u2 = polar.amplitudes(point)
        res = stationary_residual(point, u1, u2)
        if res > STATIONARY_TOL:
            polar, res = _newton_polish(point, polar, u1, u2)
        if k == 0:
            eig = _spectrum(point, *polar.amplitudes(point))
        states.append(SteadyState(
            "triad", *polar, eigenvalues=eig, residual=res, branch=branch_id,
            copy=k, root_sign=root_sign))
    return states


def _solve(rows, rhs):
    """``x`` with ``rows @ x = rhs``, by Gaussian elimination with partial
    pivoting; ``None`` if a pivot is exactly zero (a singular matrix)."""
    n = len(rows)
    m = [[*row, b] for row, b in zip(rows, rhs)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            return None
        m[k], m[p] = m[p], m[k]
        pivot = m[k]
        for row in m[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) \
            / m[k][k]
    return x


def _newton_polish(point: DimensionlessPoint, polar: _Polar,
                   u1: complex, u2: complex):
    """Up to 3 Newton steps on the stationary equations from (u1, u2), the
    amplitudes of ``polar``.

    Next to a window edge the closed branch r1^2(r2^2) has a square-root
    singularity, so the 1D reduction loses digits there; the 4x4 Jacobian
    stays well conditioned.  Returns the best of the start and the iterates,
    rebuilt as :class:`_Polar` from its amplitudes, with its residual.  A
    singular Jacobian raises :class:`ConvergenceError`.
    """
    best = polar, stationary_residual(point, u1, u2)
    for _ in range(3):
        du1, du2 = flow(point, u1, u2)
        dx = _solve(jacobian(point, u1, u2),
                    (du1.real, du1.imag, du2.real, du2.imag))
        if dx is None:
            raise ConvergenceError(
                "singular Jacobian in the Newton polish",
                diagnostics={"r2_sq": polar.r2_sq, "residual": best[1]})
        u1 -= complex(dx[0], dx[1])
        u2 -= complex(dx[2], dx[3])
        phi1 = cmath.phase(u1) % (2.0 * math.pi)
        phi2 = cmath.phase(u2) % (2.0 * math.pi)
        polar = _Polar(abs(u1) ** 2, (point.beta * abs(u2)) ** 2,
                       (3.0 * phi1 - phi2) % (2.0 * math.pi), phi1, phi2)
        res = stationary_residual(point, *polar.amplitudes(point))
        if res < best[1]:
            best = polar, res
        if res <= STATIONARY_TOL:
            break
    return best


def _ground_states(response: _Response):
    """The silent states, one per root of :func:`second_mode_response`.

    With u1 = 0 the Jacobian splits into mode blocks, so the spectrum is the
    fundamental pair of :func:`ground_eigenvalue`, reported first, and the
    pump pair of :func:`_pump_block`; no matrix is built.
    """
    point = response.point
    states = []
    for i, br in enumerate(second_mode_response(point)):
        v, phi2 = br.r2_sq, 0.0
        if v > 0:
            lhs = response.lhs(v, 0.0)
            phi2 = (point.drive_phase - cmath.phase(lhs)) % (2.0 * math.pi)
        res = stationary_residual(point, 0j, math.sqrt(v) / point.beta
                                  * cmath.exp(1j * phi2))
        if res > _VERIFY_TOL:
            raise ConvergenceError("silent-state response root failed to verify",
                                   diagnostics={"r2_sq": v, "residual": res})
        lam0 = ground_eigenvalue(point, v)
        eig = (lam0, lam0.conjugate(), *_pump_block(point, v)[1])
        states.append(SteadyState(
            kind="ground", r1_sq=0.0, r2_sq=v, theta=0.0, phi1=0.0, phi2=phi2,
            eigenvalues=eig, residual=res, branch=i,
            back_bending=br.back_bending))
    return states


def solve_selfconsistent(point: DimensionlessPoint,
                         all_branches: bool = False):
    """Every stationary state at the given operating point.

    Returns the silent states, the roots of the pump's response cubic in
    v = r2^2, their pump stability read off its slope
    (:func:`second_mode_response`, :func:`_ground_states`), plus, when the
    detuning is past threshold, each pump intensity in the existence window
    where the closed upper-branch fundamental solution and the second-mode
    response agree.  Each excited root expands into its three phase copies;
    all states carry eigenvalues, from which ``stable`` is read.
    ``all_branches`` adds the self-consistent roots built on the lower
    fundamental branch as well (usually saddles, but the pump back-action
    can stabilize them at moderate detuning).

    The solve is the 1D reduction: with the closed r1^2(r2^2) branch
    substituted, the response equation reads m(v) = R in v = r2^2, where
    m = |LHS| and R is the drive scale.  The drive enters only as that
    level, so each branch has one curve m(v) over the window, and its knots
    (:func:`_response_knots`: the window ends and the polished extrema of a
    :data:`_TABLE_SIZE`-point table) cut it into monotone pieces.  Each
    piece whose ends lie strictly on either side of R holds one root, which
    is bisected in v; a knot whose m equals R is a root itself.  Near a
    fold, where R comes close to an extremum, the two roots lie on either
    side of that extremum's knot, so both are bracketed however close
    together they are.  A state that still misses :data:`STATIONARY_TOL`
    raises :class:`ConvergenceError` naming its bracket and the fold.

    Once per solve, the point's constants (delta, gamma1, delta2, gamma2,
    beta^2, beta^2/3) are bound into the response formula
    (:class:`_Response`), with the branch rule's tolerance; the table, the
    polish, the bisection, the silent states and the triad states all
    evaluate it, with r1^2 from the one branch rule
    (:func:`_closed_branches`).  A solve takes about a thousand
    scalar evaluations per branch, so it runs on Python floats and complex
    numbers and loads no numpy: importing numpy would cost ``tripler
    steady`` more than the solve.
    """
    response = _Response(point)
    states = _ground_states(response)
    window = existence_window(point.delta, point.gamma1)
    if window is None or point.drive_scale == 0.0:
        return states
    lo, hi = window
    if hi <= lo:
        return states
    pad = 1e-9 * (hi - lo)
    R = point.drive_scale
    branch_id = len(states)
    for root_sign in ((+1, -1) if all_branches else (+1,)):

        def f(v):
            lhs, _ = response(v, root_sign)
            return abs(lhs) - R

        knots = _response_knots(response, lo + pad, hi - pad, root_sign)
        for k, (v, m) in enumerate(knots):
            if m == R:                  # a knot on the level is a root
                bracket = knots[k:k + 1]
            elif k + 1 < len(knots) and knots[k + 1][1] != R \
                    and (m > R) != (knots[k + 1][1] > R):
                bracket = knots[k:k + 2]
                v = bisect(f, v, knots[k + 1][0], rtol=1e-14)
            else:
                continue
            triads = _triad_states(response, v, branch_id, root_sign)
            worst = max(triads, key=lambda st: st.residual)
            if worst.residual > STATIONARY_TOL:
                # the fold: the extremum closest to the level that ends the
                # bracket, if one does
                fold = min((knot for knot in bracket
                            if knot not in (knots[0], knots[-1])),
                           key=lambda knot: abs(knot[1] - R), default=None)
                raise ConvergenceError(
                    "self-consistent state exceeds the stationary tolerance",
                    diagnostics={
                        "r2_sq": worst.r2_sq, "residual": worst.residual,
                        "drive_scale": R, "bracket": bracket, "fold": fold})
            states.extend(triads)
            branch_id += 1
    return states
