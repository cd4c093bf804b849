"""Scalar root finding, scalar minimization, polynomial roots and the axis
grid used across the solvers, all on Python numbers."""

import cmath
import math
import sys

from .errors import ConvergenceError

_EPS = sys.float_info.epsilon

#: iterations of :func:`bisect` before it gives up and of :func:`brent_min`
#: before it stops, and the relative width brent_min locates a minimum to
_MAXITER = 200
_MIN_RTOL = 1e-12

#: Aberth sweeps before giving up; convergence is cubic near simple roots,
#: and a quartic from a Jacobian takes about six
_ABERTH_SWEEPS = 100


def _nan_error(x):
    return ConvergenceError(f"function value is NaN at {x!r}",
                            diagnostics={"point": x})


def bisect(f, lo, hi, rtol=1e-12):
    """Bisection root of ``f`` on ``[lo, hi]``, which must bracket a sign change.

    Runs until the bracket width drops below ``rtol`` relative to its
    midpoint (or ``rtol`` absolute near zero), and raises
    :class:`ConvergenceError` if ``_MAXITER`` halvings do not get there.
    Bisection is deliberate: no derivative, guaranteed convergence on a
    bracket.  A NaN value of ``f`` raises :class:`ConvergenceError` naming
    the point, since it has no sign to bisect on.
    """
    flo, fhi = f(lo), f(hi)
    for x, fx in ((lo, flo), (hi, fhi)):
        if math.isnan(fx):
            raise _nan_error(x)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ConvergenceError(
            f"root not bracketed on [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}")
    for _ in range(_MAXITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.isnan(fm):
            raise _nan_error(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi), 1e-300):
            break
    else:
        raise ConvergenceError(
            "bisection did not converge",
            diagnostics={"bracket": (lo, hi), "residual": fm})
    return 0.5 * (lo + hi)


_GOLD = (3.0 - math.sqrt(5.0)) / 2.0


def brent_min(f, a, b, c):
    """Minimizer of ``f`` on a bracket ``a < b < c`` with f(b) <= f(a), f(c).

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5; Numerical Recipes 3rd ed., section 10.3):
    each step fits a parabola through the three lowest points seen and
    takes its vertex when that lies inside the bracket and moves less than
    half the step before last; otherwise it takes a golden-section step
    into the larger part of the bracket.  A point closer than ``tol`` to
    the best one is moved out to ``tol``, and the search stops once every
    point of the bracket lies within ``2 * tol`` of the best one, where
    ``tol = _MIN_RTOL * |x| + eps * (c - a)``: relative, with an absolute
    floor that lets a minimum at 0 stop too.  It evaluates ``f`` at most
    ``_MAXITER + 1`` times, needs no derivative and cannot fail; it returns
    the lowest point seen, starting from ``b``, a ``float`` for float
    bracket ends.
    """
    floor = _EPS * (c - a)
    x = w = v = b
    fx = fw = fv = float(f(b))      # no numpy scalar in the steps
    d = e = 0.0         # the last step and the one before it
    for _ in range(_MAXITER):
        mid = 0.5 * (a + c)
        tol = _MIN_RTOL * abs(x) + floor
        if max(x - a, c - x) <= 2.0 * tol:
            break
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the vertex x + p/q if it lies inside the bracket and
            # moves less than half the step before last
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (c - x):
                e, d = d, p / q
                parabolic = True
                u = x + d
                if u - a < 2.0 * tol or c - u < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if not parabolic:
            e = (a if x >= mid else c) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = float(f(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                c = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                c = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def linspace(lo: float, hi: float, n: int) -> list:
    """The ``n`` points of an axis, bit for bit ``np.linspace(lo, hi, n)``.

    numpy computes ``i * step + lo`` in float64 and sets the last point to
    ``hi``; when the step underflows to 0 it computes ``i / (n - 1) * (hi -
    lo) + lo`` instead, and a single point is ``0.0 * (hi - lo) + lo``.
    """
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    step = delta / (n - 1)
    if step == 0.0:
        points = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def _horner(a, z):
    """``p(z)``, ``p'(z)`` of the ascending coefficients ``a``, and a bound
    on the rounding error of that ``p``: ``2 n eps sum |a_k| |z|^k``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section
    5.1)."""
    p, dp, size, r = a[-1], 0.0, abs(a[-1]), abs(z)
    for c in reversed(a[:-1]):
        dp = dp * z + p
        p = p * z + c
        size = size * r + abs(c)
    return p, dp, 2.0 * (len(a) - 1) * _EPS * size


def _start_points(a):
    """Aberth starting points on circles read off the Newton polygon.

    The upper convex hull of ``(k, log|a_k|)`` splits the degree into
    segments; a segment from ``i`` to ``j`` puts ``j - i`` points on the
    circle of radius ``|a_i / a_j|^(1/(j-i))``, which is where that many
    roots lie when the coefficients spread over many decades (Bini, Numer.
    Algorithms 13, 179 (1996)).  Rotated off the real axis, so that no
    start sits on the real line of a real polynomial.
    """
    n = len(a) - 1
    logs = [math.log(abs(c)) if c else None for c in a]
    hull = []
    for k, lk in enumerate(logs):
        if lk is None:
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logs[j] - logs[i]) * (k - i) <= (lk - logs[i]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    starts = []
    for i, j in zip(hull, hull[1:]):
        radius = math.exp((logs[i] - logs[j]) / (j - i))
        for t in range(j - i):
            angle = 2.0 * math.pi * (t / (j - i) + i / n) + 0.7
            starts.append(radius * cmath.exp(1j * angle))
    return starts


def _aberth(a):
    """Every root of ``a`` (degree >= 2, ``a[0]`` and ``a[-1]`` nonzero).

    Aberth-Ehrlich iteration, updating in place: each root takes the Newton
    step corrected by the repulsion of all others, and is done once
    ``|p(z)|`` falls below the rounding bound of its evaluation, after one
    last step (Aberth, Math. Comp. 27, 339 (1973)).
    """
    n = len(a) - 1
    z = _start_points(a)
    done = [False] * n
    for _ in range(_ABERTH_SWEEPS):
        for i in range(n):
            if done[i]:
                continue
            zi = z[i]
            p, dp, bound = _horner(a, zi)
            done[i] = abs(p) <= bound
            repulsion = sum(1.0 / (zi - zj) for zj in z[:i] + z[i + 1:])
            denominator = dp - p * repulsion
            if denominator != 0.0:
                z[i] = zi - p / denominator
        if all(done):
            return z
    raise ConvergenceError(
        f"Aberth iteration did not converge in {_ABERTH_SWEEPS} sweeps",
        diagnostics={"coefficients": list(a), "roots": z})


def _may_be_real(a, z, others):
    """Whether the disk of ``z`` that must hold a root of ``a`` reaches the
    real line.

    The radius is ``n (|p(z)| + e) / |a_n prod (z - w)|`` over the other
    iterates ``w``, with ``e`` the rounding bound of ``p(z)`` (inclusion
    disks of Braess and Hadeler, as in Bini 1996).  Near a multiple or
    tightly clustered real root the iterates pair off close to each other
    and the radius is large; for a well separated complex root it is tiny.
    """
    p, _, bound = _horner(a, z)
    gap = a[-1]
    for w in others:
        gap *= z - w
    return gap == 0 or abs(z.imag) * abs(gap) <= (len(a) - 1) * (abs(p)
                                                                  + bound)


def _polish_real(a, x):
    """Newton steps on the real line from ``x`` while they lower
    ``|p(x)|``; the result as ``complex(x, 0)``."""
    p, dp, _ = _horner(a, x)
    for _ in range(4):
        if p == 0.0 or dp == 0.0:
            break
        step = x - p / dp
        p_step, dp_step, _ = _horner(a, step)
        if abs(p_step) >= abs(p):
            break
        x, p, dp = step, p_step, dp_step
    return complex(x, 0.0)


def polyroots(coeffs):
    """All roots of the real polynomial ``sum(coeffs[k] * x**k)``.

    ``coeffs`` ascend in power, as in ``np.polynomial.polynomial.polyroots``,
    and trailing zeros are dropped.  Zero roots are factored out exactly;
    above degree 1 the rest come from :func:`_aberth`.  A root whose
    inclusion disk reaches the real line (:func:`_may_be_real`) is returned
    real, with imaginary part exactly 0, after a Newton polish of its real
    part; so is any root left without a mirror image.  The others are
    matched to their nearest mirror images and returned as exact conjugate
    pairs, the mean of the two and its conjugate.  Sorted by real, then
    imaginary part.  Raises :class:`ConvergenceError` for a non-finite
    coefficient, or if the iteration does not settle.
    """
    a = [float(c) for c in coeffs]
    if not all(map(math.isfinite, a)):
        raise ConvergenceError("polynomial coefficients are not finite",
                               diagnostics={"coefficients": a})
    while a and a[-1] == 0.0:
        a.pop()
    zeros = 0
    while zeros < len(a) - 1 and a[zeros] == 0.0:
        zeros += 1
    a = a[zeros:]
    roots = [0j] * zeros
    if len(a) == 2:
        roots.append(complex(-a[0] / a[1]))
    elif len(a) > 2:
        z = _aberth(a)
        real, upper, lower = [], [], []
        for i, zi in enumerate(z):
            if _may_be_real(a, zi, z[:i] + z[i + 1:]):
                real.append(zi)
            elif zi.imag > 0:
                upper.append(zi)
            else:
                lower.append(zi.conjugate())
        # a root without a mirror image cannot be complex
        upper.sort(key=lambda w: w.imag)
        lower.sort(key=lambda w: w.imag)
        while len(upper) != len(lower):
            real.append((upper if len(upper) > len(lower) else lower).pop(0))
        roots += [_polish_real(a, w.real) for w in real]
        for u in upper:
            m = 0.5 * (u + lower.pop(min(range(len(lower)),
                                         key=lambda k: abs(lower[k] - u))))
            roots += [m, m.conjugate()]
    return sorted(roots, key=lambda z: (z.real, z.imag))
