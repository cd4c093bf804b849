"""Scalar root finding, polynomial roots and the axis grid used across the
solvers, all on Python numbers."""

import cmath
import math
import sys

from .errors import ConvergenceError

_EPS = sys.float_info.epsilon

#: iterations of :func:`bisect` before it gives up and of :func:`golden_min`
#: before it stops, and the relative bracket width golden_min stops at
_MAXITER = 200
_GOLDEN_RTOL = 1e-12

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


def golden_min(f, a, b, c):
    """Minimizer of ``f`` on a bracket ``a < b < c`` with f(b) <= f(a), f(c).

    Golden-section search (Kiefer 1953): each step probes the larger
    sub-interval and keeps the part holding the lower value, shrinking the
    bracket by 0.618 per evaluation until its width drops below
    ``_GOLDEN_RTOL`` relative to the inner points, for at most ``_MAXITER``
    evaluations.  Needs no derivative and cannot fail; it returns the
    lowest point seen.
    """
    x0, x3 = a, c
    if c - b > b - a:
        x1, x2 = b, b + _GOLD * (c - b)
    else:
        x1, x2 = b - _GOLD * (b - a), b
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAXITER):
        if x3 - x0 <= _GOLDEN_RTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, x2 + _GOLD * (x3 - x2)
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, x1 - _GOLD * (x1 - x0)
            f2, f1 = f1, f(x1)
    return x1 if f1 < f2 else x2


def bracket_roots(f_values, grid):
    """Brackets ``(grid[i], grid[i+1])`` where tabulated ``f_values`` change sign.

    Exact zeros at grid nodes are returned as degenerate brackets; the
    brackets hold the grid's own elements.  A NaN value raises
    :class:`ConvergenceError` naming its grid point.
    """
    values = list(f_values)
    for i, fx in enumerate(values):
        if fx != fx:
            raise _nan_error(float(grid[i]))
    brackets = []
    positive = [fx > 0.0 for fx in values]
    for i in range(len(values) - 1):
        if values[i] == 0.0:
            brackets.append((grid[i], grid[i]))
        elif positive[i] != positive[i + 1] and values[i + 1] != 0.0:
            brackets.append((grid[i], grid[i + 1]))
    if values and values[-1] == 0.0:
        brackets.append((grid[-1], grid[-1]))
    return brackets


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
