"""Bracketed scalar root finding and minimization used across the solvers."""

import math

import numpy as np

from .errors import ConvergenceError


def bisect(f, lo, hi, rtol=1e-12, maxiter=200):
    """Bisection root of ``f`` on ``[lo, hi]``, which must bracket a sign change.

    Runs until the bracket width drops below ``rtol`` relative to its
    midpoint (or ``rtol`` absolute near zero).  Bisection is deliberate:
    no derivative, guaranteed convergence on a bracket.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ConvergenceError(
            f"root not bracketed on [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}")
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
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


def golden_min(f, a, b, c, rtol=1e-12, maxiter=200):
    """Minimizer of ``f`` on a bracket ``a < b < c`` with f(b) <= f(a), f(c).

    Golden-section search (Kiefer 1953): each step probes the larger
    sub-interval and keeps the part holding the lower value, shrinking the
    bracket by 0.618 per evaluation until its width drops below ``rtol``
    relative to the inner points.  Needs no derivative and cannot fail; it
    returns the lowest point seen.
    """
    x0, x3 = a, c
    if c - b > b - a:
        x1, x2 = b, b + _GOLD * (c - b)
    else:
        x1, x2 = b - _GOLD * (b - a), b
    f1, f2 = f(x1), f(x2)
    for _ in range(maxiter):
        if x3 - x0 <= rtol * (abs(x1) + abs(x2)):
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

    Exact zeros at grid nodes are returned as degenerate brackets.
    """
    brackets = []
    for i in range(len(grid) - 1):
        a, b = f_values[i], f_values[i + 1]
        if a == 0.0:
            brackets.append((grid[i], grid[i]))
        elif np.sign(a) != np.sign(b) and b != 0.0:
            brackets.append((grid[i], grid[i + 1]))
    if len(f_values) and f_values[-1] == 0.0:
        brackets.append((grid[-1], grid[-1]))
    return brackets
