"""Root finding and the axis grid: sign-change oracles, NaN function values,
polynomials built from known roots, and numpy's ``linspace``."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tripler._roots import bisect, bracket_roots, linspace, polyroots
from tripler.errors import ConvergenceError


def _nan_above(edge, below=-1.0):
    return lambda x: below if x < edge else math.nan


class TestBisect:
    def test_root_of_a_line(self):
        assert bisect(lambda x: x - 0.3, 0.0, 1.0) == pytest.approx(0.3,
                                                                     abs=1e-12)

    def test_nan_edge_is_no_root(self):
        # np.sign(nan) differs from every sign, so the edge of the NaN
        # region used to come back as a root
        with pytest.raises(ConvergenceError, match="NaN at 1.0"):
            bisect(_nan_above(0.3), 0.0, 1.0)

    def test_nan_midpoint_named(self):
        def f(x):
            return math.nan if 0.4 < x < 0.6 else x - 0.7

        with pytest.raises(ConvergenceError, match="NaN at 0.5") as info:
            bisect(f, 0.0, 1.0)
        assert info.value.diagnostics == {"point": 0.5}

    def test_unbracketed(self):
        with pytest.raises(ConvergenceError, match="not bracketed"):
            bisect(lambda x: x + 1.0, 0.0, 1.0)


def _sign_change_brackets(values, grid):
    """A degenerate bracket at each zero, else one wherever numpy's signs of
    neighbouring values multiply to -1."""
    s = np.sign(values)
    out = []
    for i in range(len(values)):
        if s[i] == 0:
            out.append((grid[i], grid[i]))
        elif i + 1 < len(values) and s[i] * s[i + 1] < 0:
            out.append((grid[i], grid[i + 1]))
    return out


class TestBracketRoots:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([-2.5, -1e-300, 0.0, 1e-300, 3.0,
                                     math.inf, -math.inf]), max_size=12))
    def test_matches_numpy_signs(self, values):
        grid = np.linspace(0.0, 1.0, len(values))
        values = np.asarray(values, dtype=float)
        assert bracket_roots(values, grid) \
            == _sign_change_brackets(values, grid.tolist())

    def test_lists_and_arrays_agree(self):
        grid = [0.0, 0.5, 1.0, 1.5]
        values = [1.0, -1.0, 0.0, 2.0]
        assert bracket_roots(values, grid) == bracket_roots(
            np.array(values), np.array(grid)) == [(0.0, 0.5), (1.0, 1.0)]

    def test_nan_cell_named(self):
        with pytest.raises(ConvergenceError, match="NaN at 0.5") as info:
            bracket_roots(np.array([1.0, math.nan, -1.0]),
                          np.array([0.0, 0.5, 1.0]))
        assert info.value.diagnostics == {"point": 0.5}


@st.composite
def _axes(draw):
    """``[lo, hi, n]`` with a finite span: any, zero, or a few ulps from a
    subnormal ``lo``, where the step underflows to 0."""
    lo = draw(st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-306, 1e-306)))
    hi = draw(st.one_of(st.floats(-1e300, 1e300), st.just(lo),
                        st.integers(-40, 40).map(lambda k: lo + k * 5e-324)))
    return lo, hi, draw(st.integers(1, 40))


class TestLinspace:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(axis=_axes())
    @example(axis=(0.0, 1e-323, 5))         # the step underflows to 0
    @example(axis=(-5e-324, -1e-323, 3))
    @example(axis=(0.25, 0.25, 4))
    @example(axis=(0.0, -3.0, 1))           # 0 * -3 is -0.0
    def test_axis_points_are_numpy_linspace(self, axis):
        points = linspace(*axis)
        assert all(type(x) is float for x in points)
        assert np.array(points).tobytes() == np.linspace(*axis).tobytes()


_EPS = sys.float_info.epsilon


@st.composite
def _known_roots(draw):
    """Roots of a real polynomial of degree 1 to 8: real ones, conjugate
    pairs, and clusters of two a relative 1e-3 to 1e-5 apart, with moduli
    spread over 1e-6 to 1e6.  Real roots are floats, and a pair is two
    complex numbers a +- ib with float parts."""
    roots = []
    for _ in range(draw(st.integers(1, 8))):
        modulus = 10.0 ** draw(st.floats(-6.0, 6.0))
        kind = draw(st.sampled_from(("real", "pair", "cluster")))
        if kind == "real":
            group = [draw(st.sampled_from((1.0, -1.0))) * modulus]
        elif kind == "pair":
            angle = draw(st.floats(0.01, math.pi - 0.01))
            z = complex(modulus * math.cos(angle), modulus * math.sin(angle))
            group = [z, z.conjugate()]
        else:
            offset = 10.0 ** -draw(st.floats(3.0, 5.0))
            group = [modulus, modulus * (1.0 + offset)]
        if len(roots) + len(group) > 8:
            break
        roots += group
    return roots


def _exact_coefficients(roots):
    """Ascending coefficients of prod(x - z), each the correctly rounded
    float of its exact rational value (conjugate pairs multiply out to the
    real quadratic x^2 - 2 a x + a^2 + b^2)."""
    poly = [Fraction(1)]
    for z in roots:
        if z.imag < 0:
            continue
        a, b = Fraction(z.real), Fraction(z.imag)
        factor = [a * a + b * b, -2 * a, Fraction(1)] if b else [-a, 1]
        poly = [sum(poly[i] * factor[k - i] for i in range(len(poly))
                    if 0 <= k - i < len(factor))
                for k in range(len(poly) + len(factor) - 1)]
    return [float(c) for c in poly]


def _root_tolerance(coeffs, roots, k):
    """First-order bound on how far root ``k`` may move: each coefficient
    rounded (eps/2) and the root found to the rounding bound of its Horner
    evaluation (2 n eps), both times the root's condition number
    sum |a_j| |z|^j / |p'(z)|, with a factor 4 to spare; infinite at a
    multiple root."""
    z, n = roots[k], len(coeffs) - 1
    dp = 1.0
    for j, w in enumerate(roots):
        if j != k:
            dp *= z - w
    size = sum(abs(c) * abs(z) ** j for j, c in enumerate(coeffs))
    if dp == 0:
        return math.inf
    return 4.0 * (2 * n + 1) * _EPS * size / abs(dp) + 4.0 * _EPS * abs(z)


class TestPolyroots:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(roots=_known_roots())
    @example(roots=[1e-6, -3e-3, 2 + 1j, 2 - 1j, 1e6, 5.0, 5.0001])
    @example(roots=[1e6, 1e6 * (1 + 1e-5), -1e-6, complex(1e-6, 1e-6),
                    complex(1e-6, -1e-6)])
    def test_finds_known_roots(self, roots):
        coeffs = _exact_coefficients(roots)
        tols = [_root_tolerance(coeffs, roots, k) for k in range(len(roots))]
        gaps = [min((abs(w - z) for j, w in enumerate(roots) if j != k),
                    default=math.inf) for k, z in enumerate(roots)]
        # the bound is first order: it holds while each root moves by much
        # less than its distance to the next (not at a multiple root)
        assume(all(t <= 0.01 * g for t, g in zip(tols, gaps)))
        got = polyroots(coeffs)
        assert len(got) == len(roots)
        # exact conjugate pairs, sorted by real then imaginary part
        assert sorted(got, key=lambda z: (z.real, -z.imag)) == sorted(
            (z.conjugate() for z in got), key=lambda z: (z.real, -z.imag))
        assert got == sorted(got, key=lambda z: (z.real, z.imag))
        left = list(got)
        for k in sorted(range(len(roots)), key=tols.__getitem__):
            near = min(left, key=lambda w: abs(w - roots[k]))
            assert abs(near - roots[k]) <= tols[k], (roots[k], near, tols[k])
            left.remove(near)
            assert (near.imag == 0.0) == (roots[k].imag == 0.0)

    def test_zero_roots_are_exact(self):
        assert polyroots([0.0, 0.0, 2.0, -2.0]) == [0j, 0j, 1 + 0j]

    def test_trailing_zeros_and_low_degree(self):
        assert polyroots([6.0, -5.0, 1.0, 0.0, 0.0]) == pytest.approx(
            [2.0, 3.0], rel=4 * _EPS)
        assert polyroots([3.0, 2.0]) == [-1.5 + 0j]
        assert polyroots([5.0]) == polyroots([0.0]) == []

    def test_real_roots_polished_to_rounding(self):
        # (x - 1)(x - 2)...(x - 6) has exact float coefficients and is
        # ill-conditioned at its middle roots
        coeffs = _exact_coefficients([float(k) for k in range(1, 7)])
        got = polyroots(coeffs)
        assert all(z.imag == 0.0 for z in got)
        assert [z.real for z in got] == pytest.approx(range(1, 7),
                                                      rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficients_are_refused(self, bad):
        for coeffs in ([1.0, bad, 0.5, 1.0], [1.0, 2.0, bad]):
            with pytest.raises(ConvergenceError, match="not finite"):
                polyroots(coeffs)
