"""Bracketed root finding: sign-change oracles and NaN function values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripler._roots import bisect, bracket_roots
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
