import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripler import circuit, steady
from tripler.errors import (
    BelowThresholdError,
    ConvergenceError,
    DomainError,
    PhaseDomainError,
    RegimeWarning,
)
from tripler.steady import DimensionlessPoint


def make_point(delta=-20.0, Delta=1500.0, gamma1=1.93, gamma2=13.6,
               gamma2_ext=13.1, beta=3.0**0.25 * 1.0, alpha1=1.0,
               drive_b2=0.0, drive_phase=0.0):
    return DimensionlessPoint(delta=delta, Delta=Delta, gamma1=gamma1,
                              gamma2=gamma2, gamma2_ext=gamma2_ext, beta=beta,
                              alpha1=alpha1, drive_b2=drive_b2,
                              drive_phase=drive_phase)


@pytest.mark.parametrize("field", [
    "delta", "Delta", "gamma1", "gamma2", "gamma2_ext", "beta", "alpha1",
    "drive_b2", "drive_phase", "flux"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_field(field, bad):
    kw = dict(delta=-20.0, Delta=1500.0, gamma1=1.93, gamma2=13.6,
              gamma2_ext=13.1, beta=1.3, alpha1=1.0, flux=0.0)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DimensionlessPoint(**kw)


# ---------------------------------------------------------------------------
# brute-force oracles, independent of the library code paths


def oracle_window(delta, gamma1, n=200001):
    """Discriminant-sign scan of the closed amplitude equation over r2^2."""
    v = np.linspace(0.0, max(4.0 * abs(delta) / 7.0 * 2.0, 1.0), n)
    disc = -v * delta - 1.75 * v**2 - gamma1**2
    pos = disc > 0
    if not pos.any():
        return None
    idx = np.nonzero(pos)[0]
    return v[idx[0]], v[idx[-1]]


def oracle_branch_roots(delta, gamma1, r2_sq, n=40001):
    """Residual scan + local bisection of the closed equation in r1^2."""
    def g(y):
        return (y + delta + 1.5 * r2_sq) ** 2 - (-r2_sq * delta
                                                 - 1.75 * r2_sq**2 - gamma1**2)

    y = np.linspace(0.0, 3.0 * abs(delta) + 5.0, n)
    vals = g(y)
    roots = []
    hits = np.nonzero((vals[:-1] == 0.0) | (np.sign(vals[:-1])
                                            != np.sign(vals[1:])))[0]
    for i in hits:
        a, b = y[i], y[i + 1]
        fa = g(a)
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = g(m)
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


class TestExistenceWindow:
    def test_reference_window(self):
        lo, hi = steady.existence_window(-20.0, 1.93)
        assert lo == pytest.approx(0.1894, abs=1e-3)
        assert hi == pytest.approx(11.239, abs=1e-3)
        olo, ohi = oracle_window(-20.0, 1.93)
        assert lo == pytest.approx(olo, abs=1e-3)
        assert hi == pytest.approx(ohi, abs=1e-3)

    def test_degenerate_at_threshold(self):
        g = 1.93
        d = -math.sqrt(7) * g
        lo, hi = steady.existence_window(d, g)
        assert lo == pytest.approx(hi, rel=1e-6)
        assert lo == pytest.approx(2 * abs(d) / 7, rel=1e-6)

    def test_empty_above_threshold(self):
        assert steady.existence_window(5.0, 1.93) is None
        assert steady.existence_window(-2.0, 1.93) is None

    def test_threshold_exactness_grid(self):
        # window empty iff delta > -sqrt(7)*gamma1, on a dense grid checked
        # against the discriminant maximum (the vertex of the parabola)
        deltas = np.linspace(-60.0, -0.5, 120)
        gammas = np.linspace(0.01, 10.0, 100)
        D, G = np.meshgrid(deltas, gammas)
        # max over v of (-v*delta - 1.75 v^2 - g^2) is delta^2/7 - g^2
        brute_exists = (D**2 / 7.0 - G**2) > 0
        lib_exists = np.empty_like(brute_exists)
        for i in range(G.shape[0]):
            for j in range(G.shape[1]):
                lib_exists[i, j] = steady.existence_window(D[i, j], G[i, j]) \
                    is not None
        # ignore the measure-zero boundary ties
        tie = np.isclose(D**2 / 7.0, G**2, rtol=1e-12)
        assert np.array_equal(brute_exists[~tie], lib_exists[~tie])


class TestBranches:
    def test_reference_roots_match_oracle(self):
        got = steady.subharmonic_branches(-20.0, 1.93, 1.429)
        stable = [r for r, s in got if s == +1][0]
        assert stable == pytest.approx(22.47, abs=0.05)
        oracle = oracle_branch_roots(-20.0, 1.93, 1.429)
        assert len(oracle) == len(got) == 2
        for (r, _), o in zip(sorted(got), sorted(oracle)):
            assert r == pytest.approx(o, abs=1e-6)

    def test_no_roots_at_zero_pump(self):
        assert steady.subharmonic_branches(-20.0, 1.93, 0.0) == []

    def test_single_root_at_window_edge(self):
        lo, hi = steady.existence_window(-20.0, 1.93)
        roots = steady.subharmonic_branches(-20.0, 1.93, hi)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(20.0 - 1.5 * hi, rel=1e-6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(adelta=st.floats(1e-3, 1e3),
           frac=st.floats(0.0, 0.999))
    def test_window_edges_are_double_roots(self, adelta, frac):
        # gamma1 = frac * |delta|/sqrt(7) keeps the detuning past threshold
        delta, gamma1 = -adelta, frac * adelta / math.sqrt(7.0)
        for edge in steady.existence_window(delta, gamma1):
            base, disc = steady.branch_quadratic(delta, gamma1, edge)
            assert abs(disc) <= 1e-12 * max(1.0, delta**2)
            roots = steady.subharmonic_branches(delta, gamma1, edge)
            assert roots == [(base, +1)]
            assert base == pytest.approx(-delta - 1.5 * edge, rel=1e-12)

    def test_branch_continuity_and_endpoint_merge(self):
        lo, hi = steady.existence_window(-20.0, 1.93)
        vs = np.linspace(lo, hi, 400)
        upper, lower = [], []
        for v in vs:
            roots = dict((s, r) for r, s in steady.subharmonic_branches(
                -20.0, 1.93, v))
            upper.append(roots.get(+1, np.nan))
            lower.append(roots.get(-1, roots.get(+1, np.nan)))
        upper, lower = np.array(upper), np.array(lower)
        assert np.all(np.isfinite(upper))
        assert np.all(np.isfinite(lower))
        assert abs(upper[0] - lower[0]) < 1e-3
        assert abs(upper[-1] - lower[-1]) < 1e-3
        assert np.all(upper >= lower - 1e-12)


class TestTriadPhases:
    def test_reference_phases(self):
        theta, phis = steady.triad_phases(-20.0, 1.93, 22.4697, 1.429, 0.0)
        assert theta == pytest.approx(2.794, abs=0.01)
        assert math.pi / 2 < theta <= math.pi
        assert np.allclose(phis, (0.931, 3.026, 5.120), atol=2e-3)
        # construction guarantees the spacing
        assert phis[1] - phis[0] == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert phis[2] - phis[1] == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_sin_relation(self):
        v = 2.0
        r1 = steady.stable_branch(-20.0, 1.93, v)
        theta, _ = steady.triad_phases(-20.0, 1.93, r1, v)
        assert math.sin(theta) == pytest.approx(1.93 / math.sqrt(r1 * v),
                                                rel=1e-9)

    def test_undamped_limit_is_pi(self):
        r1 = steady.stable_branch(-20.0, 0.0, 2.0)
        theta, _ = steady.triad_phases(-20.0, 0.0, r1, 2.0)
        assert theta == pytest.approx(math.pi, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(PhaseDomainError):
            steady.triad_phases(-20.0, 5.0, 1e-4, 1e-4)


class TestClosedFormGuards:
    """A NaN, infinite or negative argument is named, never passed on."""

    @staticmethod
    def rejects(name, fn, *args):
        with pytest.raises(ValueError, match=f"^{name} must be "
                           r"(non-negative and )?finite, got "):
            fn(*args)

    def test_threshold_detuning(self):
        for gamma1 in (math.nan, math.inf, -1.0):
            self.rejects("gamma1", steady.threshold_detuning, gamma1)

    def test_existence_window(self):
        self.rejects("delta", steady.existence_window, math.nan, 1.0)
        self.rejects("delta", steady.existence_window, -math.inf, 1.0)
        self.rejects("gamma1", steady.existence_window, -10.0, math.nan)
        self.rejects("gamma1", steady.existence_window, -10.0, -1.0)

    def test_max_intensity(self):
        self.rejects("delta", steady.max_intensity, math.nan, 1.0)
        self.rejects("delta", steady.max_intensity, -math.inf, 1.0)
        self.rejects("gamma1", steady.max_intensity, -10.0, math.nan)

    def test_subharmonic_branches(self):
        fn = steady.subharmonic_branches
        self.rejects("delta", fn, math.nan, 1.0, 5.0)
        self.rejects("gamma1", fn, -10.0, math.inf, 5.0)
        self.rejects("r2_sq", fn, -10.0, 1.0, math.nan)
        self.rejects("r2_sq", fn, -10.0, 1.0, -1.0)
        self.rejects("r2_sq", steady.stable_branch, -10.0, 1.0, math.nan)

    def test_triad_phases(self):
        fn = steady.triad_phases
        self.rejects("r1_sq", fn, -10.0, 1.0, math.nan, 5.0)
        self.rejects("r2_sq", fn, -10.0, 1.0, 5.0, math.inf)
        self.rejects("delta", fn, math.nan, 1.0, 5.0, 5.0)
        self.rejects("gamma1", fn, -10.0, math.nan, 5.0, 5.0)
        self.rejects("phi2", fn, -10.0, 1.0, 5.0, 5.0, math.nan)

    @staticmethod
    def named(name, fn, *args):
        with pytest.raises(DomainError, match=f"^{name} must be ") as info:
            fn(*args)
        assert info.value.name == name

    def test_ground_eigenvalue(self):
        # unchecked, a NaN pump intensity gives nan+nanj
        for r2_sq in (math.nan, math.inf, -1.0):
            self.named("r2_sq", steady.ground_eigenvalue, make_point(), r2_sq)

    def test_closed_form_lambda_sq(self):
        # unchecked, a NaN detuning or intensity gives nan
        fn = steady.closed_form_lambda_sq
        self.named("delta", fn, math.nan, 1.0, 1.0, 1)
        self.named("r1_sq", fn, -20.0, math.nan, 1.0, 1)
        self.named("r2_sq", fn, -20.0, 1.0, -1.0, 1)
        self.named("branch", fn, -20.0, 1.0, 1.0, math.nan)


class TestMaxIntensity:
    def test_reference_point(self):
        r1m, arg = steady.max_intensity(-20.0, 1.93)
        assert r1m == pytest.approx(22.48, abs=0.05)
        assert arg == pytest.approx(20.0 / 14.0, rel=1e-12)

    def test_grid_maximization_oracle(self):
        lo, hi = steady.existence_window(-20.0, 1.93)
        vs = np.linspace(lo, hi, 200001)
        best = max(steady.stable_branch(-20.0, 1.93, v) for v in vs)
        r1m, _ = steady.max_intensity(-20.0, 1.93)
        assert r1m == pytest.approx(best, abs=1e-6)

    def test_dominates_branch_everywhere(self):
        r1m, _ = steady.max_intensity(-20.0, 1.93)
        lo, hi = steady.existence_window(-20.0, 1.93)
        for v in np.linspace(lo, hi, 500):
            assert steady.stable_branch(-20.0, 1.93, v) <= r1m + 1e-9

    def test_undamped_closed_form(self):
        r1m, arg = steady.max_intensity(-14.0, 0.0)
        assert r1m == pytest.approx(16.0, rel=1e-12)
        assert arg == pytest.approx(1.0, rel=1e-12)

    def test_at_threshold(self):
        g = 1.93
        d = -math.sqrt(7) * g
        r1m, _ = steady.max_intensity(d, g)
        # sqrt of the ~1e-15 cancellation residue limits the attainable match
        assert r1m == pytest.approx(4 * abs(d) / 7, rel=1e-7)

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThresholdError):
            steady.max_intensity(-1.0, 1.93)

    def test_linear_growth_far_from_threshold(self):
        g = 1.93
        ds = np.linspace(10 * g, 100 * g, 40)
        vals = np.array([steady.max_intensity(-d, g)[0] for d in ds])
        quad = np.polyfit(ds, vals, 2)
        curvature = abs(quad[0]) * (ds[-1] - ds[0]) ** 2 / vals.max()
        assert curvature < 0.02


class TestSecondModeResponse:
    @pytest.mark.parametrize("Delta,rel", [
        # the simplified form drops 3*delta against Delta, so its accuracy
        # is ~6|delta|/Delta: percent level only deep in the stiff limit
        (1500.0, 0.1),
        (1.5e5, 0.01),
    ])
    def test_stiff_pump_limit(self, Delta, rel):
        pt = make_point(Delta=Delta, drive_b2=50.0)
        branches = steady.second_mode_response(pt)
        expect = (2 * pt.beta**2 * pt.gamma2_ext / pt.alpha1) \
            * pt.drive_b2**2 / pt.Delta**2
        assert len(branches) >= 1
        assert branches[0].r2_sq == pytest.approx(expect, rel=rel)

    def test_drive_free_bare_resonance(self):
        # with undamped pump mode the drive-free stationary points are the
        # origin and the bare Kerr resonance
        pt = make_point(Delta=50.0, gamma2=0.0, gamma2_ext=0.0, drive_b2=0.0)
        branches = steady.second_mode_response(pt)
        r2 = sorted(b.r2_sq for b in branches)
        assert r2[0] == pytest.approx(0.0, abs=1e-9)
        bare = -(3 * pt.delta + pt.Delta) / pt.beta**2
        assert bare > 0
        assert r2[-1] == pytest.approx(bare, rel=1e-6)

    def test_back_bending_root_count(self):
        # at small anharmonicity the response becomes multivalued in drive
        pt = make_point(Delta=50.0, gamma2=0.71, gamma2_ext=0.69)
        counts = []
        for b2 in np.linspace(0.05, 4.0, 200):
            counts.append(len(steady.second_mode_response(
                pt.with_drive(b2))))
        assert max(counts) >= 3
        multi = [c for c in counts if c >= 3]
        assert len(multi) >= 3
        # and the middle branch is tagged as back-bending somewhere
        b2 = np.linspace(0.05, 4.0, 200)[int(np.argmax(counts))]
        tags = [br.back_bending for br in steady.second_mode_response(
            pt.with_drive(b2))]
        assert any(tags)

    def test_single_valued_at_large_anharmonicity(self):
        pt = make_point(Delta=1500.0, gamma2=13.6, gamma2_ext=13.1)
        for b2 in np.linspace(0.1, 3000.0, 100):
            assert len(steady.second_mode_response(pt.with_drive(b2))) == 1

    def test_roots_are_stationary_states_of_the_flow(self):
        # u1 = 0 and u2 at each root, with the phase of the silent-state
        # response, must make the full two-mode flow vanish
        for n_roots, kw in (
                (1, dict(Delta=500.0, gamma2=2.94, gamma2_ext=2.84,
                         drive_b2=20.0)),
                # the middle one of the three is back-bending
                (3, dict(Delta=50.0, gamma2=0.71, gamma2_ext=0.69,
                         drive_b2=2.0, drive_phase=0.4))):
            pt = make_point(**kw)
            R = pt.drive_scale
            branches = steady.second_mode_response(pt)
            assert len(branches) == n_roots
            for br in branches:
                lhs, _ = steady._Response(pt)(br.r2_sq, 0)
                phi2 = pt.drive_phase - cmath.phase(lhs)
                u2 = math.sqrt(br.r2_sq) / pt.beta * cmath.exp(1j * phi2)
                assert steady.stationary_residual(pt, 0j, u2) \
                    <= 1e-9 * max(1.0, R**2)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(adelta2=st.floats(0.1, 60.0), sign=st.sampled_from((-1.0, 1.0)),
           gamma2=st.floats(1e-3, 2.0), beta=st.floats(0.5, 2.0),
           level=st.floats(-0.25, 1.25), log_r2=st.floats(-4.0, 8.0))
    def test_cubic_roots_match_the_sextic(self, adelta2, sign, gamma2, beta,
                                          level, log_r2):
        # the oracle roots R^2 = M(x)^2 + gamma2^2 x^2 as a sextic in x = r2
        # with numpy; past delta2 = -sqrt(3)*gamma2 the response bends back
        # between the slope's roots v+- and ``level`` spans that segment
        b2, delta2 = beta**2, sign * adelta2
        disc = delta2**2 - 3.0 * gamma2**2

        def r_sq(v):
            return v * ((b2 * v + delta2) ** 2 + gamma2**2)

        if delta2 < 0.0 and disc > 0.0:
            lo, hi = (r_sq((-2.0 * delta2 + s * math.sqrt(disc)) / (3.0 * b2))
                      for s in (1.0, -1.0))
            R_sq = lo + level * (hi - lo)
            # at a fold (level 0 or 1) the oracle may miss the double root
            assume(min(abs(level), abs(level - 1.0)) > 1e-6)
        else:
            R_sq = 10.0**log_r2
        assume(R_sq > 0.0)
        pt = make_point(delta=-1.0, Delta=delta2 + 3.0, gamma2=gamma2,
                        gamma2_ext=gamma2, beta=beta, alpha1=1.0,
                        drive_b2=math.sqrt(R_sq) / (beta * math.sqrt(2 * gamma2)))
        R, c1 = pt.drive_scale, pt.delta2
        xs = np.polynomial.polynomial.polyroots(
            [-R * R, 0.0, c1**2 + gamma2**2, 0.0, 2.0 * b2 * c1, 0.0, b2**2])
        scale = max(1.0, abs(c1), R ** (1 / 3))
        want = sorted(x.real**2 for x in xs
                      if abs(x.imag) <= 1e-9 * scale and x.real > 0.0)
        assume(all(b - a > 1e-6 * b for a, b in zip(want, want[1:])))
        got = steady.second_mode_response(pt)
        assert len(got) == len(want)
        for br, v in zip(got, want):
            assert br.r2_sq == pytest.approx(v, rel=1e-10, abs=0.0)
            h = 1e-7 * v
            assert br.back_bending == (r_sq(v + h) - r_sq(v - h) < 0.0)


class TestMaxDrive:
    def test_quadratic_in_anharmonicity(self):
        pt = make_point(Delta=1500.0)
        pt2 = make_point(Delta=3000.0)
        assert steady.max_drive(pt2) == pytest.approx(4 * steady.max_drive(pt),
                                                      rel=1e-12)

    def test_regime_warning_near_threshold(self):
        g = 1.93
        pt = make_point(delta=-math.sqrt(7) * g, gamma1=g)
        with pytest.warns(RegimeWarning) as record:
            steady.max_drive(pt)
        assert record[0].filename == __file__   # points at the caller

    def test_unit_restored_view_linear_in_alpha1(self):
        # at a fixed reduced point the bound is in s^-1, so it scales as
        # alpha1; alpha1 = 1 alone cannot tell alpha1 from alpha1^2
        ref = steady.max_drive(make_point(alpha1=1.0))
        for alpha1 in (1.0, 5.9e5, 3e7):
            pt = make_point(alpha1=alpha1)
            assert steady.max_drive(pt) == pytest.approx(alpha1 * ref,
                                                         rel=1e-12)

    def test_unit_restored_view_rejects_zero_external_damping(self):
        with pytest.raises(ValueError, match="gamma2_ext > 0"):
            steady.max_drive(make_point(gamma2_ext=0.0))

    def test_sweep_oracle(self):
        # the closed-form bound should sit within ~15% of where the
        # self-consistent solve actually loses the excited states
        pt = make_point(delta=-20.0, Delta=1500.0, gamma1=1.93,
                        gamma2=13.6, gamma2_ext=13.1)
        bmax_sq = steady.max_drive(pt)

        def has_triad(b2_sq):
            states = steady.solve_selfconsistent(
                pt.with_drive(math.sqrt(b2_sq)))
            return any(s.kind == "triad" for s in states)

        assert has_triad(0.5 * bmax_sq)
        lo, hi = 0.5 * bmax_sq, 2.0 * bmax_sq
        assert not has_triad(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if has_triad(mid):
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(bmax_sq, rel=0.15)


def consistent_drive(pt, v, root_sign=+1):
    """Drive amplitude making pump intensity v exactly self-consistent."""
    lhs, _ = steady._Response(pt)(v, root_sign)
    R = abs(lhs)
    return R / (pt.beta * math.sqrt(2 * pt.gamma2_ext / pt.alpha1))


class TestSolveSelfConsistent:
    def test_undriven_returns_ground_only(self):
        pt = make_point(drive_b2=0.0)
        states = steady.solve_selfconsistent(pt)
        assert len(states) == 1
        assert states[0].kind == "ground"
        assert states[0].stable

    def test_driven_reference_point(self):
        pt = make_point(delta=-20.0, Delta=1500.0, gamma1=1.93,
                        gamma2=13.6, gamma2_ext=13.1)
        pt = pt.with_drive(consistent_drive(pt, 1.429))
        states = steady.solve_selfconsistent(pt)
        triads = [s for s in states if s.kind == "triad"]
        grounds = [s for s in states if s.kind == "ground"]
        assert len(grounds) == 1 and grounds[0].stable
        assert len(triads) == 3
        assert all(t.stable for t in triads)
        for t in triads:
            assert t.r2_sq == pytest.approx(1.429, rel=1e-9)
            assert t.r1_sq == pytest.approx(22.4697, abs=1e-3)
            assert t.residual < steady.STATIONARY_TOL

    def test_triad_symmetry(self):
        pt = make_point()
        pt = pt.with_drive(consistent_drive(pt, 2.0), 0.3)
        states = [s for s in steady.solve_selfconsistent(pt) if s.kind == "triad"]
        assert len(states) == 3
        r1s = {s.r1_sq for s in states}
        assert max(r1s) - min(r1s) == 0.0
        phис = sorted(s.phi1 for s in states)
        assert phис[1] - phис[0] == pytest.approx(2 * math.pi / 3, abs=1e-9)
        assert phис[2] - phис[1] == pytest.approx(2 * math.pi / 3, abs=1e-9)
        # rotating any member by 2pi/3 lands on another member
        for s in states:
            rotated = (s.phi1 + 2 * math.pi / 3) % (2 * math.pi)
            assert any(abs((rotated - o.phi1 + math.pi) % (2 * math.pi)
                           - math.pi) < 1e-9 for o in states)
        eigs = [tuple(np.round(sorted(z.real for z in s.eigenvalues), 9))
                for s in states]
        assert len(set(eigs)) == 1

    def test_above_max_drive_only_ground(self):
        pt = make_point(delta=-20.0, Delta=1500.0, gamma1=1.93,
                        gamma2=13.6, gamma2_ext=13.1)
        b2 = math.sqrt(3.0 * steady.max_drive(pt))
        states = steady.solve_selfconsistent(pt.with_drive(b2))
        assert all(s.kind == "ground" for s in states)

    def test_driven_above_threshold_only_ground(self):
        # region I: detuning above threshold leaves only the silent state
        # no matter the drive
        pt = make_point(delta=-2.0, gamma1=1.93, drive_b2=300.0)
        states = steady.solve_selfconsistent(pt, all_branches=True)
        assert len(states) >= 1
        assert all(s.kind == "ground" for s in states)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(gamma1=st.floats(0.2, 3.0), past=st.floats(0.05, 10.0),
           Delta=st.floats(40.0, 2000.0), gamma2=st.floats(0.5, 15.0),
           ext=st.floats(0.5, 1.0), beta=st.floats(0.8, 1.6),
           frac=st.floats(0.02, 0.98), root_sign=st.sampled_from((1, -1)),
           phase=st.floats(0.0, 2 * math.pi))
    def test_triad_copies_are_rotations_property(self, gamma1, past, Delta,
                                                 gamma2, ext, beta, frac,
                                                 root_sign, phase):
        # a drive self-consistent at a pump intensity inside the window;
        # every triad found there must come as three copies whose phi1
        # differ by 2*pi/3
        pt = make_point(delta=-math.sqrt(7.0) * gamma1 * (1.0 + past),
                        Delta=Delta, gamma1=gamma1, gamma2=gamma2,
                        gamma2_ext=ext * gamma2, beta=beta, drive_phase=phase)
        lo, hi = steady.existence_window(pt.delta, pt.gamma1)
        pt = pt.with_drive(consistent_drive(pt, lo + frac * (hi - lo),
                                            root_sign))
        triads = {}
        for s in steady.solve_selfconsistent(pt, all_branches=True):
            if s.kind == "triad":
                triads.setdefault(s.branch, []).append(s)
        for copies in triads.values():
            assert [s.copy for s in copies] == [0, 1, 2]
            for k, s in enumerate(copies):
                gap = (s.phi1 - copies[0].phi1 - 2 * math.pi * k / 3) \
                    % (2 * math.pi)
                assert min(gap, 2 * math.pi - gap) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(gamma1=st.floats(0.2, 3.0), past=st.floats(1e-6, 10.0),
           Delta=st.floats(40.0, 2000.0), gamma2=st.floats(0.5, 15.0),
           beta=st.floats(0.8, 1.6), b2=st.floats(0.0, 50.0),
           edge_offsets=st.tuples(*[st.sampled_from(
               (-1e-6, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 1e-6))] * 2),
           root_sign=st.sampled_from((1, -1)))
    def test_knots_match_single_point_path(self, gamma1, past, Delta, gamma2,
                                           beta, b2, edge_offsets, root_sign):
        # every knot's m must be the single-point |LHS| bit for bit, the
        # knots must not depend on the drive, and a window reaching past
        # the existence window must raise as the single-point path does
        pt = make_point(delta=-math.sqrt(7.0) * gamma1 * (1.0 + past),
                        Delta=Delta, gamma1=gamma1, gamma2=gamma2,
                        gamma2_ext=0.9 * gamma2, beta=beta, drive_b2=b2)
        lo, hi = steady.existence_window(pt.delta, pt.gamma1)
        span = hi - lo        # negative offsets leave the window
        lo, hi = lo + edge_offsets[0] * span, hi - edge_offsets[1] * span
        try:
            knots = steady._response_knots(steady._Response(pt), lo, hi,
                                           root_sign)
        except BelowThresholdError as exc:
            message = str(exc)
            prefix = f"branch {root_sign} absent at delta={pt.delta}, r2_sq="
            assert message.startswith(prefix)
            v = float(message[len(prefix):])
            assert lo <= v <= hi
            with pytest.raises(BelowThresholdError) as info:
                steady._Response(pt)(v, root_sign)
            assert str(info.value) == message
            return
        assert knots[0][0] == lo and knots[-1][0] == hi
        assert [v for v, _ in knots] == sorted(v for v, _ in knots)
        for v, m in knots:
            lhs, _ = steady._Response(pt)(v, root_sign)
            assert m.hex() == abs(lhs).hex()
        assert steady._response_knots(steady._Response(pt.with_drive(b2 + 1.0)),
                                      lo, hi, root_sign) == knots

    def test_brute_force_equivalence_coarse_grid(self):
        # scan the 2-D residual surface over (r1^2, r2^2) independently and
        # match every zero against the solver output
        pt = make_point(delta=-14.0, Delta=400.0, gamma1=1.2, gamma2=3.0,
                        gamma2_ext=2.8)
        pt = pt.with_drive(consistent_drive(pt, 2.3))
        R = pt.drive_scale
        b2 = pt.beta**2
        lo, hi = steady.existence_window(pt.delta, pt.gamma1)

        def mismatch(v, sign):
            roots = oracle_branch_roots(pt.delta, pt.gamma1, v, n=4001)
            y = max(roots) if sign > 0 else min(roots)
            sq = math.sqrt(v)
            re = (pt.delta2 + b2 * (v + 2 * y)) * sq \
                + (b2 / 3.0) * y * (-pt.delta - 2 * v - y) / sq
            im = pt.gamma2 * sq + (b2 / 3.0) * y * pt.gamma1 / sq
            return math.hypot(re, im) - R

        span = hi - lo
        vs = np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, 800)
        found = []
        for sign in (+1, -1):
            g = [mismatch(v, sign) for v in vs]
            for i in range(len(vs) - 1):
                if (g[i] < 0) != (g[i + 1] < 0):
                    a, bb, fa = vs[i], vs[i + 1], g[i]
                    for _ in range(60):
                        m = 0.5 * (a + bb)
                        fm = mismatch(m, sign)
                        if (fm < 0) == (fa < 0):
                            a, fa = m, fm
                        else:
                            bb = m
                    found.append((0.5 * (a + bb), sign))

        states = steady.solve_selfconsistent(pt, all_branches=True)
        triad_roots = sorted({(round(s.r2_sq, 8), s.root_sign)
                              for s in states if s.kind == "triad"})
        assert len(found) == len(triad_roots)
        for (v_or, s_or), (v_lib, s_lib) in zip(sorted(found), triad_roots):
            assert s_or == s_lib
            assert v_or == pytest.approx(v_lib, abs=1e-5)


def oracle_flow(pt, u1, u2):
    """The reduced equations of motion, written out apart from steady.flow."""
    b = pt.beta
    n1, n2 = abs(u1) ** 2, abs(u2) ** 2
    drive = pt.drive_scale / b * cmath.exp(1j * pt.drive_phase)
    du1 = (1j * (pt.delta + n1 + 2 * b**2 * n2) - pt.gamma1) * u1 \
        + 1j * b * u1.conjugate() ** 2 * u2
    du2 = (1j * (pt.delta2 + b**4 * n2 + 2 * b**2 * n1) - pt.gamma2) * u2 \
        + 1j * (b / 3) * u1**3 - 1j * drive
    return du1, du2


class TestFlow:
    """The shared equations of motion against the separately written oracle."""

    @pytest.mark.parametrize("beta", [3.0**0.25, 1.2, 0.7])
    def test_matches_oracle(self, beta):
        pt = make_point(beta=beta, drive_b2=3.0, drive_phase=0.7)
        z = 3.0 * np.random.default_rng(5).standard_normal((4, 40))
        u1, u2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
        want = oracle_flow(pt, u1, u2)
        scalars = [steady.flow(pt, complex(a), complex(b))
                   for a, b in zip(u1, u2)]
        for got in (steady.flow(pt, u1, u2), np.array(scalars).T):
            for g, w in zip(got, want):
                assert np.all(np.abs(w) > 1e-3)     # not a stationary point
                assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w))


def oracle_jacobian(pt, u1, u2, h=1e-6):
    """Central-difference Jacobian of :func:`oracle_flow` in quadratures."""
    def f(x):
        du1, du2 = oracle_flow(pt, complex(x[0], x[1]), complex(x[2], x[3]))
        return np.array([du1.real, du1.imag, du2.real, du2.imag])

    x0 = np.array([u1.real, u1.imag, u2.real, u2.imag])
    return np.column_stack([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                            for e in np.eye(4)])


def oracle_max_growth(pt, u1, u2, h=1e-6):
    """Largest real part of the central-difference Jacobian's eigenvalues."""
    return max(np.linalg.eigvals(oracle_jacobian(pt, u1, u2, h)).real)


class TestFoldPolish:
    """Triad roots beside a window edge, where the closed branch r1^2(r2^2)
    loses digits and the 1D reduction alone misses the stationary tolerance.
    """

    @pytest.mark.parametrize("delta1_hz, b2_sq", [
        (-10.999815781787537e6, 8.656948295074792e11),
        (-11.5525e6, 9.0469e11),
        # the steady-map benchmark point of seed 6007
        (-11552506.105142672, 904690237110.1542),
    ])
    def test_states_meet_tolerance(self, params, delta1_hz, b2_sq):
        pt = circuit.device_point(params, 0.0, 2 * math.pi * delta1_hz,
                                  drive_b2=math.sqrt(b2_sq))
        states = steady.solve_selfconsistent(pt, all_branches=True)
        triads = [s for s in states if s.kind == "triad"]
        assert len(triads) == 6
        for s in triads:
            u1, u2 = s.amplitudes(pt)
            assert max(abs(z) for z in oracle_flow(pt, u1, u2)) \
                <= steady.STATIONARY_TOL
            assert s.residual <= steady.STATIONARY_TOL
            growth = oracle_max_growth(pt, u1, u2)
            assert abs(growth) > 1.0 and s.stable == (growth < 0)
        for branch in {s.branch for s in triads}:
            phis = sorted(s.phi1 for s in triads if s.branch == branch)
            assert np.diff(phis) == pytest.approx([2 * math.pi / 3] * 2,
                                                  abs=1e-9)

    def test_singular_jacobian_is_a_convergence_error(self):
        # at u1 = u2 = 0 with delta = gamma1 = 0 the fundamental-mode rows
        # of the Jacobian vanish
        pt = DimensionlessPoint(delta=0.0, Delta=20.0, gamma1=0.0,
                                gamma2=1.5, gamma2_ext=1.4, beta=1.2,
                                alpha1=1.0, drive_b2=1.0)
        state = steady.SteadyState(kind="triad", r1_sq=0.0, r2_sq=0.0,
                                   theta=0.0, phi1=0.0, phi2=0.0,
                                   stable=False, eigenvalues=(),
                                   residual=math.nan)
        with pytest.raises(ConvergenceError, match="singular") as info:
            steady._newton_polish(pt, state, 0j, 0j)
        assert info.value.diagnostics["r2_sq"] == 0.0

    def test_polish_returns_its_best_iterate(self):
        # far from any state, Newton's third iterate lands far worse than
        # the start; the polish must not hand that back
        pt = make_point(delta=-9.0, Delta=20.0, gamma1=1.0, gamma2=1.5,
                        gamma2_ext=1.4, beta=1.2, drive_b2=3.0)
        u1, u2 = 0.8 + 2.2j, 0.14 + 1.45j
        state = steady.SteadyState(kind="triad", r1_sq=1.0, r2_sq=1.0,
                                   theta=0.0, phi1=0.0, phi2=0.0,
                                   stable=False, eigenvalues=(),
                                   residual=math.nan)
        start = max(abs(z) for z in oracle_flow(pt, u1, u2))
        polished, res = steady._newton_polish(pt, state, u1, u2)
        assert res == steady.stationary_residual(pt,
                                                 *polished.amplitudes(pt))
        assert res <= start

    def test_passing_states_skip_the_polish(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("polish ran on a state within tolerance")

        monkeypatch.setattr(steady, "_newton_polish", refuse)
        pt = make_point()
        pt = pt.with_drive(consistent_drive(pt, 1.429))
        states = steady.solve_selfconsistent(pt, all_branches=True)
        assert sum(s.kind == "triad" for s in states) == 6


def oracle_response_curve(pt, vs, sign):
    """m(v) = |LHS| of the closed-branch response over the array ``vs``,
    written out apart from steady._Response; NaN where the branch is
    absent."""
    base = -(pt.delta + 1.5 * vs)
    disc = -vs * pt.delta - 1.75 * vs**2 - pt.gamma1**2
    with np.errstate(invalid="ignore"):
        y = base + sign * np.sqrt(disc)
    b2, sq = pt.beta**2, np.sqrt(vs)
    re = (pt.delta2 + b2 * (vs + 2 * y)) * sq \
        + (b2 / 3.0) * y * (-pt.delta - 2 * vs - y) / sq
    im = pt.gamma2 * sq + (b2 / 3.0) * y * pt.gamma1 / sq
    return np.hypot(re, im)


class TestResponseCurve:
    """Triad roots as the crossings of the drive-independent curve m(v)
    with the drive level, against a dense scan and the flow itself."""

    def test_fold_pair_inside_one_old_scan_cell(self, params):
        # the drive sits 1e-10 relative below the saddle-node where a stable
        # triad and a saddle annihilate, 8.4e-5 apart in r2^2: a uniform
        # scan of 10 000 points over the window put both in one cell and
        # returned only the silent state
        pt = circuit.device_point(params, 0.0, 2 * math.pi * -8e6,
                                  drive_b2=math.sqrt(688357570379.766))
        triads = [s for s in steady.solve_selfconsistent(pt, all_branches=True)
                  if s.kind == "triad"]
        assert [(s.root_sign, s.copy) for s in triads] \
            == [(1, 0), (1, 1), (1, 2)] * 2
        assert [s.r2_sq for s in triads[::3]] \
            == pytest.approx([45.72099486, 45.72107899], rel=1e-9)
        for s in triads:
            u1, u2 = s.amplitudes(pt)
            assert max(abs(z) for z in steady.flow(pt, u1, u2)) \
                <= steady.STATIONARY_TOL
            growth = oracle_max_growth(pt, u1, u2)
            assert abs(growth) > 1e-3 and s.stable == (growth < 0)
        assert [s.stable for s in triads] == [True] * 3 + [False] * 3

    def test_state_off_tolerance_names_its_fold(self, params, monkeypatch):
        # with a tolerance no residual meets, the first root raises; its
        # bracket runs from the curve's minimum to the maximum at the fold
        monkeypatch.setattr(steady, "STATIONARY_TOL", 0.0)
        pt = circuit.device_point(params, 0.0, 2 * math.pi * -8e6,
                                  drive_b2=math.sqrt(688357570379.766))
        with pytest.raises(ConvergenceError, match="stationary tolerance") \
                as info:
            steady.solve_selfconsistent(pt)
        found = info.value.diagnostics
        v, m = found["fold"]
        assert found["bracket"][-1] == (v, m)
        assert found["r2_sq"] < v == pytest.approx(45.72104, rel=1e-6)
        assert 0.0 < m - found["drive_scale"] <= 1e-9 * m

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(gamma1=st.floats(0.2, 3.0), past=st.floats(0.05, 10.0),
           Delta=st.floats(40.0, 2000.0), gamma2=st.floats(0.5, 15.0),
           ext=st.floats(0.5, 1.0), beta=st.floats(0.8, 1.6),
           frac=st.floats(0.02, 0.98), level=st.floats(0.6, 1.4),
           sign=st.sampled_from((1, -1)), phase=st.floats(0.0, 2 * math.pi))
    def test_states_match_dense_scan_property(self, gamma1, past, Delta,
                                              gamma2, ext, beta, frac, level,
                                              sign, phase):
        # a drive near the curve's value somewhere in the window; away from
        # folds the number of triad roots per branch must be the number of
        # crossings of a dense scan, and every state must be stationary
        pt = make_point(delta=-math.sqrt(7.0) * gamma1 * (1.0 + past),
                        Delta=Delta, gamma1=gamma1, gamma2=gamma2,
                        gamma2_ext=ext * gamma2, beta=beta, drive_phase=phase)
        lo, hi = steady.existence_window(pt.delta, pt.gamma1)
        pt = pt.with_drive(level * consistent_drive(pt, lo + frac * (hi - lo),
                                                    sign))
        R = pt.drive_scale
        span = hi - lo
        edges = span * np.logspace(-9, -2, 2000)
        vs = np.unique(np.concatenate([
            np.linspace(lo + 1e-9 * span, hi - 1e-9 * span, 20001),
            lo + edges, hi - edges]))
        counts = {}
        for branch in (1, -1):
            m = oracle_response_curve(pt, vs, branch)
            assume(np.all(np.isfinite(m)))
            turns = np.nonzero(np.diff(np.sign(np.diff(m))))[0] + 1
            # away from folds: no extremum or end within 1e-3 of the level
            for k in (0, -1, *turns):
                assume(abs(m[k] - R) > 1e-3 * R)
            counts[branch] = int(np.count_nonzero(np.diff(np.sign(m - R))))
        states = steady.solve_selfconsistent(pt, all_branches=True)
        for branch in (1, -1):
            assert sum(s.kind == "triad" and s.root_sign == branch
                       for s in states) == 3 * counts[branch]
        for s in states:
            u1, u2 = s.amplitudes(pt)
            assert max(abs(z) for z in steady.flow(pt, u1, u2)) \
                <= steady.STATIONARY_TOL


class TestStability:
    def test_ground_exponent(self):
        pt = make_point(drive_b2=0.0)
        states = steady.solve_selfconsistent(pt)
        lam0 = states[0].eigenvalues[0]
        assert lam0.real == pytest.approx(-pt.gamma1, rel=1e-12)

    def test_ground_always_stable_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pt = make_point(delta=float(rng.uniform(-50, 10)),
                            Delta=float(rng.uniform(50, 2000)),
                            gamma1=float(rng.uniform(0.05, 5.0)))
            lam = steady.ground_eigenvalue(pt, float(rng.uniform(0, 10)))
            assert lam.real == pytest.approx(-pt.gamma1, rel=1e-12)

    def test_stable_branch_jacobian(self):
        pt = make_point()
        pt = pt.with_drive(consistent_drive(pt, 1.429))
        triads = [s for s in steady.solve_selfconsistent(pt)
                  if s.kind == "triad"]
        for t in triads:
            assert t.stable
            assert max(z.real for z in t.eigenvalues) < 0

    def test_lower_branch_unstable(self):
        pt = make_point()
        pt = pt.with_drive(consistent_drive(pt, 1.429, root_sign=-1))
        states = steady.solve_selfconsistent(pt, all_branches=True)
        lower = [s for s in states if s.kind == "triad" and s.root_sign == -1
                 and abs(s.r2_sq - 1.429) < 1e-6]
        assert lower and all(not s.stable for s in lower)
        assert all(max(z.real for z in s.eigenvalues) > 0 for s in lower)

    def test_near_zero_phase_state_unstable(self):
        # lower branch at small pump is the theta-near-zero state
        pt = make_point(delta=-30.0, gamma1=0.5)
        v = 4.0  # < |delta|/2, lower root has theta < pi/2
        r1 = dict((s, r) for r, s in steady.subharmonic_branches(
            pt.delta, pt.gamma1, v))[-1]
        theta = steady._theta_exact(pt.delta, pt.gamma1, r1, v)
        assert theta < math.pi / 2
        pt = pt.with_drive(consistent_drive(pt, v, root_sign=-1))
        states = steady.solve_selfconsistent(pt, all_branches=True)
        lower = [s for s in states if s.kind == "triad" and s.root_sign == -1
                 and abs(s.r2_sq - v) < 1e-6]
        assert lower and all(not s.stable for s in lower)

    def test_closed_form_sign_stable(self):
        lam_sq = steady.closed_form_lambda_sq(-20.0, 22.4697, 1.429, +1)
        assert lam_sq < 0
        lam_sq = steady.closed_form_lambda_sq(-20.0, 13.24, 1.429, -1)
        assert lam_sq > 0

    def test_jacobian_matches_finite_differences(self):
        pt = make_point(drive_b2=3.0, drive_phase=0.7)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(4)
        u1 = complex(z[0], z[1])
        u2 = complex(z[2], z[3])
        J = np.asarray(steady.jacobian(pt, u1, u2))
        h = 1e-7

        def f(vec):
            du1, du2 = steady.flow(pt, complex(vec[0], vec[1]),
                                   complex(vec[2], vec[3]))
            return np.array([du1.real, du1.imag, du2.real, du2.imag])

        x0 = np.array([u1.real, u1.imag, u2.real, u2.imag])
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            col = (f(x0 + e) - f(x0 - e)) / (2 * h)
            assert np.allclose(col, J[:, k], rtol=1e-5, atol=1e-5)

    def test_verdicts_match_finite_difference_oracle(self):
        # every state of a few solves, silent ones included, against the
        # central-difference Jacobian of the separately written flow
        checked = 0
        for pt in _seeded_points():
            for s in steady.solve_selfconsistent(pt, all_branches=True):
                growth = oracle_max_growth(pt, *s.amplitudes(pt))
                top = s.eigenvalues[0].real if s.kind == "triad" \
                    else max(z.real for z in s.eigenvalues)
                assert top == pytest.approx(growth, abs=1e-4 * max(
                    1.0, abs(pt.delta), abs(pt.delta2)))
                if abs(growth) > 1e-3:
                    assert s.stable == (growth < 0)
                    checked += 1
        assert checked >= 20

    def test_triad_copies_share_one_spectrum(self, params):
        # the copies are rotations of one state, so their Jacobians are
        # similar: one spectrum, that of the central-difference Jacobian at
        # any copy (at the README steady point the three separately
        # computed spectra used to differ in their last digits)
        pt = circuit.device_point(params, 0.0, delta1=-2 * math.pi * 12e6,
                                  drive_b2=math.sqrt(6.25e10))
        triads = [s for s in steady.solve_selfconsistent(pt)
                  if s.kind == "triad"]
        assert [s.copy for s in triads] == [0, 1, 2]
        assert triads[0].eigenvalues == triads[1].eigenvalues \
            == triads[2].eigenvalues
        want = sorted(np.linalg.eigvals(oracle_jacobian(
            pt, *triads[1].amplitudes(pt))), key=lambda z: (-z.real, -z.imag))
        scale = max(1.0, abs(pt.delta), abs(pt.delta2))
        assert np.max(np.abs(np.array(triads[1].eigenvalues) - want)) \
            <= 1e-6 * scale

    def test_residual_guard(self):
        pt = make_point(drive_b2=1.0)
        bogus = steady.SteadyState(kind="triad", r1_sq=5.0, r2_sq=1.0,
                                   theta=2.0, phi1=0.1, phi2=0.0, stable=False,
                                   eigenvalues=(), residual=math.nan)
        from tripler.errors import ResidualError
        with pytest.raises(ResidualError):
            steady.stability(bogus, pt)


def _seeded_points():
    """Operating points with silent and excited states: the reference point
    on both branches, a drive phase, a back-bending pump and a fold."""
    pts = []
    base = make_point()
    for v, sign in ((1.429, +1), (1.429, -1), (4.0, +1)):
        pts.append(base.with_drive(consistent_drive(base, v, sign), 0.3 * v))
    soft = make_point(delta=-14.0, Delta=400.0, gamma1=1.2, gamma2=3.0,
                      gamma2_ext=2.8)
    pts.append(soft.with_drive(consistent_drive(soft, 2.3)))
    pts.append(make_point(Delta=50.0, gamma2=0.71, gamma2_ext=0.69,
                          drive_b2=2.0, drive_phase=0.4))
    return pts


class TestEigvals:
    """``_eigvals`` against LAPACK (``np.linalg.eigvals``)."""

    @staticmethod
    def assert_spectra_match(rows, rel=1e-12):
        got = steady._eigvals(rows)
        want = np.linalg.eigvals(np.asarray(rows, dtype=float))
        scale = max(abs(want))
        assert len(got) == len(want)
        left = list(got)
        for w in want:
            near = min(left, key=lambda z: abs(z - w))
            assert abs(near - w) <= rel * scale, (w, near)
            left.remove(near)
        # descending real part, a pair's positive imaginary part first
        assert got == sorted(got, key=lambda z: (-z.real, -z.imag))

    def test_solve_jacobians(self):
        for pt in _seeded_points():
            for s in steady.solve_selfconsistent(pt, all_branches=True):
                J = steady.jacobian(pt, *s.amplitudes(pt))
                self.assert_spectra_match(J)
                self.assert_spectra_match((J[0][:2], J[1][:2]))
                self.assert_spectra_match((J[2][2:], J[3][2:]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(300):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            self.assert_spectra_match(A.tolist())

    def test_ground_spectrum_is_the_full_jacobians(self):
        # the silent-state spectrum comes from its two diagonal blocks
        for pt in _seeded_points():
            for s in steady.solve_selfconsistent(pt):
                if s.kind != "ground":
                    continue
                J = np.asarray(steady.jacobian(pt, *s.amplitudes(pt)))
                want = sorted(np.linalg.eigvals(J),
                              key=lambda z: (-z.real, -z.imag))
                got = sorted(s.eigenvalues, key=lambda z: (-z.real, -z.imag))
                scale = max(abs(z) for z in want)
                assert max(abs(g - w) for g, w in zip(got, want)) \
                    <= 1e-12 * scale
