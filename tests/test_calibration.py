import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripler import calibration as cal
from tripler import circuit, steady
from tripler._roots import brent_min
from tripler.calibration import CalibrationChain, Linecut
from tripler.errors import BelowThresholdError, DomainError, NoSignalError

TWO_PI = 2.0 * math.pi
HBAR = 6.62607015e-34 / TWO_PI


@pytest.fixture(scope="module")
def chain():
    return CalibrationChain(gain_db=66.0, noise_floor_w=0.44e-9, x=9.97e11)


def synthetic_linecuts(params, chain, x_true, deltas_hz, noise=0.0, seed=0,
                       n=40, flux=0.0):
    """Linecuts generated from the forward model at a known chain parameter."""
    rng = np.random.default_rng(seed)
    cuts = []
    co = circuit.at_flux(params, flux)
    for dhz in deltas_hz:
        d1 = TWO_PI * dhz
        window = steady.existence_window(d1 / co.mode1.alpha,
                                         co.mode1.gamma / co.mode1.alpha)
        per_watt = cal.pump_intensity(1.0, x_true, co, d1)
        pd = np.geomspace(0.5 * window[0] / per_watt,
                          1.2 * window[1] / per_watt, n)
        pout = cal._linecut_model(pd, x_true, co, d1, chain.gain_db)
        pout = pout * (1.0 + noise * rng.standard_normal(pout.shape))
        cuts.append(Linecut(delta1=d1, flux=flux, pd_w=pd,
                            pout_w=np.maximum(pout, 0.0)))
    return cuts


class TestPowerConversions:
    def test_drive_power_zero(self, params):
        fp = circuit.at_flux(params, 0.0)
        assert cal.drive_power_through_x(0.0, 9.97e11, fp,
                                         -TWO_PI * 12e6) == 0.0

    def test_drive_roundtrip(self, params):
        fp = circuit.at_flux(params, 0.2)
        d1 = -TWO_PI * 8e6
        for pd in np.geomspace(1e-18, 1e-3, 100):
            b2 = cal.drive_amplitude_sq_through_x(pd, 9.97e11, fp, d1)
            back = cal.drive_power_through_x(b2, 9.97e11, fp, d1)
            assert back == pytest.approx(pd, rel=1e-12)

    def test_output_for_hundred_photons(self):
        omega = TWO_PI * 5.504e9
        g1e = omega / (2 * 19e3)
        p = cal.output_power(100.0, g1e, 66.0, omega)
        assert 2.1e-9 < p < 3.1e-9

    @pytest.mark.parametrize("name", ["gamma1_ext", "gain_db", "omega"])
    def test_output_power_rejects_nan_scalar(self, name):
        # unchecked, each would give a NaN power
        kw = dict(a1_sq=7.0, gamma1_ext=1e5, gain_db=66.0, omega=3.4e10)
        kw[name] = math.nan
        with pytest.raises(DomainError, match=f"^{name} must be ") as info:
            cal.output_power(**kw)
        assert info.value.name == name

    @pytest.mark.parametrize("gain_db", [3082.6, 4000.0, 1e300])
    def test_gain_whose_power_overflows_is_named(self, gain_db, params):
        # 10**(gain_db/10) overflows a float above about 3082.5 dB; that is
        # a DomainError naming the gain, not a raw OverflowError
        with pytest.raises(DomainError, match="^gain_db must be ") as info:
            cal.output_power(1.0, 1e5, gain_db, 3e10)
        assert info.value.name == "gain_db"
        with pytest.raises(DomainError, match="^gain_db must be ") as info:
            CalibrationChain(gain_db=gain_db, noise_floor_w=1e-9)
        assert info.value.name == "gain_db"
        # just below, the power and the threshold are finite
        assert math.isfinite(cal.output_power(1.0, 1e5, 3082.5, 3e10))
        quiet = CalibrationChain(gain_db=3082.5, noise_floor_w=1e-9)
        assert math.isfinite(cal.visible_threshold(params, 0.0, quiet))

    def test_decibel_doubling_identity(self):
        omega = TWO_PI * 5.4e9
        g1e = omega / (2 * 19e3)
        base = cal.output_power(7.0, g1e, 66.0, omega)
        up = cal.output_power(7.0, g1e, 66.0 + 10 * math.log10(2.0), omega)
        assert up == pytest.approx(2.0 * base, rel=1e-12)

    def test_dbm_conversions(self):
        assert cal.dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert cal.watt_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
        for dbm in np.linspace(-120, 10, 27):
            assert cal.watt_to_dbm(cal.dbm_to_watt(dbm)) == \
                pytest.approx(dbm, abs=1e-12)


@pytest.mark.parametrize("field, bad", [
    ("gain_db", math.nan), ("noise_floor_w", -1.0), ("noise_floor_w", math.nan),
    ("noise_floor_w", math.inf), ("x", 0.0), ("x", math.nan), ("x", math.inf)])
def test_chain_rejects_bad_field(field, bad):
    kw = dict(gain_db=66.0, noise_floor_w=1e-10, x=1e12)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be"):
        CalibrationChain(**kw)


@pytest.mark.parametrize("field, bad", [
    ("delta1", math.nan), ("flux", math.inf), ("pd_w", [1.0, math.nan]),
    ("pout_w", [0.0, math.inf]), ("pout_w", [math.nan, 0.0])])
def test_linecut_rejects_non_finite(field, bad):
    kw = dict(delta1=-1.0, flux=0.0, pd_w=[1.0, 2.0], pout_w=[0.0, 0.0])
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        Linecut(**kw)


def closed_form_output(p_d, x, fp, delta1, gain_db):
    """Detected power at one drive power, written out on Python floats.

    Stiff-pump intensity v, existence window 2|delta|/7 (1 -+ root) and
    upper branch r1 = -(delta + 1.5 v) + sqrt(-v delta - 1.75 v^2 -
    gamma1^2), each grouped as the model groups it so the result is
    comparable bit for bit.
    """
    m1, m2 = fp.mode1, fp.mode2
    omega = m1.omega + delta1
    delta, gamma1 = delta1 / m1.alpha, m1.gamma / m1.alpha
    v = (fp.beta**2 * m2.omega * p_d
         / (3.0 * HBAR * omega * (3.0 * m1.omega - m2.omega)**2 * x))
    root = math.sqrt(max(1.0 - 7.0 * gamma1**2 / delta**2, 0.0))
    lo = 2.0 * -delta / 7.0 * (1.0 - root)
    hi = 2.0 * -delta / 7.0 * (1.0 + root)
    if not lo <= v <= hi:
        return 0.0
    disc = -v * delta - 1.75 * (v * v) - gamma1**2
    r1 = -(delta + 1.5 * v) + math.sqrt(max(disc, 0.0))
    return HBAR * omega * r1 * 2.0 * m1.gamma_ext * 10.0 ** (gain_db / 10.0)


class TestFit:
    def test_objective_matches_scalar_closed_form(self, params, chain):
        cuts = (synthetic_linecuts(params, chain, 1e12, [-5e6, -11e6],
                                   noise=0.01, seed=6)
                + synthetic_linecuts(params, chain, 1e12, [-9e6],
                                     noise=0.01, seed=7, flux=0.25))
        prepared = []
        for lc in cuts:
            keep = lc.pout_w > chain.noise_floor_w
            prepared.append((lc.delta1, circuit.at_flux(params, lc.flux),
                             lc.pd_w[keep], lc.pout_w[keep]))
        objective = cal._Objective([c[:3] for c in prepared], chain.gain_db,
                                   np.concatenate([c[3] for c in prepared]))
        grid = np.linspace(8.0, 16.0, 161)
        unit = np.ones(objective.pout.size)
        # the fit's weights: the model at the unweighted grid minimum
        x_grid = 10.0 ** float(grid[int(np.argmin(objective(grid, unit)))])
        fit_weights = objective.weights(x_grid, chain.noise_floor_w)
        assert fit_weights.tolist() == [
            1.0 / max(closed_form_output(float(p), x_grid, fp, d1,
                                         chain.gain_db),
                      chain.noise_floor_w) ** 2
            for d1, fp, pd, _ in prepared for p in pd]
        for weights in (unit, fit_weights):
            got = objective(grid, weights)
            expect = []
            for g in grid:
                x = 10.0 ** float(g)
                total = 0.0
                start = 0
                for d1, fp, pd, po in prepared:
                    model = np.array([closed_form_output(float(p), x, fp, d1,
                                                         chain.gain_db)
                                      for p in pd])
                    w = weights[start:start + pd.size]
                    start += pd.size
                    total += float(np.sum(w * (model - po) ** 2))
                expect.append(total)
            assert got.tolist() == expect
        # near the true X every linecut has points inside its window, so
        # the comparison covers the closed-form branch, not just zeros
        assert all(sum(closed_form_output(float(p), 1e12, fp, d1,
                                          chain.gain_db) > 0 for p in pd) > 3
                   for d1, fp, pd, _ in prepared)

    @pytest.mark.parametrize("flux", [0.0, 0.4])
    def test_x_sigma_matches_the_monte_carlo_spread(self, params, chain,
                                                    flux):
        # Linecuts from the test-local closed form, at the detunings whose
        # peak output is about 2, 4 and 8 times the floor, with 1% relative
        # Gaussian noise.  Over 200 seeded draws the sd of x/x0 is known to
        # about 5%; it must match the median x_sigma/x0 within a factor 1.3,
        # and the median rel_noise must read the 1% within 5%.
        x0, noise, draws = 1e12, 0.01, 200
        fp = circuit.at_flux(params, flux)
        m1 = fp.mode1
        g = m1.gamma / m1.alpha
        per_photon = (HBAR * m1.omega * 2.0 * m1.gamma_ext
                      * 10.0 ** (chain.gain_db / 10.0))
        clean = []
        for mult in (2.0, 4.0, 8.0):
            # peak r1^2 = (4/7)(a + sqrt(a^2 - 7 g^2)) at a = |delta|,
            # inverted for a
            s = 1.75 * mult * chain.noise_floor_w / per_photon
            d1 = -m1.alpha * (s * s + 7.0 * g * g) / (2.0 * s)
            lo, hi = steady.existence_window(d1 / m1.alpha, g)
            per_watt = float(cal.pump_intensity(1.0, x0, fp, d1))
            pd = np.geomspace(0.5 * lo / per_watt, 1.2 * hi / per_watt, 40)
            clean.append((d1, pd, np.array([
                closed_form_output(float(p), x0, fp, d1, chain.gain_db)
                for p in pd])))
        rng = np.random.default_rng(29)
        fits = []
        for _ in range(draws):
            cuts = [Linecut(delta1=d1, flux=flux, pd_w=pd, pout_w=np.maximum(
                po * (1.0 + noise * rng.standard_normal(po.size)), 0.0))
                for d1, pd, po in clean]
            fits.append(cal.fit_x(cuts, params, chain))
        spread = float(np.std([f.x / x0 for f in fits], ddof=1))
        sigma = float(np.median([f.x_sigma / x0 for f in fits]))
        assert 1.0 / 1.3 < spread / sigma < 1.3, (spread, sigma)
        assert float(np.median([f.rel_noise for f in fits])) \
            == pytest.approx(noise, rel=0.05)

    def test_builds_each_flux_once(self, params, chain, monkeypatch):
        cuts = (synthetic_linecuts(params, chain, 1e12, [-4e6, -8e6, -12e6],
                                   noise=0.01, seed=4)
                + synthetic_linecuts(params, chain, 1e12, [-10e6],
                                     noise=0.01, seed=5, flux=0.25))
        calls = []
        real = circuit.at_flux

        def counted(p, flux):
            calls.append(flux)
            return real(p, flux)

        monkeypatch.setattr(circuit, "at_flux", counted)
        res = cal.fit_x(cuts, params, chain)
        assert calls == [0.0, 0.25]
        assert res.x == pytest.approx(1e12, rel=0.02)

    def test_recovery_with_noise(self, params, chain):
        x0 = 1e12
        cuts = synthetic_linecuts(params, chain, x0,
                                  [-4e6, -8e6, -12e6], noise=0.01, seed=4)
        res = cal.fit_x(cuts, params, chain)
        assert res.x == pytest.approx(x0, rel=0.02)
        assert res.n_points >= 15
        assert res.x_sigma < 0.05 * x0
        assert len(res.curves) == 3

    def test_objective_unimodal(self, params, chain):
        x0 = 1e12
        cuts = synthetic_linecuts(params, chain, x0, [-8e6], noise=0.0)

        def rss(x):
            total = 0.0
            co = circuit.at_flux(params, 0.0)
            for lc in cuts:
                mask = lc.pout_w > chain.noise_floor_w
                model = cal._linecut_model(lc.pd_w[mask], x, co, lc.delta1,
                                           chain.gain_db)
                total += float(np.sum((model - lc.pout_w[mask]) ** 2))
            return total

        xs = np.geomspace(x0 / 100, x0 * 100, 200)
        vals = np.array([rss(x) for x in xs])
        k = int(np.argmin(vals))
        assert 0 < k < len(xs) - 1
        # the abrupt oscillation onset crossing data-grid points leaves a
        # ~1e-4-relative staircase on the objective; unimodal at scale
        tol = 1e-3 * (vals.max() - vals.min())
        assert np.all(np.diff(vals[:k + 1]) <= tol)
        assert np.all(np.diff(vals[k:]) >= -tol)

    @pytest.mark.parametrize("xm", [-3.7, 0.0, 0.25, 12.001])
    def test_golden_section_oracle(self, xm):
        # a V-shaped objective pins the minimizer exactly, with b on
        # either side of it and in the short or the long sub-interval
        def f(x):
            return abs(x - xm)

        for a, b, c in ((xm - 1.0, xm + 0.1, xm + 0.3),
                        (xm - 0.05, xm - 0.01, xm + 2.0),
                        (xm - 0.5, xm, xm + 0.5)):
            assert brent_min(f, a, b, c) == pytest.approx(xm, abs=1e-11)

    @pytest.mark.skip(reason="no digitized measured linecuts are bundled; "
                             "when supplied, the fit is expected to land on "
                             "X = 9.97e11 within 5%")
    def test_measured_linecuts(self):
        pass

    def test_no_signal_error(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        d1 = -TWO_PI * 8e6
        pd = np.geomspace(1e-9, 1e-6, 10)
        quiet = Linecut(delta1=d1, flux=0.0, pd_w=pd,
                        pout_w=np.full(10, 1e-12))
        with pytest.raises(NoSignalError):
            cal.fit_x([quiet], params, chain)
        with pytest.raises(NoSignalError):
            cal.fit_x([], params, chain)

    def test_linecut_validation(self):
        with pytest.raises(ValueError):
            Linecut(delta1=-1.0, flux=0.0, pd_w=np.array([2.0, 1.0]),
                    pout_w=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            Linecut(delta1=-1.0, flux=0.0, pd_w=np.array([1.0, 2.0]),
                    pout_w=np.array([0.0, -1.0]))


class TestMaxOutput:
    def test_threshold_closed_form(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        got = cal.predict_max_output(params, 0.0, -th, chain)
        expect = cal.output_power(0.7 * 4 * th / (7 * co.mode1.alpha),
                                  co.mode1.gamma_ext, chain.gain_db,
                                  co.mode1.omega - th)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_below_threshold_error(self, params, chain):
        with pytest.raises(BelowThresholdError):
            cal.predict_max_output(params, 0.0, -1e3, chain)

    def test_monotone_beyond_twice_threshold(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        mags = np.linspace(2 * th, 40 * th, 100)
        vals = [cal.predict_max_output(params, 0.0, -m, chain) for m in mags]
        assert np.all(np.diff(vals) > 0)

    def test_slope_ratio_matches_coefficient_oracle(self, params, chain):
        def slope(flux):
            co = circuit.at_flux(params, flux)
            th = steady.THRESHOLD_FACTOR * co.mode1.gamma
            d = np.array([20 * th, 21 * th])
            p = [cal.predict_max_output(params, flux, -m, chain) for m in d]
            return (p[1] - p[0]) / (d[1] - d[0])

        def coeff(flux):
            # far from threshold: P ~ 0.7*(8/7)*hbar*w1*2*Gamma_ext*10^(G/10)
            #                          * |delta1| / alpha1
            co = circuit.at_flux(params, flux)
            return co.mode1.omega * co.mode1.gamma_ext / co.mode1.alpha

        ratio = slope(0.3) / slope(0.0)
        oracle = coeff(0.3) / coeff(0.0)
        assert ratio == pytest.approx(oracle, rel=5e-3)
        # to leading order this is the inverse Kerr-coefficient ratio
        a0 = circuit.at_flux(params, 0.0).mode1.alpha
        a3 = circuit.at_flux(params, 0.3).mode1.alpha
        assert ratio == pytest.approx(a0 / a3, rel=0.15)


class TestVisibleThreshold:
    def test_builds_the_modes_once(self, params, chain, monkeypatch):
        calls = []
        real = circuit.mode_profile

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(circuit, "mode_profile", counted)
        th = cal.visible_threshold(params, 0.3, chain)
        # noise limited at this chain, so the floor crossing was solved for
        assert -th > steady.THRESHOLD_FACTOR * 1.001 * \
            real(params, 0.3, 1).gamma
        assert sorted(n for _, _, n in calls) == [1, 2]

    def test_vanishing_floor_gives_true_threshold(self, params):
        quiet = CalibrationChain(gain_db=66.0, noise_floor_w=1e-30)
        co = circuit.at_flux(params, 0.0)
        got = cal.visible_threshold(params, 0.0, quiet)
        assert got == pytest.approx(-steady.THRESHOLD_FACTOR * co.mode1.gamma,
                                    rel=1e-9)

    def test_never_shallower_than_true_threshold(self, params, chain):
        for flux in np.linspace(0.0, 0.42, 15):
            co = circuit.at_flux(params, flux)
            got = cal.visible_threshold(params, flux, chain)
            assert -got >= \
                steady.THRESHOLD_FACTOR * co.mode1.gamma * (1 - 1e-12)

    def test_noise_limited_threshold_crossing(self, params):
        # with the floor exactly at the predicted threshold-peak power the
        # visible threshold sits at the true one; raising the floor pushes
        # it deeper into the red
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        p_at_th = cal.predict_max_output(
            params, 0.0, -th * (1 + 1e-9),
            CalibrationChain(gain_db=66.0, noise_floor_w=1.0))
        soft = CalibrationChain(gain_db=66.0, noise_floor_w=0.9 * p_at_th)
        hard = CalibrationChain(gain_db=66.0, noise_floor_w=10 * p_at_th)
        assert cal.visible_threshold(params, 0.0, soft) == \
            pytest.approx(-th, rel=1e-9)
        deep = cal.visible_threshold(params, 0.0, hard)
        assert -deep > 2 * th
        check = cal.predict_max_output(params, 0.0, deep, hard)
        assert check == pytest.approx(hard.noise_floor_w, rel=1e-6)


def _oracle_threshold(params, flux, chain):
    """Visible threshold (rad/s) from the peak output written in |delta1|,
    scanned up to omega1 and bisected to adjacent floats; None when no
    scanned peak reaches the floor."""
    m1 = circuit.mode_profile(params, flux, 1)
    true_th = math.sqrt(7.0) * m1.gamma
    g1 = m1.gamma / m1.alpha

    def peak(mag):
        d = mag / m1.alpha
        r1_max = 4.0 / 7.0 * (d + math.sqrt(max(d * d - 7.0 * g1 * g1, 0.0)))
        return (HBAR * (m1.omega - mag) * chain.scale07 * r1_max * 2.0
                * m1.gamma_ext * 10.0 ** (chain.gain_db / 10.0))

    grid = np.linspace(true_th, m1.omega, 20001)[:-1]
    values = [peak(float(mag)) for mag in grid]
    # the scan decides reachability only for floors clear of its maximum
    assert not 0.999 < max(values) / chain.noise_floor_w < 1.001
    above = [i for i, v in enumerate(values) if v >= chain.noise_floor_w]
    if not above:
        return None
    if above[0] == 0:
        return -true_th
    lo, hi = float(grid[above[0] - 1]), float(grid[above[0]])
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if peak(mid) >= chain.noise_floor_w else (mid, hi)
    return -hi


#: floors from vanishing to past the largest peak at flux 0.4 (6.5e-9 W),
#: and deep noise-limited ones near the largest peaks at fluxes 0 (3.0e-7 W)
#: and 0.2 (1.5e-7 W)
ORACLE_FLOORS = [*np.logspace(-30.0, math.log10(2.9e-7), 24), 1e-7, 1.5e-7,
                 2.8e-7]


class TestVisibleThresholdClosedForm:
    @pytest.mark.parametrize("flux", [0.0, 0.2, 0.4])
    def test_matches_scanned_oracle(self, params, flux):
        reached = 0
        for floor in ORACLE_FLOORS:
            chain = CalibrationChain(gain_db=66.0, noise_floor_w=float(floor))
            want = _oracle_threshold(params, flux, chain)
            if want is None:
                with pytest.raises(NoSignalError):
                    cal.visible_threshold(params, flux, chain)
                continue
            reached += 1
            got = cal.visible_threshold(params, flux, chain)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), floor
        assert reached >= 20

    def test_threshold_deep_in_the_red(self, params):
        # |delta1| near 0.38*omega1: doubling from the true threshold, a
        # search steps past omega1 before it brackets this crossing
        chain = CalibrationChain(gain_db=66.0, noise_floor_w=2.8e-7)
        got = cal.visible_threshold(params, 0.0, chain)
        assert got / TWO_PI == pytest.approx(-2047.41e6, rel=1e-6)
        assert cal.predict_max_output(params, 0.0, got, chain) == \
            pytest.approx(2.8e-7, rel=1e-9)

    def test_unreachable_floor_names_both_powers(self, params):
        m1 = circuit.mode_profile(params, 0.0, 1)
        chain = CalibrationChain(gain_db=66.0, noise_floor_w=1e-3)
        largest = cal.predict_max_output(params, 0.0, -0.5 * m1.omega,
                                         chain)
        with pytest.raises(NoSignalError, match="noise floor 0.001 W") as exc:
            cal.visible_threshold(params, 0.0, chain)
        assert f"{largest:.6g} W" in str(exc.value)


class TestRegionMap:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_power_rejected(self, params, chain, bad):
        # NaN fails a plain pd <= 0 too; unchecked, it labels its cells "I"
        pd = np.array([1e-9, bad, 1e-3])
        with pytest.raises(DomainError, match="^pd_grid_w must hold finite "
                                              "positive powers, got 1 of 3"
                           ) as info:
            cal.region_map(params, 0.0, chain, [-TWO_PI * 5e6], pd)
        assert info.value.name == "pd_grid_w"

    def test_boundary_matches_max_drive_oracle(self, params, chain):
        flux = 0.2
        m1 = circuit.mode_profile(params, flux, 1)
        m2 = circuit.mode_profile(params, flux, 2)
        q2_ext = m2.omega / (2.0 * m2.gamma_ext)
        beta_sq = math.sqrt(m2.alpha / m1.alpha)
        anh = 3.0 * m1.omega - m2.omega
        d1 = -TWO_PI * np.array([2e6, 5e6, 12e6, 20e6])
        rmap = cal.region_map(params, flux, chain, d1,
                              np.geomspace(1e-9, 1e-3, 3))
        for dd, got in zip(d1, rmap.boundary_pd_w):
            omega = m1.omega + dd
            b2_max = steady.max_drive(circuit.device_point(params, flux, dd))
            assert got == pytest.approx(
                3.0 * HBAR * omega * b2_max * chain.x / q2_ext,
                rel=1e-12, abs=0.0)
            # the same bound grouped in laboratory quantities:
            # 3*hbar*omega * 4*(3w1-w2)^2*|delta1| / (7*beta^2*w2*alpha1) * X
            lab = (3.0 * HBAR * omega * 4.0 * anh**2 * abs(dd)
                   / (7.0 * beta_sq * m2.omega * m1.alpha) * chain.x)
            assert got == pytest.approx(lab, rel=1e-11, abs=0.0)

    def test_detuning_outside_the_model_rejected(self, params, chain):
        omega1 = circuit.mode_profile(params, 0.0, 1).omega
        pd = np.geomspace(1e-9, 1e-3, 3)
        for d1 in ([-omega1, -TWO_PI * 1e6], [-TWO_PI * 1e6, 2 * omega1]):
            with pytest.raises(ValueError, match="delta1"):
                cal.region_map(params, 0.0, chain, np.array(d1), pd)

    def test_above_threshold_all_region_one(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        d1 = np.array([-0.5 * th, -0.9 * th])
        pd = np.geomspace(1e-9, 1e-3, 20)
        rmap = cal.region_map(params, 0.0, chain, d1, pd)
        assert np.all(rmap.labels == "I")
        assert np.all(np.isnan(rmap.boundary_pd_w))

    def test_boundary_linear_in_detuning(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        d1 = np.array([-10 * th, -20 * th])
        pd = np.geomspace(1e-9, 1e-3, 5)
        rmap = cal.region_map(params, 0.0, chain, d1, pd)
        # generator-plane boundary scales linearly with |delta1| up to the
        # slow drift of the signal frequency prefactor
        assert rmap.boundary_pd_w[1] / rmap.boundary_pd_w[0] == \
            pytest.approx(2.0, rel=1e-3)

    def test_cells_match_window(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        d1 = np.array([-TWO_PI * 8e6])
        pd = np.geomspace(1e-12, 1e-2, 400)
        rmap = cal.region_map(params, 0.0, chain, d1, pd)
        labels = rmap.labels[0]
        inside = np.nonzero(labels == "exists")[0]
        assert inside.size > 0
        # contiguous band
        assert np.all(np.diff(inside) == 1)
        v = cal.pump_intensity(pd, chain.x, co, d1[0])
        window = steady.existence_window(d1[0] / co.mode1.alpha,
                                         co.mode1.gamma / co.mode1.alpha)
        expect = (v >= window[0]) & (v <= window[1])
        assert np.array_equal(labels == "exists", expect)

    def test_boundary_concave_monotone_in_dbm(self, params, chain):
        co = circuit.at_flux(params, 0.0)
        th = steady.THRESHOLD_FACTOR * co.mode1.gamma
        d1 = -np.linspace(2 * th, 60 * th, 40)
        pd = np.geomspace(1e-9, 1e-3, 5)
        rmap = cal.region_map(params, 0.0, chain, d1, pd)
        dbm = cal.watt_to_dbm(rmap.boundary_pd_w)
        mag = -d1 / TWO_PI / 1e6
        slope = np.diff(dbm) / np.diff(mag)
        assert np.all(slope > 0)
        assert np.all(np.diff(slope) < 1e-12)

    @pytest.mark.filterwarnings("ignore::tripler.errors.RegimeWarning")
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(flux=st.floats(0.0, 0.44), log10x=st.floats(10.0, 14.0),
           d1_mhz=st.tuples(st.floats(-40.0, -1.0),
                            st.floats(-1.0, -0.05)),
           dbm=st.tuples(st.floats(-80.0, 10.0), st.floats(-80.0, 10.0)))
    def test_property_cells_and_boundary(self, params, flux, log10x, d1_mhz,
                                         dbm):
        x = 10.0 ** log10x
        chain = CalibrationChain(gain_db=66.0, noise_floor_w=0.44e-9, x=x)
        d1 = TWO_PI * 1e6 * np.linspace(*d1_mhz, 7)
        pd = cal.dbm_to_watt(np.linspace(*dbm, 9))
        rmap = cal.region_map(params, flux, chain, d1, pd)
        fp = circuit.at_flux(params, flux)
        m1 = fp.mode1
        for i, dd in enumerate(d1):
            window = steady.existence_window(dd / m1.alpha,
                                             m1.gamma / m1.alpha)
            for j, p in enumerate(pd):
                v = float(cal.pump_intensity(p, x, fp, dd))
                inside = window is not None and window[0] <= v <= window[1]
                assert rmap.labels[i, j] == ("exists" if inside else "I")
            if window is None:
                assert math.isnan(rmap.boundary_pd_w[i])
            else:
                b2_max = steady.max_drive(fp.operating_point(dd))
                want = cal.drive_power_through_x(b2_max, x, fp, dd)
                assert rmap.boundary_pd_w[i] == pytest.approx(
                    want, rel=1e-12, abs=0.0)

    def test_requires_fitted_x(self, params):
        nochain = CalibrationChain(gain_db=66.0, noise_floor_w=1e-10)
        with pytest.raises(ValueError):
            cal.region_map(params, 0.0, nochain, np.array([-1e6]),
                           np.array([1e-9]))


def test_one_flux_point_solves_each_mode_once(chain, monkeypatch):
    # threshold, peak outputs, region map and fit at one flux, as a
    # calibration run calls them: each builds both modes, which used to
    # cost 14 dispersion bisections
    flux = 0.23
    cuts = synthetic_linecuts(circuit.reference_params(), chain, 1e12,
                              [-6e6, -10e6], noise=0.01, seed=6, flux=flux)
    params = circuit.reference_params()
    params.coupling_ratio_sq    # the zero-flux inversion, once per instance
    calls = []
    root = circuit._dispersion_root

    def counted(p, f, n):
        calls.append((f, n))
        return root(p, f, n)

    monkeypatch.setattr(circuit, "_dispersion_root", counted)
    m1 = circuit.mode_profile(params, flux, 1)
    circuit.mode_profile(params, flux, 2)
    cal.visible_threshold(params, flux, chain)
    for mult in (1.5, 3.0, 6.0):
        cal.predict_max_output(params, flux,
                               -mult * steady.THRESHOLD_FACTOR * m1.gamma, chain)
    cal.region_map(params, flux, chain, TWO_PI * np.linspace(-20e6, -1e6, 4),
                   np.geomspace(1e-7, 1e-3, 5))
    cal.fit_x(cuts, params, chain)
    assert sorted(calls) == [(flux, 1), (flux, 2)]
