import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripler import circuit
from tripler.errors import (
    DegenerateFluxError,
    FluxRangeError,
    MissingCouplingError,
)

TWO_PI = 2.0 * math.pi


def squid_inductance(params, flux):
    """SQUID inductance (Phi0/2pi)^2 / E_S(flux) from the Josephson energy."""
    return (params.Phi0 / TWO_PI) ** 2 / params.squid_energy(flux)


class TestSquidInductance:
    """The SQUID law Phi0 / (2*pi*Ic*|cos(pi*flux)|), through squid_energy."""

    def test_zero_flux_zero_current(self, params):
        # direct arithmetic: Phi0 / (2*pi*Ic)
        expect = params.Phi0 / (TWO_PI * params.Ic)
        got = squid_inductance(params, 0.0)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(1.732e-10, rel=1e-3)

    def test_participation_ratio_consistency(self, params):
        ratio = squid_inductance(params, 0.0) / (params.L0 * params.d)
        assert ratio == pytest.approx(0.077, rel=0.01)
        assert ratio == pytest.approx(params.participation_ratio, rel=1e-12)

    def test_half_quantum_degenerate(self, params):
        with pytest.raises(DegenerateFluxError):
            params.squid_energy(0.5)

    def test_monotone_in_flux(self, params):
        fluxes = np.linspace(0.0, 0.49, 60)
        vals = [squid_inductance(params, f) for f in fluxes]
        assert np.all(np.diff(vals) > 0)
        for f in fluxes:
            assert params.squid_energy(f) == pytest.approx(
                params.squid_energy_zero * math.cos(math.pi * f), rel=1e-12)
        # even in flux
        assert params.squid_energy(-0.2) == params.squid_energy(0.2)


class TestSpectrum:
    def test_fundamental_frequency(self, modes0):
        m1, _ = modes0
        # The measured 5.504 GHz is recovered to ~1.2%: the published
        # circuit constants are rounded too coarsely to do better (the
        # strict 0.5% check lives in the acceptance suite and documents
        # this gap).
        assert m1.omega / TWO_PI == pytest.approx(5.504e9, rel=0.015)

    def test_anharmonicity(self, modes0):
        m1, m2 = modes0
        anh = (3 * m1.omega - m2.omega) / TWO_PI
        assert anh == pytest.approx(136e6, rel=0.15)

    def test_bracket_and_residual(self, params):
        for flux in np.linspace(0.0, 0.45, 51):
            for n in (1, 2):
                prof = circuit.mode_profile(params, flux, n)
                lo = (n - 1) * math.pi
                assert lo < prof.kd < lo + math.pi / 2
                A = params.squid_energy(flux) / params.inductive_energy
                B = params.CJ / params.C_cav
                rhs = A - B * prof.kd**2
                resid = abs(prof.kd * math.tan(prof.kd) - rhs)
                assert resid < 1e-9 * abs(rhs)
                assert prof.omega == pytest.approx(
                    prof.kd * params.velocity / params.d, rel=1e-15)

    def test_stiff_squid_limit_quarter_wave(self, params):
        from dataclasses import replace
        stiff = replace(params, Ic=params.Ic * 1e6)
        prof = circuit.mode_profile(stiff, 0.0, 1)
        assert prof.kd == pytest.approx(math.pi / 2, rel=1e-5)

    def test_mode_index_validation(self, params):
        with pytest.raises(ValueError):
            circuit.mode_profile(params, 0.0, 3)

    def test_flux_range_guard(self, params):
        with pytest.raises(FluxRangeError):
            circuit.mode_profile(params, 0.46, 1)

    @pytest.mark.parametrize("flux", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux_rejected(self, params, flux):
        with pytest.raises(FluxRangeError):
            circuit.at_flux(params, flux)

    def test_frequency_non_increasing_in_flux(self, params):
        fluxes = np.linspace(0.0, 0.45, 51)
        f1 = [circuit.mode_profile(params, f, 1).omega for f in fluxes]
        assert np.all(np.diff(f1) <= 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(flux=st.floats(0.0, 0.45), n=st.sampled_from((1, 2)),
           kerr=st.sampled_from(circuit.KERR_CONVENTIONS))
    def test_even_in_flux(self, params, flux, n, kerr):
        from dataclasses import replace
        device = replace(params, kerr_energy=kerr)
        assert circuit.mode_profile(device, -flux, n) == \
            circuit.mode_profile(device, flux, n)


class TestKerr:
    def test_fundamental_kerr_value(self, modes0):
        m1, _ = modes0
        assert m1.alpha / TWO_PI == pytest.approx(85e3, rel=0.25)

    def test_kerr_ratio_is_frequency_ratio_squared(self, params):
        for flux in (0.0, 0.15, 0.3):
            m1 = circuit.mode_profile(params, flux, 1)
            m2 = circuit.mode_profile(params, flux, 2)
            assert m2.alpha / m1.alpha == pytest.approx(
                (m2.omega / m1.omega) ** 2, rel=1e-12)

    def test_kerr_non_decreasing_in_flux(self, params):
        fluxes = np.linspace(0.0, 0.45, 51)
        alphas = [circuit.mode_profile(params, f, 1).alpha for f in fluxes]
        assert np.all(np.diff(alphas) >= 0)

    def test_total_convention_is_eight_times_smaller(self, params):
        from dataclasses import replace
        total = replace(params, kerr_energy="total")
        m_pj = circuit.mode_profile(params, 0.0, 1)
        m_tot = circuit.mode_profile(total, 0.0, 1)
        assert m_tot.alpha == pytest.approx(m_pj.alpha / 8.0, rel=1e-12)

    def test_reduced_damping_sequence_matches_flux_scan(self, params):
        # reduced damping gamma1 = Gamma1/alpha1 falls from ~1.9 at low flux
        # to ~0.4 at 0.32 flux quanta
        def gamma1(flux):
            m = circuit.mode_profile(params, flux, 1)
            return m.gamma / m.alpha

        g_low, g_mid = gamma1(0.1), gamma1(0.32)
        assert g_low == pytest.approx(1.93, rel=0.2)
        assert g_mid / g_low == pytest.approx(0.43 / 1.93, rel=0.2)


class TestDamping:
    def test_linewidth_reconstruction(self, modes0):
        m1, _ = modes0
        assert 2 * m1.gamma / TWO_PI == pytest.approx(0.38e6, rel=0.05)

    def test_ext_int_ratio_exact(self, params, modes0):
        m1, _ = modes0
        assert m1.gamma_ext / m1.gamma_int == pytest.approx(
            params.Q_int_1 / params.Q_ext_1, rel=1e-12)

    def test_missing_coupling_error(self, params):
        from dataclasses import replace
        bare = replace(params, Q_ext_1=None, Cc=None)
        with pytest.raises(MissingCouplingError):
            circuit.mode_profile(bare, 0.0, 1)

    def test_explicit_cc_matches_inverted(self, params):
        from dataclasses import replace
        cc = math.sqrt(params.coupling_ratio_sq) * params.C_cav
        direct = replace(params, Cc=cc, Q_ext_1=None)
        m_a = circuit.mode_profile(params, 0.2, 1)
        m_b = circuit.mode_profile(direct, 0.2, 1)
        assert m_b.gamma_ext == pytest.approx(m_a.gamma_ext, rel=1e-12)

    def test_coupling_ratio_solved_once(self, monkeypatch):
        params = circuit.reference_params()    # a fresh instance
        calls = []
        root = circuit._dispersion_root

        def counted(p, flux, n):
            calls.append((flux, n))
            return root(p, flux, n)

        monkeypatch.setattr(circuit, "_dispersion_root", counted)
        circuit.at_flux(params, 0.2)
        # the zero-flux inversion of Q_ext_1 runs on first use only
        assert calls == [(0.2, 1), (0.0, 1), (0.2, 2)]
        calls.clear()
        for flux in (0.0, 0.1, 0.3):
            circuit.at_flux(params, flux)
        assert len(calls) == 6

    def test_second_mode_internal_q_default(self, params):
        from dataclasses import replace
        m2 = circuit.mode_profile(params, 0.0, 2)
        assert m2.gamma_int == pytest.approx(
            m2.omega / (2 * params.Q_int_1), rel=1e-12)
        own = replace(params, Q_int_2=30e3)
        m2b = circuit.mode_profile(own, 0.0, 2)
        assert m2b.gamma_int == pytest.approx(m2b.omega / (2 * 30e3), rel=1e-12)


class TestCouplingsAndReduction:
    def test_coupling_identities(self, modes0):
        m1, m2 = modes0
        fp = circuit.FluxPoint(flux=0.0, mode1=m1, mode2=m2)
        assert fp.beta**4 == pytest.approx(m2.alpha / m1.alpha, rel=1e-12)

    def test_zero_detuning(self, point0):
        assert point0.delta == 0.0

    def test_reduction_identity(self, params):
        pt = circuit.device_point(params, 0.1, delta1=-TWO_PI * 5e6)
        assert pt.delta2 == pytest.approx(3 * pt.delta + pt.Delta, rel=1e-14)

    def test_division_by_kerr(self, modes0):
        # delta1/2pi = -12 MHz over the quoted 85 kHz shift gives about -141
        m1, m2 = modes0
        from dataclasses import replace
        m1_quoted = replace(m1, alpha=TWO_PI * 85e3)
        pt = circuit.FluxPoint(flux=0.0, mode1=m1_quoted, mode2=m2) \
            .operating_point(-TWO_PI * 12e6)
        assert pt.delta == pytest.approx(-12e6 / 85e3, rel=1e-12)
        assert pt.delta == pytest.approx(-141, abs=1.0)

    def test_detuning_inside_omega1(self, modes0):
        # the signal frequency omega1 + delta1 must lie in (0, 2*omega1)
        m1, m2 = modes0
        fp = circuit.FluxPoint(flux=0.0, mode1=m1, mode2=m2)
        inside = math.nextafter(m1.omega, 0.0)
        assert fp.operating_point(-inside).delta < 0 \
            < fp.operating_point(inside).delta
        for outside in (m1.omega, math.nextafter(m1.omega, math.inf)):
            for d in (outside, -outside):
                with pytest.raises(ValueError, match="delta1"):
                    fp.operating_point(d)
        with pytest.raises(ValueError, match="delta1"):
            fp.operating_point(math.nan)

    def test_anharmonicity_scale_at_small_flux(self, params):
        pt = circuit.device_point(params, 0.1, delta1=0.0)
        assert pt.Delta == pytest.approx(1500, rel=0.2)
