import contextlib
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripler import circuit, dynamics, steady
from tripler import io as tio
from tripler.dynamics import NoiseConfig, Trajectory, TwoModeSystem
from tripler.errors import (
    DivergenceError,
    DomainError,
    EmptyTrajectoryError,
    OverlappingRadiusError,
    StepSizeWarning,
)

from test_steady import consistent_drive


def driven_soft_point(soft_point, v=1.5):
    return soft_point.with_drive(consistent_drive(soft_point, v))


def stable_states(point, all_branches=False):
    return [s for s in steady.solve_selfconsistent(point,
                                                   all_branches=all_branches)
            if s.stable]


class TestFlowConsistency:
    def test_physical_flow_is_scaled_reduced_flow(self, soft_point):
        pt = replace(driven_soft_point(soft_point), alpha1=2.7e5)
        system = TwoModeSystem.from_point(pt)
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = rng.standard_normal(4)
            u1, u2 = complex(z[0], z[1]), complex(z[2], z[3])
            du1, du2 = steady.flow(pt, u1, u2)
            da1, da2 = system.flow(u1, u2)
            assert da1 == pytest.approx(pt.alpha1 * du1, rel=1e-10)
            assert da2 == pytest.approx(pt.alpha1 * du2, rel=1e-10)

    def test_coupling_constants(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        assert system.alpha_cross == pytest.approx(
            math.sqrt(system.alpha1 * system.alpha2), rel=1e-12)
        assert system.alpha_tilde == pytest.approx(
            (system.alpha1**3 * system.alpha2) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("field, bad", [
    ("d1", math.nan), ("d1", -1.0), ("d2", math.inf), ("d2", -1e-30)])
def test_noise_config_rejects_bad_strength(field, bad):
    kw = dict(d1=0.05, d2=0.05)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
        NoiseConfig(**kw)


@pytest.mark.parametrize("field, bad", [
    ("delta1", math.nan), ("delta2", math.inf), ("drive_phase", -math.inf),
    ("alpha1", -1.0), ("alpha2", math.nan), ("Gamma1", -1.0),
    ("Gamma2", math.inf), ("Gamma2_ext", -1e-30), ("drive_b2", -0.5)])
def test_two_mode_system_rejects_bad_field(field, bad):
    # unchecked, a NaN detuning makes suggested_timestep return NaN
    kw = dict(delta1=-9.0, delta2=-7.0, alpha1=1.0, alpha2=2.0, Gamma1=1.0,
              Gamma2=1.5, Gamma2_ext=1.4, drive_b2=0.5, drive_phase=0.3)
    kw[field] = bad
    with pytest.raises(DomainError, match=f"^{field} must be ") as info:
        TwoModeSystem(**kw)
    assert info.value.name == field


class TestIntegrate:
    def test_fixed_point_held_over_thousand_damping_times(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        state = next(s for s in stable_states(pt) if s.kind == "triad")
        a10, a20 = state.amplitudes(pt)
        traj = dynamics.integrate(system, (a10, a20), duration=1000.0,
                                  dt=0.05, store_every=100)
        mags = np.abs(traj.a1)
        assert np.max(np.abs(mags / abs(a10) - 1.0)) < 1e-6

    def test_silent_subspace_invariant(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        traj = dynamics.integrate(system, (0.0, 0.0), duration=40.0, dt=0.01,
                                  store_every=10)
        assert np.all(traj.a1 == 0.0)
        ground = next(s for s in stable_states(pt) if s.kind == "ground")
        expect = math.sqrt(ground.r2_sq) / pt.beta
        assert abs(traj.a2[-1]) == pytest.approx(expect, rel=1e-6)

    def test_rk4_convergence_order(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        init = (0.4 + 0.2j, 0.1 - 0.3j)

        def endpoint(dt):
            traj = dynamics.integrate(system, init, duration=2.0, dt=dt,
                                      store_every=int(round(2.0 / dt)))
            return traj.a1[-1], traj.a2[-1]

        ref = endpoint(0.0025)
        errs = []
        for dt in (0.04, 0.02):
            got = endpoint(dt)
            errs.append(abs(got[0] - ref[0]) + abs(got[1] - ref[1]))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 22.0

    def test_sample_count_matches_duration(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        traj = dynamics.integrate(system, (0.1, 0.0), duration=1.0, dt=0.01)
        assert traj.n_samples == 100
        assert traj.duration == pytest.approx(1.0)
        dec = dynamics.integrate(system, (0.1, 0.0), duration=1.0, dt=0.01,
                                 store_every=4)
        assert dec.n_samples == 25
        assert dec.dt == pytest.approx(0.04)

    def test_seed_determinism(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        noise = NoiseConfig(d1=0.05, d2=0.05)
        runs = [dynamics.integrate(system, (0.0, 0.0), duration=5.0, dt=0.01,
                                   noise=noise, seed=42) for _ in range(2)]
        assert np.array_equal(runs[0].a1, runs[1].a1)
        assert np.array_equal(runs[0].a2, runs[1].a2)
        other = dynamics.integrate(system, (0.0, 0.0), duration=5.0, dt=0.01,
                                   noise=noise, seed=43)
        assert not np.array_equal(runs[0].a1, other.a1)

    def test_member_streams_isolated(self, soft_point):
        # member j (in C order) of a vector run draws from the j-th stream
        # spawned from the master seed (a solo run is member 0, bit for
        # bit, see TestScalarPath)
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        rng = np.random.default_rng(3)
        em = dict(noise=NoiseConfig(d1=0.05, d2=0.03), seed=7)
        for shape, wide_shape in (((3,), (5,)), ((2, 3), (3, 3))):
            wide1 = 0.5 * (rng.uniform(-1, 1, wide_shape)
                           + 1j * rng.uniform(-1, 1, wide_shape))
            wide2 = np.zeros(wide_shape, dtype=complex)
            lead = tuple(slice(n) for n in shape)
            samples = (slice(None),) + lead
            for kw in (em, {}):
                ens = dynamics.integrate(system, (wide1[lead], wide2[lead]),
                                         duration=2.0, dt=0.01, **kw)
                assert ens.a1.shape == (200,) + shape
                # re-run with a wider ensemble sharing the master seed:
                # leading members must be bit-identical
                wide = dynamics.integrate(system, (wide1, wide2),
                                          duration=2.0, dt=0.01, **kw)
                assert np.array_equal(wide.a1[samples], ens.a1)
                assert np.array_equal(wide.a2[samples], ens.a2)

    LINEAR = TwoModeSystem(delta1=3.0, delta2=-1.0, alpha1=0.0, alpha2=0.0,
                           Gamma1=1.0, Gamma2=2.0, Gamma2_ext=0.5)

    def test_linear_mode_stationary_occupation_exact(self):
        # da = lambda*a dt + sqrt(D) dW, lambda = -Gamma + i*delta, is
        # stationary at E|a|^2 = D/Gamma.  The step with exact
        # Ornstein-Uhlenbeck kicks keeps that at any dt; Euler-Maruyama,
        # a -> (1 + lambda*dt)*a + sqrt(D*dt)*xi with E|xi|^2 = 2, would
        # give D / (Gamma - (Gamma^2 + delta^2)*dt/2) instead.
        system = self.LINEAR
        noise = NoiseConfig(d1=0.3, d2=0.8)
        # Gamma1/(Gamma1^2 + delta1^2), where Euler-Maruyama doubles D1/Gamma1
        dt = 0.1
        m, burn = 200, 200
        with pytest.warns(StepSizeWarning):
            traj = dynamics.integrate(system, (np.zeros(m), np.zeros(m)),
                                      duration=2400 * dt, dt=dt, noise=noise,
                                      seed=19)
        for a, d, g, w in ((traj.a1, noise.d1, 1.0, 3.0),
                           (traj.a2, noise.d2, 2.0, -1.0)):
            euler_maruyama = d / (g - (g * g + w * w) * dt / 2)
            per_member = np.mean(np.abs(a[burn:]) ** 2, axis=0)
            mean = per_member.mean()
            stderr = per_member.std(ddof=1) / math.sqrt(m)
            assert abs(mean - d / g) < 5 * stderr
            assert abs(mean - euler_maruyama) > 20 * stderr

    def test_linear_mode_lag_one_autocorrelation(self):
        # started stationary, a linear mode's lag-dt autocorrelation
        # E[a(t+dt) conj(a(t))] / E|a(t)|^2 is exp(lambda*dt) exactly
        system = self.LINEAR
        noise = NoiseConfig(d1=0.3, d2=0.8)
        dt = 0.1
        m, n = 200, 1000
        rng = np.random.default_rng(41)
        start = []
        for d, g in ((noise.d1, 1.0), (noise.d2, 2.0)):
            sd = math.sqrt(d / g / 2)
            start.append(sd * (rng.standard_normal(m)
                               + 1j * rng.standard_normal(m)))
        with pytest.warns(StepSizeWarning):
            traj = dynamics.integrate(system, tuple(start), duration=n * dt,
                                      dt=dt, noise=noise, seed=43)
        for a, g, w in ((traj.a1, 1.0, 3.0), (traj.a2, 2.0, -1.0)):
            lam = complex(-g, w)
            per_member = (np.sum(a[1:] * a[:-1].conj(), axis=0)
                          / np.sum(np.abs(a[:-1]) ** 2, axis=0))
            mean = per_member.mean()
            se = complex(per_member.real.std(ddof=1),
                         per_member.imag.std(ddof=1)) / math.sqrt(m)
            want = np.exp(lam * dt)
            assert abs(mean.real - want.real) < 5 * se.real
            assert abs(mean.imag - want.imag) < 5 * se.imag
            # Euler-Maruyama's 1 + lambda*dt is far outside that error
            assert abs(mean - (1 + lam * dt)) > 10 * abs(se)

    def test_thermal_noise_occupation(self):
        # linear damped mode: steady |a|^2 averages to the configured n_th
        system = TwoModeSystem(delta1=0.0, delta2=0.0, alpha1=0.0, alpha2=0.0,
                               Gamma1=1.0, Gamma2=1.0, Gamma2_ext=0.5)
        noise = NoiseConfig.thermal(system, n_th=0.2)
        assert noise.d1 == pytest.approx(0.2)
        traj = dynamics.integrate(system, (0.0, 0.0), duration=400.0, dt=0.01,
                                  noise=noise, seed=5)
        occupation = np.mean(np.abs(traj.a1[2000:]) ** 2)
        assert occupation == pytest.approx(0.2, rel=0.2)

    def test_divergence_error(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        with pytest.warns(StepSizeWarning):
            with pytest.raises(DivergenceError):
                dynamics.integrate(system, (50.0, 50.0), duration=50.0, dt=1.0)

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_empty_ensemble_rejected(self, soft_point, noisy):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        noise = NoiseConfig(d1=0.05, d2=0.05) if noisy else None
        with pytest.raises(ValueError, match="^initial holds an ensemble of "
                                             "no members$"):
            dynamics.integrate(system, (np.zeros(0), np.zeros(0)),
                               duration=1.0, dt=0.01, noise=noise, seed=1)

    @pytest.mark.parametrize("kw, field", [
        (dict(duration=-1.0, dt=-0.001), "duration"),
        (dict(dt=0.0), "dt"),
        (dict(dt=math.nan), "dt"),
        (dict(dt=math.inf), "dt"),
        (dict(duration=math.inf), "duration"),
        (dict(ceiling=math.nan), "ceiling"),
        (dict(ceiling=0.0), "ceiling"),
        (dict(initial=(math.nan, 0.0)), "initial"),
        (dict(initial=(np.zeros(2), np.array([0.0, math.inf]))), "initial"),
    ], ids=["backward", "dt-zero", "dt-nan", "dt-inf", "duration-inf",
            "ceiling-nan", "ceiling-zero", "initial-nan", "initial-inf"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_bad_step_arguments_rejected(self, soft_point, kw, field, noisy):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        args = dict(initial=(0.1, 0.0), duration=1.0, dt=0.01, ceiling=1e9,
                    noise=NoiseConfig(d1=0.05, d2=0.05) if noisy else None,
                    seed=1)
        args.update(kw)
        with pytest.raises(ValueError, match=f"^{field} must "):
            dynamics.integrate(system, args.pop("initial"), **args)

    @pytest.mark.parametrize("duration, dt", [(1e300, 1e-300), (2.0**53, 1.0)],
                             ids=["overflow", "one-past-bound"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_step_count_bound(self, soft_point, duration, dt, noisy):
        # 2**53 is one step past MAX_STEPS; the first quotient overflows
        assert dynamics.MAX_STEPS == 2**53 - 1
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        noise = NoiseConfig(d1=0.05, d2=0.05) if noisy else None
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^duration / dt = .* steps, "
                                                 r"over the bound of "):
                dynamics.integrate(system, (0.1, 0.0), duration=duration,
                                   dt=dt, noise=noise, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024      # refused before any allocation

    @pytest.mark.parametrize("name, bad", [
        ("seed", -1), ("seed", 2**63), ("seed", 1.5), ("seed", math.nan),
        ("seed", True), ("store_every", 0), ("store_every", 1.5),
        ("store_every", -2), ("store_every", math.inf)])
    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_bad_seed_or_store_every_rejected(self, soft_point, name, bad,
                                              noisy):
        # -1 marks an unseeded run in the .trpl header and 2**63 overflows
        # its field; a fractional store_every is no step count
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        args = dict(duration=1.0, dt=0.01, seed=1, store_every=1,
                    noise=NoiseConfig(d1=0.05, d2=0.05) if noisy else None)
        args[name] = bad
        with pytest.raises(DomainError, match=f"^{name} must be ") as info:
            dynamics.integrate(system, (0.1, 0.0), **args)
        assert info.value.name == name

    def test_largest_seed_reads_back(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        traj = dynamics.integrate(system, (0.1, 0.0), duration=0.1, dt=0.01,
                                  noise=NoiseConfig(d1=0.05, d2=0.05),
                                  seed=dynamics.MAX_SEED)
        back = tio.trajectory_from_bytes(tio.trajectory_to_bytes(traj))
        assert back.seed == dynamics.MAX_SEED == 2**63 - 1

    def test_step_count_bound_is_inclusive(self, soft_point, monkeypatch):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
        traj = dynamics.integrate(system, (0.1, 0.0), duration=1.0, dt=0.01)
        assert traj.n_samples == 100
        with pytest.raises(ValueError, match="over the bound of 100$"):
            dynamics.integrate(system, (0.1, 0.0), duration=1.01, dt=0.01)

    def test_step_warning(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        with pytest.warns(StepSizeWarning):
            dynamics.integrate(system, (0.1, 0.0), duration=0.5, dt=0.05)

    def test_attractor_consistency(self, soft_point):
        # at this moderate detuning the pump back-action stabilizes even a
        # lower-branch triple, so classify against every stable state
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        targets = stable_states(pt, all_branches=True)
        refs1 = [s.amplitudes(pt)[0] for s in targets]
        rng = np.random.default_rng(2)
        n = 24
        a10 = (rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n))
        a20 = np.zeros(n, dtype=complex)
        traj = dynamics.integrate(system, (a10, a20), duration=300.0,
                                  dt=0.002, store_every=1000)
        ends = traj.a1[-1]
        for z in ends:
            assert min(abs(z - r) for r in refs1) < 1e-3


def scalar_and_solo_ensemble(system, a1, a2, **kw):
    """The same run on the scalar path and as an ensemble of one."""
    scalar = dynamics.integrate(system, (a1, a2), **kw)
    ens = dynamics.integrate(system, (np.array([a1]), np.array([a2])), **kw)
    return scalar, ens.member(0)


@pytest.fixture(scope="module")
def readme_system():
    """The README ``simulate`` operating point (flux 0, -12 MHz)."""
    pt = circuit.device_point(circuit.reference_params(), 0.0,
                              delta1=-2 * math.pi * 12e6,
                              drive_b2=math.sqrt(6.25e10))
    return TwoModeSystem.from_point(pt)


@pytest.fixture(scope="module")
def region2():
    """Region-II point with four attractors, its steps and start radius."""
    base = steady.DimensionlessPoint(delta=-8.0, Delta=40.0, gamma1=1.0,
                                     gamma2=4.0, gamma2_ext=3.6, beta=1.0,
                                     alpha1=1.0)
    pt = base.with_drive(consistent_drive(base, 1.5))
    amps = [s.amplitudes(pt) for s in stable_states(pt)]
    n1 = 2.0 * max(abs(u1) ** 2 for u1, _ in amps)
    n2 = 2.0 * max(abs(u2) ** 2 for _, u2 in amps)
    system = TwoModeSystem.from_point(pt)
    return {"system": system, "radius": math.sqrt(n1),
            "dt_rk4": dynamics.suggested_timestep(system, n1, n2),
            "dt_em": dynamics.suggested_timestep(system, n1, n2,
                                                 stochastic=True)}


class TestScalarPath:
    """A scalar initial condition is an ensemble of one, bit for bit."""

    README = {"duration": 4e-7, "dt": 2e-11, "store_every": 100}

    def test_rk4_matches_solo_ensemble(self, readme_system):
        scalar, ens = scalar_and_solo_ensemble(readme_system, 0.0, 0.0,
                                               **self.README)
        assert scalar.a1.shape == ens.a1.shape == (200,)
        assert np.all(scalar.a1 == 0.0)
        assert same_bits(scalar.a1, ens.a1)
        assert same_bits(scalar.a2, ens.a2)

    def test_em_matches_solo_ensemble(self, readme_system):
        noise = NoiseConfig.thermal(readme_system, 0.1)
        kw = dict(self.README, noise=noise, seed=7)
        scalar, ens = scalar_and_solo_ensemble(readme_system, 0.0, 0.0, **kw)
        assert same_bits(scalar.a1, ens.a1)
        assert same_bits(scalar.a2, ens.a2)
        again = dynamics.integrate(readme_system, (0.0, 0.0), **kw)
        assert np.array_equal(again.a1, scalar.a1)
        assert np.array_equal(again.a2, scalar.a2)

    def test_rk4_linear_mode_closed_form(self):
        # with every Kerr term off the modes decouple into linear damped
        # rotations, a2 relaxing toward the driven response i*D/lambda2
        system = TwoModeSystem(delta1=-3.0, delta2=2.0, alpha1=0.0,
                               alpha2=0.0, Gamma1=0.5, Gamma2=0.8,
                               Gamma2_ext=0.4, drive_b2=1.3, drive_phase=0.7)
        lam1 = complex(-system.Gamma1, system.delta1)
        lam2 = complex(-system.Gamma2, system.delta2)
        a2_ss = 1j * system.drive / lam2
        init = (0.6 + 0.3j, -0.2 + 0.5j)

        def errors(dt, ensemble):
            a1, a2 = init
            if ensemble:
                a1, a2 = np.full(2, a1), np.full(2, a2)
            traj = dynamics.integrate(system, (a1, a2), duration=4.0, dt=dt)
            t = traj.dt * np.arange(1, traj.n_samples + 1)
            if ensemble:
                t = t[:, None]
            e1 = traj.a1 - init[0] * np.exp(lam1 * t)
            e2 = traj.a2 - (a2_ss + (init[1] - a2_ss) * np.exp(lam2 * t))
            return max(np.max(np.abs(e1)), np.max(np.abs(e2)))

        for ensemble in (False, True):
            coarse, fine = errors(0.05, ensemble), errors(0.025, ensemble)
            assert coarse < 1e-5
            # fourth order: halving dt cuts the global error sixteenfold
            assert 15.0 < coarse / fine < 17.0

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**31 - 1),
           radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2 * math.pi))
    def test_property_matches_solo_ensemble(self, region2, seed, radius,
                                            angle):
        system = region2["system"]
        a1 = region2["radius"] * math.sqrt(radius) * complex(
            math.cos(angle), math.sin(angle))
        runs = (dict(dt=region2["dt_rk4"]),
                dict(dt=region2["dt_em"], seed=seed,
                     noise=NoiseConfig.thermal(system, 0.15)))
        for kw in runs:
            scalar, ens = scalar_and_solo_ensemble(system, a1, 0j,
                                                   duration=1.0, **kw)
            assert same_bits(scalar.a1, ens.a1)
            assert same_bits(scalar.a2, ens.a2)

    def test_overflow_is_divergence(self, soft_point):
        # Python complex arithmetic raises OverflowError where numpy
        # would return inf; scalar and ensemble report a DivergenceError
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        for init in ((50.0, 50.0), (np.full(1, 50.0), np.full(1, 50.0))):
            with pytest.raises(DivergenceError):
                dynamics.integrate(system, init, duration=50.0, dt=1.0,
                                   ceiling=math.inf)


def same_bits(x, y):
    """Arrays of equal shape whose every bit agrees (signed zeros too)."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@contextlib.contextmanager
def split_into(blocks):
    """Compiled runs of any size split into ``blocks`` member blocks (at
    most one per member), as on a machine with that many usable CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_BLOCK_MIN_S", 0.0)
        patch.setattr(dynamics, "_usable_cpus", lambda: blocks)
        yield


def reference_kick_scales(noise, c, dt):
    """Per-quadrature kick deviations of both modes over ``dt``.

    An undamped mode takes the Gamma -> 0 limit 2*D*dt of the variance.
    """
    return [math.sqrt(0.5 * (-d * math.expm1(-2.0 * g * dt) / g if g
                             else 2.0 * d * dt))
            for d, g in ((noise.d1, c.Gamma1), (noise.d2, c.Gamma2))]


def expm1(z):
    """numpy's complex expm1, on an array or per part of a Python complex."""
    if isinstance(z, np.ndarray):
        return np.expm1(z)
    half = math.sin(z.imag / 2)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2 * half * half,
                   math.exp(z.real) * math.sin(z.imag))


def etd1_step(c, a1, a2, dt, kick1, kick2):
    """One ETD1 step of both modes with the kicks given.

    a <- a + expm1(L*dt)/L * f + kick, with L the mode's linear rate
    i*(detuning + Kerr) - Gamma written out here and f ``steady._flow``.
    """
    f1, f2 = steady._flow(c, a1, a2)
    n1 = a1.real * a1.real + a1.imag * a1.imag
    n2 = a2.real * a2.real + a2.imag * a2.imag
    ax2 = c.alpha_cross2
    l1 = 1j * (c.delta1 + c.alpha1 * n1 + ax2 * n2) - c.Gamma1
    l2 = 1j * (c.delta2 + c.alpha2 * n2 + ax2 * n1) - c.Gamma2
    return (a1 + expm1(dt * l1) / l1 * f1 + kick1,
            a2 + expm1(dt * l2) / l2 * f2 + kick2)


def reference_integrate(system, a1, a2, duration, dt, noise=None, seed=None,
                        store_every=1):
    """Both schemes as plain loops over ``steady._flow``.

    Each member runs on its own, on Python complex numbers, and draws its
    normals from the j-th stream of ``_member_rngs`` all at once.  The noisy
    scheme is :func:`etd1_step` with the exact Ornstein-Uhlenbeck kick of
    the mode's damping.
    """
    c = system._coefficients()
    shape = np.shape(a1)
    n = int(round(duration / dt))
    members = list(zip(np.ravel(a1).tolist(), np.ravel(a2).tolist()))
    if noise is not None:
        rngs = dynamics._member_rngs(seed, len(members))
        s1, s2 = reference_kick_scales(noise, c, dt)
    out1, out2 = [], []
    for j, (b1, b2) in enumerate(members):
        b1, b2 = complex(b1), complex(b2)
        if noise is not None:
            draws = rngs[j].standard_normal((n, 4)).tolist()
        out1.append([])
        out2.append([])
        for step in range(1, n + 1):
            if noise is None:
                k1a, k1b = steady._flow(c, b1, b2)
                k2a, k2b = steady._flow(c, b1 + 0.5 * dt * k1a,
                                        b2 + 0.5 * dt * k1b)
                k3a, k3b = steady._flow(c, b1 + 0.5 * dt * k2a,
                                        b2 + 0.5 * dt * k2b)
                k4a, k4b = steady._flow(c, b1 + dt * k3a, b2 + dt * k3b)
                b1 = b1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
                b2 = b2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            else:
                x0, x1, x2, x3 = draws[step - 1]
                b1, b2 = etd1_step(c, b1, b2, dt, s1 * (x0 + 1j * x1),
                                   s2 * (x2 + 1j * x3))
            if step % store_every == 0:
                out1[-1].append(b1)
                out2[-1].append(b2)
    rows = n // store_every
    return (np.array(out1, dtype=complex).T.reshape((rows,) + shape),
            np.array(out2, dtype=complex).T.reshape((rows,) + shape))


def test_etd1_strong_convergence(region2):
    # coarse steps against a fine one on one Brownian path: each coarse
    # kick is the Ornstein-Uhlenbeck integral of the fine kicks it spans,
    # sum_j exp(-Gamma*(k - j)*delta) * kick_j over fine steps j up to k.
    # From rest under thermal noise the measured order is 1.24 (errors
    # 1.25e-3, 3.06e-3, 7.0e-3 at 2, 4 and 8 fine steps); exp in place of
    # expm1 in etd1_step makes the error grow as the step falls (order
    # -3.2), and this test fails
    system = region2["system"]
    c = system._coefficients()
    T, n, m = 1.0, 1024, 64
    delta = T / n
    x = np.random.default_rng(5).standard_normal((n, 4, m))
    s1, s2 = reference_kick_scales(NoiseConfig.thermal(system, 0.15), c, delta)
    kicks = (s1 * (x[:, 0] + 1j * x[:, 1]), s2 * (x[:, 2] + 1j * x[:, 3]))

    def endpoint(p):
        decay = np.arange(p - 1, -1, -1) * delta
        k1, k2 = (np.einsum("kjm,j->km", k.reshape(n // p, p, m),
                            np.exp(-g * decay))
                  for k, g in zip(kicks, (c.Gamma1, c.Gamma2)))
        a1 = a2 = np.zeros(m, dtype=complex)
        for i in range(n // p):
            a1, a2 = etd1_step(c, a1, a2, p * delta, k1[i], k2[i])
        return a1

    fine = endpoint(1)
    steps = np.array([2, 4, 8])
    errors = [np.mean(np.abs(endpoint(p) - fine)) for p in steps]
    order = np.polyfit(np.log(steps * delta), np.log(errors), 1)[0]
    assert order >= 0.75, (order, errors)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
small = st.floats(-3, 3)
rate = st.just(0.0) | st.floats(-50, 50)
kerr = st.just(0.0) | st.floats(0, 5)
damping = st.just(0.0) | st.floats(0, 10)


def linear_pump():
    """A driven pump without detuning, damping or Kerr shift: from a real
    a2 = x at t = 0, a2 = x - i*t exactly on both schemes at dt = 1."""
    return TwoModeSystem(delta1=0.0, delta2=0.0, alpha1=0.0, alpha2=0.0,
                         Gamma1=0.0, Gamma2=0.0, Gamma2_ext=0.5, drive_b2=1.0)


def errors_on_both_paths(system, initial, blocks, monkeypatch, kernel=None,
                         **kw):
    """The message and time of the DivergenceError that ``integrate`` raises
    on the compiled step (``kernel`` in its place, if given) split into
    ``blocks`` and on the fallback, which must agree; returns them."""
    errors = []
    for kernel in (kernel or dynamics._kernel(), None):
        monkeypatch.setattr(dynamics, "_KERNEL", [kernel])
        with split_into(blocks), warnings.catch_warnings(), \
                pytest.raises(DivergenceError) as info:
            warnings.simplefilter("ignore", StepSizeWarning)
            dynamics.integrate(system, initial, **kw)
        errors.append((str(info.value), info.value.t))
    assert errors[0] == errors[1]
    return errors[0]


class TestStackedStep:
    """The compiled ensemble step against the Python runners as its oracle."""

    @staticmethod
    def start(region2, shape, parts):
        """Amplitudes of ``shape`` inside the region-II start radius, their
        parts (signed zeros too) set directly from ``parts``."""
        parts = np.reshape(parts, (4,) + shape)
        a1, a2 = np.empty(shape, complex), np.empty(shape, complex)
        a1.real, a1.imag = region2["radius"] * parts[:2]
        a2.real, a2.imag = 0.4 * parts[2:]
        return a1, a2

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(shape=st.sampled_from([(), (1,), (2,), (7,), (40,), (2, 1),
                                  (1, 7), (8, 5)]),
           data=st.data(), steps=st.integers(1, 2 * dynamics._NOISE_CHUNK + 1),
           store_every=st.integers(1, 40), noisy=st.booleans(),
           undamped=st.booleans(), seed=st.integers(0, 2**31 - 1),
           blocks=st.sampled_from([1, 2, 3]))
    @example(shape=(40,), data=None, steps=dynamics._NOISE_CHUNK + 77,
             store_every=9, noisy=True, undamped=False, seed=12, blocks=1)
    @example(shape=(8, 5), data=None, steps=2 * dynamics._NOISE_CHUNK + 1,
             store_every=6, noisy=False, undamped=True, seed=0, blocks=1)
    # uneven blocks of 2, 2 and 3 members, and blocks of one member, each
    # across a noise chunk boundary
    @example(shape=(7,), data=None, steps=dynamics._NOISE_CHUNK + 77,
             store_every=5, noisy=True, undamped=False, seed=13, blocks=3)
    @example(shape=(7,), data=None, steps=dynamics._NOISE_CHUNK + 77,
             store_every=5, noisy=False, undamped=False, seed=14, blocks=3)
    @example(shape=(2,), data=None, steps=dynamics._NOISE_CHUNK + 1,
             store_every=1, noisy=True, undamped=True, seed=15, blocks=2)
    @example(shape=(2,), data=None, steps=dynamics._NOISE_CHUNK + 1,
             store_every=1, noisy=False, undamped=False, seed=16, blocks=2)
    def test_members_match_python_runners(self, region2, shape, data, steps,
                                          store_every, noisy, undamped, seed,
                                          blocks):
        # member j of the compiled step is _run_rk4 / _run_etd1 of its own
        # start, on stream j, bit for bit, however the members are split
        system = region2["system"]
        if undamped:
            system = replace(system, Gamma1=0.0)
        m = math.prod(shape)
        part = st.sampled_from([0.0, -0.0]) | st.floats(-0.7, 0.7)
        parts = (np.random.default_rng(seed).uniform(-0.7, 0.7, 4 * m)
                 if data is None else
                 data.draw(st.lists(part, min_size=4 * m, max_size=4 * m)))
        a1, a2 = self.start(region2, shape, parts)
        dt = region2["dt_em" if noisy else "dt_rk4"]
        noise = NoiseConfig.thermal(system, 0.15) if noisy else None
        kw = dict(duration=steps * dt, dt=dt, noise=noise, seed=seed,
                  store_every=store_every)
        with split_into(blocks):
            traj = dynamics.integrate(system, (a1, a2), **kw)
        assert dynamics._KERNEL[0] is not None
        if blocks > 1:
            with split_into(1):
                whole = dynamics.integrate(system, (a1, a2), **kw)
            assert same_bits(traj.a1, whole.a1)
            assert same_bits(traj.a2, whole.a2)
        rows = steps // store_every
        assert traj.a1.shape == (rows,) + shape
        got1, got2 = (x.reshape(rows, m) for x in (traj.a1, traj.a2))
        c = system._coefficients()
        rngs = dynamics._member_rngs(seed, m)
        for j, (b1, b2) in enumerate(zip(a1.ravel().tolist(),
                                         a2.ravel().tolist())):
            want1, want2 = np.empty(rows, complex), np.empty(rows, complex)
            args = (c, b1, b2, dt, steps, store_every, want1, want2, 1e9)
            if noisy:
                dynamics._run_etd1(*args, noise, rngs[j])
            else:
                dynamics._run_rk4(*args)
            assert same_bits(got1[:, j], want1)
            assert same_bits(got2[:, j], want2)

    @pytest.mark.parametrize("start, dt, d, ceiling", [
        (5.0, 0.05, None, 1e9), (50.0, 1.0, None, math.inf),
        (0.1, 0.01, 1e20, 1e9), (0.1, 0.01, 1e250, math.inf)],
        ids=["rk4-ceiling", "rk4-overflow", "etd1-ceiling", "etd1-overflow"])
    @pytest.mark.parametrize("members, blocks", [(1, 1), (3, 1), (3, 2),
                                                 (3, 3)],
                             ids=["1", "3", "3-split2", "3-split3"])
    def test_divergence_same_on_both_paths(self, soft_point, monkeypatch,
                                           members, blocks, start, dt, d,
                                           ceiling):
        # the earliest member to diverge is reported, with the Python
        # runner's message and time, by the compiled step in any split and
        # by the fallback
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        amps = np.array([start, 0.1, 0.6 * start][:members])
        kw = dict(duration=50 * dt, dt=dt, ceiling=ceiling)
        if d is not None:
            kw.update(noise=NoiseConfig(d1=d, d2=d), seed=1)
        message, _ = errors_on_both_paths(system, (amps, amps), blocks,
                                          monkeypatch, **kw)
        assert ("overflowed" in message) == (ceiling == math.inf)

    def test_nan_amplitude_is_not_finite(self, soft_point, monkeypatch):
        # from this start the step reaches NaN at t = 3.2 with no amplitude
        # past the ceiling before it; a NaN exceeds no ceiling
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        message, t = errors_on_both_paths(system, (3.0, 3.0), 1, monkeypatch,
                                          duration=5.0, dt=0.05)
        assert message == "amplitude is no longer finite (nan)"
        assert t == pytest.approx(3.2, rel=1e-12)

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_earliest_stop_in_a_later_block(self, monkeypatch, noisy, blocks):
        # |a2| = |x - i*t| passes the ceiling 1200 at t = sqrt(1200^2 -
        # x^2).  Member 1 stops in the second chunk (at step 704 or 1024),
        # members 0 and 2 in the third (at 1216 and 1152, or both at 1536).
        # The other blocks wait for block 0 to stop first: they must still
        # step on to the earliest stop
        a2 = np.array([0.0, 1000.0, 500.0])
        kw = dict(duration=2000.0, dt=1.0, ceiling=1200.0)
        if noisy:
            kw.update(noise=NoiseConfig(d1=0.0, d2=0.0), seed=2)
        real, stopped = dynamics._kernel(), threading.Event()

        def kernel(etd1, constants, m, j0, *args):
            if j0 > 0:
                assert stopped.wait(10)
            result = real(etd1, constants, m, j0, *args)
            if j0 == 0 and result:
                stopped.set()
            return result

        threads = threading.active_count()
        message, t = errors_on_both_paths(linear_pump(), (np.zeros(3), a2),
                                          blocks, monkeypatch, kernel, **kw)
        assert t == (1024.0 if noisy else 704.0)
        assert "exceeded ceiling" in message
        assert threading.active_count() == threads

    @staticmethod
    def blocks_seen(region2, blocks, m, kernel=None):
        """The ``(j0, j1, on the calling thread)`` of every kernel call of a
        noisy run of ``m`` members over three noise chunks split into
        ``blocks``, with ``kernel`` in the compiled step's place."""
        real, seen = dynamics._kernel(), []
        kernel = kernel or real
        caller = threading.current_thread()

        def recording(etd1, constants, m, j0, j1, *args):
            seen.append((j0, j1, threading.current_thread() is caller))
            return kernel(etd1, constants, m, j0, j1, *args)

        system = region2["system"]
        init = (np.full(m, 0.5 + 0.1j), np.zeros(m, dtype=complex))
        dt = region2["dt_em"]
        with pytest.MonkeyPatch.context() as patch, split_into(blocks):
            patch.setattr(dynamics, "_KERNEL", [recording])
            dynamics.integrate(system, init,
                               duration=3 * dynamics._NOISE_CHUNK * dt, dt=dt,
                               noise=NoiseConfig.thermal(system, 0.15),
                               seed=3)
        return seen

    def test_blocks_split_the_members_once(self, region2):
        threads = threading.active_count()
        # the calling thread steps the first block, a thread each other one
        assert sorted(set(self.blocks_seen(region2, 3, 7))) == [
            (0, 2, True), (2, 4, False), (4, 7, False)]
        assert threading.active_count() == threads
        # one member, or a run too short to pay for a thread, stays serial
        assert set(self.blocks_seen(region2, 3, 1)) == {(0, 1, True)}
        least = dynamics._BLOCK_MIN_S
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_usable_cpus", lambda: 3)
            assert dynamics._member_blocks(7, 0.9 * least) == [(0, 7)]
            assert dynamics._member_blocks(1, math.inf) == [(0, 1)]
            # no block with less than the least work
            assert dynamics._member_blocks(7, 2.5 * least) \
                == [(0, 3), (3, 7)]
            assert dynamics._member_blocks(7, 3 * least) \
                == [(0, 2), (2, 4), (4, 7)]
            assert dynamics._member_blocks(2, math.inf) == [(0, 1), (1, 2)]

    def test_usable_cpus(self, monkeypatch):
        assert dynamics._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert dynamics._usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_error_in_a_block_is_raised(self, region2, failing):
        # the error ends the other blocks within one chunk and is raised
        # once every thread is joined: a block that fails as a worker ends
        # here before block 0 steps a chunk, so block 0 steps at most one
        # of the three
        threads, real, calls = threading.active_count(), dynamics._kernel(), []

        def kernel(etd1, constants, m, j0, *args):
            calls.append(j0)
            if j0 == (0, 2)[failing]:
                raise RuntimeError("kernel failed in this test")
            deadline = time.monotonic() + 10
            while failing and threading.active_count() > threads \
                    and time.monotonic() < deadline:
                time.sleep(1e-3)
            return real(etd1, constants, m, j0, *args)

        with pytest.raises(RuntimeError, match="kernel failed in this test"):
            self.blocks_seen(region2, 2, 4, kernel)
        assert threading.active_count() == threads
        assert calls.count(0) <= 1 or not failing

    def test_thread_that_cannot_start(self, region2, monkeypatch):
        # the worker already started ends and is joined, then the error of
        # the one that could not start is raised
        threads, started = threading.active_count(), []

        class Thread(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Thread)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            self.blocks_seen(region2, 3, 6)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_many_blocks_switching_fast(self, region2, monkeypatch, noisy):
        # eight blocks on fewer cores, the interpreter switching threads
        # every microsecond: the samples are those of one block, and the
        # earliest of 16 stops spread over the blocks and three chunks is
        # the Python runners'
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            system = region2["system"]
            init = self.start(region2, (16,),
                              np.random.default_rng(4).uniform(-0.7, 0.7, 64))
            dt = region2["dt_em" if noisy else "dt_rk4"]
            kw = dict(duration=3 * dynamics._NOISE_CHUNK * dt, dt=dt, seed=6,
                      noise=NoiseConfig.thermal(system, 0.15) if noisy else None)
            with split_into(8):
                split = dynamics.integrate(system, init, **kw)
            with split_into(1):
                whole = dynamics.integrate(system, init, **kw)
            assert same_bits(split.a1, whole.a1)
            assert same_bits(split.a2, whole.a2)
            # crossings at t = 1150, 1100, ..., 400, in blocks of two taken
            # in the order 3, 6, 1, 4, 0, 7, 2, 5: the earliest in block 5
            order = [3, 6, 1, 4, 0, 7, 2, 5]
            t = np.empty(16)
            t[[2 * b + k for b in order for k in (0, 1)]] = \
                1150.0 - 50.0 * np.arange(16)
            a2 = np.sqrt(1200.0**2 - t**2)
            kw = dict(duration=2000.0, dt=1.0, ceiling=1200.0)
            if noisy:
                kw.update(noise=NoiseConfig(d1=0.0, d2=0.0), seed=2)
            _, stop = errors_on_both_paths(linear_pump(), (np.zeros(16), a2),
                                           8, monkeypatch, **kw)
            assert stop == (512.0 if noisy else 448.0)
        finally:
            sys.setswitchinterval(interval)

    def test_infinite_rate_is_divergence(self, monkeypatch):
        # a finite pump of 1e150 photon amplitude makes the cross-Kerr rate
        # infinite; math.sin of it used to escape as "math domain error"
        system = TwoModeSystem(delta1=0.0, delta2=0.0, alpha1=1e10,
                               alpha2=1e10, Gamma1=1.0, Gamma2=1.0,
                               Gamma2_ext=0.5)
        for kernel in (dynamics._kernel(), None):
            monkeypatch.setattr(dynamics, "_KERNEL", [kernel])
            with warnings.catch_warnings(), \
                    pytest.raises(DivergenceError, match="overflowed"):
                warnings.simplefilter("ignore", StepSizeWarning)
                dynamics.integrate(system, (1.0, 1e150), duration=1e-3,
                                   dt=1e-4, noise=NoiseConfig(d1=0.1, d2=0.1),
                                   seed=1)

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_fallback_writes_the_same_bytes(self, region2, monkeypatch,
                                            noisy):
        system = region2["system"]
        a1, a2 = self.start(region2, (2, 3),
                            np.random.default_rng(8).uniform(-0.7, 0.7, 24))
        dt = region2["dt_em" if noisy else "dt_rk4"]
        kw = dict(duration=700 * dt, dt=dt, store_every=3, seed=9,
                  noise=NoiseConfig.thermal(system, 0.15) if noisy else None)
        compiled = dynamics.integrate(system, (a1, a2), **kw)

        def unavailable():
            raise OSError("no compiler in this test")

        monkeypatch.setattr(dynamics, "_kernel_path", unavailable)
        monkeypatch.setattr(dynamics, "_KERNEL", [])
        with pytest.warns(RuntimeWarning, match="no compiler in this test"):
            first = dynamics.integrate(system, (a1, a2), **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # once per process
            again = dynamics.integrate(system, (a1, a2), **kw)
        for traj in (first, again):
            assert same_bits(traj.a1, compiled.a1)
            assert same_bits(traj.a2, compiled.a2)

    def test_step_cost_follows_the_kernel(self, monkeypatch):
        assert dynamics._kernel() is not None
        assert dynamics.step_seconds("rk4") == dynamics.SCALAR_STEP_S["rk4"]
        monkeypatch.setattr(dynamics, "_KERNEL", [None])
        assert dynamics.step_seconds("etd1") \
            == dynamics.PYTHON_STEP_S["etd1"]

    def test_cache_name_follows_the_source(self):
        source = Path(dynamics.__file__).with_name("_step.c").read_bytes()
        name = dynamics._kernel_name(source)
        assert name == dynamics._kernel_name(bytes(source))
        assert name != dynamics._kernel_name(source + b"\n")

    def test_builds_into_an_empty_cache(self, region2, tmp_path,
                                        monkeypatch):
        # a cache directory other users can write to is passed over
        shared = tmp_path / "shared"
        (shared / "tripler").mkdir(parents=True)
        (shared / "tripler").chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(shared))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        kw = dict(duration=100 * region2["dt_rk4"], dt=region2["dt_rk4"])
        init = (np.full(3, 0.5 + 0.1j), np.zeros(3, dtype=complex))
        session = dynamics.integrate(region2["system"], init, **kw)
        monkeypatch.setattr(dynamics, "_KERNEL", [])
        fresh = dynamics.integrate(region2["system"], init, **kw)
        source = Path(dynamics.__file__).with_name("_step.c").read_bytes()
        private = tmp_path / f"tripler-{os.getuid()}"
        assert [p.name for p in private.iterdir()] \
            == [dynamics._kernel_name(source)]
        assert private.stat().st_mode & 0o777 == 0o700
        assert not any((shared / "tripler").iterdir())
        assert same_bits(fresh.a1, session.a1)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(amps=st.lists(st.tuples(small, small, small, small), min_size=1,
                         max_size=9),
           delta=st.tuples(rate, rate), alpha=st.tuples(kerr, kerr),
           gamma=st.tuples(damping, damping), ext=st.floats(0, 5),
           drive=st.floats(0, 5), phase=st.floats(0, 2 * math.pi),
           d=st.tuples(st.floats(0, 2), st.floats(0, 2)),
           dt=st.floats(1e-3, 0.05), seed=st.integers(0, 2**31 - 1))
    # L = 0 in both modes; in mode 1 only; in mode 1 by cancelling Kerr
    # shifts, with a coupling term N != 0; L*dt subnormal, and tiny
    @example(amps=[(0.5, -0.2, 0.1, 0.3), (0.0, 0.0, 0.0, 0.0)],
             delta=(0.0, 0.0), alpha=(0.0, 0.0), gamma=(0.0, 0.0), ext=1.0,
             drive=0.5, phase=0.3, d=(0.4, 0.6), dt=0.01, seed=5)
    @example(amps=[(0.5, -0.2, 0.1, 0.3)], delta=(0.0, 2.0),
             alpha=(0.0, 1.0), gamma=(0.0, 1.5), ext=1.0, drive=0.5,
             phase=0.3, d=(0.4, 0.6), dt=0.01, seed=6)
    @example(amps=[(1.0, 0.0, 0.5, 0.0), (0.3, 0.2, -0.1, 0.4)],
             delta=(-1.5, 0.0), alpha=(1.0, 1.0), gamma=(0.0, 0.0), ext=1.0,
             drive=0.5, phase=0.3, d=(0.4, 0.6), dt=0.01, seed=7)
    @example(amps=[(0.5, -0.2, 0.1, 0.3)], delta=(0.0, 0.0),
             alpha=(0.0, 0.0), gamma=(1e-300, 1e-320), ext=1.0, drive=0.5,
             phase=0.3, d=(0.4, 0.6), dt=0.01, seed=8)
    def test_noisy_step_matches_scalar_formula(self, amps, delta, alpha, gamma,
                                               ext, drive, phase, d, dt, seed):
        # one step per member, on the stacked and the scalar path, against
        # a + expm1(L*dt)*(a + N/L) + kick, written per element on Python
        # complex numbers (a + dt*f + kick where L*dt ~ 0); N is the coupling
        # plus drive term, and the kick has per-quadrature variance
        # D*(1 - exp(-2*Gamma*dt))/(2*Gamma), D*dt at Gamma = 0
        system = TwoModeSystem(delta1=delta[0], delta2=delta[1],
                               alpha1=alpha[0], alpha2=alpha[1],
                               Gamma1=gamma[0], Gamma2=gamma[1],
                               Gamma2_ext=ext, drive_b2=drive,
                               drive_phase=phase)
        noise = NoiseConfig(d1=d[0], d2=d[1])
        ax, at = system.alpha_cross, system.alpha_tilde
        rngs = dynamics._member_rngs(seed, len(amps))
        want = []
        for (r1, i1, r2, i2), rng in zip(amps, rngs):
            a1, a2 = complex(r1, i1), complex(r2, i2)
            x = rng.standard_normal(4)
            n1, n2 = abs(a1) ** 2, abs(a2) ** 2
            new = []
            for a, det, kerr, g, n_self, n_other, nonlin, dk, kick in (
                    (a1, delta[0], alpha[0], gamma[0], n1, n2,
                     1j * at * a1.conjugate() ** 2 * a2, d[0], x[:2]),
                    (a2, delta[1], alpha[1], gamma[1], n2, n1,
                     1j * at / 3 * a1 ** 3 - 1j * complex(system.drive),
                     d[1], x[2:])):
                lam = 1j * (det + kerr * n_self + 2 * ax * n_other) - g
                x2 = 2 * g * dt     # 1 - exp(-x2) by its series below 1e-3
                decay = x2 * (1 - x2 / 2 * (1 - x2 / 3 * (1 - x2 / 4))) \
                    if x2 < 1e-3 else 1 - math.exp(-x2)
                sd = math.sqrt(dk * dt * (decay / x2)) if x2 else \
                    math.sqrt(dk * dt)
                kick = sd * complex(*kick)
                if abs(lam * dt) < 2.0 ** -60:
                    # (exp(L*dt) - 1)/L is dt(1 + L*dt/2 + ...), dt to rounding
                    new.append(a + dt * (lam * a + nonlin) + kick)
                else:
                    em1 = complex(np.expm1(lam * dt))
                    new.append(a + em1 * (a + nonlin / lam) + kick)
            want.append(new)
        want = np.array(want).T                          # (2, M)
        kw = dict(duration=dt, dt=dt, noise=noise, seed=seed,
                  ceiling=math.inf)
        init = np.array([complex(r1, i1) for r1, i1, _, _ in amps]), \
            np.array([complex(r2, i2) for _, _, r2, i2 in amps])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            ens = dynamics.integrate(system, init, **kw)
            solo = dynamics.integrate(system, (init[0][0], init[1][0]), **kw)
        got = np.stack((ens.a1[0], ens.a2[0]))
        tol = 1e-12 * (np.max(np.abs(want)) + np.max(np.abs(init)) + 1.0)
        assert np.max(np.abs(got - want)) <= tol
        assert abs(solo.a1[0] - want[0, 0]) <= tol
        assert abs(solo.a2[0] - want[1, 0]) <= tol

    # 7 members over 3 blocks of 2, 2 and 3; 2 over blocks of one member
    @pytest.mark.parametrize("shape, blocks", [((4,), 1), ((2, 3), 1),
                                               ((1,), 1), ((7,), 3),
                                               ((2,), 2)],
                             ids=["shape0", "shape1", "shape2", "7-split3",
                                  "2-split2"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "em"])
    def test_integrate_matches_reference_loops(self, region2, shape, blocks,
                                               noisy):
        system = region2["system"]
        rng = np.random.default_rng(23)
        a1 = region2["radius"] * (rng.uniform(-0.7, 0.7, shape)
                                  + 1j * rng.uniform(-0.7, 0.7, shape))
        a2 = 0.3 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        if noisy:
            # a noise chunk boundary falls inside the run
            dt = region2["dt_em"]
            kw = dict(duration=(dynamics._NOISE_CHUNK + 300) * dt, dt=dt,
                      noise=NoiseConfig.thermal(system, 0.15), seed=31,
                      store_every=7)
        else:
            dt = region2["dt_rk4"]
            kw = dict(duration=700 * dt, dt=dt, store_every=3)
        with split_into(blocks):
            traj = dynamics.integrate(system, (a1, a2), **kw)
        want1, want2 = reference_integrate(system, a1, a2, **kw)
        assert same_bits(traj.a1, want1)
        assert same_bits(traj.a2, want2)

    @staticmethod
    def undamped_signed_zeros(region2):
        """Mode 1 undamped, a1 every signed zero, phase1 of both signs."""
        system = replace(region2["system"], Gamma1=0.0)
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        a1 = np.array(zeros * 2)
        a2 = np.array([0.0, -0.5j, 1.0, -0.0, 2.5, -3j, 2 + 2j, -0.0j])
        return system, a1, a2

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_undamped_signed_zeros_match_reference_loops(self, region2,
                                                         noisy):
        # a1 stays a signed zero in every member (no kick with d1 = 0)
        system, a1, a2 = self.undamped_signed_zeros(region2)
        dt = region2["dt_rk4"]
        kw = dict(duration=300 * dt, dt=dt, store_every=1)
        if noisy:
            kw.update(noise=NoiseConfig(d1=0.0, d2=0.6), seed=3)
        traj = dynamics.integrate(system, (a1, a2), **kw)
        want1, want2 = reference_integrate(system, a1, a2, **kw)
        assert np.all(traj.a1 == 0)
        assert same_bits(traj.a1, want1)
        assert same_bits(traj.a2, want2)

    @pytest.mark.parametrize("noisy, blocks", [(False, 1), (True, 1),
                                               (False, 3), (True, 3)],
                             ids=["rk4", "etd1", "rk4-split3", "etd1-split3"])
    def test_steps_allocate_nothing_that_accumulates(self, region2, noisy,
                                                     blocks):
        # traced peak at n and at 4n steps, after an untraced run for the
        # one-time set-up: only the stored samples may grow, also with the
        # members split across threads
        system = region2["system"]
        # past one noise chunk, so the draw buffer is full-size at n and 4n
        n = 2 * dynamics._NOISE_CHUNK
        init = (np.full(3, 0.5 + 0.1j), np.zeros(3, dtype=complex))
        kw = dict(dt=region2["dt_rk4"], store_every=16)
        if noisy:
            kw.update(noise=NoiseConfig.thermal(system, 0.15), seed=4)
        peaks = []
        with split_into(blocks):
            dynamics.integrate(system, init, duration=n * kw["dt"], **kw)
            for steps in (n, 4 * n):
                tracemalloc.start()
                try:
                    traj = dynamics.integrate(system, init,
                                              duration=steps * kw["dt"], **kw)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] <= traj.a1.nbytes + traj.a2.nbytes


class TestDemodulation:
    def test_counts_conserved_and_single_cluster(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        state = next(s for s in stable_states(pt) if s.kind == "triad")
        traj = dynamics.integrate(system, state.amplitudes(pt), duration=50.0,
                                  dt=0.01, store_every=5)
        hist = dynamics.demodulate_histogram(traj, fs=1.0, bins=41)
        assert hist.counts.sum() == 50
        assert np.count_nonzero(hist.counts) == 1
        assert hist.window == pytest.approx(1.0)

    def test_window_rate_cap(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        traj = dynamics.integrate(system, (0.1, 0.0), duration=1.0, dt=0.01)
        with pytest.raises(ValueError):
            dynamics.demodulate_histogram(traj, fs=1000.0)

    @pytest.mark.parametrize("fs", [0.0, -1.0, math.nan, math.inf])
    def test_bad_rate_rejected(self, fs):
        traj = Trajectory(dt=0.1, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(ValueError, match="^fs must be positive"):
            dynamics.boxcar_demodulate(traj, fs)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_bad_scale_rejected(self, scale):
        # unchecked, a NaN gain gives NaN window means
        traj = Trajectory(dt=0.1, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(DomainError, match="^scale must be finite") as info:
            dynamics.boxcar_demodulate(traj, 1.0, scale=scale)
        assert info.value.name == "scale"

    @pytest.mark.parametrize("bins", [0, -3, 2.5, math.nan, math.inf])
    def test_bad_bin_count_rejected(self, bins):
        traj = Trajectory(dt=0.1, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(ValueError, match="^bins must be a positive"):
            dynamics.demodulate_histogram(traj, fs=1.0, bins=bins)

    @pytest.mark.parametrize("edges", [
        [0.0, math.nan, 1.0], [1.0, 0.0, -1.0], [0.0]],
        ids=["nan", "decreasing", "single"])
    def test_bad_bin_edges_rejected(self, edges):
        # unchecked, a NaN edge was accepted, decreasing edges raised
        # numpy's own error and a single edge gave a histogram of no bins
        traj = Trajectory(dt=0.1, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        good = np.linspace(-2.0, 2.0, 5)
        for bins in ((edges, good), (good, edges)):
            with pytest.raises(DomainError,
                               match="^bins must be 1-D bin edges") as info:
                dynamics.demodulate_histogram(traj, fs=1.0, bins=bins)
            assert info.value.name == "bins"

    @pytest.mark.parametrize("bins", [
        "ab", [np.linspace(-2.0, 2.0, 5)] * 3, [np.linspace(-2.0, 2.0, 5)]],
        ids=["text", "three-edge-arrays", "one-edge-array"])
    def test_malformed_bins_named(self, bins):
        # unchecked, these ended in a TypeError or a ValueError of unpacking
        traj = Trajectory(dt=0.1, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(DomainError, match="^bins must be") as info:
            dynamics.demodulate_histogram(traj, fs=1.0, bins=bins)
        assert info.value.name == "bins"

    def test_empty_trajectory(self):
        traj = Trajectory(dt=0.01, a1=np.empty(0, complex),
                          a2=np.empty(0, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(EmptyTrajectoryError):
            dynamics.demodulate_histogram(traj, fs=1.0)

    def test_gain_scale_switches_units(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        traj = dynamics.integrate(system, (0.5, 0.0), duration=2.0, dt=0.01)
        h = dynamics.demodulate_histogram(traj, fs=10.0, scale=2.5e-6)
        assert h.units == "V"
        assert np.max(np.abs(h.i_edges)) < 1e-4

    def test_partial_histogram_merge(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        ens = dynamics.integrate(system, (np.full(2, 0.4 + 0.1j),
                                          np.zeros(2, complex)),
                                 duration=4.0, dt=0.01)
        edges = np.linspace(-3, 3, 31)
        whole = dynamics.demodulate_histogram(ens, fs=5.0,
                                              bins=(edges, edges))
        parts = [dynamics.demodulate_histogram(ens.member(j), fs=5.0,
                                               bins=(edges, edges))
                 for j in range(2)]
        assert np.array_equal(parts[0].counts + parts[1].counts, whole.counts)
        for part in parts:
            assert (part.fs, part.window, part.units) == \
                (whole.fs, whole.window, whole.units)


class TestSwitching:
    def test_fixed_point_rate_zero(self, soft_point):
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        state = next(s for s in stable_states(pt) if s.kind == "triad")
        traj = dynamics.integrate(system, state.amplitudes(pt), duration=20.0,
                                  dt=0.01, store_every=10)
        refs = [s.amplitudes(pt)[0] for s in stable_states(pt)]
        stats = dynamics.switching_rate(traj, refs, classify_radius=0.5)
        assert stats.rate == 0.0
        assert stats.n_transit == 0

    def test_synthetic_alternation_exact_rate(self):
        # half dwell segments at both ends make the change count match the
        # switching period exactly: 10 changes in 10 ms -> 1 kHz
        a = complex(2.0, 0.0)
        b = complex(-2.0, 0.0)
        chunks = [[a] * 50] + [[b] * 100 if k % 2 == 0 else [a] * 100
                               for k in range(9)] + [[a] * 50]
        samples = np.concatenate([np.array(c) for c in chunks])
        assert samples.size == 1000
        traj = Trajectory(dt=1e-5, a1=samples, a2=np.zeros_like(samples),
                          drive_b2=0.0, drive_phase=0.0)
        stats = dynamics.switching_rate(traj, [a, b], classify_radius=0.5)
        assert stats.rate == pytest.approx(1000.0, rel=1e-12)
        assert stats.transitions.sum() == 10

    @pytest.mark.parametrize("radius", [math.nan, -0.1])
    def test_bad_radius_rejected(self, radius):
        # a NaN radius used to assign every sample to its nearest state
        with pytest.raises(ValueError, match="^radius must be non-negative"):
            dynamics.classify_samples(np.array([100.0, 0.0]), refs=[0, 1],
                                      radius=radius)

    def test_overlapping_radius(self):
        traj = Trajectory(dt=1e-5, a1=np.ones(10, complex),
                          a2=np.zeros(10, complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(OverlappingRadiusError):
            dynamics.switching_rate(traj, [1.0 + 0j, 1.5 + 0j],
                                    classify_radius=0.4)

    def test_transit_excluded(self):
        a, b = complex(2, 0), complex(-2, 0)
        samples = np.array([a] * 5 + [0.0] * 3 + [b] * 5)
        traj = Trajectory(dt=1e-3, a1=samples, a2=np.zeros_like(samples),
                          drive_b2=0.0, drive_phase=0.0)
        stats = dynamics.switching_rate(traj, [a, b], classify_radius=0.5)
        assert stats.n_transit == 3
        assert stats.transitions[0, 1] == 1
        assert stats.occupancy.tolist() == [5, 5]


def metapotential(system, a1, a2):
    """Quasienergy H/hbar (rad/s) of the rotating-frame Hamiltonian flow.

    An independent statement of the undamped equations of motion,
    da/dt = -i dH/da*: conserved along undamped trajectories at constant
    drive, and stationary in the fundamental-mode quadratures, at the
    stationary pump amplitude, at the zero-damping steady states.
    """
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    n1 = np.abs(a1) ** 2
    n2 = np.abs(a2) ** 2
    h = -(system.delta1 * n1 + 0.5 * system.alpha1 * n1**2)
    h -= system.delta2 * n2 + 0.5 * system.alpha2 * n2**2
    h -= 2.0 * system.alpha_cross * n1 * n2
    h -= (system.alpha_tilde / 3.0) * 2.0 * (np.conj(a1) ** 3 * a2).real
    h += 2.0 * (system.drive * np.conj(a2)).real
    return h if h.ndim else float(h)


def metapotential_extrema(system, axis, a2):
    """Strict local extrema ``(p1, q1, kind)`` of the metapotential over the
    interior of the grid ``axis`` x ``axis`` of fundamental-mode
    quadratures, a2 fixed; kind is "min" or "max", saddles are left out."""
    v = metapotential(system, axis[:, None] + 1j * axis[None, :], a2)
    n, m = v.shape
    centre = v[1:-1, 1:-1]
    around = [v[1 + di:n - 1 + di, 1 + dj:m - 1 + dj]
              for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    is_max = np.all([centre > x for x in around], axis=0)
    is_min = np.all([centre < x for x in around], axis=0)
    return [(axis[i + 1], axis[j + 1], "max" if is_max[i, j] else "min")
            for i, j in np.argwhere(is_max | is_min)]


class TestMetapotential:
    def test_zero_at_origin(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        assert metapotential(system, 0.0, 0.0) == 0.0

    def test_triad_rotation_invariance(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        rng = np.random.default_rng(9)
        rot = np.exp(2j * math.pi / 3)
        for _ in range(20):
            z = rng.standard_normal(4)
            a1, a2 = complex(z[0], z[1]), complex(z[2], z[3])
            h0 = metapotential(system, a1, a2)
            h1 = metapotential(system, a1 * rot, a2)
            assert h1 == pytest.approx(h0, rel=1e-12, abs=1e-12)

    def test_undamped_flow_is_hamiltonian(self, soft_point):
        # da/dt = -i dH/da* with dH/da* = (dH/dRe a + i dH/dIm a) / 2
        pt = replace(driven_soft_point(soft_point), alpha1=2.7e5,
                     drive_phase=0.4)
        system = replace(TwoModeSystem.from_point(pt), Gamma1=0.0, Gamma2=0.0)
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(10):
            z = rng.standard_normal(4)
            a = [complex(z[0], z[1]), complex(z[2], z[3])]
            flow = system.flow(*a)
            for k in range(2):
                def H(step):
                    b = list(a)
                    b[k] += step
                    return metapotential(system, *b)

                dH = (H(h) - H(-h) + 1j * (H(1j * h) - H(-1j * h))) / (4 * h)
                assert -1j * dH == pytest.approx(flow[k], rel=1e-7)

    def test_conserved_without_damping(self):
        # dampings off but the drive source kept on via Gamma2_ext
        system = TwoModeSystem(delta1=-9.0, delta2=-7.0, alpha1=1.0,
                               alpha2=1.2**4, Gamma1=0.0, Gamma2=0.0,
                               Gamma2_ext=0.5, drive_b2=1.3)
        init = (0.7 + 0.1j, -0.2 + 0.4j)

        def drift(dt):
            traj = dynamics.integrate(system, init, duration=5.0, dt=dt)
            h = metapotential(system, traj.a1, traj.a2)
            h0 = metapotential(system, init[0], init[1])
            return float(np.max(np.abs(h - h0)))

        d1, d2 = drift(0.01), drift(0.005)
        assert d1 < 1e-5 * max(abs(metapotential(system, *init)), 1.0)
        assert d1 / d2 > 10.0

    def test_grid_extrema_match_undamped_states(self, soft_point):
        # metapotential stationary points at the stationary pump amplitude
        # sit where the undamped steady states are
        pt = replace(driven_soft_point(soft_point), gamma1=1e-12)
        states = steady.solve_selfconsistent(pt)
        # only the stable root: the coexisting unstable one has its own pump
        # amplitude and does not sit on this frozen-a2 surface
        triad = [s for s in states if s.kind == "triad" and s.stable]
        if not triad:
            pytest.skip("no excited state at this drive")
        a2 = triad[0].amplitudes(pt)[1]
        system = TwoModeSystem.from_point(pt)
        lim = 1.3 * math.sqrt(triad[0].r1_sq)
        axis = np.linspace(-lim, lim, 301)
        ext = metapotential_extrema(system, axis, a2)
        pts = [complex(p, q) for p, q, _ in ext]
        for s in triad:
            z = s.amplitudes(pt)[0]
            assert min(abs(z - w) for w in pts) < 2 * (axis[1] - axis[0])

    def test_device_point_grid_has_four_extrema(self, params):
        # the four-attractor operating point: central minimum plus the
        # three excited maxima, saddles excluded
        from tripler import circuit

        pt = circuit.device_point(params, 0.0, delta1=-2 * math.pi * 12e6,
                                  drive_b2=math.sqrt(6.25e10))
        states = steady.solve_selfconsistent(pt)
        triad = [s for s in states if s.kind == "triad" and s.stable]
        a2 = triad[0].amplitudes(pt)[1]
        system = TwoModeSystem.from_point(pt)
        lim = 1.35 * math.sqrt(triad[0].r1_sq)
        axis = np.linspace(-lim, lim, 281)
        ext = metapotential_extrema(system, axis, a2)
        kinds = sorted(k for _, _, k in ext)
        assert kinds == ["max", "max", "max", "min"]
        mins = [(p, q) for p, q, k in ext if k == "min"]
        assert abs(complex(*mins[0])) < 2 * (axis[1] - axis[0])
        for s in triad:
            z = s.amplitudes(pt)[0]
            best = min(abs(z - complex(p, q)) for p, q, k in ext if k == "max")
            # damping shifts the attractors slightly off the undamped
            # stationary structure
            assert best < 0.05 * abs(z)


class TestTrajectoryUtils:
    def test_member_split(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        ens = dynamics.integrate(system, (np.zeros(3), np.zeros(3)),
                                 duration=1.0, dt=0.01)
        m = ens.member(1)
        assert m.a1.ndim == 1
        assert np.array_equal(m.a1, ens.a1[:, 1])

    def test_member_is_a_read_only_view(self, soft_point):
        # no copy per member; writing to one cannot change the ensemble
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        ens = dynamics.integrate(system, (np.full((2, 3), 0.3),
                                          np.zeros((2, 3))),
                                 duration=1.0, dt=0.01)
        m = ens.member(1)
        assert m.a1.shape == (100, 3)
        for got, whole in ((m.a1, ens.a1), (m.a2, ens.a2)):
            assert np.shares_memory(got, whole)
            assert same_bits(got, whole[:, 1])
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
        assert ens.a1.flags.writeable

    def test_suggested_timestep_positive(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        dt = dynamics.suggested_timestep(system, 10.0, 5.0)
        assert 0 < dt < 0.1

    @pytest.mark.parametrize("name, n1, n2", [
        ("n1_max", math.nan, 1.0), ("n1_max", -1.0, 1.0),
        ("n2_max", 1.0, math.inf), ("n2_max", 1.0, -1e-30)])
    def test_suggested_timestep_rejects_bad_occupation(self, soft_point,
                                                       name, n1, n2):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        with pytest.raises(ValueError, match=f"^{name} must be non-negative "
                           "and finite, got "):
            dynamics.suggested_timestep(system, n1, n2)

    def test_noisy_guideline_is_rk4s(self, region2):
        # the noisy step integrates each mode's rotation exactly, so no
        # Gamma/omega^2 guard shrinks its step below RK4's
        assert region2["dt_em"] == region2["dt_rk4"]
