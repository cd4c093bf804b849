import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripler import circuit, dynamics, steady
from tripler.dynamics import NoiseConfig, Trajectory, TwoModeSystem
from tripler.errors import (
    DivergenceError,
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
        # spawned from the master seed (a solo run draws member 0's stream
        # and agrees with it to rounding, see TestScalarPath)
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


def agree(got, ref):
    """Largest deviation within 1e-12 of the largest reference amplitude."""
    return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    """Scalar initial conditions integrate on Python complex numbers.

    The numpy ensemble path is the reference: the two paths share the
    random streams and differ only in how their arithmetic rounds.
    """

    README = {"duration": 4e-7, "dt": 2e-11, "store_every": 100}

    def test_rk4_matches_solo_ensemble(self, readme_system):
        scalar, ens = scalar_and_solo_ensemble(readme_system, 0.0, 0.0,
                                               **self.README)
        assert scalar.a1.shape == ens.a1.shape == (200,)
        assert np.all(scalar.a1 == 0.0)
        assert agree(scalar.a2, ens.a2)

    def test_em_matches_solo_ensemble(self, readme_system):
        noise = NoiseConfig.thermal(readme_system, 0.1)
        kw = dict(self.README, noise=noise, seed=7)
        scalar, ens = scalar_and_solo_ensemble(readme_system, 0.0, 0.0, **kw)
        assert agree(scalar.a1, ens.a1)
        assert agree(scalar.a2, ens.a2)
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
            assert agree(scalar.a1, ens.a1)
            assert agree(scalar.a2, ens.a2)

    def test_overflow_is_divergence(self, soft_point):
        # Python complex arithmetic raises OverflowError where numpy
        # would return inf; both paths must report a DivergenceError
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        for init in ((50.0, 50.0), (np.full(1, 50.0), np.full(1, 50.0))):
            with pytest.raises(DivergenceError):
                dynamics.integrate(system, init, duration=50.0, dt=1.0,
                                   ceiling=math.inf)


def same_bits(x, y):
    """Arrays of equal shape whose every bit agrees (signed zeros too)."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def reference_kick_scales(noise, c, dt):
    """Per-quadrature kick deviations of both modes over ``dt``.

    An undamped mode takes the Gamma -> 0 limit 2*D*dt of the variance.
    """
    return [math.sqrt(0.5 * (-d * math.expm1(-2.0 * g * dt) / g if g
                             else 2.0 * d * dt))
            for d, g in ((noise.d1, c.Gamma1), (noise.d2, c.Gamma2))]


def etd1_step(c, a1, a2, dt, kick1, kick2):
    """One ETD1 step of both modes with the kicks given.

    a <- a + expm1(L*dt)/L * f + kick, with L the mode's linear rate
    i*(detuning + Kerr) - Gamma written out here and f ``steady._flow``.
    """
    f1, f2 = steady._flow(c, a1, a2)
    n1, n2 = abs(a1) ** 2, abs(a2) ** 2
    ax2 = c.alpha_cross2
    l1 = 1j * (c.delta1 + c.alpha1 * n1 + ax2 * n2) - c.Gamma1
    l2 = 1j * (c.delta2 + c.alpha2 * n2 + ax2 * n1) - c.Gamma2
    return (a1 + np.expm1(dt * l1) / l1 * f1 + kick1,
            a2 + np.expm1(dt * l2) / l2 * f2 + kick2)


def reference_integrate(system, a1, a2, duration, dt, noise=None, seed=None,
                        store_every=1):
    """The ensemble schemes as plain loops over ``steady._flow``.

    Each mode is its own array and every expression allocates; member j
    draws its normals from the j-th stream of ``_member_rngs`` all at once.
    The noisy scheme is :func:`etd1_step` with the exact Ornstein-Uhlenbeck
    kick of the mode's damping.
    """
    c = system._coefficients()
    shape = np.shape(a1)
    a1 = np.array(a1, dtype=complex).ravel()
    a2 = np.array(a2, dtype=complex).ravel()
    n = int(round(duration / dt))
    if noise is not None:
        draws = np.stack([rng.standard_normal((n, 4)) for rng in
                          dynamics._member_rngs(seed, a1.size)], axis=-1)
        s1, s2 = reference_kick_scales(noise, c, dt)
    out1, out2 = [], []
    for step in range(1, n + 1):
        if noise is None:
            k1a, k1b = steady._flow(c, a1, a2)
            k2a, k2b = steady._flow(c, a1 + 0.5 * dt * k1a,
                                    a2 + 0.5 * dt * k1b)
            k3a, k3b = steady._flow(c, a1 + 0.5 * dt * k2a,
                                    a2 + 0.5 * dt * k2b)
            k4a, k4b = steady._flow(c, a1 + dt * k3a, a2 + dt * k3b)
            a1 = a1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            a2 = a2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        else:
            x0, x1, x2, x3 = draws[step - 1]
            a1, a2 = etd1_step(c, a1, a2, dt, s1 * (x0 + 1j * x1),
                               s2 * (x2 + 1j * x3))
        if step % store_every == 0:
            out1.append(a1)
            out2.append(a2)
    return (np.reshape(out1, (len(out1),) + shape),
            np.reshape(out2, (len(out2),) + shape))


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


class TestStackedStep:
    """The (2, M) in-place ensemble step rounds exactly as ``steady._flow``."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(m=st.integers(1, 9), data=st.data(),
           delta=st.tuples(finite, finite),
           alpha=st.tuples(st.floats(0, 10), st.floats(0, 10)),
           gamma=st.tuples(st.floats(0, 10), st.floats(0, 10)),
           ext=st.floats(0, 10), drive=st.floats(0, 10),
           phase=st.floats(0, 2 * math.pi))
    def test_flow_into_matches_flow_bitwise(self, m, data, delta, alpha,
                                            gamma, ext, drive, phase):
        system = TwoModeSystem(delta1=delta[0], delta2=delta[1],
                               alpha1=alpha[0], alpha2=alpha[1],
                               Gamma1=gamma[0], Gamma2=gamma[1],
                               Gamma2_ext=ext, drive_b2=drive,
                               drive_phase=phase)
        c = system._coefficients()
        parts = data.draw(st.lists(finite, min_size=4 * m, max_size=4 * m))
        x = np.array(parts).reshape(2, 2, m)
        a = x[:, 0] + 1j * x[:, 1]
        out = np.empty((2, m), dtype=complex)
        work = steady._FlowWork.build(c, a, out)
        steady._flow_into(work, *work.views)
        want1, want2 = steady._flow(c, a[0].copy(), a[1].copy())
        assert same_bits(out[0], want1)
        assert same_bits(out[1], want2)

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

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1,)])
    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "em"])
    def test_integrate_matches_reference_loops(self, region2, shape, noisy):
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

    def test_undamped_signed_zeros_rates_bitwise(self, region2):
        # Re L1 = Re(1j*phase1) - 0 is a zero whose sign follows phase1's;
        # writing -Gamma1 into it directly flips the sign in half the cases
        system, a1, a2 = self.undamped_signed_zeros(region2)
        c = system._coefficients()
        a = np.stack((a1, a2))
        out = np.empty_like(a)
        work = steady._FlowWork.build(c, a, out)
        steady._flow_into(work, *work.views)
        l1, l2, f1, f2 = steady._rates_and_flow(c, a1, a2)
        assert same_bits(work.linear, np.stack((l1, l2)))
        assert same_bits(out, np.stack((f1, f2)))

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

    @pytest.mark.parametrize("noisy", [False, True], ids=["rk4", "etd1"])
    def test_steps_allocate_nothing_that_accumulates(self, region2, noisy):
        # traced peak at n and at 4n steps, after an untraced run for the
        # one-time set-up: only the stored samples may grow
        system = region2["system"]
        # past one noise chunk, so the draw buffer is full-size at n and 4n
        n = 2 * dynamics._NOISE_CHUNK
        init = (np.full(3, 0.5 + 0.1j), np.zeros(3, dtype=complex))
        kw = dict(dt=region2["dt_rk4"], store_every=16)
        if noisy:
            kw.update(noise=NoiseConfig.thermal(system, 0.15), seed=4)
        dynamics.integrate(system, init, duration=n * kw["dt"], **kw)
        peaks = []
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
        merged = dynamics.merge_histograms(parts[0], parts[1])
        assert np.array_equal(merged.counts, whole.counts)
        with pytest.raises(ValueError):
            other = dynamics.demodulate_histogram(ens, fs=5.0, bins=11)
            dynamics.merge_histograms(whole, other)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           data=st.data())
    def test_merge_associative_and_commutative_property(self, shape, data):
        edges_i = np.linspace(-1.0, 1.0, shape[0] + 1)
        edges_q = np.linspace(-2.0, 2.0, shape[1] + 1)
        n = shape[0] * shape[1]
        a, b, c = (dynamics.Histogram2D(
            i_edges=edges_i, q_edges=edges_q,
            counts=np.array(data.draw(st.lists(st.integers(0, 2**40),
                                               min_size=n, max_size=n)),
                            dtype=np.int64).reshape(shape),
            fs=5.0, window=0.2) for _ in range(3))
        merge = dynamics.merge_histograms
        left, right = merge(merge(a, b), c), merge(a, merge(b, c))
        assert np.array_equal(left.counts, right.counts)
        assert np.array_equal(merge(a, b).counts, merge(b, a).counts)
        assert np.array_equal(left.counts, a.counts + b.counts + c.counts)
        for h in (left, right, merge(b, a)):
            assert np.array_equal(h.i_edges, edges_i)
            assert np.array_equal(h.q_edges, edges_q)
            assert (h.fs, h.window, h.units) == (5.0, 0.2, a.units)


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


class TestMetapotential:
    def test_zero_at_origin(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        assert dynamics.metapotential(system, 0.0, 0.0) == 0.0

    def test_triad_rotation_invariance(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        rng = np.random.default_rng(9)
        rot = np.exp(2j * math.pi / 3)
        for _ in range(20):
            z = rng.standard_normal(4)
            a1, a2 = complex(z[0], z[1]), complex(z[2], z[3])
            h0 = dynamics.metapotential(system, a1, a2)
            h1 = dynamics.metapotential(system, a1 * rot, a2)
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
                    return dynamics.metapotential(system, *b)

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
            h = dynamics.metapotential(system, traj.a1, traj.a2)
            h0 = dynamics.metapotential(system, init[0], init[1])
            return float(np.max(np.abs(h - h0)))

        d1, d2 = drift(0.01), drift(0.005)
        assert d1 < 1e-5 * max(abs(dynamics.metapotential(system, *init)), 1.0)
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
        grid = dynamics.metapotential_grid(system, axis, axis, a2)
        ext = dynamics.grid_extrema(grid)
        pts = [complex(p, q) for p, q, _ in ext]
        for s in triad:
            z = s.amplitudes(pt)[0]
            assert min(abs(z - w) for w in pts) < 2 * (axis[1] - axis[0])

    def test_grid_validation(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        with pytest.raises(ValueError):
            dynamics.metapotential_grid(system, np.array([]), np.array([1.0]),
                                        0.0)

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
        grid = dynamics.metapotential_grid(system, axis, axis, a2)
        ext = dynamics.grid_extrema(grid)
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

    def test_suggested_timestep_positive(self, soft_point):
        system = TwoModeSystem.from_point(driven_soft_point(soft_point))
        dt = dynamics.suggested_timestep(system, 10.0, 5.0)
        assert 0 < dt < 0.1

    def test_noisy_guideline_is_rk4s(self, region2):
        # the noisy step integrates each mode's rotation exactly, so no
        # Gamma/omega^2 guard shrinks its step below RK4's
        assert region2["dt_em"] == region2["dt_rk4"]
