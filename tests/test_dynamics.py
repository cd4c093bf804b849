import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
        # member j of a vector run draws from the j-th stream spawned from
        # the master seed (a solo run draws member 0's stream and agrees
        # with it to rounding, see TestScalarPath)
        pt = driven_soft_point(soft_point)
        system = TwoModeSystem.from_point(pt)
        noise = NoiseConfig(d1=0.05, d2=0.05)
        ens = dynamics.integrate(system, (np.zeros(3), np.zeros(3)),
                                 duration=2.0, dt=0.01, noise=noise, seed=7)
        assert ens.a1.shape == (200, 3)
        # re-run with a wider ensemble sharing the master seed: leading
        # members must be bit-identical
        wide = dynamics.integrate(system, (np.zeros(5), np.zeros(5)),
                                  duration=2.0, dt=0.01, noise=noise, seed=7)
        assert np.array_equal(wide.a1[:, :3], ens.a1)

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
