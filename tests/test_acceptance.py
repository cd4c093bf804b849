"""Acceptance gate: one test per numbered criterion, each printing PASS/FAIL
lines for its sub-checks (run with ``pytest -s tests/test_acceptance.py`` to
see them).

Two sub-checks are known to fail and are left failing on purpose, with the
measured numbers printed next to the documented targets:

* criterion 1: the quoted fundamental frequency (5.504 GHz at 0.5%) is not
  recoverable from the published circuit constants, which are rounded to
  two digits; they reproduce it to 1.2% (the anharmonicity, Kerr, damping
  and every reduced quantity downstream are fine).
* criterion 10: with the quoted gain, noise floor and photon calibration,
  the predicted output power at the existence threshold is ~7x below the
  floor, so the visible threshold is noise-limited at every flux and the
  small-flux identity with the bare threshold cannot hold.  The monotone
  deep-flux behaviour does hold.
"""

import math
import time
import warnings

import numpy as np
import pytest

from tripler import calibration as cal
from tripler import circuit, dynamics, steady
from tripler.calibration import CalibrationChain
from tripler.dynamics import NoiseConfig, TwoModeSystem
from tripler.steady import DimensionlessPoint

from test_calibration import synthetic_linecuts
from test_steady import consistent_drive, oracle_branch_roots

TWO_PI = 2.0 * math.pi


class Gate:
    """Collects sub-check verdicts and prints one line per check."""

    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, detail):
        ok = bool(ok)
        print(f"[criterion {self.criterion:>2}] "
              f"{'PASS' if ok else 'FAIL'}: {detail}")
        if not ok:
            self.failures.append(detail)
        return ok

    def runtime(self, budget_s):
        elapsed = time.perf_counter() - self.t0
        self.check(elapsed < budget_s,
                   f"runtime {elapsed:.2f} s within {budget_s:.0f} s")
        return elapsed

    def finish(self, budget_s=None):
        if budget_s is not None:
            self.runtime(budget_s)
        assert not self.failures, f"criterion {self.criterion}: {self.failures}"


@pytest.fixture(scope="module")
def chain():
    return CalibrationChain(gain_db=66.0, noise_floor_w=0.44e-9, x=9.97e11)


def test_criterion_01_dispersion(params):
    gate = Gate(1)
    m1 = circuit.mode_profile(params, 0.0, 1)
    m2 = circuit.mode_profile(params, 0.0, 2)
    f1 = m1.omega / TWO_PI
    anh = (3 * m1.omega - m2.omega) / TWO_PI
    # Known failure: the two-digit rounding of the published line constants
    # shifts the absolute frequency scale by ~1.2%, past the 0.5% target.
    gate.check(abs(f1 / 5.504e9 - 1) < 0.005,
               f"f1(0) = {f1/1e9:.4f} GHz vs 5.504 GHz "
               f"({(f1/5.504e9-1)*100:+.2f}%, target 0.5%)")
    gate.check(abs(anh / 136e6 - 1) < 0.15,
               f"anharmonicity = {anh/1e6:.1f} MHz vs 136 MHz "
               f"({(anh/136e6-1)*100:+.1f}%, target 15%)")
    gate.finish(budget_s=1.0)


def test_criterion_02_damping(params):
    gate = Gate(2)
    m1 = circuit.mode_profile(params, 0.0, 1)
    lw = 2 * m1.gamma / TWO_PI
    gate.check(abs(lw / 0.38e6 - 1) < 0.05,
               f"2*Gamma1/2pi = {lw/1e6:.4f} MHz vs 0.38 MHz "
               f"({(lw/0.38e6-1)*100:+.2f}%, target 5%)")
    gate.finish(budget_s=1.0)


def test_criterion_03_kerr(params):
    gate = Gate(3)
    m1 = circuit.mode_profile(params, 0.0, 1)
    a1 = m1.alpha / TWO_PI
    gate.check(params.kerr_energy == "per_junction",
               f"energy convention switch = {params.kerr_energy!r}")
    gate.check(abs(a1 / 85e3 - 1) < 0.25,
               f"alpha1(0)/2pi = {a1/1e3:.1f} kHz vs 85 kHz "
               f"({(a1/85e3-1)*100:+.1f}%, target 25%)")
    gate.finish(budget_s=1.0)


def test_criterion_04_branches_vs_brute_force():
    gate = Gate(4)
    gamma1 = 1.93
    deltas = np.linspace(-40.0, -6.0, 50)
    vs = np.linspace(0.0, 12.0, 50)
    mismatches = 0
    count_diffs = 0
    compared = 0
    for d in deltas:
        for v in vs:
            oracle = sorted(oracle_branch_roots(d, gamma1, v, n=4001))
            lib = sorted(r for r, _ in steady.subharmonic_branches(d, gamma1, v))
            if len(oracle) != len(lib):
                count_diffs += 1
                continue
            compared += len(lib)
            for o, l in zip(oracle, lib):
                if abs(o - l) > 1e-6:
                    mismatches += 1
    gate.check(count_diffs == 0,
               f"root multiplicity agrees on all {len(deltas)*len(vs)} cells")
    gate.check(mismatches == 0,
               f"{compared} roots matched to 1e-6 against the residual scan")
    lo, hi = steady.existence_window(-20.0, 1.93)
    gate.check(abs(lo - 0.189) < 1e-3 and abs(hi - 11.24) < 1e-3,
               f"window(-20, 1.93) = ({lo:.4f}, {hi:.4f}) vs (0.189, 11.24)")
    gate.finish(budget_s=10.0)


def test_criterion_05_max_intensity():
    gate = Gate(5)
    r1m, arg = steady.max_intensity(-20.0, 1.93)
    gate.check(abs(r1m - 22.48) < 0.05,
               f"r1_max^2(-20, 1.93) = {r1m:.4f} vs 22.48 +- 0.05")
    gate.check(abs(arg / (20.0 / 14.0) - 1) < 0.05,
               f"argmax r2^2 = {arg:.4f} within 5% of |delta|/14 = "
               f"{20/14:.4f}")
    # the reported location sits on the flat top: its intensity is within
    # the same tolerance of the true grid maximum
    lo, hi = steady.existence_window(-20.0, 1.93)
    grid = np.linspace(lo, hi, 100001)
    best_v = grid[np.argmax([steady.stable_branch(-20.0, 1.93, v)
                             for v in grid])]
    gate.check(abs(steady.stable_branch(-20.0, 1.93, arg) - r1m) < 0.05,
               f"branch at reported argmax within 0.05 of the peak "
               f"(true grid argmax at r2^2 = {best_v:.3f})")
    g = 1.93
    ds = np.linspace(20.0, 200.0, 60)
    vals = np.array([steady.max_intensity(-d, g)[0] for d in ds])
    quad = np.polyfit(ds, vals, 2)
    curvature = abs(quad[0]) * (ds[-1] - ds[0]) ** 2 / vals.max()
    gate.check(curvature < 0.02,
               f"linear-growth fit over |delta| in [20, 200]: relative "
               f"curvature {curvature:.2e} < 2%")
    gate.finish(budget_s=5.0)


def test_criterion_06_stability_suite():
    gate = Gate(6)
    rng = np.random.default_rng(20260809)
    # silent state: analytic exponent at random points
    ground_ok = True
    for _ in range(50):
        g1 = float(rng.uniform(0.05, 5.0))
        pt = DimensionlessPoint(delta=float(rng.uniform(-60, 10)), Delta=1500.0,
                                gamma1=g1, gamma2=13.6, gamma2_ext=13.1,
                                beta=1.7251, alpha1=1.0)
        lam = steady.ground_eigenvalue(pt, float(rng.uniform(0.0, 20.0)))
        ground_ok &= abs(lam.real + g1) < 1e-12 * max(1.0, g1)
    gate.check(ground_ok, "silent state: Re lambda0 = -gamma1 at 50 points")

    agree = 0
    total = 0
    stable_found = unstable_found = 0
    low_v = high_v = 0
    for _ in range(100):
        delta = float(rng.uniform(-60.0, -15.0))
        gamma1 = abs(delta) / float(rng.uniform(12.0, 40.0))
        base = DimensionlessPoint(delta=delta, Delta=1500.0, gamma1=gamma1,
                                  gamma2=13.6, gamma2_ext=13.1, beta=1.7251,
                                  alpha1=1.0)
        lo, hi = steady.existence_window(delta, gamma1)
        v = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        if v < abs(delta) / 2:
            low_v += 1
        else:
            high_v += 1
        for sign in (+1, -1):
            drive = consistent_drive(base, v, root_sign=sign)
            pt = base.with_drive(drive)
            lhs, r1_sq = steady._Response(pt)(v, sign)
            theta = steady._theta_exact(delta, gamma1, r1_sq, v)
            phi2 = (pt.drive_phase - np.angle(complex(lhs))) % (2 * math.pi)
            st = steady.SteadyState(
                kind="triad", r1_sq=r1_sq, r2_sq=v, theta=theta,
                phi1=((theta + phi2) / 3.0) % (2 * math.pi), phi2=phi2,
                stable=False, eigenvalues=(), residual=0.0, root_sign=sign)
            verdict, _ = steady.stability(st, pt)
            lam_sq = steady.closed_form_lambda_sq(delta, r1_sq, v, sign)
            total += 1
            agree += (lam_sq < 0) == verdict
            if sign == +1:
                stable_found += verdict
            else:
                unstable_found += not verdict
    gate.check(stable_found == 100,
               f"upper (theta=pi, +) branch stable at {stable_found}/100 points")
    gate.check(unstable_found == 100,
               f"other sign choices unstable at {unstable_found}/100 points "
               f"({low_v} theta-near-0 cells, {high_v} theta-near-pi cells)")
    gate.check(agree == total,
               f"closed-form exponent sign vs numeric Jacobian: "
               f"{agree}/{total} agreement")
    gate.finish(budget_s=10.0)


def test_criterion_07_phase_portrait_point(params):
    gate = Gate(7)
    pt = circuit.device_point(params, 0.0, delta1=-TWO_PI * 12e6,
                              drive_b2=math.sqrt(6.25e10))
    states = steady.solve_selfconsistent(pt, all_branches=True)
    stable = [s for s in states if s.stable]
    kinds = sorted(s.kind for s in stable)
    gate.check(kinds == ["ground", "triad", "triad", "triad"],
               f"exactly 4 stable attractors: {kinds}")
    phis = sorted(s.phi1 for s in stable if s.kind == "triad")
    ok = (abs(phis[1] - phis[0] - 2 * math.pi / 3) < 1e-9
          and abs(phis[2] - phis[1] - 2 * math.pi / 3) < 1e-9)
    gate.check(ok, f"triad phases pairwise 2pi/3 within 1e-9: "
                   f"{[round(p, 6) for p in phis]}")

    system = TwoModeSystem.from_point(pt)
    refs = [s.amplitudes(pt)[0] for s in stable]
    rng = np.random.default_rng(77)
    n = 100
    r1 = math.sqrt(max(s.r1_sq for s in stable))
    a10 = (rng.uniform(-1.5 * r1, 1.5 * r1, n)
           + 1j * rng.uniform(-1.5 * r1, 1.5 * r1, n))
    dt = dynamics.suggested_timestep(system, (1.5 * r1) ** 2, 20.0)
    duration = 12e-6
    traj = dynamics.integrate(system, (a10, np.zeros(n, complex)),
                              duration=duration, dt=dt,
                              store_every=int(round(duration / dt)))
    ends = traj.a1[-1]
    dists = np.array([min(abs(z - r) for r in refs) for z in ends])
    hit = {int(np.argmin([abs(z - r) for r in refs])) for z in ends}
    gate.check(dists.max() < 1e-3,
               f"100 basin samples all terminate on the attractors "
               f"(max distance {dists.max():.2e})")
    gate.check(len(hit) == 4, f"every attractor reached: {sorted(hit)}")
    gate.finish(budget_s=60.0)


def test_criterion_08_photon_power():
    gate = Gate(8)
    omega = TWO_PI * 5.504e9
    p = cal.output_power(100.0, omega / (2 * 19e3), 66.0, omega)
    gate.check(2.1e-9 < p < 3.1e-9,
               f"output_power(100 photons) = {p*1e9:.3f} nW in [2.1, 3.1] nW")
    gate.finish(budget_s=1.0)


def test_criterion_09_fit(params, chain):
    gate = Gate(9)
    x0 = 1e12
    cuts = synthetic_linecuts(params, chain, x0, [-4e6, -8e6, -12e6],
                              noise=0.01, seed=42)
    res = cal.fit_x(cuts, params, chain)
    gate.check(abs(res.x / x0 - 1) < 0.02,
               f"recovered X = {res.x:.4e} vs {x0:.1e} "
               f"({(res.x/x0-1)*100:+.2f}%, target 2%)")

    # shape of the modeled linecut in dB units, observed above the floor
    co = circuit.at_flux(params, 0.0)
    d1 = -TWO_PI * 8e6
    window = steady.existence_window(d1 / co.mode1.alpha,
                                     co.mode1.gamma / co.mode1.alpha)
    per_watt = cal.pump_intensity(1.0, chain.x, co, d1)
    pd = np.geomspace(0.3 * window[0] / per_watt, 1.05 * window[1] / per_watt,
                      40)
    model = cal._linecut_model(pd, chain.x, co, d1, chain.gain_db)
    observed = np.maximum(model, chain.noise_floor_w)
    po_db = 10 * np.log10(observed / 1e-3)
    pd_db = 10 * np.log10(pd / 1e-3)
    slopes = np.diff(po_db) / np.diff(pd_db)
    peak = int(np.argmax(po_db))
    above = np.nonzero(model > chain.noise_floor_w)[0]
    onset = float(np.max(slopes[:peak])) if peak > 0 else math.inf
    decay = float(np.median(np.abs(slopes[peak:above[-1]])))
    gate.check(onset > 5 * decay,
               f"onset slope {onset:.2f} dB/dB > 5x decay slope "
               f"{decay:.3f} dB/dB")
    gate.finish(budget_s=10.0)


def test_criterion_10_threshold_vs_flux(params, chain):
    gate = Gate(10)
    small_flux_ok = True
    worst = ""
    for flux in (0.0, 0.15, 0.3):
        m1 = circuit.mode_profile(params, flux, 1)
        true_th = steady.THRESHOLD_FACTOR * m1.gamma
        got = cal.visible_threshold(params, flux, chain)
        rel = abs(-got / true_th - 1)
        if rel > 1e-6:
            small_flux_ok = False
            worst = (f"flux {flux}: visible {got/TWO_PI/1e6:.3f} MHz vs true "
                     f"{-true_th/TWO_PI/1e6:.3f} MHz")
    # Known failure: the quoted noise floor corresponds to ~17 photons while
    # the threshold-point intensity is ~2 photons, so the noise-limited
    # branch dominates at every flux with this chain.
    gate.check(small_flux_ok,
               f"visible threshold equals -sqrt(7)*Gamma1 for |flux| <= 0.3 "
               f"({worst or 'all matched'})")
    fluxes = np.linspace(0.35, 0.44, 10)
    ths = np.array([-cal.visible_threshold(params, f, chain) for f in fluxes])
    gate.check(bool(np.all(np.diff(ths) > 0)),
               f"threshold magnitude grows monotonically beyond 0.35 flux "
               f"quanta ({ths[0]/TWO_PI/1e6:.2f} -> {ths[-1]/TWO_PI/1e6:.2f}"
               f" MHz)")
    gate.finish(budget_s=5.0)


def _demod_cluster_stats(traj, fs, stable_states, point, radius=1.3,
                         midpoint_radius=0.5, exclusion=1.2):
    """Window means classified against the stable states.

    Returns per-state window counts, triad centroid phases, and the number
    of means lying near the midpoints of inter-state segments (the
    signature of windows averaging two dwell intervals together) while
    staying well clear of every state.
    """
    means = dynamics.boxcar_demodulate(traj, fs)
    refs = np.asarray([s.amplitudes(point)[0] for s in stable_states])
    d = np.abs(means[:, None] - refs[None, :])
    idx = np.argmin(d, axis=1)
    near = d[np.arange(len(means)), idx] < radius
    counts = np.bincount(idx[near], minlength=len(refs))
    phases = {}
    for k, s in enumerate(stable_states):
        if s.kind != "triad":
            continue
        sel = means[near & (idx == k)]
        if len(sel) > 3:
            phases[k] = float(np.angle(np.mean(sel)))
    mids = np.asarray([(refs[i] + refs[j]) / 2.0
                       for i in range(len(refs))
                       for j in range(i + 1, len(refs))])
    clear = np.all(d >= exclusion, axis=1)
    on_line = int(np.sum(
        clear & (np.min(np.abs(means[:, None] - mids[None, :]), axis=1)
                 < midpoint_radius)))
    return means, counts, phases, on_line


def test_criterion_11_histogram_phenomenology():
    gate = Gate(11)
    warnings.simplefilter("ignore")
    base = DimensionlessPoint(delta=-8.0, Delta=40.0, gamma1=1.0, gamma2=4.0,
                              gamma2_ext=3.6, beta=1.0, alpha1=1.0)

    def ensemble(v, n_th, duration, dt, seed, members=12):
        pt = base.with_drive(consistent_drive(base, v))
        stable = [s for s in steady.solve_selfconsistent(pt) if s.stable]
        triads = [s for s in stable if s.kind == "triad"]
        inits1 = np.array([triads[j % 3].amplitudes(pt)[0]
                           for j in range(members)])
        inits2 = np.array([triads[j % 3].amplitudes(pt)[1]
                           for j in range(members)])
        system = TwoModeSystem.from_point(pt)
        noise = NoiseConfig(d1=base.gamma1 * n_th, d2=base.gamma2 * n_th)
        traj = dynamics.integrate(system, (inits1, inits2), duration=duration,
                                  dt=dt, noise=noise, seed=seed, store_every=4)
        return pt, stable, triads, traj

    # --- region II: clusters at fast sampling, lines at slow sampling
    pt, stable, triads, traj = ensemble(v=1.5, n_th=0.15, duration=1000.0,
                                        dt=6e-4, seed=2024, members=40)
    refs = [s.amplitudes(pt)[0] for s in stable]
    stats = dynamics.switching_rate(traj, refs, classify_radius=1.0)
    # the fast window averages several noise correlation times but stays
    # far below the dwell time; the slow one approaches the dwell time,
    # which is what smears counts onto the connecting segments
    fs_fast = 1.0 / 3.0
    fs_slow = fs_fast / 10.0
    gate.check(fs_fast > 15 * stats.rate,
               f"fast sampling {fs_fast:.3f} well above the switching rate "
               f"{stats.rate:.4f} ({fs_fast/max(stats.rate, 1e-9):.0f}x)")
    means, counts, phases, line_fast = _demod_cluster_stats(
        traj, fs_fast, stable, pt)
    triad_counts = [counts[k] for k, s in enumerate(stable)
                    if s.kind == "triad"]
    gate.check(len(phases) == 3 and min(triad_counts) > 100,
               f"three excited clusters occupied at fast sampling "
               f"(window counts {[int(c) for c in triad_counts]})")
    ph = sorted(phases.values())
    gaps = [ph[1] - ph[0], ph[2] - ph[1], 2 * math.pi - (ph[2] - ph[0])]
    gap_err = max(abs(g - 2 * math.pi / 3) for g in gaps)
    gate.check(gap_err < 0.05,
               f"centroid phases pairwise 2pi/3 apart (max error "
               f"{gap_err:.4f} rad)")
    means_s, _, _, line_slow = _demod_cluster_stats(traj, fs_slow, stable, pt)
    frac_fast = line_fast / len(means)
    frac_slow = line_slow / len(means_s)
    gate.check(line_slow >= 20 and frac_slow > 2 * frac_fast,
               f"connecting-line counts appear at tenfold slower sampling "
               f"(fraction {frac_slow:.3f} vs {frac_fast:.3f}, "
               f"{line_slow} windows)")

    # --- region II/III border: all four states and star transitions
    ptb, stableb, _, trajb = ensemble(v=0.32, n_th=0.7, duration=300.0,
                                      dt=5e-4, seed=777)
    refsb = [s.amplitudes(ptb)[0] for s in stableb]
    statsb = dynamics.switching_rate(trajb, refsb, classify_radius=1.0)
    kindsb = [s.kind for s in stableb]
    g = kindsb.index("ground")
    tm = statsb.transitions
    star = int(tm[g, :].sum() + tm[:, g].sum())
    tri = int(tm.sum() - star)
    _, counts_b, _, _ = _demod_cluster_stats(trajb, 5.0, stableb, ptb)
    gate.check(len(counts_b) == 4 and min(counts_b) >= 10,
               f"four clusters occupied at the border (window counts "
               f"{counts_b.tolist()})")
    gate.check(star >= 50 and star > 5 * tri,
               f"border transitions ground<->excited dominated: star={star} "
               f"vs excited<->excited={tri}")
    gate.finish(budget_s=300.0)


def test_criterion_12_response_branch_structure():
    gate = Gate(12)
    small = DimensionlessPoint(delta=-20.0, Delta=50.0, gamma1=0.10,
                               gamma2=0.71, gamma2_ext=0.69, beta=1.7251,
                               alpha1=1.0)
    counts = []
    for b2 in np.linspace(0.02, 6.0, 300):
        counts.append(len(steady.second_mode_response(small.with_drive(b2))))
    gate.check(max(counts) >= 3,
               f"back-bending at Delta=50: up to {max(counts)} coexisting "
               f"roots over the drive scan")
    n_multi = sum(c >= 3 for c in counts)
    gate.check(n_multi >= 5,
               f"multivalued over a finite drive segment ({n_multi} of "
               f"{len(counts)} scan points)")
    big = DimensionlessPoint(delta=-20.0, Delta=1500.0, gamma1=1.93,
                             gamma2=13.6, gamma2_ext=13.1, beta=1.7251,
                             alpha1=1.0)
    single = all(len(steady.second_mode_response(big.with_drive(b2))) == 1
                 for b2 in np.linspace(0.5, 3000.0, 300))
    gate.check(single, "single-valued response at Delta=1500 above small "
                       "drives")
    gate.finish(budget_s=10.0)
