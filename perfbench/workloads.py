"""The four benchmark workloads: seeded inputs, timed calls and oracles.

Each workload builds its static inputs in ``__init__`` (that is the set-up
the benchmark times) and then runs rounds of a fixed size.  ``inputs(r)``
draws round ``r`` from the seed, ``run`` makes the timed calls and returns
one :class:`Op` per operation, and ``check`` is the oracle for one
operation: it raises :class:`Mismatch` when the output is wrong.  Oracles
run after the timed phase, so their cost is not part of any timing.

Only public tripler names are used, so the benchmark keeps running while
the program's internals are rewritten.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tripler import calibration, circuit, config, dynamics, io, steady

import forward as fw

TWO_PI = 2.0 * math.pi
STATIONARY_TOL = 1e-9

#: chain constants of the README run configuration
GAIN_DB = 66.0
NOISE_FLOOR_W = 4.4e-10

#: generating chain parameter of the synthetic linecuts, drawn log-uniformly
X_RANGE = (5e11, 2e12)
LINECUT_NOISE = 0.01
FIT_TOL = 0.02

CHILD_TIMEOUT_S = 120.0


class Mismatch(Exception):
    """An oracle found a wrong output."""


class Op:
    """One timed operation: id, inputs, result or error, start and duration."""

    __slots__ = ("op_id", "inputs", "result", "error", "start", "seconds")

    def __init__(self, op_id, inputs, result, error, start, seconds):
        self.op_id = op_id
        self.inputs = inputs
        self.result = result
        self.error = error
        self.start = start
        self.seconds = seconds


def timed(op_id, inputs, fn, observer=None):
    """Run ``fn`` once, timing it; an exception becomes the op's error.

    ``observer.start_op(op_id)`` runs first, outside the timing: the tracer
    tags its spans with the id, the speed probe may time its kernel.
    """
    if observer is not None:
        observer.start_op(op_id)
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # every raise is a failed operation, not a crash
        result, error = None, exc
    return Op(op_id, inputs, result, error, t0, time.perf_counter() - t0)


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def _round_rng(seed, r):
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def _stratified(rng, n):
    """n samples in [0, 1), one in each of n equal strata, in random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _check_stationary(point, states):
    """Residual of every state and the 2 pi/3 spacing of every triad."""
    for st in states:
        u1, u2 = fw.state_amplitudes(point, st)
        res = max(abs(z) for z in fw.reduced_flow(point, u1, u2))
        _require(res <= STATIONARY_TOL,
                 f"{st.kind} branch {st.branch} residual {res:.3g} > "
                 f"{STATIONARY_TOL:g}")
    triads = {}
    for st in states:
        if st.kind == "triad":
            triads.setdefault(st.branch, []).append(st.phi1)
    for branch, phis in triads.items():
        _require(len(phis) == 3, f"triad branch {branch} has {len(phis)} copies")
        phis = sorted(p % TWO_PI for p in phis)
        gaps = (phis[1] - phis[0], phis[2] - phis[1], TWO_PI + phis[0] - phis[2])
        err = max(abs(g - TWO_PI / 3.0) for g in gaps)
        _require(err <= 1e-9, f"triad branch {branch} phase gaps off by {err:.3g}")
    return sum(len(p) for p in triads.values())


class Workload:
    """Common round bookkeeping; subclasses draw inputs, run and check."""

    min_rounds = 1
    #: whether ``run`` computes in this process (else in child processes)
    in_process = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self._first = None

    def draw(self, r):
        raise NotImplementedError

    def inputs(self, r):
        """Inputs of round ``r``; round 0 is drawn during set-up."""
        if r > 0:
            return self.draw(r)
        if self._first is None:
            self._first = self.draw(0)
        return self._first

    def latency_metrics(self, ops):
        return {}

    def layer_facts(self):
        return {}

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# steady-map


class SteadyMap(Workload):
    """Self-consistent solves with all branches over seeded operating points.

    Each round holds 25 points: flux cycles over three values (so a per-flux
    cache would hit), detuning and drive are stratified so that every round
    has the same mix of points with and without excited states.
    """

    name = "steady-map"
    points_per_round = 25
    min_rounds = 4          # at least 100 points per run
    fluxes = (0.0, 0.15, 0.3)
    delta1_hz = (-20e6, -2e6)
    b2_sq_log10 = (9.0, 12.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = circuit.reference_params()
        self.triad_states = 0
        self.points_without_triads = 0
        self.inputs(0)

    def draw(self, r):
        rng = _round_rng(self.seed, r)
        n = self.points_per_round
        d_lo, d_hi = self.delta1_hz
        b_lo, b_hi = self.b2_sq_log10
        d1 = d_lo + (d_hi - d_lo) * _stratified(rng, n)
        b2 = 10.0 ** (b_lo + (b_hi - b_lo) * _stratified(rng, n))
        return [{"flux": self.fluxes[k % 3], "delta1_hz": float(d1[k]),
                 "b2_sq": float(b2[k])} for k in range(n)]

    def run(self, inputs, r, observer=None):
        ops = []
        for k, p in enumerate(inputs):
            def call(p=p):
                point = circuit.device_point(
                    self.params, p["flux"], TWO_PI * p["delta1_hz"],
                    drive_b2=math.sqrt(p["b2_sq"]))
                return point, steady.solve_selfconsistent(point, all_branches=True)
            ops.append(timed(f"{self.name}:r{r}:p{k}", p, call, observer))
        return ops

    def check(self, op):
        point, states = op.result
        _require(any(s.kind == "ground" for s in states), "no silent state")
        n_triad = _check_stationary(point, states)
        self.triad_states += n_triad
        self.points_without_triads += n_triad == 0

    def latency_metrics(self, ops):
        return _percentiles_ms("solve", [op.seconds for op in ops])

    def facts(self):
        return {"points_per_round": self.points_per_round,
                "triad_states": self.triad_states,
                "points_without_triads": self.points_without_triads}


# ---------------------------------------------------------------------------
# flux-calibration


class FluxCalibration(Workload):
    """Per flux point: spectrum row, threshold, peak outputs, region map, fit.

    Every flux value in a run is distinct (stratified over [0, 0.44]), so
    only reuse within one point can pay off.  The three fit linecuts sit at
    detunings where the forward model puts the peak output at 2, 4 and 8
    times the noise floor, so they carry signal at every flux.
    """

    name = "flux-calibration"
    points_per_round = 25
    min_rounds = 4          # at least 100 flux points per run
    flux_max = 0.44
    peak_over_floor = (2.0, 4.0, 8.0)
    threshold_multiples = (1.5, 3.0, 6.0)
    map_shape = (60, 80)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = circuit.reference_params()
        self.inputs(0)

    def _chain(self, x):
        return calibration.CalibrationChain(gain_db=GAIN_DB,
                                            noise_floor_w=NOISE_FLOOR_W, x=x)

    def _fit_detunings(self, m1):
        """Fit detunings (rad/s): peak output at each multiple of the floor.

        Inverts r1max = (4/7)(a + sqrt(a^2 - 7 g^2)) for a = |delta|:
        a = (s^2 + 7 g^2) / (2 s) with s = 7 r1max / 4.
        """
        g = m1.gamma / m1.alpha
        per_photon = float(calibration.output_power(1.0, m1.gamma_ext, GAIN_DB,
                                                    m1.omega))
        out = []
        for mult in self.peak_over_floor:
            s = 1.75 * mult * NOISE_FLOOR_W / per_photon
            a = max((s * s + 7.0 * g * g) / (2.0 * s), 2.0 * math.sqrt(7.0) * g)
            out.append(-a * m1.alpha)
        return out

    def draw(self, r):
        rng = _round_rng(self.seed, r)
        fluxes = self.flux_max * _stratified(rng, self.points_per_round)
        lx_lo, lx_hi = (math.log10(v) for v in X_RANGE)
        out = []
        for flux in fluxes:
            flux = float(flux)
            x = 10.0 ** rng.uniform(lx_lo, lx_hi)
            m1, _ = fw.modes(self.params, flux)
            cuts = [fw.synthetic_linecut(self.params, flux, d1, x, GAIN_DB,
                                         LINECUT_NOISE, rng)
                    for d1 in self._fit_detunings(m1)]
            out.append({"flux": flux, "x": x, "linecuts": cuts})
        return out

    def run(self, inputs, r, observer=None):
        d1_grid = TWO_PI * np.linspace(-20e6, -1e6, self.map_shape[0])
        pd_grid = calibration.dbm_to_watt(np.linspace(-40.0, 0.0,
                                                      self.map_shape[1]))
        ops = []
        for k, p in enumerate(inputs):
            def call(p=p):
                flux = p["flux"]
                chain = self._chain(p["x"])
                m1 = circuit.mode_profile(self.params, flux, 1)
                m2 = circuit.mode_profile(self.params, flux, 2)
                th = calibration.visible_threshold(self.params, flux, chain)
                bare = math.sqrt(7.0) * m1.gamma
                peaks = [(-mult * bare, calibration.predict_max_output(
                    self.params, flux, -mult * bare, chain))
                    for mult in self.threshold_multiples]
                rmap = calibration.region_map(self.params, flux, chain,
                                              d1_grid, pd_grid)
                fit = calibration.fit_x(p["linecuts"], self.params, chain)
                return m1, m2, th, peaks, rmap, fit
            inp = {"flux": p["flux"], "x": p["x"]}
            ops.append(timed(f"{self.name}:r{r}:f{k}", inp, call, observer))
        return ops

    def check(self, op):
        m1, m2, th, peaks, rmap, fit = op.result
        flux, x = op.inputs["flux"], op.inputs["x"]
        chain = self._chain(x)
        _require(m1.omega < m2.omega, "mode 2 below mode 1")
        bare = math.sqrt(7.0) * m1.gamma
        _require(th < 0 and abs(th) >= bare * (1.0 - 1e-12),
                 f"threshold {th:.6g} shallower than sqrt(7) Gamma1 {bare:.6g}")
        if abs(th) > bare * (1.0 + 1e-9):   # noise limited
            at_th = calibration.predict_max_output(self.params, flux, th, chain)
            rel = abs(at_th / NOISE_FLOOR_W - 1.0)
            _require(rel <= 1e-6, f"peak at the noise-limited threshold is "
                                  f"{rel:.3g} off the floor")
        for d1, peak in peaks:
            delta, g = d1 / m1.alpha, m1.gamma / m1.alpha
            r1max = 4.0 / 7.0 * (-delta + math.sqrt(delta * delta - 7.0 * g * g))
            want = float(calibration.output_power(0.7 * r1max, m1.gamma_ext,
                                                  GAIN_DB, m1.omega + d1))
            _require(abs(peak / want - 1.0) <= 1e-9,
                     f"peak output {peak:.6g} W at {d1:.4g} rad/s, "
                     f"closed form {want:.6g} W")
        self._check_region_map(m1, m2, x, rmap)
        _require(abs(fit.x / x - 1.0) <= FIT_TOL,
                 f"fitted x {fit.x:.6g} vs generating {x:.6g}")

    def _check_region_map(self, m1, m2, x, rmap):
        _require(rmap.labels.shape == self.map_shape, "region map shape")
        g = m1.gamma / m1.alpha
        for i, d1 in enumerate(rmap.delta1):
            window = steady.existence_window(d1 / m1.alpha, g)
            labels = rmap.labels[i]
            if window is None:
                _require(np.all(labels == "I"), f"cells exist above threshold "
                                                f"at {d1:.4g} rad/s")
                continue
            v = fw.pump_intensity(rmap.pd_w, x, m1, m2, d1)
            inside = (v > window[0]) & (v < window[1])
            edge = np.minimum(abs(v / window[0] - 1.0), abs(v / window[1] - 1.0))
            bad = (inside != (labels == "exists")) & (edge > 1e-9)
            _require(not bad.any(), f"{int(bad.sum())} region cells disagree "
                                    f"with the window at {d1:.4g} rad/s")
            _require(np.isfinite(rmap.boundary_pd_w[i]), "boundary missing")

    def latency_metrics(self, ops):
        return _percentiles_ms("flux_point", [op.seconds for op in ops])

    def facts(self):
        return {"points_per_round": self.points_per_round,
                "linecuts_per_point": len(self.peak_over_floor),
                "region_map_shape": list(self.map_shape)}


# ---------------------------------------------------------------------------
# attractor-ensemble


class AttractorEnsemble(Workload):
    """Basin ensemble (RK4), noisy ensemble (Euler-Maruyama), IQ statistics, I/O.

    The reduced region-II point of acceptance criterion 11, in units where
    alpha1 = 1 so that times are in 1/alpha1.  Both time steps come from
    ``suggested_timestep`` at twice the largest stationary occupation.
    """

    name = "attractor-ensemble"
    min_rounds = 1
    rk4_members = 100
    rk4_duration = 15.0
    rk4_store_every = 8
    em_members = 40
    em_duration = 30.0
    em_store_every = 16
    n_th = 0.15
    fs_fast = 1.0 / 3.0
    fs_slow = 1.0 / 30.0
    bins = 101
    classify_radius = 1.0
    attractor_tol = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base = steady.DimensionlessPoint(delta=-8.0, Delta=40.0, gamma1=1.0,
                                         gamma2=4.0, gamma2_ext=3.6, beta=1.0,
                                         alpha1=1.0)
        self.point = base.with_drive(fw.consistent_drive(base, 1.5))
        states = steady.solve_selfconsistent(self.point)
        self.stable = [fw.state_amplitudes(self.point, s)
                       for s in states if s.stable]
        self.triads = [fw.state_amplitudes(self.point, s)
                       for s in states if s.stable and s.kind == "triad"]
        if len(self.stable) != 4 or len(self.triads) != 3:
            raise RuntimeError(f"expected 4 stable states at the region-II "
                               f"point, got {len(self.stable)}")
        self.system = dynamics.TwoModeSystem.from_point(self.point)
        n1 = 2.0 * max(abs(u1) ** 2 for u1, _ in self.stable)
        n2 = 2.0 * max(abs(u2) ** 2 for _, u2 in self.stable)
        self.dt_rk4 = dynamics.suggested_timestep(self.system, n1, n2)
        self.dt_em = dynamics.suggested_timestep(self.system, n1, n2,
                                                 stochastic=True)
        self.noise = dynamics.NoiseConfig.thermal(self.system, self.n_th)
        # starting points stay inside the occupation the time steps allow for
        self.rk4_radius = math.sqrt(n1)
        self.inputs(0)

    def draw(self, r):
        rng = _round_rng(self.seed, r)
        m = self.rk4_members
        rad = self.rk4_radius * np.sqrt(rng.random(m))
        a1 = rad * np.exp(1j * TWO_PI * rng.random(m))
        return {"rk4_a1": a1, "em_seed": int(rng.integers(2**31))}

    def run(self, inputs, r, observer=None):
        sysm, tag = self.system, f"{self.name}:r{r}"
        ops = []

        def op(name, inp, fn):
            o = timed(f"{tag}:{name}", inp, fn, observer)
            ops.append(o)
            return o.result

        a1 = inputs["rk4_a1"]
        rk4 = op("rk4", {"start_a1": a1}, lambda: dynamics.integrate(
            sysm, (a1, np.zeros_like(a1)), duration=self.rk4_duration,
            dt=self.dt_rk4, store_every=self.rk4_store_every))
        e1 = np.array([self.triads[j % 3][0] for j in range(self.em_members)])
        e2 = np.array([self.triads[j % 3][1] for j in range(self.em_members)])
        em = op("em", {"members": self.em_members, "seed": inputs["em_seed"]},
                lambda: dynamics.integrate(
                    sysm, (e1, e2), duration=self.em_duration, dt=self.dt_em,
                    noise=self.noise, seed=inputs["em_seed"],
                    store_every=self.em_store_every))
        hists = {}
        for label, fs in (("fast", self.fs_fast), ("slow", self.fs_slow)):
            hists[label] = op(f"demod_{label}", {"fs": fs},
                              lambda fs=fs: (em, dynamics.demodulate_histogram(
                                  em, fs, bins=self.bins)))
        refs = [u1 for u1, _ in self.stable]
        op("switching", {"radius": self.classify_radius},
           lambda: (em, dynamics.switching_rate(em, refs, self.classify_radius)))
        for label, traj in (("rk4", rk4), ("em", em)):
            n = self.rk4_members if label == "rk4" else self.em_members
            for j in range(n):
                path = self.workdir / f"{label}_{j:03d}.trpl"

                def roundtrip(traj=traj, j=j, path=path):
                    member = traj.member(j)
                    io.write_trajectory(path, member)
                    return member, io.read_trajectory(path)
                op(f"trpl_{label}{j}", {"member": j}, roundtrip)

        def csv_roundtrip():
            member = em.member(0)
            path = self.workdir / "em_000.csv"
            io.write_trajectory_csv(path, member)
            return member, io.read_trajectory_csv(path)
        op("trajectory_csv", {"member": 0}, csv_roundtrip)

        def hist_roundtrip():
            hist = hists["fast"][1]
            path = self.workdir / "histogram_fast.csv"
            io.write_histogram_csv(path, hist)
            return hist, io.read_histogram_csv(path)
        op("histogram_csv", {"fs": self.fs_fast}, hist_roundtrip)
        return ops

    def check(self, op):
        kind = op.op_id.rsplit(":", 1)[1]
        if kind == "rk4":
            self._check_finite(op.result)
            for j in range(op.result.a1.shape[1]):
                b1, b2 = op.result.a1[-1, j], op.result.a2[-1, j]
                dist = min(max(abs(b1 - u1), abs(b2 - u2))
                           for u1, u2 in self.stable)
                _require(dist <= self.attractor_tol,
                         f"member {j} ends {dist:.3g} from every attractor "
                         f"(start a1 = {op.inputs['start_a1'][j]:.6g})")
        elif kind == "em":
            self._check_finite(op.result)
        elif kind.startswith("demod_"):
            traj, hist = op.result
            w = max(int(round(1.0 / (op.inputs["fs"] * traj.dt))), 1)
            want = traj.a1.shape[1] * (traj.a1.shape[0] // w)
            _require(int(hist.counts.sum()) == want,
                     f"histogram holds {int(hist.counts.sum())} windows, "
                     f"expected {want}")
        elif kind == "switching":
            traj, stats = op.result
            total = traj.a1.size
            _require(math.isfinite(stats.rate) and stats.rate >= 0.0,
                     f"switching rate {stats.rate}")
            _require(int(stats.occupancy.sum()) + stats.n_transit == total,
                     "occupancy plus transit does not cover every sample")
            changes = stats.rate * traj.duration * traj.a1.shape[1]
            _require(abs(changes - int(stats.transitions.sum())) <= 1e-6 * total,
                     "transition matrix disagrees with the rate")
        elif kind.startswith("trpl_") or kind == "trajectory_csv":
            a, b = op.result
            _require(a.a1.tobytes() == b.a1.tobytes()
                     and a.a2.tobytes() == b.a2.tobytes(), "samples changed")
            _require((a.dt, a.seed, a.drive_b2, a.drive_phase)
                     == (b.dt, b.seed, b.drive_b2, b.drive_phase),
                     "header fields changed")
        elif kind == "histogram_csv":
            a, b = op.result
            _require(np.array_equal(a.counts, b.counts), "counts changed")
            _require(np.array_equal(a.i_edges, b.i_edges)
                     and np.array_equal(a.q_edges, b.q_edges), "edges changed")

    @staticmethod
    def _check_finite(traj):
        _require(np.all(np.isfinite(traj.a1)) and np.all(np.isfinite(traj.a2)),
                 "non-finite samples")

    def layer_facts(self):
        return {"dynamics.dt_em_over_rk4": self.dt_em / self.dt_rk4}

    def facts(self):
        return {"rk4_members": self.rk4_members, "em_members": self.em_members,
                "rk4_steps": int(round(self.rk4_duration / self.dt_rk4)),
                "em_steps": int(round(self.em_duration / self.dt_em)),
                "dt_rk4": self.dt_rk4, "dt_em": self.dt_em}


# ---------------------------------------------------------------------------
# cli-session

README_RUN_JSON = """\
{
  "device": "device.cfg",
  "out": "results",
  "seed": 7,
  "chain": {"gain_db": 66.0, "noise_floor_w": 4.4e-10, "x": 9.97e11},
  "spectrum":   {"flux": [0.0, 0.45, 46]},
  "steady":     {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10},
  "sweep":      {"flux": 0.0, "delta1_hz": [-10e6, -1e6, 40],
                 "pd_dbm": [-40, 0, 60]},
  "simulate":   {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
                 "duration_s": 4e-7, "dt_s": 2e-11, "store_every": 100,
                 "noise_n_th": 0.1, "fs_hz": [2.5e7], "bins": 101},
  "thresholds": {"flux": [0.0, 0.44, 45]}
}
"""


def run_child(argv, cwd, env, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion: exit code, stdout, stderr and rusage.

    The child is reaped with ``wait4`` so that its own peak memory is known,
    and killed if it outlives ``timeout``.  Its stderr goes through a file in
    ``cwd``, so neither pipe can fill up and stall it.
    """
    err_path = Path(cwd) / ".child_stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_text = err_path.read_bytes().decode(errors="replace")
    err_path.unlink()
    return proc.returncode, out.decode(), err_text, usage


class CliSession(Workload):
    """The README workflow: six ``python -m tripler`` processes per round.

    Every round runs the same files, so every artifact must come out
    byte-identical to the first round's.
    """

    name = "cli-session"
    min_rounds = 2          # the determinism check needs a second round
    in_process = False
    commands = ("spectrum", "steady", "sweep", "simulate", "fit", "thresholds")
    linecut_delta1_hz = (-4e6, -8e6, -12e6)

    def __init__(self, seed, workdir):
        import tripler

        super().__init__(seed, workdir)
        # children import the same tripler as this process
        self.env = dict(os.environ, TMPDIR=str(self.workdir),
                        PYTHONPATH=str(Path(tripler.__file__).parent.parent))
        (self.workdir / "run.json").write_text(README_RUN_JSON, encoding="utf-8")
        params = circuit.reference_params()
        (self.workdir / "device.cfg").write_text(
            config.dump_device_config(params), encoding="utf-8")
        rng = _round_rng(seed, 0)
        lx_lo, lx_hi = (math.log10(v) for v in X_RANGE)
        self.x = 10.0 ** rng.uniform(lx_lo, lx_hi)
        self.linecuts = []
        for dhz in self.linecut_delta1_hz:
            lc = fw.synthetic_linecut(params, 0.0, TWO_PI * dhz, self.x, GAIN_DB,
                                      LINECUT_NOISE, rng)
            name = f"cut_{abs(dhz) / 1e6:.0f}MHz.csv"
            io.write_linecut_csv(self.workdir / name,
                                 calibration.watt_to_dbm(lc.pd_w), lc.pout_w,
                                 {"delta1_rad_s": lc.delta1, "flux_frac": 0.0})
            self.linecuts.append(name)
        self.first_hashes = {}
        self.hashes = {}
        self.child_max_rss_kib = 0
        self.inputs(0)

    def draw(self, r):
        return self.commands

    def _argv(self, command):
        argv = ["--config", "run.json", command]
        return argv + self.linecuts if command == "fit" else argv

    def run(self, inputs, r, observer=None):
        ops = []
        for command in inputs:
            def call(command=command):
                code, out, err, usage = run_child(
                    [sys.executable, "-m", "tripler", *self._argv(command)],
                    self.workdir, self.env)
                self.child_max_rss_kib = max(self.child_max_rss_kib,
                                             usage.ru_maxrss)
                return code, out.split(), err[-400:]
            ops.append(timed(f"{self.name}:r{r}:{command}",
                             {"command": command}, call, observer))
        return ops

    def run_inprocess(self, inputs, r, observer=None):
        """The same round through ``tripler.cli.main`` inside this process."""
        from tripler import cli

        ops = []
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for command in inputs:
                def call(command=command):
                    out = _stdio.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(self._argv(command))
                    return code, out.getvalue().split(), ""
                ops.append(timed(f"{self.name}:r{r}:{command}",
                                 {"command": command, "in_process": True},
                                 call, observer))
        finally:
            os.chdir(cwd)
        return ops

    def check(self, op):
        code, paths, err = op.result
        command = op.inputs["command"]
        _require(code == 0, f"exit code {code}: {err.strip()}")
        _require(paths, "no artifact reported")
        for rel in paths:
            path = self.workdir / rel
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.first_hashes.setdefault(rel, digest)
            self.hashes[rel] = digest
            _require(digest == first, f"{rel} differs from the first round")
        results = self.workdir / "results"
        if command == "steady":
            doc = json.loads((results / "steady.json").read_text())
            states = doc["states"]
            _require(len(states) == 4 and all(s["stable"] for s in states),
                     f"steady.json holds {len(states)} states, "
                     f"{sum(s['stable'] for s in states)} stable; expected 4 stable")
        elif command == "fit":
            x = json.loads((results / "fit_report.json").read_text())["x"]
            _require(abs(x / self.x - 1.0) <= FIT_TOL,
                     f"fitted x {x:.6g} vs generating {self.x:.6g}")

    def latency_metrics(self, ops):
        out = {}
        for command in self.commands:
            times = [op.seconds for op in ops if op.inputs["command"] == command]
            if times:
                out[f"cli.{command}_s"] = statistics.median(times)
        return out

    def peak_rss_kib(self):
        return self.child_max_rss_kib

    def facts(self):
        return {"commands": list(self.commands), "linecuts": self.linecuts,
                "generating_x": self.x, "artifact_sha256": self.hashes}


def _percentiles_ms(prefix, seconds):
    ms = [1e3 * s for s in seconds]
    q = statistics.quantiles(ms, n=10, method="inclusive")
    return {f"{prefix}_p50_ms": statistics.median(ms), f"{prefix}_p90_ms": q[8]}


WORKLOADS = {cls.name: cls for cls in
             (CliSession, SteadyMap, FluxCalibration, AttractorEnsemble)}
