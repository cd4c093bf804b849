"""Time-domain integration of the two-mode equations with optional noise.

The quasiclassical amplitudes evolve under

    da1/dt = i*(delta1 + alpha1*|a1|^2 + 2*alpha_x*|a2|^2)*a1 - Gamma1*a1
             + i*alpha_t*conj(a1)^2*a2
    da2/dt = i*(delta2 + alpha2*|a2|^2 + 2*alpha_x*|a1|^2)*a2 - Gamma2*a2
             + i*(alpha_t/3)*a1^3 - i*sqrt(2*Gamma2_ext)*B2

in laboratory units (rad/s).  Deterministic runs use classical RK4;
stochastic runs add complex white Gaussian forcing per mode and fall back
to Euler-Maruyama.  The noise model is a device-agnostic stand-in (the
underlying fluctuation mechanism is not modeled here): independent
additive strengths D1, D2 in s^-1, by default Gamma_n times a configurable
effective occupation, which reproduces activated switching between the
attractors qualitatively.

Ensembles integrate concurrently as a trailing vector axis; each member
consumes its own RNG stream spawned from the master seed, so results do
not depend on how an ensemble is batched.  A single trajectory, given as
scalar initial amplitudes, runs the same schemes on Python complex numbers,
where numpy's per-call overhead would dominate a one-member step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergenceError,
    EmptyTrajectoryError,
    OverlappingRadiusError,
    StepSizeWarning,
)
from .steady import DimensionlessPoint


@dataclass(frozen=True)
class TwoModeSystem:
    """Laboratory-unit coefficients of the coupled-mode equations."""

    delta1: float
    delta2: float
    alpha1: float
    alpha2: float
    Gamma1: float
    Gamma2: float
    Gamma2_ext: float
    drive_b2: float = 0.0
    drive_phase: float = 0.0

    @property
    def alpha_cross(self) -> float:
        return math.sqrt(self.alpha1 * self.alpha2)

    @property
    def alpha_tilde(self) -> float:
        return (self.alpha1**3 * self.alpha2) ** 0.25

    @property
    def drive(self) -> complex:
        """Complex source term sqrt(2*Gamma2_ext)*B2."""
        return math.sqrt(2.0 * self.Gamma2_ext) * self.drive_b2 \
            * np.exp(1j * self.drive_phase)

    @classmethod
    def from_point(cls, point: DimensionlessPoint) -> "TwoModeSystem":
        """Restore laboratory units from a reduced operating point."""
        a1 = point.alpha1
        return cls(
            delta1=point.delta * a1,
            delta2=point.delta2 * a1,
            alpha1=a1,
            alpha2=point.beta**4 * a1,
            Gamma1=point.gamma1 * a1,
            Gamma2=point.gamma2 * a1,
            Gamma2_ext=point.gamma2_ext * a1,
            drive_b2=point.drive_b2,
            drive_phase=point.drive_phase,
        )

    def flow(self, a1, a2):
        """Right-hand side of the equations of motion; array friendly."""
        return _flow(_Coefficients.of(self), a1, a2)


class _Coefficients(NamedTuple):
    """Constants of the flow as plain Python numbers, hoisted per integration.

    Plain ``float``/``complex`` values keep numpy scalars out of the scalar
    hot loop.  Each hoisted product is the leading factor of its term in
    the equations, so hoisting leaves the rounding of array runs unchanged.
    """

    delta1: float
    delta2: float
    alpha1: float
    alpha2: float
    alpha_cross2: float         # 2*alpha_x
    Gamma1: float
    Gamma2: float
    i_alpha_tilde: complex      # i*alpha_t
    i_alpha_tilde3: complex     # i*alpha_t/3
    i_drive: complex            # i*sqrt(2*Gamma2_ext)*B2

    @classmethod
    def of(cls, system: TwoModeSystem) -> "_Coefficients":
        at = float(system.alpha_tilde)
        return cls(float(system.delta1), float(system.delta2),
                   float(system.alpha1), float(system.alpha2),
                   2.0 * float(system.alpha_cross),
                   float(system.Gamma1), float(system.Gamma2),
                   1j * at, 1j * (at / 3.0), complex(1j * system.drive))


def _flow(c: _Coefficients, a1, a2):
    """The equations of motion over hoisted constants.

    Uses only operators that Python ``complex`` and numpy arrays share, so
    one expression serves single trajectories and ensembles.
    """
    d1, d2, al1, al2, ax2, g1, g2, iat, iat3, idrive = c
    n1 = abs(a1) ** 2
    n2 = abs(a2) ** 2
    da1 = (1j * (d1 + al1 * n1 + ax2 * n2) - g1) * a1 \
        + iat * a1.conjugate() ** 2 * a2
    da2 = (1j * (d2 + al2 * n2 + ax2 * n1) - g2) * a2 + iat3 * a1**3 - idrive
    return da1, da2


@dataclass(frozen=True)
class NoiseConfig:
    """Additive complex white-noise strengths per mode (s^-1)."""

    d1: float
    d2: float

    def __post_init__(self):
        for name in ("d1", "d2"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {value!r}")

    @classmethod
    def thermal(cls, system: TwoModeSystem, n_th: float = 0.05) -> "NoiseConfig":
        """Strengths Gamma_n * n_th, giving ~n_th photons of steady jitter."""
        return cls(d1=system.Gamma1 * n_th, d2=system.Gamma2 * n_th)


@dataclass(frozen=True)
class Trajectory:
    """Stored samples of one run (or a vectorized ensemble of runs).

    ``a1``/``a2`` have shape (n,) or (n, m) for an m-member ensemble;
    sample i sits at t = (i+1)*dt.  ``dt`` is the stored sampling interval
    (the integration step times any decimation).
    """

    dt: float
    a1: np.ndarray
    a2: np.ndarray
    drive_b2: float
    drive_phase: float
    seed: int | None = None

    @property
    def n_samples(self) -> int:
        return self.a1.shape[0]

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def member(self, j: int) -> "Trajectory":
        """Single ensemble member as its own trajectory."""
        if self.a1.ndim == 1:
            if j != 0:
                raise IndexError("scalar trajectory has a single member")
            return self
        return Trajectory(self.dt, self.a1[:, j].copy(), self.a2[:, j].copy(),
                          self.drive_b2, self.drive_phase, self.seed)


@dataclass(frozen=True)
class Histogram2D:
    """Binned occupation of the demodulated fundamental-mode quadratures."""

    i_edges: np.ndarray
    q_edges: np.ndarray
    counts: np.ndarray
    fs: float
    window: float       # demodulation window length, 1/fs
    units: str = "photon_amplitude"

    @property
    def i_centers(self) -> np.ndarray:
        return 0.5 * (self.i_edges[:-1] + self.i_edges[1:])

    @property
    def q_centers(self) -> np.ndarray:
        return 0.5 * (self.q_edges[:-1] + self.q_edges[1:])


@dataclass(frozen=True)
class MetapotentialGrid:
    """Quasienergy surface over the fundamental-mode quadratures."""

    p1: np.ndarray
    q1: np.ndarray
    values: np.ndarray       # shape (len(p1), len(q1)), rad/s
    a2: complex


@dataclass(frozen=True)
class SwitchingStats:
    """Dwell-state statistics of a trajectory against reference states."""

    rate: float                      # dwell-state changes per second (Hz)
    transitions: np.ndarray          # [origin, destination] counts
    occupancy: np.ndarray            # samples assigned per state
    n_transit: int                   # samples outside every capture radius


def suggested_timestep(system: TwoModeSystem, n1_max: float, n2_max: float,
                       stochastic: bool = False) -> float:
    """Step satisfying dt < 0.1 / (fastest rotation or decay rate).

    The stochastic scheme is explicit first order, so a rotating weakly
    damped mode additionally demands dt < Gamma/omega^2 to keep the noise
    integration from slowly inflating; the bound shrinks accordingly when
    ``stochastic``.
    """
    w1 = abs(system.delta1) + system.alpha1 * n1_max \
        + 2.0 * system.alpha_cross * n2_max
    w2 = abs(system.delta2) + system.alpha2 * n2_max \
        + 2.0 * system.alpha_cross * n1_max
    dt = 0.1 / max(w1, w2, system.Gamma1, system.Gamma2, 1e-300)
    if stochastic:
        for w, g in ((w1, system.Gamma1), (w2, system.Gamma2)):
            if g > 0:
                dt = min(dt, g / (w * w + g * g))
    return dt


def _estimate_scales(system: TwoModeSystem, a1, a2):
    n1 = float(np.max(np.abs(a1)) ** 2) if np.size(a1) else 0.0
    n2 = float(np.max(np.abs(a2)) ** 2) if np.size(a2) else 0.0
    # linear response sets the pump floor when starting from vacuum
    denom = system.delta2**2 + system.Gamma2**2
    if denom > 0:
        n2 = max(n2, 2.0 * system.Gamma2_ext * system.drive_b2**2 / denom)
    return n1, n2


def integrate(system: TwoModeSystem, initial, duration: float, dt: float,
              noise: NoiseConfig | None = None, seed: int | None = None,
              store_every: int = 1, ceiling: float = 1e9) -> Trajectory:
    """Integrate the two-mode equations from ``initial = (a1, a2)``.

    Noise off: classical RK4 (per-step error O(dt^5)).  Noise on: strong
    order-1/2 Euler-Maruyama with additive complex Gaussian increments of
    per-mode strength ``noise.d1``/``noise.d2``; the trajectory is a
    deterministic function of ``seed``.

    ``initial`` entries may be scalars or equally shaped arrays (a
    vectorized ensemble).  A scalar initial condition integrates on Python
    complex numbers, which is an order of magnitude faster per step than
    numpy for one trajectory; it draws the same random numbers as member 0
    of an ensemble with the same seed and matches that member to ~1e-15
    relative, not bitwise, because numpy's vectorized complex arithmetic
    rounds differently.  Only every ``store_every``-th step is stored.
    Raises :class:`DivergenceError` when any amplitude passes ``ceiling``.
    """
    a1 = np.asarray(initial[0], dtype=complex)
    a2 = np.asarray(initial[1], dtype=complex)
    scalar = a1.ndim == 0
    a1, a2 = np.atleast_1d(a1).copy(), np.atleast_1d(a2).copy()
    if a1.shape != a2.shape:
        raise ValueError("initial mode arrays must have matching shapes")
    n_steps = int(round(duration / dt))
    if n_steps <= 0:
        raise ValueError("duration shorter than one step")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")

    n1_max, n2_max = _estimate_scales(system, a1, a2)
    dt_ok = suggested_timestep(system, max(n1_max, 1.0), max(n2_max, 1.0),
                               stochastic=noise is not None)
    if dt > dt_ok:
        warnings.warn(
            f"dt = {dt:.3e} s exceeds the stability guideline {dt_ok:.3e} s "
            "for the fastest system timescale", StepSizeWarning, stacklevel=2)

    n_members = a1.size
    shape = a1.shape
    if scalar:
        a1, a2, shape = complex(a1[0]), complex(a2[0]), ()
    n_stored = n_steps // store_every
    out1 = np.empty((n_stored,) + shape, dtype=complex)
    out2 = np.empty((n_stored,) + shape, dtype=complex)
    c = _Coefficients.of(system)

    # overflow en route to the divergence check is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if noise is None:
            _run_rk4(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling)
        else:
            rngs = _member_rngs(seed, n_members)
            _run_euler_maruyama(c, a1, a2, dt, n_steps, store_every,
                                out1, out2, ceiling, noise, rngs)

    return Trajectory(dt=dt * store_every, a1=out1, a2=out2,
                      drive_b2=system.drive_b2, drive_phase=system.drive_phase,
                      seed=seed)


def _member_rngs(seed, m):
    """One isolated RNG stream per ensemble member, spawned from the master."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(m)]


def _check_finite(a1, a2, ceiling, step, dt):
    top = max(np.max(np.abs(a1)), np.max(np.abs(a2)))
    if not np.isfinite(top) or top > ceiling:
        raise DivergenceError(
            f"amplitude {top:.3e} exceeded ceiling {ceiling:.3e}", t=step * dt)


def _overflow(step, dt):
    # Python complex arithmetic raises where numpy would return inf
    return DivergenceError("amplitude overflowed a float", t=step * dt)


def _run_rk4(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling):
    idx = 0
    step = 0
    try:
        for step in range(1, n_steps + 1):
            k1a, k1b = _flow(c, a1, a2)
            k2a, k2b = _flow(c, a1 + 0.5 * dt * k1a, a2 + 0.5 * dt * k1b)
            k3a, k3b = _flow(c, a1 + 0.5 * dt * k2a, a2 + 0.5 * dt * k2b)
            k4a, k4b = _flow(c, a1 + dt * k3a, a2 + dt * k3b)
            a1 = a1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            a2 = a2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            if step % store_every == 0:
                out1[idx], out2[idx] = a1, a2
                idx += 1
            if step % 64 == 0 or step == n_steps:
                _check_finite(a1, a2, ceiling, step, dt)
    except OverflowError:
        raise _overflow(step, dt) from None


def _run_euler_maruyama(c, a1, a2, dt, n_steps, store_every,
                        out1, out2, ceiling, noise, rngs):
    shape = out1.shape[1:]
    s1 = math.sqrt(noise.d1 * dt)
    s2 = math.sqrt(noise.d2 * dt)
    idx = 0
    chunk = 4096
    step = 0
    try:
        while step < n_steps:
            todo = min(chunk, n_steps - step)
            # per-member streams drawn chunkwise: (todo, 4) per member
            if shape:
                draws = np.stack([rng.standard_normal((todo, 4))
                                  for rng in rngs], axis=-1)
                draws = draws.reshape(todo, 4, *shape)
            else:
                draws = rngs[0].standard_normal((todo, 4)).tolist()
            for x0, x1, x2, x3 in draws:
                f1, f2 = _flow(c, a1, a2)
                a1 = a1 + dt * f1 + s1 * (x0 + 1j * x1)
                a2 = a2 + dt * f2 + s2 * (x2 + 1j * x3)
                step += 1
                if step % store_every == 0:
                    out1[idx], out2[idx] = a1, a2
                    idx += 1
            _check_finite(a1, a2, ceiling, step, dt)
    except OverflowError:
        raise _overflow(step, dt) from None


def boxcar_demodulate(traj: Trajectory, fs: float,
                      scale: float | None = None) -> np.ndarray:
    """Complex window means of the fundamental mode at effective rate fs.

    Consecutive non-overlapping windows of 1/fs are averaged; ensemble
    members contribute their windows in sequence.  ``fs`` must not exceed
    the stored sampling rate 1/dt.
    """
    if traj.n_samples == 0:
        raise EmptyTrajectoryError("no samples to demodulate")
    if fs > 1.0 / traj.dt * (1 + 1e-9):
        raise ValueError(f"fs = {fs:.3e} exceeds the stored rate {1/traj.dt:.3e}")
    w = max(int(round(1.0 / (fs * traj.dt))), 1)
    a = traj.a1 if traj.a1.ndim == 2 else traj.a1[:, None]
    n_win = a.shape[0] // w
    if n_win == 0:
        raise EmptyTrajectoryError("trajectory shorter than one demodulation window")
    means = a[:n_win * w].reshape(n_win, w, -1).mean(axis=1)
    means = means.T.ravel()   # member-major: each member's windows contiguous
    return means * scale if scale is not None else means


def demodulate_histogram(traj: Trajectory, fs: float, bins=101,
                         extent: float | None = None,
                         scale: float | None = None) -> Histogram2D:
    """Boxcar-demodulated IQ histogram of the fundamental mode.

    The complex amplitude is averaged over consecutive non-overlapping
    windows of length 1/fs and the real/imaginary parts are binned.  When
    the window is long compared to the residence time in a state, counts
    spread along lines joining the states: distinct attractors average
    together.  A gain ``scale`` (volts per photon amplitude) switches the
    axes to volts.
    """
    means = boxcar_demodulate(traj, fs, scale=scale)
    w = max(int(round(1.0 / (fs * traj.dt))), 1)
    i, q = means.real, means.imag
    if np.isscalar(bins):
        lim = extent if extent is not None else float(np.max(np.abs(means))) * 1.05
        lim = lim if lim > 0 else 1.0
        edges = np.linspace(-lim, lim, int(bins) + 1)
        i_edges = q_edges = edges
    else:
        i_edges, q_edges = (np.asarray(b, dtype=float) for b in bins)
    counts, _, _ = np.histogram2d(i, q, bins=[i_edges, q_edges])
    return Histogram2D(i_edges=i_edges, q_edges=q_edges,
                       counts=counts.astype(np.int64),
                       fs=1.0 / (w * traj.dt), window=w * traj.dt,
                       units="V" if scale is not None else "photon_amplitude")


def merge_histograms(a: Histogram2D, b: Histogram2D) -> Histogram2D:
    """Associative merge of two histograms with identical binning.

    Lets per-trajectory partial histograms accumulate in any order.
    """
    if not (np.array_equal(a.i_edges, b.i_edges)
            and np.array_equal(a.q_edges, b.q_edges)):
        raise ValueError("histograms have different bin edges")
    if a.fs != b.fs or a.units != b.units:
        raise ValueError("histograms have different sampling or units")
    return Histogram2D(i_edges=a.i_edges, q_edges=a.q_edges,
                       counts=a.counts + b.counts, fs=a.fs, window=a.window,
                       units=a.units)


def classify_samples(samples: np.ndarray, refs, radius: float) -> np.ndarray:
    """Index of the nearest reference within ``radius`` per sample, else -1."""
    refs = np.asarray(refs, dtype=complex)
    if len(refs) >= 2:
        sep = min(abs(x - y) for k, x in enumerate(refs) for y in refs[k + 1:])
        if radius >= 0.5 * sep:
            raise OverlappingRadiusError(
                f"radius {radius:.3g} >= half the minimum state spacing {sep/2:.3g}")
    dist = np.abs(samples[:, None] - refs[None, :])
    idx = np.argmin(dist, axis=1)
    idx[dist[np.arange(len(samples)), idx] > radius] = -1
    return idx


def switching_rate(traj: Trajectory, states, classify_radius: float) -> SwitchingStats:
    """Dwell-state switching rate and transition matrix of a trajectory.

    ``states`` are reference fundamental-mode amplitudes (complex).  Each
    sample is assigned to the nearest reference within ``classify_radius``
    or counted as in transit; transit samples do not contribute to dwell
    statistics.  The rate is the number of dwell-state changes divided by
    the trajectory duration.
    """
    if traj.n_samples == 0:
        raise EmptyTrajectoryError("no samples to classify")
    if len(states) < 2:
        raise ValueError("need at least two reference states")
    refs = np.asarray([complex(s) for s in states])
    a = traj.a1 if traj.a1.ndim == 2 else traj.a1[:, None]
    k = len(refs)
    transitions = np.zeros((k, k), dtype=np.int64)
    occupancy = np.zeros(k, dtype=np.int64)
    n_transit = 0
    changes = 0
    for j in range(a.shape[1]):
        idx = classify_samples(a[:, j], refs, classify_radius)
        n_transit += int(np.sum(idx < 0))
        dwell = idx[idx >= 0]
        occupancy += np.bincount(dwell, minlength=k)
        if dwell.size > 1:
            frm, to = dwell[:-1], dwell[1:]
            moved = frm != to
            changes += int(np.sum(moved))
            np.add.at(transitions, (frm[moved], to[moved]), 1)
    duration = traj.duration * a.shape[1]
    return SwitchingStats(rate=changes / duration, transitions=transitions,
                          occupancy=occupancy, n_transit=n_transit)


def metapotential(system: TwoModeSystem, a1, a2):
    """Quasienergy H/hbar (rad/s) of the rotating-frame Hamiltonian flow.

    Conserved along undamped trajectories at constant drive; its
    stationary points in the fundamental-mode quadratures at the
    stationary pump amplitude are the zero-damping steady states.
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


def metapotential_grid(system: TwoModeSystem, p1: np.ndarray, q1: np.ndarray,
                       a2: complex) -> MetapotentialGrid:
    """Metapotential over a grid of fundamental-mode quadratures, a2 fixed."""
    p1 = np.asarray(p1, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if p1.size == 0 or q1.size == 0 or not (np.all(np.isfinite(p1))
                                            and np.all(np.isfinite(q1))):
        raise ValueError("grid axes must be non-empty and finite")
    A1 = p1[:, None] + 1j * q1[None, :]
    vals = metapotential(system, A1, np.full_like(A1, complex(a2)))
    return MetapotentialGrid(p1=p1, q1=q1, values=vals, a2=complex(a2))


def grid_extrema(grid: MetapotentialGrid):
    """Interior strict local extrema of the metapotential grid.

    Returns a list of ``(p1, q1, kind)`` with kind "min" or "max";
    saddles are not reported.
    """
    v = grid.values
    out = []
    for i in range(1, v.shape[0] - 1):
        for j in range(1, v.shape[1] - 1):
            patch = v[i - 1:i + 2, j - 1:j + 2]
            c = v[i, j]
            others = np.delete(patch.ravel(), 4)
            if np.all(c > others):
                out.append((grid.p1[i], grid.q1[j], "max"))
            elif np.all(c < others):
                out.append((grid.p1[i], grid.q1[j], "min"))
    return out
