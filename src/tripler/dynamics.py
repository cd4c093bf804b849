"""Time-domain integration of the two-mode equations with optional noise.

The quasiclassical amplitudes evolve under

    da1/dt = i*(delta1 + alpha1*|a1|^2 + 2*alpha_x*|a2|^2)*a1 - Gamma1*a1
             + i*alpha_t*conj(a1)^2*a2
    da2/dt = i*(delta2 + alpha2*|a2|^2 + 2*alpha_x*|a1|^2)*a2 - Gamma2*a2
             + i*(alpha_t/3)*a1^3 - i*sqrt(2*Gamma2_ext)*B2

in laboratory units (rad/s).  They are written once, as ``steady._flow``,
which the reduced view ``steady.flow`` shares with ``TwoModeSystem.flow``
and both integrators.  Deterministic runs use classical RK4.  Stochastic
runs add complex white Gaussian forcing per mode and step by first-order
exponential time differencing (ETD1; Cox & Matthews, J. Comput. Phys.
176, 430 (2002)): each mode's linear rate L = i*(detuning + Kerr) - Gamma
is held over the step and integrated exactly, the coupling and drive
terms explicitly, and the noise enters as the exact Ornstein-Uhlenbeck
increment of that linear part.  A linear mode is then exact at any step,
so a rotating weakly damped mode needs no smaller step than RK4.  The
noise model is a device-agnostic stand-in (the underlying fluctuation
mechanism is not modeled here): independent additive strengths D1, D2 in
s^-1, by default Gamma_n times a configurable effective occupation, which
reproduces activated switching between the attractors qualitatively.

Ensembles integrate concurrently: both modes of all M members form one
(2, M) complex state, mode 1 in row 0 and mode 2 in row 1, and every step
runs in place on buffers allocated once per run (``steady._flow_into``
evaluates the shared terms once for both rows).  Each member consumes its
own RNG stream spawned from the master seed, drawn chunkwise into one
buffer, so results do not depend on how an ensemble is batched.  The
stacked step rounds every element exactly as the same scheme written
with one array per mode over ``steady._flow``.  A single trajectory, given
as scalar initial amplitudes, runs the same schemes on Python complex
numbers, where numpy's per-call overhead would dominate a one-member step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    EmptyTrajectoryError,
    OverlappingRadiusError,
    StepSizeWarning,
)
from .steady import (
    DimensionlessPoint,
    _Coefficients,
    _flow,
    _flow_into,
    _FlowWork,
    _rates_and_flow,
)

#: integration steps of noise drawn per member at a time; small, so that the
#: (M, chunk, 4) draw buffer is no large part of an ensemble's memory
#: (640 KiB at 40 members); a noisy run checks for divergence once a chunk
_NOISE_CHUNK = 512

#: where |expm1(z)| is below this, expm1(z)/z is 1 to rounding (its
#: relative correction is about |z|/2), so the ETD1 step takes the limit dt
#: of expm1(L*dt)/L, and the kick the limit 2*D*dt of its variance; the
#: quotients would lose precision once z is subnormal, and are 0/0 at 0
_TINY_Z = 2.0 ** -60

#: wall time in seconds of one step of a single (scalar) trajectory, per
#: scheme: the best of 7 runs of the README ``simulate`` integration
#: (20 000 steps) on a 2-vCPU x86-64 machine, Python 3.11, numpy 2.4
SCALAR_STEP_S = {"rk4": 6e-6, "etd1": 3.5e-6}


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

    def _coefficients(self) -> _Coefficients:
        """The constants of the shared flow, in laboratory units."""
        at = float(self.alpha_tilde)
        return _Coefficients(float(self.delta1), float(self.delta2),
                             float(self.alpha1), float(self.alpha2),
                             2.0 * float(self.alpha_cross),
                             float(self.Gamma1), float(self.Gamma2),
                             1j * at, 1j * (at / 3.0), complex(1j * self.drive))

    def flow(self, a1, a2):
        """Right-hand side of the equations of motion; array friendly."""
        return _flow(self._coefficients(), a1, a2)


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

    The rates are each mode's detuning plus its Kerr shifts at occupations
    ``n1_max``, ``n2_max``, and the dampings.  This is the bound of both
    schemes: RK4's, and that of the stochastic ETD1 step, which integrates
    each mode's rotation and damping exactly but holds its Kerr phase over
    the step and steps the coupling terms explicitly, so no rotation or
    damping term needs a tighter bound.  ``stochastic`` is accepted for
    callers that name the scheme and does not change the bound.

    One step of a single trajectory costs about :data:`SCALAR_STEP_S`
    (3.5 us with noise, 6 us without).
    """
    w1 = abs(system.delta1) + system.alpha1 * n1_max \
        + 2.0 * system.alpha_cross * n2_max
    w2 = abs(system.delta2) + system.alpha2 * n2_max \
        + 2.0 * system.alpha_cross * n1_max
    return 0.1 / max(w1, w2, system.Gamma1, system.Gamma2, 1e-300)


def guideline_timestep(system: TwoModeSystem, initial) -> float:
    """The step :func:`integrate` checks ``dt`` against for ``initial``.

    :func:`suggested_timestep` at the larger of one photon and the largest
    starting occupation per mode, with the pump's linear response to the
    drive as its floor.
    """
    n1, n2 = _estimate_scales(system, np.asarray(initial[0]),
                              np.asarray(initial[1]))
    return suggested_timestep(system, max(n1, 1.0), max(n2, 1.0))


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

    Noise off: classical RK4 (per-step error O(dt^5)).  Noise on: the ETD1
    step with exact Ornstein-Uhlenbeck kicks,

        a <- a + expm1(L*dt)/L * f(a) + kick,

    per mode, where f is the flow and L = i*(detuning + Kerr) - Gamma its
    linear rate at the start of the step (expm1(L*dt)/L -> dt as L*dt -> 0).
    The kick is complex Gaussian with variance (D/Gamma)*(1 - exp(-2*Gamma*dt))
    (2*D*dt at Gamma = 0) for strength D = ``noise.d1``/``noise.d2``, so a
    linear mode keeps its stationary occupation D/Gamma at any dt.  The
    scheme is first order; the trajectory is a deterministic function of
    ``seed``.

    ``initial`` entries may be scalars or equally shaped arrays (a
    vectorized ensemble).  An ensemble integrates as one (2, M) state over
    its M members in C order, stepped in place without allocating; member j
    draws from the j-th RNG stream spawned from ``seed``, so the leading
    members of a wider run are bit-identical.  A scalar initial condition
    integrates on Python complex numbers, which is 5-8 times faster per
    step than numpy for one trajectory; it draws the same random
    numbers as member 0 of an ensemble with the same seed and matches that
    member to ~1e-15 relative, not bitwise, because numpy's vectorized
    complex arithmetic rounds differently.  Only every ``store_every``-th
    step is stored.  Raises :class:`DivergenceError` when any amplitude
    passes ``ceiling`` or stops being finite (``ceiling=math.inf`` keeps
    only the second test), and ``ValueError`` naming the argument for an
    ensemble of no members, a non-finite initial amplitude, a ``duration``
    or ``dt`` that is not positive and finite, or a ``ceiling`` that is not
    positive.
    """
    for name, value in (("duration", duration), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")
    if not ceiling > 0.0:
        raise ValueError(f"ceiling must be positive, got {ceiling!r}")
    a1 = np.asarray(initial[0], dtype=complex)
    a2 = np.asarray(initial[1], dtype=complex)
    scalar = a1.ndim == 0
    a1, a2 = np.atleast_1d(a1).copy(), np.atleast_1d(a2).copy()
    if a1.shape != a2.shape:
        raise ValueError("initial mode arrays must have matching shapes")
    if a1.size == 0:
        raise ValueError("initial holds an ensemble of no members")
    if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise ValueError("initial must hold finite amplitudes")
    n_steps = int(round(duration / dt))
    if n_steps <= 0:
        raise ValueError("duration shorter than one step")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")

    dt_ok = guideline_timestep(system, (a1, a2))
    if dt > dt_ok:
        warnings.warn(
            f"dt = {dt:.3e} s exceeds the stability guideline {dt_ok:.3e} s "
            "for the fastest system timescale", StepSizeWarning, stacklevel=2)

    n_members = a1.size
    n_stored = n_steps // store_every
    out1 = np.empty((n_stored,) + (() if scalar else a1.shape), dtype=complex)
    out2 = np.empty_like(out1)
    c = system._coefficients()
    rngs = None if noise is None else _member_rngs(seed, n_members)

    # overflow en route to the divergence check is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if scalar:
            a1, a2 = complex(a1[0]), complex(a2[0])
            if noise is None:
                _run_rk4(c, a1, a2, dt, n_steps, store_every, out1, out2,
                         ceiling)
            else:
                _run_etd1(c, a1, a2, dt, n_steps, store_every, out1, out2,
                          ceiling, noise, rngs[0])
        else:
            # both modes as one (2, M) state; rows of the stored samples
            a = np.stack((a1.ravel(), a2.ravel()))
            flat1 = out1.reshape(n_stored, n_members)
            flat2 = out2.reshape(n_stored, n_members)
            if noise is None:
                _run_rk4_stacked(c, a, dt, n_steps, store_every, flat1,
                                 flat2, ceiling)
            else:
                _run_etd1_stacked(c, a, dt, n_steps, store_every, flat1,
                                  flat2, ceiling, noise, rngs)

    return Trajectory(dt=dt * store_every, a1=out1, a2=out2,
                      drive_b2=system.drive_b2, drive_phase=system.drive_phase,
                      seed=seed)


def _member_rngs(seed, m):
    """One isolated RNG stream per ensemble member, spawned from the master."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(m)]


def _check_finite(a, ceiling, step, dt):
    top = np.max(np.abs(a))
    if not np.isfinite(top) or top > ceiling:
        raise DivergenceError(
            f"amplitude {top:.3e} exceeded ceiling {ceiling:.3e}", t=step * dt)


def _overflow(step, dt):
    # Python complex arithmetic raises where numpy would return inf
    return DivergenceError("amplitude overflowed a float", t=step * dt)


def _run_rk4(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling):
    flow = _rates_and_flow      # the flow without a wrapper call per stage
    idx = 0
    step = 0
    try:
        for step in range(1, n_steps + 1):
            _, _, k1a, k1b = flow(c, a1, a2)
            _, _, k2a, k2b = flow(c, a1 + 0.5 * dt * k1a, a2 + 0.5 * dt * k1b)
            _, _, k3a, k3b = flow(c, a1 + 0.5 * dt * k2a, a2 + 0.5 * dt * k2b)
            _, _, k4a, k4b = flow(c, a1 + dt * k3a, a2 + dt * k3b)
            a1 = a1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            a2 = a2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            if step % store_every == 0:
                out1[idx], out2[idx] = a1, a2
                idx += 1
            if step % 64 == 0 or step == n_steps:
                _check_finite((a1, a2), ceiling, step, dt)
    except OverflowError:
        raise _overflow(step, dt) from None


def _complex_constants(*values):
    """Real step factors as the 0-d complex arrays numpy converts them to.

    A Python float times a complex array is converted to x + 0j on every
    call; converting once gives the same products for less time per step.
    """
    return [np.asarray(complex(x)) for x in values]


def _run_rk4_stacked(c, a, dt, n_steps, store_every, out1, out2, ceiling):
    """RK4 of the (2, M) ensemble ``a`` in place, rounding as :func:`_run_rk4`."""
    acc, k, y = (np.empty_like(a) for _ in range(3))
    work = _FlowWork.build(c, a, y, acc, k)
    rows, y_rows, acc_rows, k_rows = work.views
    half, sixth, step_dt, two = _complex_constants(0.5 * dt, dt / 6.0, dt,
                                                   2.0)
    flow, add, multiply = _flow_into, np.add, np.multiply
    idx = 0
    for step in range(1, n_steps + 1):
        flow(work, rows, acc_rows)                  # acc = k1
        multiply(half, acc, y)
        add(a, y, y)
        flow(work, y_rows, k_rows)                  # k2
        multiply(half, k, y)
        add(a, y, y)
        multiply(two, k, k)
        add(acc, k, acc)
        flow(work, y_rows, k_rows)                  # k3
        multiply(step_dt, k, y)
        add(a, y, y)
        multiply(two, k, k)
        add(acc, k, acc)
        flow(work, y_rows, k_rows)                  # k4
        add(acc, k, acc)
        multiply(sixth, acc, acc)
        add(a, acc, a)
        if step % store_every == 0:
            out1[idx], out2[idx] = a
            idx += 1
        if step % 64 == 0 or step == n_steps:
            _check_finite(a, ceiling, step, dt)


def _kick_scales(noise, c, dt):
    """Per-quadrature standard deviations of each mode's kick over ``dt``.

    The Ornstein-Uhlenbeck increment of da = -Gamma*a dt + sqrt(D) dW has
    complex variance (D/Gamma)*(1 - exp(-2*Gamma*dt)); its Gamma -> 0 limit
    2*D*dt, the Euler-Maruyama kick, is used where it is equal to rounding.
    """
    out = []
    for d, g in ((noise.d1, c.Gamma1), (noise.d2, c.Gamma2)):
        var = 2.0 * d * dt if 2.0 * g * dt < _TINY_Z \
            else -d * math.expm1(-2.0 * g * dt) / g
        out.append(math.sqrt(0.5 * var))
    return out


def _run_etd1(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling,
              noise, rng):
    """The ETD1 step of one trajectory on Python complex numbers.

    expm1(L*dt) by the formula numpy's complex expm1 uses, with
    Re(L*dt) = -Gamma*dt fixed per mode, so its exponentials are hoisted.
    """
    s1, s2 = _kick_scales(noise, c, dt)
    em1, em2 = (math.expm1(-g * dt) for g in (c.Gamma1, c.Gamma2))
    ex1, ex2 = (math.exp(-g * dt) for g in (c.Gamma1, c.Gamma2))
    # |expm1(L*dt)| >= 1 - exp(-Gamma*dt), so only a (nearly) undamped mode
    # can reach _TINY_Z
    near1, near2 = (g * dt < 2.0 * _TINY_Z for g in (c.Gamma1, c.Gamma2))
    cos, sin = math.cos, math.sin
    idx = 0
    step = 0
    try:
        while step < n_steps:
            todo = min(_NOISE_CHUNK, n_steps - step)
            for x0, x1, x2, x3 in rng.standard_normal((todo, 4)).tolist():
                l1, l2, f1, f2 = _rates_and_flow(c, a1, a2)
                y1, y2 = l1.imag * dt, l2.imag * dt
                h1, h2 = sin(0.5 * y1), sin(0.5 * y2)
                e1 = em1 * cos(y1) - 2.0 * h1 * h1 + 1j * (ex1 * sin(y1))
                e2 = em2 * cos(y2) - 2.0 * h2 * h2 + 1j * (ex2 * sin(y2))
                # f <- expm1(L*dt)/L * f
                f1 *= dt if near1 and abs(e1) < _TINY_Z else e1 / l1
                f2 *= dt if near2 and abs(e2) < _TINY_Z else e2 / l2
                a1 = a1 + f1 + s1 * (x0 + 1j * x1)
                a2 = a2 + f2 + s2 * (x2 + 1j * x3)
                step += 1
                if step % store_every == 0:
                    out1[idx], out2[idx] = a1, a2
                    idx += 1
            _check_finite((a1, a2), ceiling, step, dt)
    except OverflowError:
        raise _overflow(step, dt) from None


def _run_etd1_stacked(c, a, dt, n_steps, store_every, out1, out2, ceiling,
                      noise, rngs):
    """The ETD1 step of the (2, M) ensemble ``a`` in place.

    Member j draws its (steps, 4) normals from ``rngs[j]`` chunkwise into
    one buffer, scaled once per chunk into the complex kicks
    s1*(x0 + i*x1) and s2*(x2 + i*x3), which each step reads as one (2, M)
    view.  The rates L come from :func:`_flow_into` with the flow.
    expm1(L*dt)/L takes its limit dt where |expm1(L*dt)| < _TINY_Z, which
    needs a (nearly) undamped mode, so only then does the step test for it.
    """
    s1, s2 = _kick_scales(noise, c, dt)
    near = min(c.Gamma1, c.Gamma2) * dt < 2.0 * _TINY_Z
    f, z, e = (np.empty_like(a) for _ in range(3))
    work = _FlowWork.build(c, a, f)
    rows, f_rows = work.views
    rates = work.linear
    size = np.empty(a.shape)
    tiny = np.empty(a.shape, dtype=bool)
    (step_dt,) = _complex_constants(dt)
    scale = np.array([s1, s2])
    draws = np.empty((a.shape[1], min(_NOISE_CHUNK, n_steps), 4))
    kicks = draws.view(complex)                     # (M, chunk, 2)
    step_kicks = kicks.transpose(1, 2, 0)           # (chunk, 2, M)
    flow, add, multiply = _flow_into, np.add, np.multiply
    idx = 0
    step = 0
    while step < n_steps:
        todo = min(_NOISE_CHUNK, n_steps - step)
        for row, rng in zip(draws, rngs):
            rng.standard_normal((todo, 4), out=row[:todo])
        multiply(scale, kicks[:, :todo], kicks[:, :todo])
        for kick in step_kicks[:todo]:
            flow(work, rows, f_rows)
            multiply(step_dt, rates, z)
            np.expm1(z, z)
            np.divide(z, rates, e)
            if near:
                np.abs(z, size)
                np.less(size, _TINY_Z, tiny)
                np.copyto(e, step_dt, where=tiny)
            multiply(e, f, z)
            add(a, z, a)
            add(a, kick, a)
            step += 1
            if step % store_every == 0:
                out1[idx], out2[idx] = a
                idx += 1
        _check_finite(a, ceiling, step, dt)


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
        lim = float(np.max(np.abs(means))) * 1.05
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
