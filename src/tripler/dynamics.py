"""Time-domain integration of the two-mode equations with optional noise.

The quasiclassical amplitudes evolve under

    da1/dt = i*(delta1 + alpha1*|a1|^2 + 2*alpha_x*|a2|^2)*a1 - Gamma1*a1
             + i*alpha_t*conj(a1)^2*a2
    da2/dt = i*(delta2 + alpha2*|a2|^2 + 2*alpha_x*|a1|^2)*a2 - Gamma2*a2
             + i*(alpha_t/3)*a1^3 - i*sqrt(2*Gamma2_ext)*B2

in laboratory units (rad/s).  They are written once, as ``steady._flow``,
which the reduced view ``steady.flow`` shares with ``TwoModeSystem.flow``
and both Python runners (the compiled step below repeats it operation for
operation).  Deterministic runs use classical RK4.  Stochastic
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

Every run steps through the compiled step ``_step.c`` (built with gcc on
first use and cached, see :func:`_kernel_path`), all M members of an
ensemble per call; a single trajectory is an ensemble of one.  Its C is
CPython 3.11's complex arithmetic operation for operation, so each member
is bit for bit what the Python runners ``_run_rk4``/``_run_etd1`` give;
they stay the definition, the tests' oracle and the fallback, which runs
where the step cannot be built (one ``RuntimeWarning`` per process names
why).  The runners make every operand of a complex operation complex, so
they give 3.11's bits on any Python, also where (3.14) a float meets a
complex by other rules.  Both schemes step two members at once, one in
each lane of a 16-byte vector (SSE2 on x86-64, NEON on aarch64); the bits
hold, as each lane does the scalar IEEE operations in the same order,
with no contraction into fused multiply-adds.  Only libm and CPython's
complex quotient run lane by lane, over the lanes in use.  A lone member
rides in both lanes; the second is discarded, and the per-lane code skips
it.  Each member draws from its own RNG stream spawned from the master
seed, so results do not depend on how an ensemble is batched.
An ensemble of M >= 2 members is split into contiguous member blocks, one
per usable CPU (``os.sched_getaffinity``, else ``os.cpu_count``), each
with at least :data:`_BLOCK_MIN_S` of estimated work, and the blocks are
stepped at once on threads; no setting changes this, and the bytes are
the same for any split.  A single trajectory, a shorter run and the Python
runners, which hold the GIL, stay on the calling thread.  The first run
after ``_step.c`` changes rebuilds it under a new cache name.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    EmptyTrajectoryError,
    OverlappingRadiusError,
    StepSizeWarning,
    domain,
)
from .steady import DimensionlessPoint, _Coefficients, _flow, _rates_and_flow

#: integration steps of noise drawn per member at a time; small, so that the
#: (M, chunk, 4) draw buffer is no large part of an ensemble's memory
#: (640 KiB at 40 members); a noisy run checks for divergence once a chunk
_NOISE_CHUNK = 512

#: where |expm1(z)| is below this, expm1(z)/z is 1 to rounding (its
#: relative correction is about |z|/2), so the ETD1 step takes the limit dt
#: of expm1(L*dt)/L, and the kick the limit 2*D*dt of its variance; the
#: quotients would lose precision once z is subnormal, and are 0/0 at 0
_TINY_Z = 2.0 ** -60

#: a noiseless run checks for divergence after every this many steps
_CHECK_EVERY = 64

#: wall time in seconds of one step of a single trajectory, per scheme, on
#: the compiled step, where a trajectory of either scheme is one two-lane
#: step: the best of 151 runs of the README ``simulate`` integration
#: (20 000 steps) on a 2-vCPU x86-64 machine, Python 3.11, numpy 2.4, gcc
#: 12.2, read 0.088 us for RK4 and 0.123 us for ETD1; the bounds below, set
#: when they read 0.100 and 0.166 us, still hold
SCALAR_STEP_S = {"rk4": 1.5e-7, "etd1": 2e-7}

#: the same on the Python runners, which run where the compiled step is
#: unavailable: the best of 3 runs as above, 7.2 and 3.3 us since every
#: operand of their complex operations is complex, rounded up
PYTHON_STEP_S = {"rk4": 7.5e-6, "etd1": 3.5e-6}

#: most integration steps one run may take: the largest integer that, with
#: its successor, is exactly a float, so ``duration / dt`` names the count
#: without ambiguity; some thousand years at ``PYTHON_STEP_S``
MAX_STEPS = 2**53 - 1

#: least estimated serial wall time in seconds (steps times
#: :data:`SCALAR_STEP_S` times the member pairs) per member block of a
#: compiled run, so a run below it stays on the calling thread: starting
#: and joining a thread costs about 80 us on the machine above (2000 in a
#: row, three times), so n blocks cost at most n*80 us / (n*1 ms) = 8% of
#: the time the split saves
_BLOCK_MIN_S = 1e-3

#: how ``_step.c`` is compiled; its cached file name hashes these flags
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")

#: the loaded ``tripler_step`` function, or None where it cannot be built or
#: loaded; empty until the first run of the process tries
_KERNEL = []

#: a member's stop for overflow, as the compiled step reports it (else 1,
#: for the ceiling)
_OVERFLOW = 2

#: largest seed, the range the signed 64-bit ``.trpl`` header field holds
#: (where -1 marks an unseeded run)
MAX_SEED = 2**63 - 1

#: the ``TwoModeSystem`` fields that may be negative; the others are Kerr
#: coefficients, dampings and the drive magnitude
_SIGNED = ("delta1", "delta2", "drive_phase")


@dataclass(frozen=True)
class TwoModeSystem:
    """Laboratory-unit coefficients of the coupled-mode equations.

    Every field is finite; all but the detunings and the drive phase are
    non-negative.  ``Gamma2_ext`` may exceed ``Gamma2``, which drives an
    undamped mode.
    """

    delta1: float
    delta2: float
    alpha1: float
    alpha2: float
    Gamma1: float
    Gamma2: float
    Gamma2_ext: float
    drive_b2: float = 0.0
    drive_phase: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SIGNED:
                if not -math.inf < value < math.inf:
                    raise domain(f.name, value, "finite")
            elif not 0.0 <= value < math.inf:
                raise domain(f.name, value, "non-negative and finite")

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
                raise domain(name, value, "non-negative and finite")

    @classmethod
    def thermal(cls, system: TwoModeSystem, n_th: float = 0.05) -> "NoiseConfig":
        """Strengths Gamma_n * n_th, giving ~n_th photons of steady jitter."""
        if not 0.0 <= n_th < math.inf:
            raise domain("n_th", n_th, "non-negative and finite")
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
        """Single ensemble member as its own trajectory.

        Its samples are read-only views of the ensemble's, not copies, so
        splitting an ensemble into members costs no memory; a member keeps
        the ensemble's arrays alive (copy them to keep one member alone).
        """
        if self.a1.ndim == 1:
            if j != 0:
                raise IndexError("scalar trajectory has a single member")
            return self
        a1, a2 = self.a1[:, j], self.a2[:, j]
        a1.flags.writeable = a2.flags.writeable = False
        return Trajectory(self.dt, a1, a2, self.drive_b2, self.drive_phase,
                          self.seed)


@dataclass(frozen=True)
class Histogram2D:
    """Binned occupation of the demodulated fundamental-mode quadratures."""

    i_edges: np.ndarray
    q_edges: np.ndarray
    counts: np.ndarray
    fs: float
    window: float       # demodulation window length, 1/fs
    units: str = "photon_amplitude"

    def __post_init__(self):
        # edges by the rule a histogram file is read with, so that every
        # histogram written reads back; so are the counts, one per bin
        for name in ("i_edges", "q_edges"):
            object.__setattr__(self, name, _bin_edges(getattr(self, name),
                                                      name))
        shape = (self.i_edges.size - 1, self.q_edges.size - 1)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu" or counts.shape != shape:
            raise DomainError("counts", f"counts must be integers of shape "
                              f"{shape}, one per bin, got {counts.dtype} of "
                              f"shape {counts.shape}")
        if counts.min() < 0 or counts.max() > np.iinfo(np.int64).max:
            raise DomainError("counts", "counts must be from 0 to 2**63 - 1, "
                              f"got {counts.min()} to {counts.max()}")
        object.__setattr__(self, "counts", counts)
        for name in ("fs", "window"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise domain(name, value, "positive and finite")


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

    One step of a single trajectory costs about :func:`step_seconds`.
    :class:`DomainError` names an occupation that is negative or not finite.
    """
    for name, value in (("n1_max", n1_max), ("n2_max", n2_max)):
        if not 0.0 <= value < math.inf:
            raise domain(name, value, "non-negative and finite")
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
    vectorized ensemble of M members in C order).  Every run goes through
    the compiled step (see the module docstring), which steps each member
    bit for bit as the Python runners ``_run_rk4``/``_run_etd1`` do; where
    it is unavailable those runners step the members one by one and give
    the same bytes.  Member j draws from the j-th RNG stream spawned from
    ``seed``, so a scalar run is member 0 of an ensemble with the same seed,
    and the leading members of a wider run are the same, bit for bit.  A
    large enough ensemble is stepped in member blocks on one thread per
    usable CPU (see :func:`_run_kernel`), with the same bytes; every thread
    is joined before this returns or raises.  Only
    every ``store_every``-th step is stored.  Raises
    :class:`DivergenceError` when an amplitude passes ``ceiling`` or stops
    being finite (``ceiling=math.inf`` keeps only the second test), at the
    earliest step at which any member does, and :class:`DomainError`
    naming the argument for an ensemble of no members, a non-finite initial
    amplitude, a ``duration`` or ``dt`` that is not positive and finite, a
    ``duration / dt`` over :data:`MAX_STEPS`, a ``ceiling`` that is not
    positive, a ``seed`` that is neither None nor an integer in
    [0, :data:`MAX_SEED`], or a ``store_every`` that is not a positive
    integer.
    """
    for name, value in (("duration", duration), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise domain(name, value, "positive and finite")
    steps = duration / dt           # inf once the quotient overflows
    if steps == math.inf or round(steps) > MAX_STEPS:
        raise DomainError("dt", f"duration / dt = {duration!r} / {dt!r} gives "
                          f"{steps!r} steps, over the bound of {MAX_STEPS}")
    if not ceiling > 0.0:
        raise domain("ceiling", ceiling, "positive")
    if seed is not None and not (_is_integer(seed) and 0 <= seed <= MAX_SEED):
        raise domain("seed", seed, "None or an integer in [0, 2**63 - 1]")
    if not (_is_integer(store_every) and store_every >= 1):
        raise domain("store_every", store_every, "a positive integer")
    a1 = np.asarray(initial[0], dtype=complex)
    a2 = np.asarray(initial[1], dtype=complex)
    if a1.shape != a2.shape:
        raise DomainError("initial", "initial mode arrays must have matching "
                          f"shapes, got {a1.shape} and {a2.shape}")
    if a1.size == 0:
        raise DomainError("initial", "initial holds an ensemble of no members")
    if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise DomainError("initial", "initial must hold finite amplitudes")
    n_steps = int(round(steps))
    if n_steps <= 0:
        raise domain("duration", duration, f"at least one step, dt = {dt!r}")

    dt_ok = guideline_timestep(system, (a1, a2))
    if dt > dt_ok:
        warnings.warn(
            f"dt = {dt:.3e} s exceeds the stability guideline {dt_ok:.3e} s "
            "for the fastest system timescale", StepSizeWarning, stacklevel=2)

    n_stored = n_steps // store_every
    out1 = np.empty((n_stored,) + a1.shape, dtype=complex)
    out2 = np.empty_like(out1)
    # a1, a2 of each member side by side, as the compiled step reads them
    state = np.stack((a1.ravel(), a2.ravel()), axis=1)
    flat1 = out1.reshape(n_stored, len(state))
    flat2 = out2.reshape(n_stored, len(state))
    c = system._coefficients()
    rngs = None if noise is None else _member_rngs(seed, len(state))
    kernel = _kernel()
    # overflow en route to the divergence check is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel is None:
            _run_members(c, state, dt, n_steps, store_every, flat1, flat2,
                         ceiling, noise, rngs)
        else:
            _run_kernel(kernel, c, state, dt, n_steps, store_every, flat1,
                        flat2, ceiling, noise, rngs)
    return Trajectory(dt=dt * store_every, a1=out1, a2=out2,
                      drive_b2=system.drive_b2, drive_phase=system.drive_phase,
                      seed=seed)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def step_seconds(scheme: str) -> float:
    """Expected wall time of one step of a single trajectory of ``scheme``.

    :data:`SCALAR_STEP_S` with the compiled step, :data:`PYTHON_STEP_S`
    where it is unavailable (loading it if no run has yet).
    """
    if scheme not in ("rk4", "etd1"):
        raise domain("scheme", scheme, "'rk4' or 'etd1'")
    return (PYTHON_STEP_S if _kernel() is None else SCALAR_STEP_S)[scheme]


def _kernel():
    """The compiled step's entry point, or None; tried once per process."""
    if not _KERNEL:
        try:
            kernel = ctypes.CDLL(_kernel_path()).tripler_step
        except OSError as exc:
            warnings.warn(f"the compiled integration step is unavailable "
                          f"({exc}); integrating on the Python runners, "
                          "which give the same samples more slowly",
                          RuntimeWarning, stacklevel=3)
            kernel = None
        else:
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            kernel.argtypes = (i64, ptr, i64, i64, i64, ptr, i64, i64, i64,
                               i64, i64, ptr, ptr, ptr, i64, ctypes.c_double,
                               ptr)
            kernel.restype = i64
        _KERNEL.append(kernel)
    return _KERNEL[0]


def _kernel_name(source: bytes) -> str:
    """The cached file name of ``source`` built here with :data:`_CFLAGS`."""
    import hashlib

    key = hashlib.sha256(b"\0".join([source, " ".join(_CFLAGS).encode(),
                                     os.uname().machine.encode()]))
    return f"tripler_step-{key.hexdigest()[:32]}.so"


def _kernel_path() -> str:
    """The compiled ``_step.c``, built into the first usable cache directory
    on a miss; raises ``OSError`` naming why there is none.

    The directories are ``$XDG_CACHE_HOME/tripler`` (``~/.cache/tripler``
    by default), then ``tripler-<uid>`` in the temporary directory; one
    that others can write to is passed over.
    """
    import tempfile

    source = Path(__file__).with_name("_step.c").read_bytes()
    name = _kernel_name(source)
    cache = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    problems = []
    for directory in (os.path.join(cache, "tripler"),
                      os.path.join(tempfile.gettempdir(),
                                   f"tripler-{os.getuid()}")):
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            info = os.stat(directory)
            # a file others can plant there would be loaded as code
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                raise PermissionError("writable by other users")
            if os.path.exists(path):
                return path
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
        except OSError as exc:
            problems.append(f"{directory}: {exc}")
            continue
        _build(source, tmp, path)
        return path
    raise OSError("no usable cache directory (" + "; ".join(problems) + ")")


def _build(source: bytes, tmp: str, path: str) -> None:
    """Compile ``source`` into the temporary file ``tmp``, then rename it to
    ``path`` in one step, so that no process loads a partly written file."""
    import shutil
    import subprocess

    try:
        gcc = shutil.which("gcc")
        if gcc is None:
            raise OSError("gcc not found on PATH")
        try:
            proc = subprocess.run([gcc, *_CFLAGS, "-x", "c", "-", "-o", tmp,
                                   "-lm"], input=source, capture_output=True,
                                  timeout=300)
        except subprocess.TimeoutExpired:
            raise OSError("gcc ran for more than 300 s") from None
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").splitlines()
            raise OSError(f"gcc exited with {proc.returncode}: "
                          + (lines[-1] if lines else "no message"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _member_rngs(seed, m):
    """One isolated RNG stream per ensemble member, spawned from the master."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(m)]


def _beyond(top, ceiling, step, dt):
    if math.isnan(top):     # NaN compares false with any ceiling
        return DivergenceError("amplitude is no longer finite (nan)",
                               t=step * dt)
    return DivergenceError(
        f"amplitude {top:.3e} exceeded ceiling {ceiling:.3e}", t=step * dt)


def _check_finite(a, ceiling, step, dt):
    top = np.max(np.abs(a))
    if not np.isfinite(top) or top > ceiling:
        raise _beyond(top, ceiling, step, dt)


def _overflow(step, dt):
    # Python complex arithmetic raises where numpy would return inf
    return DivergenceError("amplitude overflowed a float", t=step * dt)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _member_blocks(m, work_s):
    """Contiguous ``(j0, j1)`` member ranges, as even as they go, for ``m``
    members whose serial run is estimated at ``work_s`` seconds: one per
    usable CPU, but none with less than :data:`_BLOCK_MIN_S` of it."""
    n = min(m, _usable_cpus())
    if work_s < n * _BLOCK_MIN_S:
        n = max(1, int(work_s / _BLOCK_MIN_S))
    return [(m * b // n, m * (b + 1) // n) for b in range(n)]


def _run_kernel(kernel, c, state, dt, n_steps, store_every, out1, out2,
                ceiling, noise, rngs):
    """The compiled step over every member of ``state``, (M, 2) complex.

    The kernel steps the members in pairs, by either scheme, so the serial
    work is estimated as pairs times steps times the scheme's
    :data:`SCALAR_STEP_S`, a lone member costing a pair.  The members are
    split into contiguous blocks by :func:`_member_blocks` (one per usable
    CPU, each with at least :data:`_BLOCK_MIN_S` of that work; no setting
    changes it); the calling thread steps the first, a thread of its own
    each other.  A block is stepped one chunk of :data:`_NOISE_CHUNK` steps
    per kernel call, after the chunk's normals of its members are drawn as
    :func:`_run_etd1` draws them; the kernel and numpy's draws release the
    GIL, so the blocks run at once.  Each block writes only its members'
    parts of the shared arrays, so the bytes do not depend on the split.  A
    member that diverges stops.  Its block ends with the chunk, and every
    other block ends after that chunk too, which is as far as the earliest
    stop can lie; it is raised as :func:`_run_members` would.  An error in
    any block (an interrupt in the first) ends the others after their
    current chunk and is raised once every thread is joined, so a long run
    stays interruptible.
    """
    m = len(state)
    chunk = min(_NOISE_CHUNK, n_steps)
    etd1 = noise is not None
    factors = _etd1_constants(noise, c, dt) if etd1 else (0.0,) * 8
    # the fields of ``coefficients`` in _step.c, in order
    parts = (x for z in c[7:] for x in (z.real, z.imag))
    constants = np.array([*c[:7], *parts, dt, *factors, _TINY_Z])
    # every buffer the kernel reads or writes is C-contiguous: state from
    # np.stack, out1 and out2 reshaped from fresh arrays, draws and fail new
    draws = np.empty((m, chunk, 4)) if etd1 else None
    fail = np.zeros((m, 2), dtype=np.int64)
    pointers = [x.ctypes.data for x in (constants, state, out1, out2, fail)]
    p_constants, p_state, p_out1, p_out2, p_fail = pointers
    p_draws = None if draws is None else draws.ctypes.data
    check_every = _NOISE_CHUNK if etd1 else _CHECK_EVERY
    # the step no block goes past: the end of the earliest chunk in which a
    # member stopped, 0 once a block failed
    halt, lock, errors = [n_steps], threading.Lock(), []

    def stop_at(step):
        with lock:
            halt[0] = min(halt[0], step)

    def run(j0, j1):
        step = 0
        while step < halt[0]:
            todo = min(_NOISE_CHUNK, n_steps - step)
            if etd1:
                for row, rng in zip(draws[j0:j1], rngs[j0:j1]):
                    rng.standard_normal((todo, 4), out=row[:todo])
            if kernel(etd1, p_constants, m, j0, j1, p_state, step, todo,
                      n_steps, check_every, store_every, p_out1, p_out2,
                      p_draws, chunk, ceiling, p_fail):
                stop_at(step + todo)
            step += todo

    def worker(j0, j1):
        try:
            run(j0, j1)
        except BaseException as exc:
            stop_at(0)
            errors.append(exc)

    work = (m + 1) // 2 * n_steps * SCALAR_STEP_S["etd1" if etd1 else "rk4"]
    first, *rest = _member_blocks(m, work)
    threads = []
    try:
        for block in rest:
            thread = threading.Thread(target=worker, args=block)
            thread.start()
            threads.append(thread)
        run(*first)
        for thread in threads:
            thread.join()
    except BaseException:
        stop_at(0)
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    stops = [(s, j, kind) for j, (kind, s) in enumerate(fail.tolist()) if kind]
    if stops:
        step, j, kind = min(stops)
        if kind == _OVERFLOW:
            raise _overflow(step, dt)
        raise _beyond(np.max(np.abs(state[j])), ceiling, step, dt)


def _run_members(c, state, dt, n_steps, store_every, out1, out2, ceiling,
                 noise, rngs):
    """The Python runners over the members of ``state`` one by one.

    Writes what :func:`_run_kernel` writes and raises the same divergence:
    every member runs, and the earliest error is raised.
    """
    errors = []
    for j, (a1, a2) in enumerate(state.tolist()):
        try:
            if noise is None:
                _run_rk4(c, a1, a2, dt, n_steps, store_every, out1[:, j],
                         out2[:, j], ceiling)
            else:
                _run_etd1(c, a1, a2, dt, n_steps, store_every, out1[:, j],
                          out2[:, j], ceiling, noise, rngs[j])
        except DivergenceError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.t)


def _run_rk4(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling):
    """The RK4 step of one trajectory on Python complex numbers, every
    operand of a complex operation complex (see ``_rates_and_flow``)."""
    flow = _rates_and_flow      # the flow without a wrapper call per stage
    half, whole = complex(0.5 * dt, 0.0), complex(dt, 0.0)
    sixth, two = complex(dt / 6.0, 0.0), complex(2.0, 0.0)
    idx = 0
    step = 0
    try:
        for step in range(1, n_steps + 1):
            _, _, k1a, k1b = flow(c, a1, a2)
            _, _, k2a, k2b = flow(c, a1 + half * k1a, a2 + half * k1b)
            _, _, k3a, k3b = flow(c, a1 + half * k2a, a2 + half * k2b)
            _, _, k4a, k4b = flow(c, a1 + whole * k3a, a2 + whole * k3b)
            a1 = a1 + sixth * (k1a + two * k2a + two * k3a + k4a)
            a2 = a2 + sixth * (k1b + two * k2b + two * k3b + k4b)
            if step % store_every == 0:
                out1[idx], out2[idx] = a1, a2
                idx += 1
            if step % _CHECK_EVERY == 0 or step == n_steps:
                _check_finite((a1, a2), ceiling, step, dt)
    except OverflowError:
        raise _overflow(step, dt) from None


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


def _etd1_constants(noise, c, dt):
    """The per-run factors of the ETD1 step: the kick scales s1, s2, then
    expm1(-Gamma*dt) and exp(-Gamma*dt) per mode, then per mode whether it
    is (nearly) undamped, the only case where |expm1(L*dt)| can reach
    _TINY_Z, since |expm1(L*dt)| >= 1 - exp(-Gamma*dt)."""
    gammas = (c.Gamma1, c.Gamma2)
    return (*_kick_scales(noise, c, dt),
            *(math.expm1(-g * dt) for g in gammas),
            *(math.exp(-g * dt) for g in gammas),
            *(g * dt < 2.0 * _TINY_Z for g in gammas))


def _run_etd1(c, a1, a2, dt, n_steps, store_every, out1, out2, ceiling,
              noise, rng):
    """The ETD1 step of one trajectory on Python complex numbers, every
    operand of a complex operation complex (see ``_rates_and_flow``).

    expm1(L*dt) by the formula numpy's complex expm1 uses, with
    Re(L*dt) = -Gamma*dt fixed per mode, so its exponentials are hoisted.
    """
    s1, s2, em1, em2, ex1, ex2, near1, near2 = _etd1_constants(noise, c, dt)
    s1, s2, whole = complex(s1, 0.0), complex(s2, 0.0), complex(dt, 0.0)
    cos, sin = math.cos, math.sin
    idx = 0
    step = 0
    try:
        while step < n_steps:
            todo = min(_NOISE_CHUNK, n_steps - step)
            # the normals as complex(x, 0.0), converted by numpy in one go
            normals = rng.standard_normal((todo, 4)).astype(complex)
            for x0, x1, x2, x3 in normals.tolist():
                l1, l2, f1, f2 = _rates_and_flow(c, a1, a2)
                y1, y2 = l1.imag * dt, l2.imag * dt
                h1, h2 = sin(0.5 * y1), sin(0.5 * y2)
                e1 = complex(em1 * cos(y1) - 2.0 * h1 * h1, 0.0) \
                    + 1j * complex(ex1 * sin(y1), 0.0)
                e2 = complex(em2 * cos(y2) - 2.0 * h2 * h2, 0.0) \
                    + 1j * complex(ex2 * sin(y2), 0.0)
                # f <- expm1(L*dt)/L * f
                f1 *= whole if near1 and abs(e1) < _TINY_Z else e1 / l1
                f2 *= whole if near2 and abs(e2) < _TINY_Z else e2 / l2
                a1 = a1 + f1 + s1 * (x0 + 1j * x1)
                a2 = a2 + f2 + s2 * (x2 + 1j * x3)
                step += 1
                if step % store_every == 0:
                    out1[idx], out2[idx] = a1, a2
                    idx += 1
            _check_finite((a1, a2), ceiling, step, dt)
    # sin and cos of an infinite rate raise ValueError
    except (OverflowError, ValueError):
        raise _overflow(step, dt) from None


def boxcar_demodulate(traj: Trajectory, fs: float,
                      scale: float | None = None) -> np.ndarray:
    """Complex window means of the fundamental mode at effective rate fs.

    Consecutive non-overlapping windows of 1/fs are averaged; ensemble
    members contribute their windows in sequence.  ``fs`` must be positive
    and not exceed the stored sampling rate 1/dt; ``scale``, when given,
    must be finite.
    """
    if not 0.0 < fs < math.inf:
        raise domain("fs", fs, "positive and finite")
    if scale is not None and not -math.inf < scale < math.inf:
        raise domain("scale", scale, "finite or None")
    if traj.n_samples == 0:
        raise EmptyTrajectoryError("no samples to demodulate")
    if fs > 1.0 / traj.dt * (1 + 1e-9):
        raise domain("fs", fs, f"at most the stored rate {1/traj.dt:.3e}")
    w = max(int(round(1.0 / (fs * traj.dt))), 1)
    a = traj.a1 if traj.a1.ndim == 2 else traj.a1[:, None]
    n_win = a.shape[0] // w
    if n_win == 0:
        raise EmptyTrajectoryError("trajectory shorter than one demodulation window")
    means = a[:n_win * w].reshape(n_win, w, -1).mean(axis=1)
    means = means.T.ravel()   # member-major: each member's windows contiguous
    return means * scale if scale is not None else means


def _bin_edges(value, name: str) -> np.ndarray:
    """The one rule for histogram edges, also those of a histogram file:
    ``value`` as a float array, else :class:`DomainError` naming ``name``."""
    try:
        edges = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        edges = None
    if edges is None or edges.ndim != 1 or edges.size < 2 \
            or not np.isfinite(edges).all() or not (np.diff(edges) > 0).all():
        got = repr(value) if edges is None \
            else np.array2string(edges, threshold=8)
        raise DomainError(name, f"{name} must be 1-D bin edges, at least two, "
                          f"finite and strictly increasing, got {got}")
    return edges


def demodulate_histogram(traj: Trajectory, fs: float, bins=101,
                         scale: float | None = None) -> Histogram2D:
    """Boxcar-demodulated IQ histogram of the fundamental mode.

    The complex amplitude is averaged over consecutive non-overlapping
    windows of length 1/fs and the real/imaginary parts are binned.  When
    the window is long compared to the residence time in a state, counts
    spread along lines joining the states: distinct attractors average
    together.  A gain ``scale`` (volts per photon amplitude) switches the
    axes to volts.  ``bins`` is a bin count per axis or a pair of edge
    arrays, each checked by :func:`_bin_edges`; anything else raises
    :class:`DomainError` naming ``bins``.
    """
    count = isinstance(bins, (int, float, np.integer, np.floating))
    if not count:
        try:
            i_edges, q_edges = bins
        except (TypeError, ValueError):
            raise DomainError("bins", "bins must be a bin count or a pair of "
                              "edge arrays, got a "
                              f"{type(bins).__name__}") from None
        i_edges = _bin_edges(i_edges, "bins")
        q_edges = _bin_edges(q_edges, "bins")
    elif not (1 <= bins < math.inf and bins == int(bins)):
        raise domain("bins", bins, "a positive whole number")
    means = boxcar_demodulate(traj, fs, scale=scale)
    w = max(int(round(1.0 / (fs * traj.dt))), 1)
    i, q = means.real, means.imag
    if count:
        lim = float(np.max(np.abs(means))) * 1.05
        lim = lim if lim > 0 else 1.0
        i_edges = q_edges = np.linspace(-lim, lim, int(bins) + 1)
    counts, _, _ = np.histogram2d(i, q, bins=[i_edges, q_edges])
    return Histogram2D(i_edges=i_edges, q_edges=q_edges,
                       counts=counts.astype(np.int64),
                       fs=1.0 / (w * traj.dt), window=w * traj.dt,
                       units="V" if scale is not None else "photon_amplitude")


def classify_samples(samples: np.ndarray, refs, radius: float) -> np.ndarray:
    """Index of the nearest reference within ``radius`` per sample, else -1."""
    if not 0.0 <= radius < math.inf:
        raise domain("radius", radius, "non-negative and finite")
    refs = np.asarray(refs, dtype=complex)
    if refs.size == 0:
        raise DomainError("refs", "refs must hold at least one reference "
                          "state, got none")
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
        raise DomainError("states", "states must hold at least two reference "
                          f"states, got {len(states)}")
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
