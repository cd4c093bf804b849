"""Power calibration between instrument plane and mode amplitudes.

The drive chain and the readout chain each hide an unknown linear factor
(line attenuation Att, system gain G).  All model predictions depend on
the drive chain only through the single combination

    X = Q_2ext * 10**(Att/10)

which is the one parameter fitted to measured power linecuts.  Drive
power here is the generator-plane quantity ``P_d = 3*hbar*omega*|B2|^2 *
X / Q_2ext`` (three quanta of the signal frequency per drive photon), and
the detected power is ``P_out = hbar*omega*|a1|^2 * 2*Gamma_1ext *
10**(G/10)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _lazy_import, circuit, steady
from ._roots import golden_min
from .circuit import HBAR
from .errors import ConvergenceError, DomainError, NoSignalError, domain

np = _lazy_import("numpy")


def dbm_to_watt(p_dbm):
    """P[W] from P[dBm] with the 1 mW reference."""
    return 1e-3 * np.power(10.0, np.asarray(p_dbm, dtype=float) / 10.0)


def watt_to_dbm(p_w):
    """P[dBm] = 10*log10(P / 1 mW)."""
    return 10.0 * np.log10(np.asarray(p_w, dtype=float) / 1e-3)


def drive_power_through_x(b2_sq, x: float, fp: circuit.FluxPoint,
                          delta1: float):
    """Generator-plane drive power (W) from |B2|^2 (s^-1) through X.

    P_d = 3*hbar*omega*|B2|^2 * X / Q_2ext with omega = omega1 + delta1 and
    Q_2ext = omega2 / (2*Gamma_2ext); the attenuation enters only through X.
    """
    q2_ext = fp.mode2.omega / (2.0 * fp.mode2.gamma_ext)
    omega = fp.mode1.omega + delta1
    return 3.0 * HBAR * omega * np.asarray(b2_sq, dtype=float) * x / q2_ext


def drive_amplitude_sq_through_x(p_d, x: float, fp: circuit.FluxPoint,
                                 delta1: float):
    """Inverse of :func:`drive_power_through_x`: |B2|^2 (s^-1) from P_d (W)."""
    q2_ext = fp.mode2.omega / (2.0 * fp.mode2.gamma_ext)
    omega = fp.mode1.omega + delta1
    return np.asarray(p_d, dtype=float) * q2_ext / (3.0 * HBAR * omega * x)


def _power_ratio(gain_db: float) -> float:
    """10**(gain_db/10), the power ratio of a gain in dB.

    :class:`DomainError` names ``gain_db`` where the ratio is no finite
    float: a NaN or infinite gain, or one above about 3082.5 dB, where the
    power overflows.
    """
    if -math.inf < gain_db < math.inf:
        try:
            return 10.0 ** (gain_db / 10.0)
        except OverflowError:
            pass
    raise domain("gain_db", gain_db,
                 "finite, with 10**(gain_db/10) a finite float")


def output_power(a1_sq, gamma1_ext: float, gain_db: float, omega: float):
    """Detected power (W) of ``a1_sq`` photons emitted through the output port.

    ``a1_sq`` may be an array, which is not checked (NaN propagates); the
    three scalars are, one comparison each, since the fit calls this once
    per objective evaluation.
    """
    if not 0.0 < gamma1_ext < math.inf:
        raise domain("gamma1_ext", gamma1_ext, "positive and finite")
    if not 0.0 < omega < math.inf:
        raise domain("omega", omega, "positive and finite")
    return HBAR * omega * a1_sq * 2.0 * gamma1_ext * _power_ratio(gain_db)


@dataclass(frozen=True)
class CalibrationChain:
    """Measurement-chain constants.

    ``gain_db`` is the output gain, whose power ratio 10**(gain_db/10)
    must be a finite float (up to about 3082.5 dB); ``noise_floor_w`` the
    detected noise power; ``x`` the fitted chain parameter when known;
    ``scale07`` the empirical ratio of the observed to the predicted
    maximum intensity.  The drive-line attenuation enters only through
    ``x``.
    """

    gain_db: float
    noise_floor_w: float
    x: float | None = None
    scale07: float = 0.7

    def __post_init__(self):
        _power_ratio(self.gain_db)
        if not 0.0 < self.noise_floor_w < math.inf:
            raise domain("noise_floor_w", self.noise_floor_w,
                         "positive and finite")
        if self.x is not None and not 0.0 < self.x < math.inf:
            raise domain("x", self.x, "positive and finite")
        if not 0.0 < self.scale07 <= 1.0:
            raise domain("scale07", self.scale07, "in (0, 1]")


@dataclass(frozen=True)
class Linecut:
    """Measured output power versus drive power at fixed detuning and flux."""

    delta1: float            # rad/s
    flux: float              # flux quanta
    pd_w: np.ndarray
    pout_w: np.ndarray

    def __post_init__(self):
        pd = np.asarray(self.pd_w, dtype=float)
        po = np.asarray(self.pout_w, dtype=float)
        object.__setattr__(self, "pd_w", pd)
        object.__setattr__(self, "pout_w", po)
        for name in ("delta1", "flux"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise domain(name, getattr(self, name), "finite")
        for name, arr in (("pd_w", pd), ("pout_w", po)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(name, f"{name} must be finite")
        if pd.shape != po.shape or pd.ndim != 1:
            raise DomainError("pout_w", "pd_w and pout_w must be matching 1-D "
                              f"arrays, got shapes {pd.shape} and {po.shape}")
        if not np.all(np.diff(pd) > 0):
            raise DomainError("pd_w", "pd_w must be strictly increasing")
        if np.any(po < 0):
            raise DomainError("pout_w", "pout_w must be non-negative")


def pump_intensity(p_d, x: float, fp: circuit.FluxPoint, delta1: float):
    """Reduced pump intensity r2^2 from generator power, in the stiff-pump limit.

    r2^2 = beta^2*omega2*P_d / (3*hbar*omega*(3w1-w2)^2*X); the attenuation
    and the pump external Q enter only through X.
    """
    m1, m2 = fp.mode1, fp.mode2
    omega = m1.omega + delta1
    return (fp.beta**2 * m2.omega * np.asarray(p_d, dtype=float)
            / (3.0 * HBAR * omega * (3.0 * m1.omega - m2.omega)**2 * x))


def _linecut_model(p_d, x, fp: circuit.FluxPoint, delta1: float,
                   gain_db: float):
    """Model detected power along a linecut for a given chain parameter.

    ``x`` is a scalar or a column ``(k, 1)`` of chain parameters; the
    result then has one row per value.  Drive powers whose pump intensity
    falls outside the existence window give zero.
    """
    m1 = fp.mode1
    delta = delta1 / m1.alpha
    gamma1 = m1.gamma / m1.alpha
    v = pump_intensity(p_d, x, fp, delta1)
    window = steady.existence_window(delta, gamma1)
    if window is None:
        return np.zeros_like(v)
    lo, hi = window
    base, disc = steady.branch_quadratic(delta, gamma1, v)
    r1 = base + np.sqrt(np.maximum(disc, 0.0))
    out = output_power(r1, m1.gamma_ext, gain_db, m1.omega + delta1)
    return np.where((v >= lo) & (v <= hi), out, 0.0)


#: search interval of the chain parameter X in :func:`fit_x`
_X_BOUNDS = (1e8, 1e16)

#: fewest points above the noise floor a linecut must give :func:`fit_x`
_MIN_POINTS = 5


@dataclass(frozen=True)
class FitResult:
    """Single-parameter calibration fit output."""

    x: float
    x_sigma: float
    residual: float      # sum of squared residuals at the optimum (W^2)
    n_points: int
    curves: tuple        # model P_out per linecut at the fitted x


def _rss(cuts, log10x, gain_db: float):
    """Sum of squared residuals at each value of a 1-D sequence of log10 X.

    ``cuts`` holds ``(delta1, FluxPoint, pd_w, pout_w)`` per linecut,
    restricted to the points used in the fit; the per-linecut sums are
    added in the order given.
    """
    x = np.array([10.0 ** float(g) for g in log10x])[:, None]
    total = np.zeros(len(log10x))
    for delta1, fp, pd, po in cuts:
        model = _linecut_model(pd, x, fp, delta1, gain_db)
        total = total + np.sum((model - po) ** 2, axis=-1)
    return total


def fit_x(linecuts, params: circuit.CircuitParams,
          chain: CalibrationChain) -> FitResult:
    """Least-squares fit of the chain parameter X to power linecuts.

    Uniform absolute-power weighting over the points above the noise
    floor; each linecut must contribute at least ``_MIN_POINTS`` such
    points, and X is searched within ``_X_BOUNDS``.  The achieved 1-sigma
    uncertainty comes from the curvature of the residual near the optimum.
    """
    linecuts = list(linecuts)
    if not linecuts:
        raise NoSignalError("no linecuts supplied")
    by_flux = {}
    cuts = []
    for lc in linecuts:
        if lc.flux not in by_flux:
            by_flux[lc.flux] = circuit.at_flux(params, lc.flux)
        mask = lc.pout_w > chain.noise_floor_w
        if int(mask.sum()) < _MIN_POINTS:
            raise NoSignalError(
                f"linecut at delta1={lc.delta1:.3g} has {int(mask.sum())} points "
                f"above the noise floor; need {_MIN_POINTS}")
        cuts.append((lc.delta1, by_flux[lc.flux], lc.pd_w[mask],
                     lc.pout_w[mask]))
    n_points = sum(pd.size for _, _, pd, _ in cuts)

    lo, hi = math.log10(_X_BOUNDS[0]), math.log10(_X_BOUNDS[1])
    grid = np.linspace(lo, hi, 161)
    vals = _rss(cuts, grid, chain.gain_db)
    k = int(np.argmin(vals))
    if k in (0, len(grid) - 1):
        raise ConvergenceError("objective minimized at the search boundary",
                               diagnostics={"bounds": _X_BOUNDS})
    log10x = golden_min(lambda g: _rss(cuts, [g], chain.gain_db)[0],
                        grid[k - 1], grid[k], grid[k + 1])
    x = 10.0 ** log10x
    # 1-sigma from the curvature of chi^2 with respect to x itself
    h = 1e-4 * x
    chi, up, down = (float(v) for v in _rss(
        cuts, [log10x, math.log10(x + h), math.log10(x - h)], chain.gain_db))
    curv = (up - 2.0 * chi + down) / h**2
    dof = max(n_points - 1, 1)
    sigma = math.sqrt(2.0 * (chi / dof) / curv) if curv > 0 else math.inf
    curves = tuple(_linecut_model(lc.pd_w, x, by_flux[lc.flux], lc.delta1,
                                  chain.gain_db) for lc in linecuts)
    return FitResult(x=x, x_sigma=sigma, residual=chi, n_points=n_points,
                     curves=curves)


def predict_max_output(params: circuit.CircuitParams, flux: float,
                       delta1: float, chain: CalibrationChain) -> float:
    """Peak detected power (W) at a detuning past threshold.

    The predicted peak intensity (:func:`steady.max_intensity` at the
    operating point) is scaled by the empirical ``scale07`` before
    conversion to detected power.  ``delta1`` must lie inside
    (-omega1, omega1), as :meth:`circuit.FluxPoint.operating_point` requires.
    """
    fp = circuit.at_flux(params, flux)
    point = fp.operating_point(delta1)  # rejects a detuning off the model
    m1 = fp.mode1
    # delta1/alpha1, not point.delta: that one is rounded through the signal
    # frequency and can put the exact threshold -sqrt(7)*Gamma1 above it
    r1_max, _ = steady.max_intensity(delta1 / point.alpha1, point.gamma1)
    return float(output_power(chain.scale07 * r1_max, m1.gamma_ext,
                              chain.gain_db, m1.omega + delta1))


def visible_threshold(params: circuit.CircuitParams, flux: float,
                      chain: CalibrationChain) -> float:
    """Detuning (rad/s, negative) where oscillations first become visible.

    The true existence threshold is -sqrt(7)*Gamma1(flux); when the peak
    output there is below the noise floor F, visibility starts deeper in
    the red, where the predicted peak power crosses the floor.  In units of
    alpha1, write u = |delta| + sqrt(delta^2 - 7*gamma1^2), which inverts
    :func:`steady.max_intensity` as |delta| = (u^2 + 7*gamma1^2)/(2*u).
    The peak of :func:`predict_max_output` is then

        K*(omega1*u - alpha1*(u^2 + 7*gamma1^2)/2),
        K = hbar*2*Gamma1ext*10**(G/10)*scale07*4/7,

    and it meets F at the smaller root of (alpha1/2)*u^2 - omega1*u + q = 0
    with q = 3.5*alpha1*gamma1^2 + F/K, taken without cancellation as
    u = 2*q/(omega1 + sqrt(omega1^2 - 2*alpha1*q)).  Returns the larger
    magnitude of the two thresholds, the true one exactly.  A floor above
    the largest peak, K*(omega1^2/(2*alpha1) - 3.5*alpha1*gamma1^2), raises
    :class:`NoSignalError` naming both powers.
    """
    m1 = circuit.at_flux(params, flux).mode1
    w1, a1, g1 = m1.omega, m1.alpha, m1.gamma / m1.alpha
    k = (HBAR * 2.0 * m1.gamma_ext * _power_ratio(chain.gain_db)
         * chain.scale07 * 4.0 / 7.0)
    floor = chain.noise_floor_w
    largest = k * (w1**2 / (2.0 * a1) - 3.5 * a1 * g1**2)
    if not floor <= largest:
        raise NoSignalError(
            f"noise floor {floor:.6g} W lies above the largest predicted peak "
            f"output {largest:.6g} W at flux {flux}")
    q = 3.5 * a1 * g1**2 + floor / k
    # the largest peak bounds q, so the square root is real up to rounding
    u = 2.0 * q / (w1 + math.sqrt(max(w1**2 - 2.0 * a1 * q, 0.0)))
    if u <= steady.THRESHOLD_FACTOR * g1:
        return -steady.THRESHOLD_FACTOR * m1.gamma
    return -a1 * (u**2 + 7.0 * g1**2) / (2.0 * u)


@dataclass(frozen=True)
class RegionMap:
    """Existence classification over a drive-power/detuning grid.

    ``labels`` is "I" where no excited state exists and "exists" in the
    region II+III where one does (which part of it the system actually
    occupies is a noise-dynamics question beyond this map).  The boundary
    array carries the maximum drive power per detuning column (NaN above
    threshold).
    """

    delta1: np.ndarray
    pd_w: np.ndarray
    labels: np.ndarray       # shape (len(delta1), len(pd_w)), dtype object/str
    boundary_pd_w: np.ndarray


def region_map(params: circuit.CircuitParams, flux: float,
               chain: CalibrationChain, delta1_grid, pd_grid_w) -> RegionMap:
    """Classify a (detuning x drive power) grid and trace the upper boundary.

    Requires the fitted ``chain.x``, and every detuning inside
    (-omega1, omega1) as :meth:`circuit.FluxPoint.operating_point` does.
    A cell supports excited states when its detuning is past threshold and
    the stiff-pump intensity falls inside the existence window; the
    boundary polyline is :func:`steady.max_drive` at the column's operating
    point, restored to generator-plane watts through X.
    """
    if chain.x is None:
        raise DomainError("chain", "region_map needs the fitted chain "
                          "parameter x, got chain.x = None")
    d1 = np.asarray(delta1_grid, dtype=float)
    pd = np.asarray(pd_grid_w, dtype=float)
    for name, grid in (("delta1_grid", d1), ("pd_grid_w", pd)):
        if grid.size == 0:
            raise DomainError(name, f"{name} must be non-empty")
    bad = pd.size - np.count_nonzero((pd > 0) & (pd < math.inf))   # NaN too
    if bad:
        raise DomainError("pd_grid_w", "pd_grid_w must hold finite positive "
                          f"powers, got {bad} of {pd.size} outside (0, inf)")
    fp = circuit.at_flux(params, flux)
    lo = np.full((d1.size, 1), np.nan)
    hi = np.full((d1.size, 1), np.nan)
    boundary = np.full(d1.size, np.nan)
    for i, dd in enumerate(d1):
        point = fp.operating_point(dd)      # rejects a detuning off the model
        window = steady.existence_window(point.delta, point.gamma1)
        if window is None:
            continue
        lo[i], hi[i] = window
        b2_max = steady.max_drive(point)
        boundary[i] = drive_power_through_x(b2_max, chain.x, fp, dd)
    # rows without a window keep NaN bounds, so no cell of theirs compares true
    v = pump_intensity(pd[None, :], chain.x, fp, d1[:, None])
    labels = np.full((d1.size, pd.size), "I", dtype=object)
    labels[(v >= lo) & (v <= hi)] = "exists"
    return RegionMap(delta1=d1, pd_w=pd, labels=labels, boundary_pd_w=boundary)
