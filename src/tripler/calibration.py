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
from ._roots import brent_min
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


def _check_output_port(gamma1_ext: float, omega: float):
    """Reject an output rate or signal frequency that is not positive and
    finite, one comparison each."""
    if not 0.0 < gamma1_ext < math.inf:
        raise domain("gamma1_ext", gamma1_ext, "positive and finite")
    if not 0.0 < omega < math.inf:
        raise domain("omega", omega, "positive and finite")


def output_power(a1_sq, gamma1_ext: float, gain_db: float, omega: float):
    """Detected power (W) of ``a1_sq`` photons emitted through the output port.

    ``a1_sq`` may be an array, which is not checked (NaN propagates); the
    three scalars are, one comparison each.
    """
    _check_output_port(gamma1_ext, omega)
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


class _Objective:
    """The linecut model and the fit's chi^2, constants bound once.

    Built from ``(delta1, FluxPoint, pd_w)`` per linecut, it holds one
    array per constant over every point of every linecut, in order: the
    pump-intensity numerator beta^2*omega2*P_d and denominator
    3*hbar*omega*(3*omega1 - omega2)^2, so that v = num/(den*x)
    (:func:`pump_intensity`); the existence window, empty above threshold;
    delta and gamma1; and the factors hbar*omega and 2*Gamma1ext of
    :func:`output_power`.  :meth:`model` is the one model formula: the
    stiff-pump upper branch r1^2 = base + sqrt(disc) of
    :func:`steady.branch_quadratic` inside the window, zero outside.

    ``pout_w``, the measured powers in the same order, is needed only by
    the residuals: :meth:`__call__` squares them over a grid of X once,
    in row blocks, and :meth:`reduce` weights the blocks; it and
    :meth:`chi2` sum each linecut's slice and add the sums in linecut
    order.
    """

    __slots__ = ("num", "den", "lo", "hi", "delta", "gamma1", "hbar_omega",
                 "two_gext", "ratio", "pout", "slices", "rows")

    def __init__(self, cuts, gain_db: float, pout_w=None):
        nums, consts, stops = [], [], [0]
        for delta1, fp, pd in cuts:
            m1, m2 = fp.mode1, fp.mode2
            omega = m1.omega + delta1
            _check_output_port(m1.gamma_ext, omega)
            delta, gamma1 = delta1 / m1.alpha, m1.gamma / m1.alpha
            lo, hi = (steady.existence_window(delta, gamma1)
                      or (math.inf, -math.inf))
            nums.append(fp.beta**2 * m2.omega * np.asarray(pd, dtype=float))
            consts.append((3.0 * HBAR * omega * (3.0 * m1.omega - m2.omega)**2,
                           lo, hi, delta, gamma1, HBAR * omega,
                           2.0 * m1.gamma_ext))
            stops.append(stops[-1] + nums[-1].size)
        self.num = np.concatenate(nums)
        (self.den, self.lo, self.hi, self.delta, self.gamma1,
         self.hbar_omega, self.two_gext) = np.repeat(
            np.array(consts).T, np.diff(stops), axis=1)
        self.ratio = _power_ratio(gain_db)
        self.pout = None if pout_w is None else np.asarray(pout_w, dtype=float)
        self.slices = tuple(slice(a, b) for a, b in zip(stops, stops[1:]))
        # grid rows per block: no temporary outgrows the (_GRID_SIZE, n)
        # array of the longest linecut
        longest = max(b - a for a, b in zip(stops, stops[1:]))
        self.rows = max(_GRID_SIZE * longest // max(stops[-1], 1), 1)

    def model(self, x):
        """Detected power per point at ``x``, a scalar or a column ``(k, 1)``
        of chain parameters (then one row per value)."""
        v = self.num / (self.den * x)
        base, disc = steady.branch_quadratic(self.delta, self.gamma1, v)
        r1 = base + np.sqrt(np.maximum(disc, 0.0))
        out = self.hbar_omega * r1 * self.two_gext * self.ratio
        return np.where((v >= self.lo) & (v <= self.hi), out, 0.0)

    def weights(self, x: float, floor: float):
        """Relative-noise weights 1/max(P_model, floor)^2 at chain parameter x."""
        return 1.0 / np.maximum(self.model(x), floor) ** 2

    def _total(self, terms):
        """Sum of ``terms`` over the last axis: each linecut's slice, the
        sums added in linecut order."""
        total = 0.0
        for part in self.slices:
            total = total + np.add.reduce(terms[..., part], axis=-1)
        return total

    def chi2(self, x, weights):
        """sum w*(P_model - P)^2 at ``x``, shaped as :meth:`model` takes it."""
        return self._total((self.model(x) - self.pout) ** 2 * weights)

    def __call__(self, log10x):
        """Squared residuals (P_model - P)^2 at each value of a 1-D sequence
        of log10 X: a list of row blocks of ``rows`` values each, so that no
        temporary of :meth:`model` outgrows a block."""
        xs = [10.0 ** float(g) for g in log10x]
        return [(self.model(np.array(xs[a:a + self.rows])[:, None])
                 - self.pout) ** 2 for a in range(0, len(xs), self.rows)]

    def reduce(self, blocks, weights):
        """:meth:`chi2` per row of the :meth:`__call__` blocks, with
        ``weights``: the same products and sums, bit for bit."""
        return np.concatenate([self._total(sq * weights) for sq in blocks])


def _linecut_model(p_d, x, fp: circuit.FluxPoint, delta1: float,
                   gain_db: float):
    """Model detected power along one linecut for a given chain parameter.

    ``p_d`` is 1-D and ``x`` a scalar or a column ``(k, 1)`` of chain
    parameters; the result then has one row per value.  Drive powers whose
    pump intensity falls outside the existence window give zero.
    """
    return _Objective([(delta1, fp, p_d)], gain_db).model(x)


#: search interval of the chain parameter X in :func:`fit_x`
_X_BOUNDS = (1e8, 1e16)

#: points of the log10 X grid over :data:`_X_BOUNDS` in :func:`fit_x`
_GRID_SIZE = 161

#: fewest points above the noise floor a linecut must give :func:`fit_x`
_MIN_POINTS = 5


@dataclass(frozen=True)
class FitResult:
    """Single-parameter calibration fit output."""

    x: float
    x_sigma: float
    residual: float      # weighted chi^2 at the optimum (dimensionless)
    rel_noise: float     # estimated relative noise sqrt(residual / dof)
    n_points: int
    curves: tuple        # model P_out per linecut at the fitted x


def fit_x(linecuts, params: circuit.CircuitParams,
          chain: CalibrationChain) -> FitResult:
    """Weighted least-squares fit of the chain parameter X to power linecuts.

    Fits the points above the noise floor F; each linecut must contribute
    at least ``_MIN_POINTS`` of them, and X is searched within
    ``_X_BOUNDS``.  The noise model is relative, sigma_i = eps*max(P_i, F)
    (Press et al., Numerical Recipes 3rd ed., sections 15.1 and 15.6): a
    :data:`_GRID_SIZE`-point log10 X grid of the unweighted residual gives
    X0, the weights w_i = 1/max(P_model,i(X0), F)^2 are taken from the
    model there (not from the data, which would bias the fit), and the
    same grid's squared residuals, computed once for both passes, give the
    weighted chi^2, whose grid minimum Brent's minimizer
    (:func:`_roots.brent_min`) refines between its grid neighbours.
    ``residual`` is that chi^2 at the optimum, ``rel_noise`` the estimated
    eps = sqrt(chi^2/dof), and ``x_sigma`` the 1-sigma of the Fisher
    information, from the curvature of chi^2 in X.  ``curves`` is the
    model along every point of each linecut at the fitted X.
    """
    linecuts = list(linecuts)
    if not linecuts:
        raise NoSignalError("no linecuts supplied")
    by_flux = {}
    cuts, pout = [], []
    for lc in linecuts:
        if lc.flux not in by_flux:
            by_flux[lc.flux] = circuit.at_flux(params, lc.flux)
        mask = lc.pout_w > chain.noise_floor_w
        if int(mask.sum()) < _MIN_POINTS:
            raise NoSignalError(
                f"linecut at delta1={lc.delta1:.3g} has {int(mask.sum())} points "
                f"above the noise floor; need {_MIN_POINTS}")
        cuts.append((lc.delta1, by_flux[lc.flux], lc.pd_w[mask]))
        pout.append(lc.pout_w[mask])
    objective = _Objective(cuts, chain.gain_db, np.concatenate(pout))
    n_points = objective.pout.size

    grid = np.linspace(math.log10(_X_BOUNDS[0]), math.log10(_X_BOUNDS[1]),
                       _GRID_SIZE).tolist()

    residuals = objective(grid)     # the grid model, once for both passes

    def grid_min(weights):
        k = int(np.argmin(objective.reduce(residuals, weights)))
        if k in (0, _GRID_SIZE - 1):
            raise ConvergenceError("objective minimized at the search boundary",
                                   diagnostics={"bounds": _X_BOUNDS})
        return k

    k = grid_min(np.ones(n_points))
    weights = objective.weights(10.0 ** grid[k], chain.noise_floor_w)
    k = grid_min(weights)
    log10x = brent_min(lambda g: objective.chi2(10.0 ** g, weights),
                       grid[k - 1], grid[k], grid[k + 1])
    x = 10.0 ** log10x
    # 1-sigma from the curvature of chi^2 with respect to x itself
    h = 1e-4 * x
    chi, up, down = objective.chi2(np.array([[x], [x + h], [x - h]]),
                                   weights).tolist()
    curv = (up - 2.0 * chi + down) / h**2
    dof = max(n_points - 1, 1)
    sigma = math.sqrt(2.0 * (chi / dof) / curv) if curv > 0 else math.inf
    # every linecut's full curve from one objective, split per linecut
    whole = _Objective([(lc.delta1, by_flux[lc.flux], lc.pd_w)
                        for lc in linecuts], chain.gain_db)
    full = whole.model(x)
    curves = tuple(full[part] for part in whole.slices)
    return FitResult(x=x, x_sigma=sigma, residual=chi,
                     rel_noise=math.sqrt(chi / dof), n_points=n_points,
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
    point, restored to generator-plane watts through X.  One operating
    point carries the per-flux constants and their checks; each row's
    detuning, window and bound then come in one pass over the rows, and
    at most one :class:`RegimeWarning` names the first row where the bound
    leaves its regime.
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
    w1 = fp.mode1.omega
    # the point at the first detuning off the model, which raises naming
    # delta1 (NaN too), else at the first row: the per-flux constants
    off = ~(np.abs(d1) < w1)
    point = fp.operating_point(float(d1[int(np.argmax(off))]))
    # each row's delta as operating_point rounds it, its window as the
    # scalar rule gives it (which rejects a delta that is not finite)
    delta = ((w1 + d1) - w1) / point.alpha1
    windows = [steady.existence_window(dd, point.gamma1)
               for dd in delta.tolist()]
    past = np.array([w is not None for w in windows])
    lo, hi = np.array([w or (np.nan, np.nan) for w in windows]).T[:, :, None]
    boundary = np.full(d1.size, np.nan)
    if past.any():      # max_drive, and its checks, only past threshold
        boundary[past] = drive_power_through_x(
            steady._drive_bound(point, delta[past]), chain.x, fp, d1[past])
    # rows without a window keep NaN bounds, so no cell of theirs compares true
    v = pump_intensity(pd[None, :], chain.x, fp, d1[:, None])
    labels = np.full((d1.size, pd.size), "I", dtype=object)
    labels[(v >= lo) & (v <= hi)] = "exists"
    return RegionMap(delta1=d1, pd_w=pd, labels=labels, boundary_pd_w=boundary)
