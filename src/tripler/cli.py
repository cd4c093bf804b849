"""Command-line front-end: file-based, reproducible workflows.

Subcommands: ``spectrum | steady | sweep | simulate | fit | thresholds``.
A JSON run configuration supplies the device file, chain constants and
per-command settings; command-line flags override the file.  Every output
artifact embeds the resolved configuration and seed in its comment header
(or JSON body), and contains no timestamps, so identical inputs produce
byte-identical outputs.

Exit codes: 0 success; 2 usage or configuration problems; 3 physical
domain errors (flux range, degenerate flux, overcurrent, below threshold);
4 solver non-convergence; 5 insufficient or inconsistent data; 6 amplitude
divergence during integration; 7 malformed file payloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import calibration, circuit, dynamics, io, steady
from .config import load_device_config
from .errors import (
    BelowThresholdError,
    ConfigError,
    ConvergenceError,
    DegenerateFluxError,
    DivergenceError,
    EmptyTrajectoryError,
    FluxRangeError,
    FormatError,
    MissingCouplingError,
    NoSignalError,
    OvercurrentError,
    OverlappingRadiusError,
    PhaseDomainError,
    ResidualError,
    TriplerError,
)

ENV_CONFIG = "TRIPLER_CONFIG"

#: longest expected ``simulate`` integration, in seconds: the step count
#: times the scheme's ``dynamics.SCALAR_STEP_S``; a longer run is refused
#: before it starts
MAX_SIMULATE_S = 24 * 3600.0

_EXIT_CODES = (
    (2, (ConfigError, MissingCouplingError)),
    (3, (DegenerateFluxError, FluxRangeError, OvercurrentError,
         BelowThresholdError, PhaseDomainError)),
    (4, (ConvergenceError, ResidualError)),
    (5, (NoSignalError, EmptyTrajectoryError, OverlappingRadiusError)),
    (6, (DivergenceError,)),
    (7, (FormatError,)),
)


#: every key a run configuration may hold: the top level (``None``), then
#: each section a command reads
_RUN_KEYS = {
    None: ("device", "out", "seed", "chain", "spectrum", "steady", "sweep",
           "simulate", "thresholds"),
    "chain": ("gain_db", "noise_floor_w", "x", "scale07"),
    "spectrum": ("flux",),
    "steady": ("flux", "delta1_hz", "b2_sq", "pd_dbm", "drive_phase"),
    "sweep": ("flux", "delta1_hz", "pd_dbm"),
    "simulate": ("flux", "delta1_hz", "b2_sq", "pd_dbm", "drive_phase",
                 "duration_s", "dt_s", "store_every", "initial",
                 "noise_n_th", "fs_hz", "bins"),
    "thresholds": ("flux",),
}


def _check_keys(doc: dict, section=None):
    """Reject the first key of ``doc`` that ``_RUN_KEYS[section]`` lacks."""
    known = _RUN_KEYS[section]
    for key in doc:
        if key not in known:
            where = "at the top level" if section is None \
                else f"in the {section!r} section"
            raise ConfigError(f"unknown key {key!r} {where} "
                              f"(known keys: {', '.join(known)})")


def _check_top_level(doc: dict):
    """Reject top-level values of the wrong type before any command runs.

    The seed must fit the signed 64-bit ``.trpl`` header field, where -1
    marks an unseeded run.
    """
    for key in ("device", "out"):
        if key in doc and not isinstance(doc[key], str):
            raise ConfigError(f"{key!r} must be a path string, "
                              f"got {doc[key]!r}")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or not 0 <= seed <= 2**63 - 1):
        raise ConfigError(f"'seed' must be an integer in [0, 2**63 - 1], "
                          f"got {seed!r}")


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} is not allowed")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} overflows a float")
    return value


def _exit_code(exc: TriplerError) -> int:
    for code, classes in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 1


class _Run:
    """Resolved run configuration: file values with flag overrides applied."""

    def __init__(self, args):
        path = args.config or os.environ.get(ENV_CONFIG)
        self.doc = {}
        self.config_path = path
        if path:
            try:
                self.doc = json.loads(Path(path).read_text(encoding="utf-8"),
                                      parse_constant=_reject_constant,
                                      parse_float=_finite_float)
            except (UnicodeDecodeError, json.JSONDecodeError,
                    ConfigError) as exc:
                raise ConfigError(f"run configuration {path!r}: {exc}")
            if not isinstance(self.doc, dict):
                raise ConfigError(f"run configuration {path!r} must be a "
                                  "JSON object at the top level")
            _check_keys(self.doc)
        if args.out is not None:
            self.doc["out"] = args.out
        if args.seed is not None:
            self.doc["seed"] = args.seed
        _check_top_level(self.doc)
        self.format = args.format

    @property
    def out_dir(self) -> Path:
        out = Path(self.doc.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def seed(self):
        return self.doc.get("seed")

    def section(self, name: str) -> dict:
        sec = self.doc.get(name)
        if not isinstance(sec, dict):
            raise ConfigError(f"run configuration lacks a {name!r} section")
        _check_keys(sec, name)
        return sec

    def device(self) -> circuit.CircuitParams:
        dev = self.doc.get("device")
        if not dev:
            raise ConfigError("run configuration lacks a 'device' file path")
        base = Path(self.config_path).parent if self.config_path else Path(".")
        path = Path(dev) if os.path.isabs(dev) else base / dev
        return load_device_config(path)

    def chain(self) -> calibration.CalibrationChain:
        sec = self.section("chain")
        x = sec.get("x")
        try:
            return calibration.CalibrationChain(
                gain_db=float(sec["gain_db"]),
                noise_floor_w=float(sec["noise_floor_w"]),
                x=None if x is None else float(x),
                scale07=float(sec.get("scale07", 0.7)),
            )
        except KeyError as exc:
            raise ConfigError(f"chain section missing {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"chain section: {exc}")

    def meta(self, command: str) -> dict:
        return {"command": command, "config": self.doc, "seed": self.seed}


def _flux_axis(axis_spec) -> np.ndarray:
    try:
        lo, hi, n = axis_spec
        axis = np.linspace(float(lo), float(hi), int(n))
    except (TypeError, ValueError):
        raise ConfigError(f"expected a [lo, hi, n] axis, got {axis_spec!r}")
    if axis.size == 0:
        raise ConfigError("empty axis")
    if not np.all(np.isfinite(axis)):
        raise ConfigError(f"axis {axis_spec!r} is not finite")
    return axis


def _float(key, value) -> float:
    """``value`` of config key ``key`` as a float, finite or not.

    ``flux`` is read this way: a non-finite flux fails the flux range check.
    """
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")


def _finite(key, value, nonnegative=False, positive=False) -> float:
    """``value`` of config key ``key`` as a finite float, bounded below if asked."""
    number = _float(key, value)
    if not math.isfinite(number) or (nonnegative and number < 0) \
            or (positive and number <= 0):
        kind = "a finite positive" if positive else \
            "a finite non-negative" if nonnegative else "a finite"
        raise ConfigError(f"{key!r} must be {kind} number, got {number!r}")
    return number


def _number(sec, key, nonnegative=False, positive=False,
            default=None) -> float:
    """A finite number from a config section; ``default`` if the key is absent.

    Without a default the key is required.
    """
    if default is not None and key not in sec:
        return default
    return _finite(key, sec[key], nonnegative=nonnegative, positive=positive)


def _count(sec, key, default: int) -> int:
    """A positive integer from a config section (integral floats allowed)."""
    value = sec.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _number_list(sec, key, default, length=None, positive=False) -> list:
    """A list of finite numbers from a config section, of ``length`` if given."""
    values = sec.get(key, default)
    if not isinstance(values, list) or (length is not None
                                        and len(values) != length):
        size = f"{length} numbers" if length is not None else "numbers"
        raise ConfigError(f"{key!r} must be a list of {size}, got {values!r}")
    return [_finite(key, v, positive=positive) for v in values]


def _memory_bytes() -> int:
    """Physical memory in bytes, or numpy's largest array size if unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return int(np.iinfo(np.intp).max)


def _b2_sq_from(sec, chain, fp, delta1) -> float:
    """Drive |B2|^2 from the config: direct, or generator power through X."""
    if "b2_sq" in sec:
        return _number(sec, "b2_sq", nonnegative=True)
    if "pd_dbm" in sec:
        if chain is None or chain.x is None:
            raise ConfigError("drive given as power: the chain needs x")
        pd = float(calibration.dbm_to_watt(_number(sec, "pd_dbm")))
        return float(calibration.drive_amplitude_sq_through_x(
            pd, chain.x, fp, delta1))
    raise ConfigError("steady/simulate sections need b2_sq or pd_dbm")


def _operating_point(run: _Run, sec, params):
    """The reduced operating point of a ``steady``/``simulate`` section.

    Returns it with the drive |B2|^2 (s^-1).  A detuning outside the model
    or a drive that overflows a float is a configuration error naming its key.
    """
    flux = _float("flux", sec.get("flux", 0.0))
    delta1 = 2.0 * math.pi * _number(sec, "delta1_hz")
    chain = run.chain() if "chain" in run.doc else None
    fp = circuit.at_flux(params, flux)
    try:
        point = fp.operating_point(delta1)
    except ValueError as exc:       # also a 2*pi*delta1 that overflows
        raise ConfigError(f"'delta1_hz': {exc}")
    with np.errstate(over="ignore"):    # reported below, not warned
        b2_sq = _b2_sq_from(sec, chain, fp, delta1)
    if not math.isfinite(b2_sq):
        raise ConfigError(f"'pd_dbm' gives a drive |B2|^2 that overflows a "
                          f"float, got {sec['pd_dbm']!r}")
    return point.with_drive(math.sqrt(b2_sq),
                            _number(sec, "drive_phase", default=0.0)), b2_sq


def _kerr_meta(params) -> dict:
    m1 = circuit.mode_profile(params, 0.0, 1)
    return {
        "kerr_energy_convention": params.kerr_energy,
        "alpha1_rad_s_flux0": m1.alpha,
        "alpha1_over_2pi_hz_flux0": m1.alpha / (2.0 * math.pi),
    }


def cmd_spectrum(run: _Run) -> int:
    params = run.device()
    axis = _flux_axis(run.section("spectrum").get("flux", [0.0, 0.45, 10]))
    rows = []
    for phi in axis:
        fp = circuit.at_flux(params, float(phi))
        m1, m2 = fp.mode1, fp.mode2
        f1 = m1.omega / (2.0 * math.pi)
        f2 = m2.omega / (2.0 * math.pi)
        rows.append((phi, f1, f2, 3.0 * f1 - f2,
                     m1.alpha, m2.alpha, m1.gamma, m2.gamma))
    out = run.out_dir / "spectrum.csv"
    io.write_table(out, ("flux_frac", "f1_hz", "f2_hz", "anharmonicity_hz",
                         "alpha1_rad_s", "alpha2_rad_s", "gamma1_rad_s",
                         "gamma2_rad_s"),
                   rows, meta=run.meta("spectrum") | _kerr_meta(params))
    print(out)
    return 0


def _state_doc(st: steady.SteadyState) -> dict:
    return {
        "kind": st.kind,
        "branch": st.branch,
        "copy": st.copy,
        "r1_sq": st.r1_sq,
        "r2_sq": st.r2_sq,
        "theta_rad": st.theta,
        "phi1_rad": st.phi1,
        "phi2_rad": st.phi2,
        "stable": st.stable,
        "eigenvalues_alpha1": [[z.real, z.imag] for z in st.eigenvalues],
        "residual": st.residual,
    }


def cmd_steady(run: _Run) -> int:
    params = run.device()
    point, b2_sq = _operating_point(run, run.section("steady"), params)
    states = steady.solve_selfconsistent(point)
    meta = run.meta("steady") | _kerr_meta(params)
    if run.format == "csv":
        out = run.out_dir / "steady.csv"
        io.write_table(out, ("kind", "branch", "copy", "r1_sq", "r2_sq",
                             "theta_rad", "phi1_rad", "phi2_rad", "stable",
                             "max_re_lambda_alpha1"),
                       [(s.kind, s.branch, s.copy, s.r1_sq, s.r2_sq, s.theta,
                         s.phi1, s.phi2, s.stable,
                         max(z.real for z in s.eigenvalues)) for s in states],
                       meta=meta)
    else:
        out = run.out_dir / "steady.json"
        io.write_json(out, {
            "meta": meta,
            "point": {
                "delta": point.delta, "Delta": point.Delta,
                "gamma1": point.gamma1, "gamma2": point.gamma2,
                "gamma2_ext": point.gamma2_ext, "beta": point.beta,
                "alpha1_rad_s": point.alpha1, "b2_sq": b2_sq,
            },
            "states": [_state_doc(s) for s in states],
        })
    print(out)
    return 0


def cmd_sweep(run: _Run) -> int:
    params = run.device()
    chain = run.chain()
    sec = run.section("sweep")
    flux = _float("flux", sec.get("flux", 0.0))
    d1 = 2.0 * math.pi * _flux_axis(sec["delta1_hz"])
    pd = calibration.dbm_to_watt(_flux_axis(sec["pd_dbm"]))
    if chain.x is None:
        raise ConfigError("sweep needs the chain's fitted 'x'")
    if not np.all(pd > 0):
        raise ConfigError(f"'pd_dbm' {sec['pd_dbm']!r} underflows to 0 W")
    try:
        rmap = calibration.region_map(params, flux, chain, d1, pd)
    except ValueError as exc:       # the one grid check left: the detuning
        raise ConfigError(f"'delta1_hz': {exc}")
    meta = run.meta("sweep")
    out_csv = run.out_dir / "region_map.csv"
    io.write_table(out_csv, ("delta1_hz", "pd_dbm", "label"),
                   ((float(dd) / (2 * math.pi), calibration.watt_to_dbm(p),
                     rmap.labels[i, j])
                    for i, dd in enumerate(rmap.delta1)
                    for j, p in enumerate(rmap.pd_w)), meta=meta)
    boundary = [
        [dd / (2 * math.pi), float(calibration.watt_to_dbm(b))]
        for dd, b in zip(rmap.delta1, rmap.boundary_pd_w) if np.isfinite(b)
    ]
    out_json = run.out_dir / "boundary.json"
    io.write_json(out_json, {"meta": meta,
                             "columns": ["delta1_hz", "pd_max_dbm"],
                             "polyline": boundary})
    print(out_csv)
    print(out_json)
    return 0


def cmd_simulate(run: _Run) -> int:
    params = run.device()
    sec = run.section("simulate")
    point, _ = _operating_point(run, sec, params)
    duration = _number(sec, "duration_s", positive=True)
    dt = _number(sec, "dt_s", positive=True)
    steps = duration / dt
    if not 0.5 < steps < math.inf:     # integrate rounds to whole steps
        raise ConfigError(f"'duration_s' / 'dt_s' must give at least one "
                          f"and finitely many steps, got {steps!r}")
    store_every = _count(sec, "store_every", 1)
    n_steps = int(round(steps))
    n_stored = n_steps // store_every
    need, have = 2 * 16 * n_stored, _memory_bytes()   # a1, a2 as complex128
    if need > have:
        raise ConfigError(f"'dt_s' and 'store_every' give {n_stored:.3g} "
                          f"stored samples ({need:.3g} bytes), more than "
                          f"the {have:.3g} bytes of memory")
    if n_stored == 0:
        raise ConfigError(f"'store_every' exceeds the {n_steps:g} "
                          "integration steps: nothing is stored")
    n_th = _number(sec, "noise_n_th", nonnegative=True, default=0.0)
    scheme = "etd1" if n_th > 0 else "rk4"
    step_s = dynamics.SCALAR_STEP_S[scheme]
    if n_steps * step_s > MAX_SIMULATE_S:
        raise ConfigError(f"'dt_s' gives {n_steps:g} integration steps, "
                          f"about {n_steps * step_s:.3g} s at {step_s:g} s "
                          f"per {scheme} step, over the {MAX_SIMULATE_S:g} s "
                          "limit")
    re1, im1, re2, im2 = _number_list(sec, "initial", [0.0, 0.0, 0.0, 0.0],
                                      length=4)
    fs_list = _number_list(sec, "fs_hz", [], positive=True)
    bins = _count(sec, "bins", 101)
    system = dynamics.TwoModeSystem.from_point(point)
    noise = dynamics.NoiseConfig.thermal(system, n_th) if n_th > 0 else None
    initial = (complex(re1, im1), complex(re2, im2))
    traj = dynamics.integrate(system, initial, duration=duration, dt=dt,
                              noise=noise, seed=run.seed,
                              store_every=store_every)
    out_bin = run.out_dir / "trajectory.trpl"
    io.write_trajectory(out_bin, traj)
    print(out_bin)
    meta = dict(run.meta("simulate"), scheme=scheme,
                dt_guideline_s=dynamics.guideline_timestep(system, initial))
    for fs in fs_list:
        try:
            hist = dynamics.demodulate_histogram(traj, fs, bins=bins)
        except ValueError as exc:   # fs above the stored sampling rate
            raise ConfigError(f"'fs_hz': {exc}")
        out_h = run.out_dir / f"histogram_fs{fs:.0f}.csv"
        io.write_histogram_csv(out_h, hist, meta=meta)
        print(out_h)
    return 0


def cmd_fit(run: _Run, files) -> int:
    params = run.device()
    chain = run.chain()
    if not files:
        raise NoSignalError("no linecut files given")
    linecuts = []
    for f in files:
        lc, _ = io.read_linecut_csv(f)
        linecuts.append(lc)
    result = calibration.fit_x(linecuts, params, chain)
    out = run.out_dir / "fit_report.json"
    io.write_fit_report(out, result, meta=run.meta("fit"))
    print(out)
    return 0


def cmd_thresholds(run: _Run) -> int:
    params = run.device()
    chain = run.chain()
    axis = _flux_axis(run.section("thresholds").get("flux", [0.0, 0.4, 17]))
    rows = [(phi, calibration.visible_threshold(params, float(phi), chain)
             / (2 * math.pi)) for phi in axis]
    out = run.out_dir / "thresholds.csv"
    io.write_table(out, ("flux_frac", "delta1_threshold_hz"), rows,
                   meta=run.meta("thresholds"))
    print(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripler",
        description="Two-mode model of period-tripled oscillations in a "
                    "flux-tunable resonator")
    parser.add_argument("--config", help=f"run configuration JSON "
                        f"(default: ${ENV_CONFIG})")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="preferred tabular output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "steady", "sweep", "simulate", "thresholds"):
        sub.add_parser(name)
    fit = sub.add_parser("fit")
    fit.add_argument("linecuts", nargs="*", help="linecut CSV files")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _Run(args)
        if args.command == "spectrum":
            return cmd_spectrum(run)
        if args.command == "steady":
            return cmd_steady(run)
        if args.command == "sweep":
            return cmd_sweep(run)
        if args.command == "simulate":
            return cmd_simulate(run)
        if args.command == "fit":
            return cmd_fit(run, args.linecuts)
        if args.command == "thresholds":
            return cmd_thresholds(run)
        raise ConfigError(f"unknown command {args.command!r}")
    except TriplerError as exc:
        print(f"tripler {args.command}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except KeyError as exc:
        print(f"tripler {args.command}: missing configuration key {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tripler {args.command}: {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
