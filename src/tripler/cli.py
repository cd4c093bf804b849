"""Command-line front-end: file-based, reproducible workflows.

Subcommands: ``spectrum | steady | sweep | simulate | fit | thresholds``.
A JSON run configuration supplies the device file, chain constants and
per-command settings; command-line flags override the file.  The whole
configuration is checked against one table, ``_SCHEMA``, before any command
runs, so an error anywhere in it stops every command.  Every output
artifact embeds the resolved configuration and seed in its comment header
(or JSON body), and contains no timestamps, so identical inputs produce
byte-identical outputs.

Exit codes: 0 success; 1 any other error: a ``DomainError`` (an argument
outside its domain) that escapes a command, or an exception from outside
the package (a ``ValueError`` or ``MemoryError``, say), which the message
names by its type; 2 usage or configuration problems, among them a
``DomainError`` raised for a configuration value; 3 physical domain
errors (flux range, degenerate flux, below threshold); 4 solver
non-convergence; 5 insufficient or inconsistent data; 6 amplitude
divergence during integration; 7 malformed file payloads.  An error
raised while a command runs ends it in one line on stderr,
``tripler <command>: <message>``, never in a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import _lazy_import
from ._roots import linspace
from .errors import (
    BelowThresholdError,
    ConfigError,
    ConvergenceError,
    DegenerateFluxError,
    DivergenceError,
    DomainError,
    EmptyTrajectoryError,
    FluxRangeError,
    FormatError,
    MissingCouplingError,
    NoSignalError,
    OverlappingRadiusError,
    PhaseDomainError,
    ResidualError,
    TriplerError,
)

if TYPE_CHECKING:
    from . import calibration, circuit, steady

# Each command imports the library modules it runs, so that a fresh process
# loads no layer it does not use (``simulate`` alone needs ``dynamics``), and
# numpy loads on first use: ``spectrum``, ``thresholds`` and a ``steady``
# drive given as ``b2_sq`` never touch it.
np = _lazy_import("numpy")

ENV_CONFIG = "TRIPLER_CONFIG"

#: longest expected ``simulate`` integration, in seconds: the step count
#: times the scheme's ``dynamics.step_seconds``, the compiled step's cost or,
#: where it is unavailable, the Python runners'; a longer run is refused
#: before it starts
MAX_SIMULATE_S = 24 * 3600.0

_EXIT_CODES = (
    (2, (ConfigError, MissingCouplingError)),
    (3, (DegenerateFluxError, FluxRangeError, BelowThresholdError,
         PhaseDomainError)),
    (4, (ConvergenceError, ResidualError)),
    (5, (NoSignalError, EmptyTrajectoryError, OverlappingRadiusError)),
    (6, (DivergenceError,)),
    (7, (FormatError,)),
)


#: the keys shared by the ``steady`` and ``simulate`` sections
_DRIVE = {"flux": ("number", 0.0), "delta1_hz": ("finite", ...),
          "b2_sq": ("non-negative", None), "pd_dbm": ("finite", None),
          "drive_phase": ("finite", 0.0)}

#: every key a run configuration may hold, section by section (``None`` is
#: the top level), with its kind (a ``_KINDS`` name) and its default: ``...``
#: marks a required key, and an absent key without a default reads as None
_SCHEMA = {
    None: {"device": ("path", ...), "out": ("path", "."),
           "seed": ("seed", None), "chain": ("section", None),
           "spectrum": ("section", None), "steady": ("section", None),
           "sweep": ("section", None), "simulate": ("section", None),
           "thresholds": ("section", None)},
    "chain": {"gain_db": ("finite", ...),
              "noise_floor_w": ("finite", ...),
              "x": ("finite", None), "scale07": ("finite", 0.7)},
    "spectrum": {"flux": ("axis", [0.0, 0.45, 10])},
    "steady": _DRIVE,
    "sweep": {"flux": ("number", 0.0), "delta1_hz": ("axis", ...),
              "pd_dbm": ("axis", ...)},
    "simulate": {**_DRIVE, "duration_s": ("positive", ...),
                 "dt_s": ("positive", ...), "store_every": ("count", 1),
                 "initial": ("4 numbers", [0.0, 0.0, 0.0, 0.0]),
                 "noise_n_th": ("non-negative", 0.0),
                 "fs_hz": ("positive numbers", []), "bins": ("count", 101)},
    "thresholds": {"flux": ("axis", [0.0, 0.4, 17])},
}


def _float(value):
    """A JSON number or numeric string (not a bool) as a float, else None."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    return None


def _count(value):
    """A positive integer, or an integral float such as ``46.0``, as an int;
    else None."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return value if type(value) is int and value >= 1 else None  # not a bool


def _kind(words, test=lambda typed: True, convert=lambda value: value):
    """The kind of values that ``convert`` turns into ones passing ``test``.

    Its check takes a key's name, for messages, and the key's value; it
    returns the typed value, or raises a ``ConfigError`` naming the key.
    ``convert`` returns None for a value it cannot convert.
    """
    def check(name, value):
        typed = convert(value)
        if typed is None or not test(typed):
            raise ConfigError(f"{name} must be {words}, got {value!r}")
        return typed
    return check


def _memory_bytes() -> int:
    """Physical memory in bytes, or the largest object size if unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def _axis(name, value) -> list:
    """``[lo, hi, n]``, the arguments of :func:`_roots.linspace`, if every
    point is finite and n float64 values fit in memory."""
    if isinstance(value, list) and len(value) == 3:
        lo, hi, n = _float(value[0]), _float(value[1]), _count(value[2])
        if None not in (lo, hi, n) and math.isfinite(hi - lo) \
                and 8 * n <= _memory_bytes():
            return [lo, hi, n]
    raise ConfigError(f"{name} must be a [lo, hi, n] axis: n >= 1 points "
                      f"over a finite span that fit in memory, got {value!r}")


def _numbers(element, length=None):
    """The kind of lists of ``element`` numbers, ``length`` long if given."""
    def check(name, value) -> list:
        if not isinstance(value, list) or (length is not None
                                           and len(value) != length):
            size = f"{length} numbers" if length is not None else "numbers"
            raise ConfigError(f"{name} must be a list of {size}, "
                              f"got {value!r}")
        return [_KINDS[element](name, v) for v in value]
    return check


#: each kind's check (see ``_kind``).  A ``number`` may be non-finite: a
#: non-finite flux fails the flux range check.  A seed must fit the signed
#: 64-bit ``.trpl`` header field, where -1 marks an unseeded run.
_KINDS = {
    "path": _kind("a non-empty path string",
                  lambda v: isinstance(v, str) and v != ""),
    "seed": _kind("an integer in [0, 2**63 - 1]",
                  lambda v: type(v) is int and 0 <= v <= 2**63 - 1),
    "number": _kind("a number", convert=_float),
    "finite": _kind("a finite number", math.isfinite, _float),
    "non-negative": _kind("a finite non-negative number",
                          lambda x: 0 <= x < math.inf, _float),
    "positive": _kind("a finite positive number",
                      lambda x: 0 < x < math.inf, _float),
    "count": _kind("a positive integer", convert=_count),
    "axis": _axis,
    "4 numbers": _numbers("finite", 4),
    "positive numbers": _numbers("positive"),
}


def _resolve(doc: dict, section=None) -> dict:
    """The typed values of one level of a run configuration.

    Each key is checked in document order, then every required key must be
    there; absent keys take their default.  A section is resolved the same
    way, and one the document lacks reads as None.
    """
    table = _SCHEMA[section]
    where = "at the top level" if section is None \
        else f"in the {section!r} section"
    values = {}
    for key, value in doc.items():
        if key not in table:
            raise ConfigError(f"unknown key {key!r} {where} "
                              f"(known keys: {', '.join(table)})")
        name = repr(key) if section is None else f"{key!r} {where}"
        kind = table[key][0]
        if kind != "section":
            values[key] = _KINDS[kind](name, value)
        elif isinstance(value, dict):
            values[key] = _resolve(value, key)
        else:
            raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    for key, (_, default) in table.items():
        if key not in values:
            if default is ...:
                raise ConfigError(f"missing required key {key!r} {where}")
            values[key] = default
    return values


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
    """Run configuration: the document with flag overrides applied, and its
    typed values (``config``), checked whole before any command runs."""

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
        if args.out is not None:
            self.doc["out"] = args.out
        if args.seed is not None:
            self.doc["seed"] = args.seed
        self.config = _resolve(self.doc)
        self.format = args.format

    @property
    def out_dir(self) -> Path:
        out = Path(self.config["out"])
        out.mkdir(parents=True, exist_ok=True)
        return out

    def section(self, name: str) -> dict:
        if self.config[name] is None:
            raise ConfigError(f"run configuration lacks a {name!r} section")
        return self.config[name]

    def device(self) -> circuit.CircuitParams:
        from .config import load_device_config

        dev = self.config["device"]
        base = Path(self.config_path).parent if self.config_path else Path(".")
        path = Path(dev) if os.path.isabs(dev) else base / dev
        return load_device_config(path)

    def chain(self) -> calibration.CalibrationChain:
        from . import calibration

        try:
            return calibration.CalibrationChain(**self.section("chain"))
        except DomainError as exc:
            raise ConfigError(f"chain section: {exc}")

    def meta(self, command: str) -> dict:
        return {"command": command, "config": self.doc,
                "seed": self.config["seed"]}


def _operating_point(run: _Run, sec, params):
    """The reduced operating point of a ``steady``/``simulate`` section.

    Returns it with the drive |B2|^2 (s^-1), given directly as ``b2_sq`` or
    as generator power ``pd_dbm`` through X.  A detuning outside the model
    or a drive that overflows a float is a configuration error naming its key.
    """
    from . import calibration, circuit

    delta1 = 2.0 * math.pi * sec["delta1_hz"]
    chain = run.chain() if run.config["chain"] is not None else None
    fp = circuit.at_flux(params, sec["flux"])
    try:
        point = fp.operating_point(delta1)
    except DomainError as exc:      # also a 2*pi*delta1 that overflows
        raise ConfigError(f"'delta1_hz': {exc}")
    b2_sq = sec["b2_sq"]
    if b2_sq is None:
        if sec["pd_dbm"] is None:
            raise ConfigError("steady/simulate sections need b2_sq or pd_dbm")
        if chain is None or chain.x is None:
            raise ConfigError("drive given as power: the chain needs x")
        with np.errstate(over="ignore"):    # reported below, not warned
            pd = float(calibration.dbm_to_watt(sec["pd_dbm"]))
            b2_sq = float(calibration.drive_amplitude_sq_through_x(
                pd, chain.x, fp, delta1))
        if not math.isfinite(b2_sq):
            raise ConfigError(f"'pd_dbm' gives a drive |B2|^2 that overflows "
                              f"a float, got {sec['pd_dbm']!r}")
    return point.with_drive(math.sqrt(b2_sq), sec["drive_phase"]), b2_sq


def _kerr_meta(params) -> dict:
    from . import circuit

    m1 = circuit.mode_profile(params, 0.0, 1)
    return {
        "kerr_energy_convention": params.kerr_energy,
        "alpha1_rad_s_flux0": m1.alpha,
        "alpha1_over_2pi_hz_flux0": m1.alpha / (2.0 * math.pi),
    }


def cmd_spectrum(run: _Run) -> int:
    from . import circuit, io

    params = run.device()
    rows = []
    for phi in linspace(*run.section("spectrum")["flux"]):
        fp = circuit.at_flux(params, phi)
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
    from . import io, steady

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
    from . import calibration, io

    params = run.device()
    chain = run.chain()
    sec = run.section("sweep")
    d1 = [2.0 * math.pi * f for f in linspace(*sec["delta1_hz"])]
    with np.errstate(over="ignore"):    # reported below, not warned
        pd = calibration.dbm_to_watt(linspace(*sec["pd_dbm"]))
    if chain.x is None:
        raise ConfigError("sweep needs the chain's fitted 'x'")
    if not np.all(pd > 0):
        raise ConfigError(f"'pd_dbm' {sec['pd_dbm']!r} underflows to 0 W")
    if not np.all(np.isfinite(pd)):
        raise ConfigError(f"'pd_dbm' {sec['pd_dbm']!r} overflows a float "
                          "in watts")
    try:
        rmap = calibration.region_map(params, sec["flux"], chain, d1, pd)
    except DomainError as exc:      # the one grid check left: the detuning
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
    from . import dynamics, io

    params = run.device()
    sec = run.section("simulate")
    point, _ = _operating_point(run, sec, params)
    duration, dt = sec["duration_s"], sec["dt_s"]
    steps = duration / dt
    if not 0.5 < steps < math.inf:     # integrate rounds to whole steps
        raise ConfigError(f"'duration_s' / 'dt_s' must give at least one "
                          f"and finitely many steps, got {steps!r}")
    n_steps = int(round(steps))
    n_stored = n_steps // sec["store_every"]
    need, have = 2 * 16 * n_stored, _memory_bytes()   # a1, a2 as complex128
    if need > have:
        raise ConfigError(f"'dt_s' and 'store_every' give {n_stored:.3g} "
                          f"stored samples ({need:.3g} bytes), more than "
                          f"the {have:.3g} bytes of memory")
    if n_stored == 0:
        raise ConfigError(f"'store_every' exceeds the {n_steps:g} "
                          "integration steps: nothing is stored")
    n_th = sec["noise_n_th"]
    scheme = "etd1" if n_th > 0 else "rk4"
    step_s = dynamics.step_seconds(scheme)
    if n_steps * step_s > MAX_SIMULATE_S:
        raise ConfigError(f"'dt_s' gives {n_steps:g} integration steps, "
                          f"about {n_steps * step_s:.3g} s at {step_s:g} s "
                          f"per {scheme} step, over the {MAX_SIMULATE_S:g} s "
                          "limit")
    re1, im1, re2, im2 = sec["initial"]
    system = dynamics.TwoModeSystem.from_point(point)
    noise = dynamics.NoiseConfig.thermal(system, n_th) if n_th > 0 else None
    initial = (complex(re1, im1), complex(re2, im2))
    traj = dynamics.integrate(system, initial, duration=duration, dt=dt,
                              noise=noise, seed=run.config["seed"],
                              store_every=sec["store_every"])
    out_bin = run.out_dir / "trajectory.trpl"
    io.write_trajectory(out_bin, traj)
    print(out_bin)
    meta = dict(run.meta("simulate"), scheme=scheme,
                dt_guideline_s=dynamics.guideline_timestep(system, initial))
    for fs in sec["fs_hz"]:
        try:
            hist = dynamics.demodulate_histogram(traj, fs, bins=sec["bins"])
        except DomainError as exc:  # fs above the stored sampling rate
            raise ConfigError(f"'fs_hz': {exc}")
        out_h = run.out_dir / f"histogram_fs{fs:.0f}.csv"
        io.write_histogram_csv(out_h, hist, meta=meta)
        print(out_h)
    return 0


def cmd_fit(run: _Run, files) -> int:
    from . import calibration, io

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
    from . import calibration, io

    params = run.device()
    chain = run.chain()
    rows = [(phi, calibration.visible_threshold(params, phi, chain)
             / (2 * math.pi))
            for phi in linspace(*run.section("thresholds")["flux"])]
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
    except OSError as exc:
        print(f"tripler {args.command}: {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())     # one line, even if empty
        print(f"tripler {args.command}: {type(exc).__name__}"
              + (f": {detail}" if detail else ""), file=sys.stderr)
        return 1


def entry() -> None:
    """Process entry point of ``tripler`` and ``python -m tripler``.

    tripler calls no BLAS routine, yet importing numpy starts an OpenBLAS
    worker thread for each extra core; so the process defaults
    ``OPENBLAS_NUM_THREADS`` to 1 (a value already set is kept) before any
    command can import numpy, then exits with :func:`main`'s code.
    :func:`main` itself leaves the environment alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
