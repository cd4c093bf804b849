import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tripler
from tripler import calibration as cal
from tripler import circuit, cli, dynamics
from tripler import io as tio
from tripler.cli import main
from tripler.config import dump_device_config

TWO_PI = 2.0 * math.pi
SRC = str(Path(tripler.__file__).resolve().parents[1])


def run_python(args, cwd):
    """A fresh interpreter importing this checkout's tripler."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture()
def workdir(tmp_path, params):
    (tmp_path / "device.cfg").write_text(dump_device_config(params))
    return tmp_path


def write_config(workdir, doc):
    doc = {"device": "device.cfg", "out": str(workdir / "out"), **doc}
    path = workdir / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition(":")
            meta[k.strip()] = v.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


class TestSpectrum:
    def test_spectrum_csv(self, workdir, params):
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.3, 4]},
                                     "seed": 11})
        assert main(["--config", cfg, "spectrum"]) == 0
        meta, header, rows = read_csv(workdir / "out" / "spectrum.csv")
        assert header[0] == "flux_frac"
        assert "kerr_energy_convention" in meta
        assert len(rows) == 4
        # anharmonicity column is exactly 3*f1 - f2
        for r in rows:
            f1, f2, anh = float(r[1]), float(r[2]), float(r[3])
            assert anh == 3.0 * f1 - f2
        # zero-flux row reproduces the measured constants at table accuracy
        f1 = float(rows[0][1])
        assert f1 == pytest.approx(5.504e9, rel=0.015)
        assert float(rows[0][3]) == pytest.approx(136e6, rel=0.15)
        # reproducibility header carries the seed
        assert meta["seed"] == "11"

    def test_empty_flux_axis_usage_error(self, workdir):
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.3, 0]}})
        assert main(["--config", cfg, "spectrum"]) == 2

    def test_flux_out_of_range_exit_code(self, workdir):
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.48, 3]}})
        assert main(["--config", cfg, "spectrum"]) == 3


class TestSteady:
    def test_four_attractor_point(self, workdir):
        cfg = write_config(workdir, {"steady": {
            "flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10}})
        assert main(["--config", cfg, "steady"]) == 0
        doc = json.loads((workdir / "out" / "steady.json").read_text())
        states = doc["states"]
        assert len(states) == 4
        assert sum(s["kind"] == "triad" for s in states) == 3
        assert all(s["stable"] for s in states)
        phis = sorted(s["phi1_rad"] for s in states if s["kind"] == "triad")
        assert phis[1] - phis[0] == pytest.approx(2 * math.pi / 3, abs=1e-9)
        assert doc["meta"]["kerr_energy_convention"] == "per_junction"

    def test_undriven_single_ground(self, workdir):
        cfg = write_config(workdir, {"steady": {
            "flux": 0.0, "delta1_hz": -12e6, "b2_sq": 0.0}})
        assert main(["--config", cfg, "steady"]) == 0
        doc = json.loads((workdir / "out" / "steady.json").read_text())
        assert [s["kind"] for s in doc["states"]] == ["ground"]

    def test_pd_dbm_drive_oracle(self, workdir, params):
        x, pd_dbm, d1_hz, flux = 9.97e11, -25.0, -12e6, 0.1
        cfg = write_config(workdir, {
            "chain": {"gain_db": 66.0, "noise_floor_w": 4.4e-10, "x": x},
            "steady": {"flux": flux, "delta1_hz": d1_hz, "pd_dbm": pd_dbm}})
        assert main(["--config", cfg, "steady"]) == 0
        doc = json.loads((workdir / "out" / "steady.json").read_text())
        m1 = circuit.mode_profile(params, flux, 1)
        m2 = circuit.mode_profile(params, flux, 2)
        q2_ext = m2.omega / (2.0 * m2.gamma_ext)
        omega = m1.omega + TWO_PI * d1_hz
        hbar = 6.62607015e-34 / TWO_PI
        pd_w = 1e-3 * 10.0 ** (pd_dbm / 10.0)
        assert doc["point"]["b2_sq"] == pytest.approx(
            pd_w * q2_ext / (3.0 * hbar * omega * x), rel=1e-12)

    def test_csv_format(self, workdir):
        cfg = write_config(workdir, {"steady": {
            "flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10}})
        assert main(["--config", cfg, "--format", "csv", "steady"]) == 0
        _, header, rows = read_csv(workdir / "out" / "steady.csv")
        assert header[0] == "kind" and "r1_sq" in header
        assert len(rows) == 4
        for r in rows:
            float(r[3])  # numeric columns parse cleanly
        # the JSON format holds the same states, field for field, bit for bit
        assert main(["--config", cfg, "steady"]) == 0
        doc = json.loads((workdir / "out" / "steady.json").read_text())
        assert len(doc["states"]) == len(rows)
        for r, st in zip(rows, doc["states"]):
            cell = dict(zip(header, r))
            assert cell["kind"] == st["kind"]
            for key in ("branch", "copy", "r1_sq", "r2_sq", "theta_rad",
                        "phi1_rad", "phi2_rad", "stable"):
                assert float(cell[key]).hex() == float(st[key]).hex(), key
            assert float(cell["max_re_lambda_alpha1"]).hex() == \
                max(re for re, _ in st["eigenvalues_alpha1"]).hex()


class TestSimulate:
    def test_byte_identical_reruns(self, workdir):
        # the pump mode rotates at ~2pi*100 MHz in frame; the noisy ETD1
        # step integrates that rotation exactly, and 2e-11 s is the
        # README's step
        sim = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
               "duration_s": 4e-7, "dt_s": 2e-11, "store_every": 100,
               "noise_n_th": 0.1, "fs_hz": [2.5e7], "bins": 31}
        cfg = write_config(workdir, {"simulate": sim, "seed": 99})
        assert main(["--config", cfg, "simulate"]) == 0
        first = {p.name: p.read_bytes()
                 for p in (workdir / "out").iterdir()}
        assert main(["--config", cfg, "simulate"]) == 0
        second = {p.name: p.read_bytes()
                  for p in (workdir / "out").iterdir()}
        assert first == second
        assert "trajectory.trpl" in first
        assert any(n.startswith("histogram_fs") for n in first)

    @pytest.mark.parametrize("n_th, scheme", [(0.1, "etd1"), (0.0, "rk4")])
    def test_histogram_header_names_scheme_and_guideline(self, workdir,
                                                         params, n_th,
                                                         scheme):
        sim = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
               "duration_s": 2e-8, "dt_s": 2e-11, "store_every": 10,
               "noise_n_th": n_th, "fs_hz": [2.5e8], "bins": 11}
        cfg = write_config(workdir, {"simulate": sim, "seed": 3})
        assert main(["--config", cfg, "simulate"]) == 0
        meta, _, _ = read_csv(workdir / "out" / "histogram_fs250000000.csv")
        assert json.loads(meta["scheme"]) == scheme
        # 0.1 over the fastest rate: the pump's detuning plus its Kerr shift
        # at the linear drive response, the signal mode at one photon
        system = dynamics.TwoModeSystem.from_point(circuit.device_point(
            params, 0.0, delta1=TWO_PI * -12e6, drive_b2=math.sqrt(6.25e10)))
        n2 = 2 * system.Gamma2_ext * 6.25e10 / (system.delta2**2
                                                + system.Gamma2**2)
        w1 = abs(system.delta1) + system.alpha1 + 2 * system.alpha_cross * n2
        w2 = abs(system.delta2) + system.alpha2 * n2 + 2 * system.alpha_cross
        assert n2 > 1
        assert json.loads(meta["dt_guideline_s"]) == pytest.approx(
            0.1 / max(w1, w2, system.Gamma1, system.Gamma2), rel=1e-12)

    def test_run_time_limit(self, workdir, monkeypatch, capsys):
        # 100 noiseless steps are expected to take 100 RK4 steps' time
        sim = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
               "duration_s": 2e-9, "dt_s": 2e-11}
        cfg = write_config(workdir, {"simulate": sim})
        expected = 100 * dynamics.SCALAR_STEP_S["rk4"]
        monkeypatch.setattr(cli, "MAX_SIMULATE_S", 0.99 * expected)
        assert main(["--config", cfg, "simulate"]) == 2
        assert "'dt_s' gives 100 integration steps" in capsys.readouterr().err
        assert not (workdir / "out" / "trajectory.trpl").exists()
        monkeypatch.setattr(cli, "MAX_SIMULATE_S", 1.01 * expected)
        assert main(["--config", cfg, "simulate"]) == 0

    def test_drive_phase_reaches_the_trajectory(self, workdir):
        sim = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
               "duration_s": 1e-9, "dt_s": 1e-11, "drive_phase": 0.5}
        cfg = write_config(workdir, {"simulate": sim})
        assert main(["--config", cfg, "simulate"]) == 0
        traj = tio.read_trajectory(workdir / "out" / "trajectory.trpl")
        assert traj.drive_phase == 0.5

    def test_seed_changes_output(self, workdir):
        sim = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10,
               "duration_s": 2e-7, "dt_s": 2e-11, "store_every": 100,
               "noise_n_th": 0.1}
        cfg = write_config(workdir, {"simulate": sim, "seed": 1})
        assert main(["--config", cfg, "simulate"]) == 0
        a = (workdir / "out" / "trajectory.trpl").read_bytes()
        assert main(["--config", cfg, "--seed", "2", "simulate"]) == 0
        b = (workdir / "out" / "trajectory.trpl").read_bytes()
        assert a != b
        traj = tio.trajectory_from_bytes(b)
        assert traj.seed == 2


class TestSweepAndThresholds:
    CHAIN = {"gain_db": 66.0, "noise_floor_w": 0.44e-9, "x": 9.97e11}

    def test_sweep_outputs(self, workdir):
        cfg = write_config(workdir, {
            "chain": self.CHAIN,
            "sweep": {"flux": 0.0, "delta1_hz": [-10e6, -1e6, 6],
                      "pd_dbm": [-40, 0, 9]}})
        assert main(["--config", cfg, "sweep"]) == 0
        _, header, rows = read_csv(workdir / "out" / "region_map.csv")
        assert header == ["delta1_hz", "pd_dbm", "label"]
        assert len(rows) == 54
        labels = {r[2] for r in rows}
        assert labels <= {"I", "exists"}
        for r in rows[:5]:
            float(r[0]), float(r[1])  # numeric columns parse cleanly
        boundary = json.loads((workdir / "out" / "boundary.json").read_text())
        assert boundary["columns"] == ["delta1_hz", "pd_max_dbm"]
        assert len(boundary["polyline"]) > 0

    def test_threads_equivalent_output(self, workdir):
        doc = {"chain": self.CHAIN,
               "sweep": {"flux": 0.0, "delta1_hz": [-10e6, -1e6, 6],
                         "pd_dbm": [-40, 0, 9]}}
        cfg = write_config(workdir, doc)
        assert main(["--config", cfg, "sweep"]) == 0
        serial = (workdir / "out" / "region_map.csv").read_bytes()
        assert main(["--config", cfg, "--threads", "4", "sweep"]) == 0
        assert (workdir / "out" / "region_map.csv").read_bytes() == serial

    def test_thresholds_csv(self, workdir):
        cfg = write_config(workdir, {
            "chain": self.CHAIN,
            "thresholds": {"flux": [0.0, 0.3, 4]}})
        assert main(["--config", cfg, "thresholds"]) == 0
        _, header, rows = read_csv(workdir / "out" / "thresholds.csv")
        assert header == ["flux_frac", "delta1_threshold_hz"]
        assert len(rows) == 4
        assert all(float(r[1]) < 0 for r in rows)

    def test_missing_chain_is_config_error(self, workdir):
        cfg = write_config(workdir, {"thresholds": {"flux": [0.0, 0.3, 4]}})
        assert main(["--config", cfg, "thresholds"]) == 2


class TestFitCommand:
    def test_end_to_end(self, workdir, params):
        from test_calibration import synthetic_linecuts

        chain = cal.CalibrationChain(gain_db=66.0, noise_floor_w=1e-13)
        cuts = synthetic_linecuts(params, chain, 1e12, [-6e6, -10e6],
                                  noise=0.005, seed=8)
        files = []
        for i, cut in enumerate(cuts):
            path = workdir / f"cut{i}.csv"
            tio.write_linecut_csv(path, cal.watt_to_dbm(cut.pd_w), cut.pout_w,
                                  sidecar={"delta1_rad_s": cut.delta1,
                                           "flux_frac": cut.flux})
            files.append(str(path))
        cfg = write_config(workdir, {
            "chain": {"gain_db": 66.0, "noise_floor_w": 1e-13}})
        assert main(["--config", cfg, "fit", *files]) == 0
        doc = json.loads((workdir / "out" / "fit_report.json").read_text())
        assert doc["x"] == pytest.approx(1e12, rel=0.02)
        assert doc["n_points"] > 10

    def test_repeated_drive_power_is_a_format_error(self, workdir):
        path = workdir / "dup.csv"
        tio.write_linecut_csv(path, [-30.0, -20.0, -20.0, -10.0],
                              [1e-12, 2e-12, 3e-12, 4e-12],
                              sidecar={"delta1_rad_s": -TWO_PI * 8e6,
                                       "flux_frac": 0.0})
        cfg = write_config(workdir, {
            "chain": {"gain_db": 66.0, "noise_floor_w": 1e-13}})
        proc = run_python(["-m", "tripler", "--config", cfg, "fit",
                           str(path)], workdir)
        assert proc.returncode == 7
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "dup.csv" in lines[0]

    def test_no_files_error(self, workdir):
        cfg = write_config(workdir, {
            "chain": {"gain_db": 66.0, "noise_floor_w": 1e-13}})
        assert main(["--config", cfg, "fit"]) == 5


class TestConfigResolution:
    def test_env_var_default(self, workdir, monkeypatch):
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.2, 3]}})
        monkeypatch.setenv("TRIPLER_CONFIG", cfg)
        assert main(["spectrum"]) == 0

    def test_missing_config(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "spectrum"]) == 2

    def test_out_flag_overrides(self, workdir):
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.2, 3]}})
        alt = workdir / "alt"
        assert main(["--config", cfg, "--out", str(alt), "spectrum"]) == 0
        assert (alt / "spectrum.csv").exists()


class TestConfigErrors:
    """Bad values end in exit code 2 and one line on stderr, never a traceback."""

    STEADY = {"flux": 0.0, "delta1_hz": -12e6, "b2_sq": 6.25e10}
    CHAIN = {"gain_db": 66.0, "noise_floor_w": 4.4e-10, "x": 9.97e11}
    SIM = {**STEADY, "duration_s": 1e-9, "dt_s": 1e-11}

    @pytest.mark.parametrize("command, doc, needle", [
        ("steady", {"steady": {**STEADY, "delta1_hz": math.nan}}, "NaN"),
        ("thresholds", {"chain": {**CHAIN, "noise_floor_w": -1},
                        "thresholds": {"flux": [0.0, 0.1, 2]}},
         "noise_floor_w"),
        ("steady", {"steady": {**STEADY, "b2_sq": -1}}, "b2_sq"),
        ("simulate", {"simulate": {**SIM, "store_every": 0}}, "store_every"),
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-300}}, "store_every"),
        # nothing stored, so nothing to allocate: rejected before any step
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-300,
                                   "store_every": 1e300}}, "store_every"),
        ("simulate", {"seed": "abc", "simulate": {**SIM, "noise_n_th": 0.1}},
         "'seed'"),
        # 1e16 steps and 1e6 stored samples: years at a few us per step
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-25,
                                   "store_every": 1e10}}, "'dt_s'"),
        # the overflow would also print numpy's RuntimeWarning
        ("steady", {"chain": CHAIN,
                    "steady": {"flux": 0.0, "delta1_hz": -12e6,
                               "pd_dbm": 1e300}}, "'pd_dbm'"),
        # numpy's overflow warning would also reach stderr
        ("sweep", {"chain": CHAIN,
                   "sweep": {"delta1_hz": [-1e200, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "'delta1_hz'"),
    ], ids=["nan-delta1", "negative-floor", "negative-b2", "zero-store",
            "unallocatable-samples", "nothing-stored", "string-seed",
            "unfinishable", "overflowing-pd-dbm", "off-model-delta1"])
    def test_fresh_process(self, workdir, command, doc, needle):
        cfg = write_config(workdir, doc)
        proc = run_python(["-m", "tripler", "--config", cfg, command], workdir)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and needle in lines[0]

    @pytest.mark.parametrize("command, doc, needle", [
        ("steady", {"steady": {**STEADY, "b2_sq": math.inf}}, "Infinity"),
        ("simulate", {"simulate": {**STEADY, "delta1_hz": "nan",
                                   "duration_s": 1e-9, "dt_s": 1e-11}},
         "delta1_hz"),
        ("steady", {"chain": CHAIN,
                    "steady": {"flux": 0.0, "delta1_hz": -12e6,
                               "pd_dbm": "inf"}}, "pd_dbm"),
        ("steady", {"steady": {**STEADY, "b2_sq": "-inf"}}, "b2_sq"),
        ("sweep", {"chain": CHAIN,
                   "sweep": {"delta1_hz": [-10e6, "nan", 3],
                             "pd_dbm": [-40, 0, 3]}}, "axis"),
        ("sweep", {"chain": {**CHAIN, "x": "abc"},
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "abc"),
        ("sweep", {"chain": {**CHAIN, "x": -1},
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "x must be positive"),
        ("thresholds", {"chain": {**CHAIN, "gain_db": "nan"},
                        "thresholds": {"flux": [0.0, 0.1, 2]}}, "gain_db"),
        ("simulate", {"simulate": {**SIM, "dt_s": -1e-11}}, "dt_s"),
        ("simulate", {"simulate": {**SIM, "store_every": 0}}, "store_every"),
        ("simulate", {"simulate": {**SIM, "initial": [1]}}, "initial"),
        ("simulate", {"simulate": {**SIM, "duration_s": 1e-12}},
         "duration_s"),
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-320}}, "duration_s"),
        ("simulate", {"simulate": {**SIM, "store_every": 2.5}},
         "store_every"),
        ("simulate", {"simulate": {**SIM, "initial": [0, 0, "a", 0]}},
         "initial"),
        ("simulate", {"simulate": {**SIM, "noise_n_th": -0.1}}, "noise_n_th"),
        ("simulate", {"simulate": {**SIM, "fs_hz": 2.5e7}}, "fs_hz"),
        ("simulate", {"simulate": {**SIM, "fs_hz": [0.0]}}, "fs_hz"),
        ("simulate", {"simulate": {**SIM, "fs_hz": [1e12]}}, "fs_hz"),
        ("simulate", {"simulate": {**SIM, "fs_hz": [1e9], "bins": 0}},
         "bins"),
        ("simulate", {"simulate": {**SIM, "drive_phase": "east"}},
         "drive_phase"),
        ("steady", {"steady": {**STEADY, "drive_phase": None}},
         "drive_phase"),
        # numpy refuses this many samples outright, so nothing is allocated
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-300}}, "dt_s"),
        ("simulate", {"simulate": {**SIM, "store_every": 1000}},
         "store_every"),
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-300,
                                   "store_every": 1e300}}, "store_every"),
        # ten stored samples, but ~1e291 steps to reach them
        ("simulate", {"simulate": {**SIM, "dt_s": 1e-300,
                                   "store_every": 1e290}}, "dt_s"),
        ("steady", {"steady": {**STEADY, "flux": "zero"}}, "'flux'"),
        ("steady", {"steady": {**STEADY, "flux": None}}, "'flux'"),
        ("simulate", {"simulate": {**SIM, "flux": [0.0]}}, "'flux'"),
        ("sweep", {"chain": CHAIN,
                   "sweep": {"flux": "zero", "delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "'flux'"),
        ("sweep", {"chain": {**CHAIN, "att_db": "loud"},
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "att_db"),
        ("sweep", {"chain": {**CHAIN, "att_db": "inf"},
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "att_db"),
        # a misspelt key would otherwise be ignored and the run exit 0
        ("simulate", {"seeds": 3, "simulate": SIM}, "'seeds'"),
        ("simulate", {"simulate": {**SIM, "noise_nth": 0.1}}, "'noise_nth'"),
        ("steady", {"steady": {**STEADY, "delta_hz": -4e6}}, "'delta_hz'"),
        ("thresholds", {"chain": {**CHAIN, "gain": 66.0},
                        "thresholds": {"flux": [0.0, 0.1, 2]}}, "'gain'"),
        ("spectrum", {"spectrum": {"fluxes": [0.0, 0.1, 2]}}, "'fluxes'"),
        # top-level values of the wrong type, named before any command runs
        ("steady", {"out": 5, "steady": STEADY}, "'out'"),
        ("steady", {"device": 3, "steady": STEADY}, "'device'"),
        ("simulate", {"seed": "abc", "simulate": {**SIM, "noise_n_th": 0.1}},
         "'seed'"),
        ("simulate", {"seed": -1, "simulate": {**SIM, "noise_n_th": 0.1}},
         "'seed'"),
        # without noise -1 would be written as the .trpl "unseeded" marker
        ("simulate", {"seed": -1, "simulate": SIM}, "'seed'"),
        ("simulate", {"seed": 2**63, "simulate": SIM}, "'seed'"),
        ("simulate", {"seed": 1.5, "simulate": SIM}, "'seed'"),
        ("simulate", {"seed": True, "simulate": SIM}, "'seed'"),
        # finite in the file, but 2*pi*delta1 or |B2|^2 overflows a float
        ("steady", {"steady": {**STEADY, "delta1_hz": 1e308}},
         "'delta1_hz'"),
        ("simulate", {"simulate": {**SIM, "delta1_hz": 1e308}},
         "'delta1_hz'"),
        ("steady", {"chain": CHAIN,
                    "steady": {"flux": 0.0, "delta1_hz": -12e6,
                               "pd_dbm": 1e300}}, "'pd_dbm'"),
        ("simulate", {"chain": CHAIN,
                      "simulate": {"flux": 0.0, "delta1_hz": -12e6,
                                   "pd_dbm": 3000, "duration_s": 1e-9,
                                   "dt_s": 1e-11}}, "'pd_dbm'"),
        # a signal frequency omega1 + delta1 outside (0, 2*omega1)
        ("steady", {"steady": {**STEADY, "delta1_hz": -1e200}},
         "'delta1_hz'"),
        ("steady", {"steady": {**STEADY, "delta1_hz": 1e200}},
         "'delta1_hz'"),
        ("simulate", {"simulate": {**SIM, "delta1_hz": -1e200}},
         "'delta1_hz'"),
        ("simulate", {"simulate": {**SIM, "delta1_hz": 1e200}},
         "'delta1_hz'"),
        ("steady", {"steady": {**STEADY, "delta1_hz": -1e150}},
         "'delta1_hz'"),
        ("steady", {"steady": {**STEADY, "delta1_hz": -6e9}},
         "'delta1_hz'"),
        ("sweep", {"chain": CHAIN,
                   "sweep": {"delta1_hz": [-1e200, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "'delta1_hz'"),
        ("sweep", {"chain": CHAIN,
                   "sweep": {"delta1_hz": [-1e6, 6e9, 3],
                             "pd_dbm": [-40, 0, 3]}}, "'delta1_hz'"),
        # region_map's other checks, named before it runs
        ("sweep", {"chain": {"gain_db": 66.0, "noise_floor_w": 4.4e-10},
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-40, 0, 3]}}, "'x'"),
        ("sweep", {"chain": CHAIN,
                   "sweep": {"delta1_hz": [-10e6, -1e6, 3],
                             "pd_dbm": [-4000, 0, 3]}}, "'pd_dbm'"),
    ])
    def test_in_process(self, workdir, capsys, command, doc, needle):
        cfg = write_config(workdir, doc)
        assert main(["--config", cfg, command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and needle in err[0]

    def test_seed_flag_checked_too(self, workdir, capsys):
        cfg = write_config(workdir, {"simulate": self.SIM})
        assert main(["--config", cfg, "--seed", "-1", "simulate"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'seed'" in err[0]

    def test_device_error_names_file_and_line(self, workdir, capsys):
        path = workdir / "device.cfg"
        path.write_text(path.read_text() + "foo = 1.0 m\n")
        line = len(path.read_text().splitlines())
        cfg = write_config(workdir, {"spectrum": {"flux": [0.0, 0.1, 2]}})
        assert main(["--config", cfg, "spectrum"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"device file {str(path)!r}, line {line}: unknown key 'foo'" \
            in err[0]

    def test_non_finite_flux_is_a_domain_error(self, workdir, capsys):
        cfg = write_config(workdir, {"steady": {**self.STEADY, "flux": "nan"}})
        assert main(["--config", cfg, "steady"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "flux nan" in err[0]

    def test_overflowing_literal(self, workdir, capsys):
        cfg = write_config(workdir, {"steady": self.STEADY})
        text = Path(cfg).read_text().replace("62500000000.0", "1e999")
        Path(cfg).write_text(text)
        assert main(["--config", cfg, "steady"]) == 2
        assert "1e999" in capsys.readouterr().err


def _file_case(workdir, case):
    """Files for one unreadable-input case; returns (argv, exit code, needle)."""
    chain = {"gain_db": 66.0, "noise_floor_w": 1e-13}
    cfg = write_config(workdir, {"chain": chain,
                                 "spectrum": {"flux": [0.0, 0.1, 2]}})
    if case == "config-is-directory":
        (workdir / "cfgdir").mkdir()
        return ["--config", str(workdir / "cfgdir"), "spectrum"], 2, "cfgdir"
    if case == "missing-device":
        cfg = write_config(workdir, {"device": "nodev.cfg", "spectrum": {}})
        return ["--config", cfg, "spectrum"], 2, "nodev.cfg"
    if case == "missing-linecut":
        return ["--config", cfg, "fit", str(workdir / "nocut.csv")], 2, \
            "nocut.csv"
    if case == "out-is-file":
        (workdir / "afile").write_text("")
        return ["--config", cfg, "--out", str(workdir / "afile"),
                "spectrum"], 2, "afile"
    if case == "config-not-utf8":
        (workdir / "run.json").write_bytes(b"\xff\xfe{}")
        return ["--config", cfg, "spectrum"], 2, "utf-8"
    if case == "device-not-utf8":
        (workdir / "device.cfg").write_bytes(
            (workdir / "device.cfg").read_bytes() + b"# caf\xe9\n")
        return ["--config", cfg, "spectrum"], 2, "utf-8"
    if case == "linecut-not-utf8":
        path = workdir / "cut.csv"
        tio.write_linecut_csv(path, [-30.0, -20.0], [1e-12, 2e-12],
                              sidecar={"delta1_rad_s": -TWO_PI * 8e6,
                                       "flux_frac": 0.0})
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        return ["--config", cfg, "fit", str(path)], 7, "cut.csv"
    if case == "config-not-object":
        (workdir / "run.json").write_text("[1, 2]")
        return ["--config", cfg, "spectrum"], 2, "JSON object"
    raise AssertionError(case)


FILE_CASES = ["config-is-directory", "missing-device", "missing-linecut",
              "out-is-file", "config-not-utf8", "device-not-utf8",
              "linecut-not-utf8", "config-not-object"]


class TestFileErrors:
    """Unreadable inputs and outputs end in one line naming the file."""

    @pytest.mark.parametrize("case", FILE_CASES)
    def test_in_process(self, workdir, capsys, case):
        argv, code, needle = _file_case(workdir, case)
        assert main(argv) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and needle in err[0]

    def test_fresh_process(self, workdir):
        argv, code, needle = _file_case(workdir, "device-not-utf8")
        proc = run_python(["-m", "tripler", *argv], workdir)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and needle in lines[0]


def test_cli_import_loads_no_scipy(tmp_path):
    proc = run_python(["-c", "import sys, tripler.cli; print(sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
