import json
import math
import os
import stat

import numpy as np
import pytest

from tripler import io as tio
from tripler.calibration import Linecut
from tripler.dynamics import Histogram2D, Trajectory
from tripler.errors import FormatError


def make_traj(n=64, seed=1):
    rng = np.random.default_rng(seed)
    return Trajectory(dt=2.5e-9,
                      a1=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                      a2=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                      drive_b2=123.0, drive_phase=0.5, seed=seed)


class TestTrajectoryBinary:
    def test_roundtrip_exact(self, tmp_path):
        traj = make_traj()
        path = tmp_path / "t.trpl"
        tio.write_trajectory(path, traj)
        back = tio.read_trajectory(path)
        assert back.dt == traj.dt
        assert back.seed == traj.seed
        assert back.drive_b2 == traj.drive_b2
        assert back.drive_phase == traj.drive_phase
        assert np.array_equal(back.a1, traj.a1)
        assert np.array_equal(back.a2, traj.a2)

    def test_magic_and_version(self, tmp_path):
        traj = make_traj()
        payload = tio.trajectory_to_bytes(traj)
        assert payload[:4] == b"TRPL"
        assert payload[4] == 1
        with pytest.raises(FormatError):
            tio.trajectory_from_bytes(b"NOPE" + payload[4:])
        with pytest.raises(FormatError):
            tio.trajectory_from_bytes(payload[:4] + bytes([9]) + payload[5:])

    def test_truncation_detected(self):
        payload = tio.trajectory_to_bytes(make_traj())
        with pytest.raises(FormatError):
            tio.trajectory_from_bytes(payload[:-8])

    def test_unseeded_trajectory(self, tmp_path):
        traj = Trajectory(dt=1e-9, a1=np.zeros(3, complex),
                          a2=np.zeros(3, complex), drive_b2=0.0,
                          drive_phase=0.0, seed=None)
        back = tio.trajectory_from_bytes(tio.trajectory_to_bytes(traj))
        assert back.seed is None

    def test_ensemble_rejected(self):
        traj = Trajectory(dt=1e-9, a1=np.zeros((3, 2), complex),
                          a2=np.zeros((3, 2), complex), drive_b2=0.0,
                          drive_phase=0.0)
        with pytest.raises(ValueError):
            tio.trajectory_to_bytes(traj)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        traj = make_traj(4)
        tio.write_trajectory_csv(path, traj, meta={"run": "demo"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# run:")
        assert "t_s,a1_re,a1_im,a2_re,a2_im" in lines
        back = tio.read_trajectory_csv(path)
        assert back.dt == traj.dt
        assert back.seed == traj.seed
        assert np.array_equal(back.a1, traj.a1)
        assert np.array_equal(back.a2, traj.a2)


class TestHistogramCSV:
    def test_roundtrip(self, tmp_path):
        edges = np.linspace(-2, 2, 9)
        counts = np.zeros((8, 8), dtype=np.int64)
        counts[3, 4] = 17
        counts[0, 0] = 2
        hist = Histogram2D(i_edges=edges, q_edges=edges, counts=counts,
                           fs=1e5, window=1e-5)
        path = tmp_path / "h.csv"
        tio.write_histogram_csv(path, hist, meta={"seed": 3})
        back = tio.read_histogram_csv(path)
        assert np.array_equal(back.counts, counts)
        assert np.allclose(back.i_edges, edges)
        assert back.fs == hist.fs
        assert back.units == "photon_amplitude"

    def test_missing_header_detected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FormatError):
            tio.read_histogram_csv(path)


class TestLinecuts:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cut.csv"
        pd_dbm = np.linspace(-20, -5, 7)
        pout = np.geomspace(1e-12, 1e-9, 7)
        tio.write_linecut_csv(path, pd_dbm, pout, sidecar={
            "delta1_rad_s": -2 * math.pi * 8e6, "flux_frac": 0.0,
            "fs_hz": 1e5})
        cut, sidecar = tio.read_linecut_csv(path)
        assert isinstance(cut, Linecut)
        assert cut.delta1 == pytest.approx(-2 * math.pi * 8e6)
        assert sidecar["fs_hz"] == 1e5
        assert np.allclose(cut.pout_w, pout)
        assert np.all(np.diff(cut.pd_w) > 0)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "cut.csv"
        path.write_text("pd_dbm,pout_w\n-10.0,1e-10\n")
        with pytest.raises(FormatError):
            tio.read_linecut_csv(path)

    @pytest.mark.parametrize("pd_dbm, pout, needle", [
        ([-20.0, -10.0, -10.0], [1e-12, 1e-11, 2e-11], "strictly increasing"),
        ([-20.0, -15.0, -10.0], [1e-12, math.nan, 2e-11], "pout_w"),
    ], ids=["repeated-power", "nan-output"])
    def test_bad_rows_name_the_file(self, tmp_path, pd_dbm, pout, needle):
        path = tmp_path / "bad_cut.csv"
        tio.write_linecut_csv(path, pd_dbm, pout, sidecar={
            "delta1_rad_s": -2 * math.pi * 8e6, "flux_frac": 0.0})
        with pytest.raises(FormatError, match="bad_cut.csv") as err:
            tio.read_linecut_csv(path)
        assert needle in str(err.value)

    @pytest.mark.parametrize("text", [
        '{"delta1_rad_s": -5e7, "flux_frac": 0.0',
        '{"delta1_rad_s": "abc", "flux_frac": 0.0}',
        '[-5e7, 0.0]'], ids=["truncated", "not-a-number", "not-an-object"])
    def test_bad_sidecar_is_a_format_error(self, tmp_path, text):
        path = tmp_path / "cut.csv"
        path.write_text("pd_dbm,pout_w\n-10.0,1e-10\n")
        (tmp_path / "cut.csv.meta.json").write_text(text)
        with pytest.raises(FormatError, match="cut.csv.meta.json"):
            tio.read_linecut_csv(path)

    def test_sidecar_required_fields(self, tmp_path):
        with pytest.raises(ValueError):
            tio.write_linecut_csv(tmp_path / "c.csv", [0.0], [0.0],
                                  sidecar={"flux_frac": 0.0})


class TestFitReport:
    def test_fields(self, tmp_path):
        class R:
            x = 9.97e11
            x_sigma = 3e9
            residual = 1.2e-20
            n_points = 57

        path = tmp_path / "fit.json"
        tio.write_fit_report(path, R, meta={"seed": 5})
        doc = json.loads(path.read_text())
        assert doc["x"] == 9.97e11
        assert doc["x_sigma"] == 3e9
        assert doc["n_points"] == 57
        assert doc["meta"]["seed"] == 5


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.bin"
    tio.atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_atomic_write_mode_follows_umask(tmp_path):
    payload = bytes(range(256)) * 3
    path = tmp_path / "artifact.bin"
    old = os.umask(0o022)
    try:
        tio.atomic_write_bytes(path, payload)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert path.read_bytes() == payload
