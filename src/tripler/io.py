"""File formats: trajectory binary/CSV, histogram CSV, linecuts, fit reports.

Binary trajectory layout (version 1, all little-endian):

    bytes 0..3   magic b"TRPL"
    byte  4      format version (1)
    bytes 5..    header struct "<dqddQ":
                   dt (f64, s), seed (i64, -1 when unseeded),
                   drive |B2| (f64, s^-1/2), drive phase (f64, rad),
                   n samples (u64)
    then         n records of 4 f64: Re a1, Im a1, Re a2, Im a2

CSV files start with ``# key: value`` comment lines (the reproducibility
header) followed by a mandatory column-name row; the delimiter is a comma
and the decimal separator a period.  All writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .dynamics import Histogram2D, Trajectory
from .errors import FormatError

MAGIC = b"TRPL"
VERSION = 1
_HEADER = struct.Struct("<dqddQ")


def atomic_write_bytes(path, payload: bytes):
    """Write bytes through a sibling temp file and an atomic rename.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the owner-only 0o600 of the temp file.
    """
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def _meta_lines(meta: dict | None) -> str:
    if not meta:
        return ""
    return "".join(f"# {k}: {json.dumps(v, sort_keys=True, default=str)}\n"
                   for k, v in meta.items())


# ---------------------------------------------------------------------------
# trajectories


def trajectory_to_bytes(traj: Trajectory) -> bytes:
    if traj.a1.ndim != 1:
        raise ValueError("binary format stores single trajectories; "
                         "split ensembles with Trajectory.member")
    seed = -1 if traj.seed is None else int(traj.seed)
    head = MAGIC + bytes([VERSION]) + _HEADER.pack(
        traj.dt, seed, traj.drive_b2, traj.drive_phase, traj.n_samples)
    rec = np.empty((traj.n_samples, 4), dtype="<f8")
    rec[:, 0], rec[:, 1] = traj.a1.real, traj.a1.imag
    rec[:, 2], rec[:, 3] = traj.a2.real, traj.a2.imag
    return head + rec.tobytes()


def trajectory_from_bytes(payload: bytes) -> Trajectory:
    if payload[:4] != MAGIC:
        raise FormatError("bad magic: not a trajectory payload")
    if payload[4] != VERSION:
        raise FormatError(f"unsupported trajectory format version {payload[4]}")
    off = 5
    dt, seed, b2, phase, n = _HEADER.unpack_from(payload, off)
    off += _HEADER.size
    expect = off + 32 * n
    if len(payload) < expect:
        raise FormatError(f"truncated payload: {len(payload)} < {expect} bytes")
    rec = np.frombuffer(payload, dtype="<f8", count=4 * n, offset=off)
    rec = rec.reshape(n, 4)
    return Trajectory(dt=dt, a1=rec[:, 0] + 1j * rec[:, 1],
                      a2=rec[:, 2] + 1j * rec[:, 3], drive_b2=b2,
                      drive_phase=phase, seed=None if seed == -1 else seed)


def write_trajectory(path, traj: Trajectory):
    atomic_write_bytes(path, trajectory_to_bytes(traj))


def read_trajectory(path) -> Trajectory:
    return trajectory_from_bytes(Path(path).read_bytes())


def write_trajectory_csv(path, traj: Trajectory, meta: dict | None = None):
    if traj.a1.ndim != 1:
        raise ValueError("CSV stores single trajectories")
    head = dict(meta or {})
    head.update({"dt_s": float(traj.dt), "drive_b2": float(traj.drive_b2),
                 "drive_phase_rad": float(traj.drive_phase),
                 "seed": traj.seed})
    lines = [_meta_lines(head), "t_s,a1_re,a1_im,a2_re,a2_im\n"]
    t = (np.arange(traj.n_samples) + 1) * traj.dt
    for i in range(traj.n_samples):
        lines.append(",".join(repr(float(x)) for x in (
            t[i], traj.a1[i].real, traj.a1[i].imag,
            traj.a2[i].real, traj.a2[i].imag)) + "\n")
    atomic_write_text(path, "".join(lines))


def read_trajectory_csv(path) -> Trajectory:
    meta, rows = _read_csv(path, ("t_s", "a1_re", "a1_im", "a2_re", "a2_im"))
    data = np.asarray([[float(c) for c in r] for r in rows])
    if data.size == 0:
        raise FormatError("trajectory CSV carries no samples")
    dt = float(meta.get("dt_s", data[0, 0]))
    seed = meta.get("seed")
    return Trajectory(dt=dt, a1=data[:, 1] + 1j * data[:, 2],
                      a2=data[:, 3] + 1j * data[:, 4],
                      drive_b2=float(meta.get("drive_b2", 0.0)),
                      drive_phase=float(meta.get("drive_phase_rad", 0.0)),
                      seed=None if seed in (None, "None") else int(seed))


# ---------------------------------------------------------------------------
# histograms


def write_histogram_csv(path, hist: Histogram2D, meta: dict | None = None):
    """Sparse cell listing plus edge arrays in the comment header."""
    head = dict(meta or {})
    head.update({
        "fs_hz": hist.fs,
        "window_s": hist.window,
        "units": hist.units,
        "i_edges": [float(x) for x in hist.i_edges],
        "q_edges": [float(x) for x in hist.q_edges],
    })
    lines = [_meta_lines(head), "i_bin,q_bin,count\n"]
    nz = np.argwhere(hist.counts > 0)
    for i, j in nz:
        lines.append(f"{i},{j},{hist.counts[i, j]}\n")
    atomic_write_text(path, "".join(lines))


def read_histogram_csv(path) -> Histogram2D:
    meta, rows = _read_csv(path, ("i_bin", "q_bin", "count"))
    try:
        i_edges = np.asarray(meta["i_edges"], dtype=float)
        q_edges = np.asarray(meta["q_edges"], dtype=float)
        fs = float(meta["fs_hz"])
        window = float(meta["window_s"])
        units = str(meta.get("units", "photon_amplitude"))
    except KeyError as exc:
        raise FormatError(f"histogram header missing {exc}") from exc
    counts = np.zeros((i_edges.size - 1, q_edges.size - 1), dtype=np.int64)
    for r in rows:
        counts[int(r[0]), int(r[1])] = int(r[2])
    return Histogram2D(i_edges=i_edges, q_edges=q_edges, counts=counts,
                       fs=fs, window=window, units=units)


def _read_csv(path, expected_header):
    meta = {}
    rows = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, _, v = body.partition(":")
                    try:
                        meta[k.strip()] = json.loads(v.strip())
                    except json.JSONDecodeError:
                        meta[k.strip()] = v.strip()
                continue
            cells = line.split(",")
            if not header_seen:
                if tuple(cells) != tuple(expected_header):
                    raise FormatError(
                        f"expected header {expected_header}, got {tuple(cells)}")
                header_seen = True
                continue
            rows.append(cells)
    if not header_seen:
        raise FormatError("missing mandatory column-name row")
    return meta, rows


# ---------------------------------------------------------------------------
# linecuts and fit reports


def write_linecut_csv(path, pd_dbm, pout_w, sidecar: dict):
    """Linecut CSV (``pd_dbm,pout_w``) and its metadata sidecar JSON.

    The sidecar (written next to the CSV as ``<name>.meta.json``) must
    carry ``delta1_rad_s`` and ``flux_frac``; anything else is preserved.
    """
    if "delta1_rad_s" not in sidecar or "flux_frac" not in sidecar:
        raise ValueError("sidecar needs delta1_rad_s and flux_frac")
    lines = ["pd_dbm,pout_w\n"]
    for p, o in zip(pd_dbm, pout_w):
        lines.append(f"{float(p)!r},{float(o)!r}\n")
    path = Path(path)
    atomic_write_text(path, "".join(lines))
    atomic_write_text(path.with_name(path.name + ".meta.json"),
                      json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_linecut_csv(path):
    """Returns (Linecut, sidecar dict); powers converted to watts."""
    from .calibration import Linecut, dbm_to_watt

    path = Path(path)
    _, rows = _read_csv(path, ("pd_dbm", "pout_w"))
    side_path = path.with_name(path.name + ".meta.json")
    if not side_path.exists():
        raise FormatError(f"missing metadata sidecar {side_path.name}")
    try:
        sidecar = json.loads(side_path.read_text(encoding="utf-8"))
        delta1 = float(sidecar["delta1_rad_s"])
        flux = float(sidecar["flux_frac"])
    except KeyError as exc:
        raise FormatError(f"sidecar missing {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise FormatError(f"sidecar {side_path.name}: {exc}") from exc
    try:
        pd = dbm_to_watt([float(r[0]) for r in rows])
        pout = np.asarray([float(r[1]) for r in rows])
        order = np.argsort(pd)
        cut = Linecut(delta1=delta1, flux=flux, pd_w=pd[order],
                      pout_w=pout[order])
    except (ValueError, IndexError) as exc:
        raise FormatError(f"linecut {path}: {exc}") from exc
    return cut, sidecar


def write_fit_report(path, result, meta: dict | None = None):
    """Fit report JSON with fields {x, x_sigma, residual, n_points}."""
    doc = {
        "x": result.x,
        "x_sigma": result.x_sigma,
        "residual": result.residual,
        "n_points": result.n_points,
    }
    if meta:
        doc["meta"] = meta
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
