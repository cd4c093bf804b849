"""File formats: trajectory binary/CSV, histogram CSV, linecuts, fit reports.

Binary trajectory layout (version 1, all little-endian):

    bytes 0..3   magic b"TRPL"
    byte  4      format version (1)
    bytes 5..    header struct "<dqddQ":
                   dt (f64, s), seed (i64, -1 when unseeded),
                   drive |B2| (f64, s^-1/2), drive phase (f64, rad),
                   n samples (u64)
    then         n records of 4 f64: Re a1, Im a1, Re a2, Im a2

Every CSV table is written by :func:`write_table` and every JSON document
by :func:`write_json`, and all writes go through a temp file and an atomic
rename (:func:`atomic_write_bytes`).
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from . import _lazy_import
from .errors import DomainError, FormatError

np = _lazy_import("numpy")

if TYPE_CHECKING:
    from .dynamics import Histogram2D, Trajectory

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


def _cell(x) -> str:
    if isinstance(x, float):                # np.float64 is a float
        return repr(float(x))
    if isinstance(x, str):
        if "," in x or "\n" in x or "\r" in x:
            raise FormatError(f"text cell {x!r} holds a comma or a line "
                              "break")
        return x
    if isinstance(x, int) or isinstance(x, np.integer):   # bool is an int
        return str(int(x))
    return repr(float(x))


def write_table(path, columns, rows, meta: dict | None = None):
    """CSV table: a ``# key: <json>`` line per ``meta`` item, the column row,
    then the rows.  A float cell (numpy's too) is written as
    ``repr(float(x))``, which reads back bit for bit, a ``str`` cell as it
    is, an ``int``, ``bool`` or numpy integer as a decimal, and any other
    cell as ``repr(float(x))``.

    Every row must read back through :func:`_read_csv` as written, which
    splits cells at commas and lines at line breaks, skips an empty line and
    takes one starting with ``#`` for a comment.  A text cell with a comma
    or a line break, or a row rendering as an empty line or starting with
    ``#``, raises :class:`FormatError` naming the row, and nothing is
    written.
    """
    lines = [f"# {k}: {json.dumps(v, sort_keys=True, default=str)}\n"
             for k, v in (meta or {}).items()]
    lines.append(",".join(columns) + "\n")
    for i, row in enumerate(rows):
        try:
            line = ",".join(map(_cell, row))
        except FormatError as exc:
            raise FormatError(f"row {i}: {exc}") from None
        if not line or line[0] == "#":
            raise FormatError(f"row {i} renders as {line!r}, which reads "
                              "back as no row")
        lines.append(line + "\n")
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))


def write_json(path, doc):
    """JSON document: two-space indent, sorted keys, a final newline."""
    atomic_write_bytes(path, (json.dumps(doc, indent=2, sort_keys=True)
                              + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# trajectories


def trajectory_to_bytes(traj: Trajectory) -> bytes:
    if traj.a1.ndim != 1:
        raise DomainError("traj", "binary format stores single trajectories; "
                          "split ensembles with Trajectory.member")
    seed = -1 if traj.seed is None else int(traj.seed)
    head = MAGIC + bytes([VERSION]) + _HEADER.pack(
        traj.dt, seed, traj.drive_b2, traj.drive_phase, traj.n_samples)
    rec = np.empty((traj.n_samples, 4), dtype="<f8")
    rec[:, 0], rec[:, 1] = traj.a1.real, traj.a1.imag
    rec[:, 2], rec[:, 3] = traj.a2.real, traj.a2.imag
    return head + rec.tobytes()


def trajectory_from_bytes(payload: bytes) -> Trajectory:
    from .dynamics import Trajectory

    if payload[:4] != MAGIC:
        raise FormatError("bad magic: not a trajectory payload")
    if len(payload) > 4 and payload[4] != VERSION:
        raise FormatError(f"unsupported trajectory format version {payload[4]}")
    off = 5 + _HEADER.size
    if len(payload) < off:
        raise FormatError(f"truncated header: {len(payload)} < {off} bytes")
    dt, seed, b2, phase, n = _HEADER.unpack_from(payload, 5)
    _check_dt(dt, "header dt")
    expect = off + 32 * n
    if len(payload) < expect:
        raise FormatError(f"truncated payload: {len(payload)} < {expect} bytes")
    # complex records, bit for bit: re + 1j*im would turn -0.0 into 0.0
    rec = np.frombuffer(payload, dtype="<c16", count=2 * n, offset=off)
    rec = rec.reshape(n, 2)
    return Trajectory(dt=dt, a1=rec[:, 0].astype(complex),
                      a2=rec[:, 1].astype(complex), drive_b2=b2,
                      drive_phase=phase, seed=None if seed == -1 else seed)


def write_trajectory(path, traj: Trajectory):
    atomic_write_bytes(path, trajectory_to_bytes(traj))


def read_trajectory(path) -> Trajectory:
    return trajectory_from_bytes(Path(path).read_bytes())


def write_trajectory_csv(path, traj: Trajectory, meta: dict | None = None):
    if traj.a1.ndim != 1:
        raise DomainError("traj", "CSV stores single trajectories")
    head = dict(meta or {}, dt_s=float(traj.dt), drive_b2=float(traj.drive_b2),
                drive_phase_rad=float(traj.drive_phase), seed=traj.seed)
    t = (np.arange(traj.n_samples) + 1) * traj.dt
    columns = (t, traj.a1.real, traj.a1.imag, traj.a2.real, traj.a2.imag)
    write_table(path, ("t_s", "a1_re", "a1_im", "a2_re", "a2_im"),
                zip(*(c.tolist() for c in columns)), meta=head)


def read_trajectory_csv(path) -> Trajectory:
    from .dynamics import Trajectory

    meta, rows = _read_csv(path, ("t_s", "a1_re", "a1_im", "a2_re", "a2_im"),
                           float)
    data = np.asarray(rows)
    if data.size == 0:
        raise FormatError("trajectory CSV carries no samples")
    dt = _header(meta, "dt_s", float, path, float(data[0, 0]))
    _check_dt(dt, f"{path}: header 'dt_s'")
    seed = _header(meta, "seed", _seed, path)
    amps = np.ascontiguousarray(data[:, 1:]).view(complex)   # bit for bit
    return Trajectory(dt=dt, a1=amps[:, 0].copy(), a2=amps[:, 1].copy(),
                      drive_b2=_header(meta, "drive_b2", float, path, 0.0),
                      drive_phase=_header(meta, "drive_phase_rad", float, path,
                                          0.0),
                      seed=seed)


def _check_dt(dt: float, where: str):
    """A sampling interval that is not positive and finite raises
    :class:`FormatError` headed by ``where``."""
    if not 0.0 < dt < math.inf:
        raise FormatError(f"{where}: dt must be positive and finite, "
                          f"got {dt!r}")


def _header(meta, key, parse, path, default=None):
    """``parse`` of the header comment ``key``, or ``default`` without one.

    A value that ``parse`` rejects raises :class:`FormatError` naming the
    path and the key.
    """
    if key not in meta:
        return default
    try:
        return parse(meta[key])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: header {key!r}: {exc}") from None


def _seed(value):
    """A seed header: an integer (not a float such as 1.5), or none."""
    return None if value in (None, "None") else operator.index(value)


# ---------------------------------------------------------------------------
# histograms


def write_histogram_csv(path, hist: Histogram2D, meta: dict | None = None):
    """Sparse cell listing plus edge arrays in the comment header."""
    head = dict(meta or {}, fs_hz=hist.fs, window_s=hist.window,
                units=hist.units, i_edges=[float(x) for x in hist.i_edges],
                q_edges=[float(x) for x in hist.q_edges])
    write_table(path, ("i_bin", "q_bin", "count"),
                ((i, j, hist.counts[i, j])
                 for i, j in np.argwhere(hist.counts > 0)), meta=head)


def read_histogram_csv(path) -> Histogram2D:
    from .dynamics import Histogram2D, _bin_edges

    meta, rows = _read_csv(path, ("i_bin", "q_bin", "count"), int)
    for key in ("i_edges", "q_edges", "fs_hz", "window_s"):
        if key not in meta:
            raise FormatError(f"histogram header missing {key!r}")
    i_edges = _header(meta, "i_edges", lambda v: _bin_edges(v, "i_edges"),
                      path)
    q_edges = _header(meta, "q_edges", lambda v: _bin_edges(v, "q_edges"),
                      path)
    fs = _header(meta, "fs_hz", float, path)
    window = _header(meta, "window_s", float, path)
    units = str(meta.get("units", "photon_amplitude"))
    counts = np.zeros((i_edges.size - 1, q_edges.size - 1), dtype=np.int64)
    for i, j, n in rows:
        if not (0 <= i < counts.shape[0] and 0 <= j < counts.shape[1]):
            raise FormatError(f"{path}: bin ({i}, {j}) outside the "
                              f"{counts.shape[0]}x{counts.shape[1]} grid")
        if not 0 <= n <= np.iinfo(np.int64).max:
            raise FormatError(f"{path}: bin ({i}, {j}) has count {n}")
        counts[i, j] = n
    try:
        return Histogram2D(i_edges=i_edges, q_edges=q_edges, counts=counts,
                           fs=fs, window=window, units=units)
    except DomainError as exc:      # fs or window: the rows were checked
        key = {"fs": "fs_hz", "window": "window_s"}.get(exc.name, exc.name)
        raise FormatError(f"{path}: header {key!r}: {exc}") from None


def _read_csv(path, expected_header, parse=None):
    """``(meta, rows)`` of a table written by :func:`write_table`.

    Without ``parse`` each row is its list of text cells, as written.  With
    it, each row must hold one cell per column, each read by ``parse``; a
    row that does not raises :class:`FormatError` naming its line.
    """
    meta = {}
    rows = []
    header_seen = False
    try:
        with open(path, encoding="utf-8") as fh:
            for number, raw in enumerate(fh, 1):
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
                            f"expected header {expected_header}, "
                            f"got {tuple(cells)}")
                    header_seen = True
                    continue
                if parse is not None:
                    if len(cells) != len(expected_header):
                        raise FormatError(
                            f"{path}: line {number}: {len(cells)} cells, "
                            f"expected {len(expected_header)}")
                    try:
                        cells = [parse(c) for c in cells]
                    except ValueError as exc:
                        raise FormatError(f"{path}: line {number}: {exc}") \
                            from None
                rows.append(cells)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
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
        raise DomainError("sidecar",
                          "sidecar needs delta1_rad_s and flux_frac")
    path = Path(path)
    write_table(path, ("pd_dbm", "pout_w"),
                zip(map(float, pd_dbm), map(float, pout_w)))
    write_json(path.with_name(path.name + ".meta.json"), sidecar)


def read_linecut_csv(path):
    """Returns (Linecut, sidecar dict); powers converted to watts."""
    from .calibration import Linecut, dbm_to_watt

    path = Path(path)
    _, rows = _read_csv(path, ("pd_dbm", "pout_w"), float)
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
        pd = dbm_to_watt([r[0] for r in rows])
        pout = np.asarray([r[1] for r in rows])
        order = np.argsort(pd)
        cut = Linecut(delta1=delta1, flux=flux, pd_w=pd[order],
                      pout_w=pout[order])
    except ValueError as exc:
        raise FormatError(f"linecut {path}: {exc}") from exc
    return cut, sidecar


def write_fit_report(path, result, meta: dict | None = None):
    """Fit report JSON with fields {x, x_sigma, residual, rel_noise,
    n_points}."""
    doc = {k: getattr(result, k) for k in ("x", "x_sigma", "residual",
                                           "rel_noise", "n_points")}
    if meta:
        doc["meta"] = meta
    write_json(path, doc)
