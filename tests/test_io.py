import json
import math
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripler import io as tio
from tripler.calibration import Linecut
from tripler.dynamics import Histogram2D, Trajectory
from tripler.errors import DomainError, FormatError

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_samples=0):
    """Single trajectories of finite samples, seeded or not."""
    n = draw(st.integers(min_samples, 12))
    parts = draw(st.lists(finite, min_size=4 * n, max_size=4 * n))
    # built bit for bit: x + 1j*y would turn a real part -0.0 into 0.0
    z = np.array(parts, dtype=float).view(complex).reshape(2, n)
    return Trajectory(dt=draw(st.floats(1e-15, 1.0)), a1=z[0], a2=z[1],
                      drive_b2=draw(finite), drive_phase=draw(finite),
                      seed=draw(st.none() | st.integers(0, 2**63 - 1)))


#: floats a CSV cell must carry bit for bit: signed zero, subnormals, extremes
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308)
TABLE_COLUMNS = ("x", "int", "np_int", "flag", "text")
#: rows of every cell kind; a text cell holds no comma and no line break
table_rows = st.lists(st.tuples(
    st.sampled_from(EDGE_FLOATS) | finite,
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(st.characters(blacklist_characters=",\n\r",
                          blacklist_categories=("Cs",)))), max_size=8)
#: rows of any length and cell kinds, text cells holding anything
any_rows = st.lists(st.lists(
    st.sampled_from(EDGE_FLOATS) | finite | st.integers()
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans()
    | st.text(max_size=4) | st.sampled_from(["", "#", "#k: 1", " #", ",",
                                             "\n", "a\r\nb"]),
    max_size=3), max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=8)
table_meta = st.dictionaries(
    st.text(st.characters(whitelist_categories=("L", "N")), min_size=1),
    json_values, max_size=4)


def same_bits(back, traj):
    """Equal seeds, and every header field and sample equal bit for bit."""
    head = [np.float64(x).tobytes() for x in (traj.dt, traj.drive_b2,
                                              traj.drive_phase)]
    return back.seed == traj.seed \
        and [np.float64(x).tobytes() for x in (back.dt, back.drive_b2,
                                               back.drive_phase)] == head \
        and back.a1.tobytes() == traj.a1.tobytes() \
        and back.a2.tobytes() == traj.a2.tobytes()


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

    @pytest.mark.parametrize("cut, needle", [
        (4, "truncated header: 4 < 45"),
        (15, "truncated header: 15 < 45"),
        (44, "truncated header: 44 < 45"),
    ], ids=["magic-only", "partial-header", "header-less-one"])
    def test_short_header_is_a_format_error(self, cut, needle):
        payload = tio.trajectory_to_bytes(make_traj())
        with pytest.raises(FormatError, match=needle):
            tio.trajectory_from_bytes(payload[:cut])

    @pytest.mark.parametrize("dt", [math.nan, -1.0, 0.0, math.inf])
    def test_dt_not_positive_and_finite_is_a_format_error(self, dt):
        payload = tio.trajectory_to_bytes(make_traj())
        bad = payload[:5] + struct.pack("<d", dt) + payload[13:]
        with pytest.raises(FormatError, match="dt must be positive and finite"):
            tio.trajectory_from_bytes(bad)

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

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(traj=trajectories())
    def test_binary_roundtrip_bitwise_property(self, traj):
        back = tio.trajectory_from_bytes(tio.trajectory_to_bytes(traj))
        assert same_bits(back, traj)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(traj=trajectories(min_samples=1))
    def test_csv_roundtrip_property(self, tmp_path_factory, traj):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        tio.write_trajectory_csv(path, traj)
        # repr() writes the shortest string that parses back to the float
        assert same_bits(tio.read_trajectory_csv(path), traj)


class TestTrajectoryCSV:
    @pytest.mark.parametrize("row, needle", [
        ("1e-9,0.0,0.0,0.0", "line 4: 4 cells, expected 5"),
        ("1e-9,0.0,0.0,0.0,0.0,0.0", "line 4: 6 cells, expected 5"),
        ("1e-9,0.0,x,0.0,0.0", "line 4: could not convert string"),
    ], ids=["short-row", "long-row", "text-cell"])
    def test_bad_row_is_a_format_error(self, tmp_path, row, needle):
        path = tmp_path / "t.csv"
        path.write_text("# dt_s: 1e-9\nt_s,a1_re,a1_im,a2_re,a2_im\n"
                        f"1e-9,1.0,0.0,0.0,0.0\n{row}\n")
        with pytest.raises(FormatError, match=needle):
            tio.read_trajectory_csv(path)


    @pytest.mark.parametrize("head, first_t", [
        ("# dt_s: NaN\n", "1e-9"),
        ("# dt_s: -1.0\n", "1e-9"),
        ("# dt_s: 0.0\n", "1e-9"),
        ("# dt_s: Infinity\n", "1e-9"),
        ("", "-1e-9"),
    ], ids=["nan", "negative", "zero", "infinite", "from-negative-time"])
    def test_dt_not_positive_and_finite_is_a_format_error(self, tmp_path,
                                                          head, first_t):
        path = tmp_path / "t.csv"
        path.write_text(f"{head}t_s,a1_re,a1_im,a2_re,a2_im\n"
                        f"{first_t},1.0,0.0,0.0,0.0\n")
        with pytest.raises(FormatError, match="header 'dt_s': dt must be "
                                              "positive and finite"):
            tio.read_trajectory_csv(path)


#: per reader, a table whose header comments read back
HEADED_TABLES = {
    "trajectory": (tio.read_trajectory_csv,
                   "# dt_s: 1e-9\n# seed: 3\nt_s,a1_re,a1_im,a2_re,a2_im\n"
                   "1e-9,1.0,0.0,0.0,0.0\n"),
    "histogram": (tio.read_histogram_csv,
                  "# i_edges: [0.0, 1.0, 2.0]\n# q_edges: [0.0, 1.0, 2.0]\n"
                  "# fs_hz: 1.0\n# window_s: 1.0\ni_bin,q_bin,count\n0,0,1\n"),
}


@pytest.mark.parametrize("kind, key, value", [
    ("trajectory", "seed", '"abc"'),
    ("trajectory", "seed", "[1]"),
    ("trajectory", "seed", "1.5"),
    ("trajectory", "dt_s", '"ab"'),
    ("trajectory", "drive_b2", "null"),
    ("trajectory", "drive_phase_rad", "{}"),
    ("histogram", "i_edges", '"ab"'),
    ("histogram", "q_edges", "[[0.0], 1.0]"),
    ("histogram", "i_edges", "5.0"),
    ("histogram", "q_edges", "[1.0]"),
    ("histogram", "i_edges", "[0.0, NaN, 2.0]"),
    ("histogram", "i_edges", "[2.0, 1.0, 0.0]"),
    ("histogram", "fs_hz", "null"),
    ("histogram", "window_s", '"w"'),
    ("histogram", "fs_hz", "NaN"),
    ("histogram", "window_s", "-1.0"),
], ids=["seed-text", "seed-list", "seed-fraction", "dt-text", "drive-null",
        "phase-object", "i-edges-text", "q-edges-ragged", "i-edges-scalar",
        "q-edges-single", "i-edges-nan", "i-edges-decreasing", "fs-null",
        "window-text", "fs-nan", "window-negative"])
def test_malformed_header_comment_is_a_format_error(tmp_path, kind, key,
                                                    value):
    reader, table = HEADED_TABLES[kind]
    lines = [ln for ln in table.splitlines(keepends=True)
             if not ln.startswith(f"# {key}:")]
    path = tmp_path / "t.csv"
    path.write_text(f"# {key}: {value}\n" + "".join(lines))
    with pytest.raises(FormatError, match=f"t.csv: header '{key}': "):
        reader(path)

class TestWriteTable:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(rows=table_rows, meta=table_meta)
    @example(rows=[(x, -3, np.int64(2**63 - 1), False, " a#b ")
                   for x in EDGE_FLOATS], meta={"k": [1, "two", None]})
    def test_roundtrip_property(self, tmp_path_factory, rows, meta):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        tio.write_table(path, TABLE_COLUMNS, rows, meta=meta)
        back_meta, back = tio._read_csv(path, TABLE_COLUMNS)
        assert back_meta == meta
        assert len(back) == len(rows)
        for cells, (x, i, n, flag, text) in zip(back, rows):
            assert float(cells[0]).hex() == x.hex()
            assert cells[1:] == [str(i), str(int(n)), str(int(flag)), text]

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(rows=any_rows)
    @example(rows=[["#x", 1.0], ["", 2.0]])
    @example(rows=[[""], ["#y"], ["z"]])
    @example(rows=[[" #", ""], ["", ""], [1.5, "#"]])
    def test_accepted_tables_read_back_property(self, tmp_path_factory,
                                                rows):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        try:
            tio.write_table(path, ("c",), rows)
        except FormatError:
            assert not path.exists()
            return
        _, back = tio._read_csv(path, ("c",))
        assert len(back) == len(rows)
        for cells, row in zip(back, rows):
            assert len(cells) == len(row)
            for got, x in zip(cells, row):
                if isinstance(x, str):
                    assert got == x
                elif isinstance(x, (int, np.integer)):
                    assert got == str(int(x))
                else:
                    assert float(got).hex() == x.hex()

    @pytest.mark.parametrize("rows, index", [
        ([("#x", 1.0), ("", 2.0)], 0),
        ([("a", 1.0), ("", 2.0), ("",)], 2),
        ([("",), ("#y",), ("z",)], 0),
        ([(1.0,), ()], 1),
        ([(1.0, "a,b")], 0),
        ([(1.0,), (2.0,), ("x\ny",)], 2),
        ([("x\r",)], 0),
    ], ids=["hash", "empty-row-text", "empty-text", "no-cells", "comma",
            "newline", "carriage-return"])
    def test_rows_that_do_not_read_back_rejected(self, tmp_path, rows, index):
        path = tmp_path / "t.csv"
        with pytest.raises(FormatError, match=f"^row {index}"):
            tio.write_table(path, ("a", "b"), rows)
        assert not path.exists()

    def test_no_meta_no_comment_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        tio.write_table(path, ("a", "b"), [(1.5, 2)])
        assert path.read_text() == "a,b\n1.5,2\n"


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

    @pytest.mark.parametrize("name", ["i_edges", "q_edges"])
    @pytest.mark.parametrize("edges", [
        [0.0, math.nan, 1.0], [1.0, 0.0, -1.0], [0.0]],
        ids=["nan", "decreasing", "single"])
    def test_bad_edges_rejected_at_construction(self, name, edges):
        fields = dict(i_edges=[0.0, 1.0], q_edges=[0.0, 1.0],
                      counts=np.zeros((1, 1), dtype=np.int64), fs=1e5,
                      window=1e-5)
        fields[name] = edges
        with pytest.raises(DomainError, match=f"^{name} must be 1-D bin "
                                              "edges") as info:
            Histogram2D(**fields)
        assert info.value.name == name

    @pytest.mark.parametrize("changes, name, needle", [
        # a histogram once written, and its file refused or read as given
        (dict(counts=np.ones((3, 3), dtype=np.int64)), "counts",
         r"of shape \(2, 1\), one per bin, got int64 of shape \(3, 3\)"),
        (dict(fs=math.nan, window=-1.0), "fs",
         "fs must be positive and finite, got nan"),
        (dict(window=-1.0), "window",
         "window must be positive and finite, got -1.0"),
        (dict(counts=np.ones((2, 1))), "counts", "got float64 of shape"),
        (dict(counts=np.array([[0], [-1]])), "counts",
         r"from 0 to 2\*\*63 - 1, got -1 to 0"),
        (dict(counts=np.full((2, 1), 2**63, dtype=np.uint64)), "counts",
         "got 9223372036854775808 to 9223372036854775808"),
    ], ids=["counts-3x3-on-2x1", "fs-nan-window-negative", "window-negative",
            "counts-float", "counts-negative", "counts-past-int64"])
    def test_bad_counts_or_rates_rejected_at_construction(self, changes,
                                                          name, needle):
        fields = dict(i_edges=[0, 1, 2], q_edges=[0, 1],
                      counts=np.ones((2, 1), dtype=np.int64), fs=1e5,
                      window=1e-5)
        with pytest.raises(DomainError, match=needle) as info:
            Histogram2D(**dict(fields, **changes))
        assert info.value.name == name
        # counts given as nested lists are taken as an integer array
        listed = Histogram2D(**dict(fields, counts=[[0], [3]]))
        assert listed.counts.dtype.kind == "i"

    def test_writer_gets_only_edges_the_reader_takes(self, tmp_path):
        # a histogram with a NaN edge was written, and its file refused
        path = tmp_path / "h.csv"
        with pytest.raises(DomainError, match="^i_edges"):
            tio.write_histogram_csv(path, Histogram2D(
                i_edges=[0.0, math.nan, 1.0], q_edges=[0.0, 1.0],
                counts=np.zeros((2, 1), dtype=np.int64), fs=1e5,
                window=1e-5))
        assert not path.exists()
        hist = Histogram2D(i_edges=[0, 1, 2], q_edges=[-1.5, 1.5],
                           counts=np.ones((2, 1), dtype=np.int64), fs=1e5,
                           window=1e-5)
        assert hist.i_edges.dtype == float
        tio.write_histogram_csv(path, hist)
        back = tio.read_histogram_csv(path)
        assert back.i_edges.tolist() == [0.0, 1.0, 2.0]
        assert back.counts.tolist() == [[1], [1]]

    def test_missing_header_detected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FormatError):
            tio.read_histogram_csv(path)

    @pytest.mark.parametrize("row, needle", [
        ("1,2", "line 7: 2 cells, expected 3"),
        ("1,1,1,1", "line 7: 4 cells, expected 3"),
        ("a,0,3", "line 7: invalid literal"),
        ("-1,0,3", r"bin \(-1, 0\) outside the 2x2 grid"),
        ("0,2,3", r"bin \(0, 2\) outside the 2x2 grid"),
        ("0,1,-3", r"bin \(0, 1\) has count -3"),
    ], ids=["short-row", "long-row", "text-bin", "negative-bin",
            "bin-past-edges", "negative-count"])
    def test_bad_row_is_a_format_error(self, tmp_path, row, needle):
        path = tmp_path / "h.csv"
        path.write_text("# i_edges: [0.0, 1.0, 2.0]\n# q_edges: [0.0, 1.0, 2.0]\n"
                        "# fs_hz: 1.0\n# window_s: 1.0\ni_bin,q_bin,count\n"
                        f"0,0,1\n{row}\n")
        with pytest.raises(FormatError, match=needle):
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
            residual = 55.1
            rel_noise = 0.0099
            n_points = 57

        path = tmp_path / "fit.json"
        tio.write_fit_report(path, R, meta={"seed": 5})
        doc = json.loads(path.read_text())
        assert doc["x"] == 9.97e11
        assert doc["x_sigma"] == 3e9
        assert doc["residual"] == 55.1
        assert doc["rel_noise"] == 0.0099
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
