import numpy as np
import pytest

from fracpme.diagnostics import CSV_COLUMNS, DiagnosticsSeries
from fracpme.evolution import SolverConfig, run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.io import (CSV_CHUNK_ROWS, SNAPSHOT_VERSION, datum_box, datum_gaussian,
                        datum_parabola_cap, parse_datum, read_snapshot,
                        snapshot_datum, write_diagnostics, write_snapshot)


def test_snapshot_round_trip_exact_1d(tmp_path):
    g = Grid(1, 6.0, 64)
    v = datum_gaussian(g, 0.8)
    path = tmp_path / "snap.txt"
    write_snapshot(path, v, s=0.25, time=1.5, mode="physical")
    loaded, header = read_snapshot(path)
    assert np.array_equal(loaded.values, v.values)  # bit for bit
    assert loaded.grid.compatible(g)
    assert header == {
        "format_version": SNAPSHOT_VERSION, "n": 1, "s": 0.25, "L": 6.0,
        "N": 64, "time": 1.5, "mode": "physical",
    }


def test_snapshot_round_trip_exact_2d(tmp_path):
    g = Grid(2, 3.0, 16)
    v = datum_box(g, 0.0, 1.0, 2.0)
    path = tmp_path / "snap2.txt"
    write_snapshot(path, v, s=0.5, time=0.0, mode="rescaled")
    loaded, header = read_snapshot(path)
    assert loaded.values.shape == (16, 16)
    assert np.array_equal(loaded.values, v.values)
    assert header["n"] == 2 and header["mode"] == "rescaled"


def test_snapshot_irrational_spacing_survives(tmp_path):
    # 17 significant digits must reproduce ugly floats exactly
    g = Grid(1, np.pi, 32)
    v = Field(g, np.sin(g.axis()) ** 2)
    write_snapshot(tmp_path / "s.txt", v, s=1 / 3, time=np.e, mode="physical")
    loaded, header = read_snapshot(tmp_path / "s.txt")
    assert header["s"] == 1 / 3
    assert header["time"] == np.e
    assert loaded.grid.half_width == g.half_width
    assert np.array_equal(loaded.values, v.values)


def _write_valid(tmp_path):
    g = Grid(1, 2.0, 8)
    write_snapshot(tmp_path / "ok.txt", Field(g, np.ones(8)),
                   s=0.25, time=0.0, mode="physical")
    return (tmp_path / "ok.txt").read_text()


def test_snapshot_missing_blank_line(tmp_path):
    text = _write_valid(tmp_path).replace("\n\n", "\n", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError, match="blank line"):
        read_snapshot(bad)


def test_snapshot_missing_key(tmp_path):
    text = _write_valid(tmp_path).replace("time: 0\n", "")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError, match="lacks.*time"):
        read_snapshot(bad)


def test_snapshot_unknown_key(tmp_path):
    text = _write_valid(tmp_path).replace("mode:", "flavor: odd\nmode:")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError, match="unknown header keys"):
        read_snapshot(bad)


def test_snapshot_version_check(tmp_path):
    text = _write_valid(tmp_path).replace("format_version: 1",
                                          "format_version: 99")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError, match="version 99"):
        read_snapshot(bad)


def test_snapshot_value_count_check(tmp_path):
    text = _write_valid(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text(text + "0.0\n")
    with pytest.raises(ValueError, match="expected 8 values"):
        read_snapshot(bad)


@pytest.mark.parametrize("old, new, message", [
    ("\n\n1.0000000000000000e+00", "\n\nnan", "value 0 is nan, not finite"),
    (" 1.0000000000000000e+00\n", " -inf\n", "value 7 is -inf, not finite"),
    ("time: 0\n", "time: nan\n", "header time = 'nan' is not finite"),
    ("s: 0.25\n", "s: inf\n", "header s = 'inf' is not finite"),
], ids=["nan_value", "inf_value", "nan_time", "inf_s"])
def test_snapshot_rejects_non_finite(tmp_path, old, new, message):
    text = _write_valid(tmp_path)
    assert old in text
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=message):
        read_snapshot(bad)


def test_snapshot_malformed_header_line(tmp_path):
    text = _write_valid(tmp_path).replace("n: 1", "just words")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError, match="malformed header line"):
        read_snapshot(bad)


def test_diagnostics_round_trip(tmp_path, read_diagnostics):
    g = Grid(1, 6.0, 64)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    traj = run(datum_box(g, 0.0, 2.0, 1.0), "physical",
               SolverConfig(end_time=0.2, snapshot_stride=2), op, on_record=None)
    path = tmp_path / "d.csv"
    write_diagnostics(path, traj.diagnostics)
    table = read_diagnostics(path)
    assert set(table) == set(CSV_COLUMNS)
    for name in CSV_COLUMNS:
        assert np.array_equal(table[name], traj.diagnostics.column(name))


def test_diagnostics_repeat_is_byte_identical(tmp_path):
    def once(path):
        g = Grid(1, 6.0, 48)
        op = FracOperator(g, FracParams(s=0.25, dim=1))
        traj = run(datum_box(g, 0.0, 2.0, 1.0), "physical",
                   SolverConfig(end_time=0.3), op, on_record=None)
        write_diagnostics(path, traj.diagnostics)
        return path.read_bytes()

    assert once(tmp_path / "a.csv") == once(tmp_path / "b.csv")


def test_diagnostics_text_is_the_fstring_form(tmp_path):
    # one "%.17g" row format must print every float as f"{x:.17g}" does
    edge = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.225073858507201e-308, 1e-320, 1.7976931348623157e308, 0.1, 1 / 3, 1e16,
            123456789012345678.0, 1e-5, 1e-4, 1e17, 9.999999999999999e16]
    bits = np.random.default_rng(0).integers(0, 2**63, 3 * 11 * 800, dtype=np.uint64)
    values = edge + [float(x) for x in bits.view(np.float64)] + edge[::-1]
    width = len(CSV_COLUMNS) - 1  # the time column must increase
    values += [0.0] * (-len(values) % width)
    rows = [[float(k)] + values[j:j + width]
            for k, j in enumerate(range(0, len(values), width))]
    rows[0][0] = -np.inf
    rows[-1][0] = np.inf
    rows[1][0], rows[2][0] = -5e-324, 0.0
    series = DiagnosticsSeries()
    for start in range(0, len(rows), 700):  # past the first doubling and a chunk
        series.append(rows[start:start + 700])
    write_diagnostics(tmp_path / "d.csv", series)
    expected = [",".join(CSV_COLUMNS)] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    assert len(rows) > 2 * CSV_CHUNK_ROWS
    assert (tmp_path / "d.csv").read_text() == "\n".join(expected) + "\n"


def test_diagnostics_bad_header(tmp_path, read_diagnostics):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,mass\n0.0,1.0\n")
    with pytest.raises(ValueError, match="diagnostics header"):
        read_diagnostics(bad)


def test_diagnostics_ragged_row(tmp_path, read_diagnostics):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(CSV_COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(ValueError, match="ragged"):
        read_diagnostics(bad)


@pytest.mark.parametrize("n_pts", [50, 64, 96])
def test_box_mass_is_grid_independent(n_pts):
    # exact overlap fractions: mass = width * height on any grid
    g = Grid(1, 6.0, n_pts)
    assert datum_box(g, 0.0, 2.0, 1.0).mass() == pytest.approx(2.0, abs=1e-14)
    assert datum_box(g, 0.3, 1.7, 0.5).mass() == pytest.approx(0.85, abs=1e-14)


def test_box_mass_2d():
    g = Grid(2, 4.0, 48)
    assert datum_box(g, 0.0, 2.0, 1.5).mass() == pytest.approx(6.0, abs=1e-13)


def test_box_interior_and_exterior_values():
    g = Grid(1, 4.0, 64)
    u = datum_box(g, 0.0, 2.0, 3.0).values
    x = g.axis()
    assert np.all(u[np.abs(x) <= 0.9] == 3.0)
    assert np.all(u[np.abs(x) >= 1.1] == 0.0)


def test_box_rejects_degenerate_shape():
    g = Grid(1, 4.0, 16)
    with pytest.raises(ValueError, match="positive width"):
        datum_box(g, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive width"):
        datum_box(g, 0.0, 1.0, -2.0)


def test_parabola_cap_values_and_errors():
    g = Grid(1, 4.0, 64)
    u = datum_parabola_cap(g, 2.0, 1.0)
    x = np.abs(g.axis())
    assert np.allclose(u.values, 2.0 * np.clip(1.0 - x, 0.0, None) ** 2)
    with pytest.raises(ValueError, match="positive a and b"):
        datum_parabola_cap(g, -1.0, 1.0)


def test_gaussian_truncation():
    g = Grid(1, 12.0, 256)
    u = datum_gaussian(g, 0.8)
    # nearest cell center sits at h/2, not at the origin
    peak = np.exp(-((g.spacing / 2.0) ** 2) / (2.0 * 0.8 ** 2))
    assert u.values.max() == pytest.approx(peak, rel=1e-12)
    far = np.abs(g.axis()) > 10.0
    assert np.all(u.values[far] == 0.0)  # tail cut, support compact
    with pytest.raises(ValueError, match="positive sigma"):
        datum_gaussian(g, 0.0)


def test_parse_datum_shapes():
    assert parse_datum("box(0, 2, 1)") == ("box", (0.0, 2.0, 1.0))
    assert parse_datum(" parabola_cap(1,1) ") == ("parabola_cap", (1.0, 1.0))
    assert parse_datum("gaussian_truncated(0.8)") == ("gaussian_truncated", (0.8,))
    assert parse_datum("from_file(/tmp/x.txt)") == ("from_file", ("/tmp/x.txt",))


@pytest.mark.parametrize("text,msg", [
    ("box 1 2 3", "not name"),
    ("blob(1)", "unknown datum shape"),
    ("box(1,2)", "takes 3 argument"),
    ("box(a,b,c)", "non-numeric"),
    ("box(0,1,inf)", "non-finite"),
    ("gaussian_truncated(nan)", "non-finite"),
])
def test_parse_datum_rejects(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_datum(text)


def test_snapshot_datum_round_trip(tmp_path):
    g = Grid(1, 6.0, 64)
    v = datum_gaussian(g, 1.0)
    write_snapshot(tmp_path / "v.txt", v, s=0.25, time=2.0, mode="physical")
    rebuilt, header = snapshot_datum(tmp_path / "v.txt", g)
    assert np.array_equal(rebuilt.values, v.values)
    assert header["time"] == 2.0


def test_snapshot_datum_grid_mismatch(tmp_path):
    g = Grid(1, 6.0, 64)
    write_snapshot(tmp_path / "v.txt", datum_gaussian(g, 1.0),
                   s=0.25, time=0.0, mode="physical")
    with pytest.raises(ValueError, match="does not match the configured grid"):
        snapshot_datum(tmp_path / "v.txt", Grid(1, 6.0, 128))
