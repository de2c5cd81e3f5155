"""On-disk formats and initial data.

A snapshot file is a text header of ``key: value`` lines (format_version, n,
s, L, N, time, mode), a blank line, then the N^n cell values in row-major
order with 17 significant digits, so write-then-read reproduces a Field bit
for bit.  Diagnostics go to CSV with the fixed column set from the
diagnostics module, formatted deterministically: identical runs produce
byte-identical files.

Datum constructors build Fields on a caller-supplied grid, nonnegative by
construction.  The box uses exact cell-average overlap fractions, which makes
its mass exactly width^n * height regardless of the grid; the parabola cap and
the truncated gaussian sample cell centers.  A snapshot loaded as initial data
is checked for negative values.  Initial data, built or loaded, must have
finite values and a finite mass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsSeries
from .grid import Field, Grid

SNAPSHOT_VERSION = 1
HEADER_KEYS = ("format_version", "n", "s", "L", "N", "time", "mode")
GAUSSIAN_CUTOFF = 1e-14  # relative truncation of the sampled tail
_VALUES_PER_LINE = 8
CSV_CHUNK_ROWS = 1024  # diagnostics rows formatted per write


def write_snapshot(path, v: Field, s: float, time: float, mode: str) -> None:
    """Write one field with enough header context to rebuild it."""
    grid = v.grid
    lines = [
        f"format_version: {SNAPSHOT_VERSION}",
        f"n: {grid.dim}",
        f"s: {s:.17g}",
        f"L: {grid.half_width:.17g}",
        f"N: {grid.points_per_axis}",
        f"time: {time:.17g}",
        f"mode: {mode}",
        "",
    ]
    flat = v.values.ravel()
    for start in range(0, flat.size, _VALUES_PER_LINE):
        chunk = flat[start:start + _VALUES_PER_LINE]
        lines.append(" ".join(f"{x:.16e}" for x in chunk))
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot(path) -> tuple:
    """Inverse of write_snapshot: (Field, header dict).

    The header must carry exactly the documented keys, with finite s, L and
    time; the value count must match N^n, and every value must be finite."""
    text = Path(path).read_text()
    try:
        head, body = text.split("\n\n", 1)
    except ValueError:
        raise ValueError(f"{path}: missing blank line after the header") from None
    header = {}
    for line in head.splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"{path}: malformed header line {line!r}")
        header[key.strip()] = value.strip()
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {missing}")
    unknown = sorted(set(header) - set(HEADER_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown header keys {unknown}")
    if int(header["format_version"]) != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: format version {header['format_version']} unsupported"
        )
    dim = int(header["n"])
    npts = int(header["N"])
    grid = Grid(dim, float(header["L"]), npts)
    values = np.array(body.split(), dtype=float)
    if values.size != npts**dim:
        raise ValueError(
            f"{path}: expected {npts**dim} values, found {values.size}"
        )
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"{path}: value {bad} is {values[bad]}, not finite")
    parsed = {
        "format_version": SNAPSHOT_VERSION,
        "n": dim,
        "s": float(header["s"]),
        "L": float(header["L"]),
        "N": npts,
        "time": float(header["time"]),
        "mode": header["mode"],
    }
    for key in ("s", "L", "time"):
        if not np.isfinite(parsed[key]):
            raise ValueError(f"{path}: header {key} = {header[key]!r} is not finite")
    return Field(grid, values.reshape(grid.shape)), parsed


def write_diagnostics(path, series: DiagnosticsSeries) -> None:
    """The series as CSV: the CSV_COLUMNS header, then one "%.17g" row per
    record, formatted and written CSV_CHUNK_ROWS rows at a time."""
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"  # the text of f"{x:.17g}"
    table = series.table
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join(row % tuple(r) for r in chunk))


def datum_box(grid: Grid, center: float, width: float, height: float) -> Field:
    """Axis-aligned box of the given amplitude, exact cell averages."""
    if width <= 0.0 or height <= 0.0:
        raise ValueError(f"box needs positive width and height, got {width}, {height}")
    axis = grid.axis()
    edges = np.concatenate(([axis[0] - grid.spacing / 2], axis + grid.spacing / 2))
    lo, hi = center - width / 2.0, center + width / 2.0
    frac = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo),
                   0.0, None) / grid.spacing
    vals = frac if grid.dim == 1 else np.multiply.outer(frac, frac)
    return Field(grid, height * vals)


def datum_parabola_cap(grid: Grid, a: float, b: float) -> Field:
    """a ((b - |x|)_+)^2, sampled at cell centers."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"parabola cap needs positive a and b, got {a}, {b}")
    r = np.sqrt(grid.radius2())
    return Field(grid, a * np.clip(b - r, 0.0, None) ** 2)


def datum_gaussian(grid: Grid, sigma: float) -> Field:
    """exp(-|x|^2 / 2 sigma^2) with the tail below GAUSSIAN_CUTOFF zeroed,
    so the datum is compactly supported like everything else we evolve."""
    if sigma <= 0.0:
        raise ValueError(f"gaussian needs positive sigma, got {sigma}")
    vals = np.exp(-grid.radius2() / (2.0 * sigma * sigma))
    vals[vals < GAUSSIAN_CUTOFF] = 0.0
    return Field(grid, vals)


def parse_datum(text: str) -> tuple:
    """Parse a datum spec like box(0,2,1) into (name, args).

    Shapes: box(center,width,height), parabola_cap(a,b),
    gaussian_truncated(sigma), from_file(path).  Numeric arity and
    finiteness are checked here; value constraints surface when the datum is
    built."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"datum spec {text!r} is not name(args)")
    name, _, inner = text[:-1].partition("(")
    name = name.strip()
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    arity = {"box": 3, "parabola_cap": 2, "gaussian_truncated": 1, "from_file": 1}
    if name not in arity:
        raise ValueError(f"unknown datum shape {name!r}")
    if len(parts) != arity[name]:
        raise ValueError(
            f"datum {name} takes {arity[name]} argument(s), got {len(parts)}"
        )
    if name == "from_file":
        return name, (parts[0],)
    try:
        args = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"datum {name}: non-numeric argument in {parts}") from None
    if not np.isfinite(args).all():
        raise ValueError(f"datum {name}: non-finite argument in {parts}")
    return name, args


def _finite_datum(datum: Field, label: str) -> Field:
    """datum, once its values and its mass are known to be finite."""
    with np.errstate(over="ignore"):
        mass = datum.mass()
    if not (np.isfinite(datum.values).all() and np.isfinite(mass)):
        raise ValueError(f"{label}: values or mass not finite (mass {mass:g})")
    return datum


def build_datum(name: str, args: tuple, grid: Grid) -> Field:
    """Construct the named analytic datum on the grid (from_file: snapshot_datum).
    Values that overflow, or a mass that does, raise ValueError."""
    makers = {"box": datum_box, "parabola_cap": datum_parabola_cap,
              "gaussian_truncated": datum_gaussian}
    if name not in makers:
        raise ValueError(f"unknown datum shape {name!r}")
    # a sigma whose square underflows samples exp(-inf) = 0, not a warning
    with np.errstate(over="ignore", divide="ignore"):
        datum = makers[name](grid, *args)
    return _finite_datum(datum, f"datum {name}{args}")


def snapshot_datum(path, grid: Grid) -> tuple:
    """(density Field, header dict) of a snapshot used as initial data; the
    snapshot's grid must match `grid` and its values must be nonnegative."""
    loaded, header = read_snapshot(path)
    if not loaded.grid.compatible(grid):
        raise ValueError(
            f"{path}: snapshot grid (n={loaded.grid.dim}, "
            f"L={loaded.grid.half_width}, N={loaded.grid.points_per_axis}) "
            f"does not match the configured grid"
        )
    low = loaded.values.min()
    if low < 0.0:
        raise ValueError(f"density field has negative entries (min {low:.3e})")
    return _finite_datum(Field(grid, loaded.values), str(path)), header
