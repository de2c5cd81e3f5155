"""Recorded quantities along a run and the checks built on them.

One record per sampled time: mass, norms, second moment, the quadratic energy
integral(v K v), the confined entropy E = (energy + beta * moment2)/2 with beta
of the operator's (n, s), the Boltzmann integral v log v, the dissipation
integral(|grad(K v + beta/2 |y|^2)|^2 v), and the support radius.  All
quadratures are the midpoint rule on the grid; the dissipation sums w^2 * up
over the faces, where w is the face velocity and up the upwind face density
of `FlowKernel.faces`, the same face pass whose w * up is the stepper's flux.
With that convention a stationary profile reports exactly zero dissipation:
every face either has a vanishing potential gradient (on the contact set) or
draws its density from the empty side of the free boundary.

A series is one float64 table with a row of CSV_COLUMNS per record (88 B),
grown by doubling and trimmed when a run ends; a column is a view of it.
`record` fills the rows of a block of states in one pass.  Each reduction
runs along the last axis of the states laid end to end as C-contiguous rows,
which sums a row exactly as the state's own array is summed; the Boltzmann
sum still runs over each row's compressed positive entries, and the square
and fourth roots stay Python float powers.  So every row has the bits of the
state recorded alone.  A run hands it blocks of about RECORD_BLOCK_CELLS
cells.
"""

from __future__ import annotations

import numpy as np

from .flow import FlowKernel
from .fracops import Exponents, FracOperator

BOLTZMANN_FLOOR = 1e-30
L4_UNDERFLOW = 1e-100  # x ** 4 underflows to exactly 0 at and below this
RECORD_BLOCK_CELLS = 8192  # cells per block of states `run` records at once
CSV_COLUMNS = ("time", "mass", "linf", "l2", "l4", "moment2", "energy1", "entropy",
               "boltzmann", "dissipation", "support_radius")  # the CSV header


class DiagnosticsSeries:
    """Records as the rows of one float64 table, columns as in CSV_COLUMNS.

    The table doubles when it is full; trim() drops the spare rows."""

    def __init__(self):
        self._table = np.empty((64, len(CSV_COLUMNS)))
        self._rows = 0

    def append(self, rows) -> None:
        """Append rows (one or a 2-D block, columns as in CSV_COLUMNS); their
        times must increase from the last row's."""
        rows = np.asarray(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
        prev = self._table[self._rows - 1, 0] if self._rows else None
        for time in rows[:, 0].tolist():
            if prev is not None and time <= prev:
                raise ValueError(f"record times must increase ({time} after {prev})")
            prev = time
        end = self._rows + len(rows)
        if end > len(self._table):
            grown = np.empty((max(end, 2 * len(self._table)), len(CSV_COLUMNS)))
            grown[:self._rows] = self._table[:self._rows]
            self._table = grown
        self._table[self._rows:end] = rows
        self._rows = end

    def trim(self) -> None:
        """Release the spare rows of the table."""
        if self._rows < len(self._table):
            self._table = self._table[:self._rows].copy()

    @property
    def table(self) -> np.ndarray:
        """The recorded rows, a view."""
        return self._table[:self._rows]

    def column(self, name: str) -> np.ndarray:
        """One column of the recorded rows, a view."""
        if name not in CSV_COLUMNS:
            raise KeyError(f"unknown diagnostics column {name!r}")
        return self._table[:self._rows, CSV_COLUMNS.index(name)]

    def __len__(self) -> int:
        return self._rows


def record(series: DiagnosticsSeries, states: list, times: list, op: FracOperator,
           confined: bool = True, pressures: list | None = None,
           faces: list | None = None, masses: list | None = None,
           peaks: list | None = None) -> None:
    """Append one row per state of `states` (value arrays on op.grid) at the
    matching `times` to `series`.

    confined=True adds the drift potential beta/2 |y|^2 to the dissipation
    integrand (rescaled flow); the entropy formula always carries its beta
    moment term.  pressures, when given, must hold op.convolve of each
    state, and faces the FlowKernel faces of each state and pressure with
    the drift that `confined` implies; masses, when given, must hold
    h^n * sum of each state, and peaks the maximum of each nonnegative
    state.  Each is computed here otherwise.  The support radius is the
    largest cell-center radius where the state exceeds 1e-10 of its maximum
    modulus, zero for an identically zero state."""
    grid = op.grid
    vol = grid.spacing ** grid.dim
    k = len(states)
    if pressures is None or faces is None:
        kernel = FlowKernel(op, confined)
        if pressures is None:
            pressures = [kernel.convolve(v) for v in states]
        if faces is None:
            faces = [kernel.faces(v, p) for v, p in zip(states, pressures)]

    def rows_of(arrays) -> np.ndarray:
        # the arrays end to end, one C-contiguous row each
        return np.concatenate(arrays).reshape(k, -1)

    block = rows_of(states)
    r2 = grid.radius2().reshape(-1)
    moment2 = vol * (r2 * block).sum(axis=1)
    energy1 = vol * (block * rows_of(pressures)).sum(axis=1)
    beta = Exponents(grid.dim, op.s).beta
    # each row's Boltzmann sum runs over that row's compressed entries
    pos_mask = block > BOLTZMANN_FLOOR
    pos = block[pos_mask]
    plogp = np.log(pos)
    plogp *= pos
    ends = np.cumsum(np.count_nonzero(pos_mask, axis=1)).tolist()
    boltzmann = [vol * float(np.add.reduce(plogp[a:b])) for a, b in zip([0] + ends, ends)]
    dissipation = 0.0
    for ax in range(grid.dim):
        integrand = rows_of([f[ax][0] for f in faces])
        integrand *= integrand
        integrand *= rows_of([f[ax][1] for f in faces])
        dissipation = dissipation + integrand.sum(axis=1) * vol
    a = np.abs(block)
    linf = a.max(axis=1) if peaks is None else np.abs(peaks)
    # pow(x, 4) is exactly 0 for x <= 1e-100 but slow there, so only larger
    # entries (and nan) take the power; the summed array is unchanged
    a4 = np.power(a, 4, out=np.zeros(a.shape), where=~(a <= L4_UNDERFLOW))
    inside = block > (1e-10 * linf)[:, None]
    np.square(a, out=a)
    columns = {
        "time": times,
        "mass": vol * block.sum(axis=1) if masses is None else masses,
        "linf": linf,
        # the roots stay Python float powers, as for a state recorded alone
        "l2": [(vol * x) ** 0.5 for x in a.sum(axis=1).tolist()],
        "l4": [(vol * x) ** 0.25 for x in a4.sum(axis=1).tolist()],
        "moment2": moment2,
        "energy1": energy1,
        "entropy": 0.5 * (energy1 + beta * moment2),
        "boltzmann": boltzmann,
        "dissipation": dissipation,
        "support_radius": np.sqrt(np.broadcast_to(r2, block.shape).max(
            axis=1, where=inside, initial=0.0)),
    }
    rows = np.empty((k, len(CSV_COLUMNS)))
    for j, name in enumerate(CSV_COLUMNS):
        rows[:, j] = columns[name]
    series.append(rows)


def entropy_dissipation_identity_check(series: DiagnosticsSeries,
                                       window: tuple | None = None) -> dict:
    """Centered dE/dtau against -I at interior records.

    Returns the mismatch series and its maximum relative size
    |dE/dtau + I| / max(|dE/dtau|, I) over the window."""
    if len(series) < 3:
        raise ValueError("need at least 3 records for the centered difference")
    t = series.column("time")
    e = series.column("entropy")
    i = series.column("dissipation")
    de = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    mid_t, mid_i = t[1:-1], i[1:-1]
    if window is not None:
        sel = (mid_t >= window[0]) & (mid_t <= window[1])
        if not sel.any():
            raise ValueError(f"no interior records in window {window}")
        de, mid_t, mid_i = de[sel], mid_t[sel], mid_i[sel]
    scale = np.maximum(np.maximum(np.abs(de), mid_i), 1e-300)
    mismatch = np.abs(de + mid_i) / scale
    return {
        "times": mid_t,
        "mismatch": mismatch,
        "max_rel_mismatch": float(mismatch.max()),
        "de_dtau": de,
        "dissipation": mid_i,
    }


def fit_power_law(series: DiagnosticsSeries, quantity: str, window: tuple) -> tuple:
    """Least-squares slope of log(quantity) against log(time) in the window;
    returns (slope, stderr)."""
    t = series.column("time")
    y = series.column(quantity)
    sel = (t >= window[0]) & (t <= window[1]) & (t > 0.0)
    if sel.sum() < 10:
        raise ValueError(f"need >= 10 records in window {window}, have {int(sel.sum())}")
    y = y[sel]
    if (y <= 0.0).any():
        raise ValueError(f"nonpositive {quantity} values in the fit window")
    lt, ly = np.log(t[sel]), np.log(y)
    (slope, _), cov = np.polyfit(lt, ly, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))
