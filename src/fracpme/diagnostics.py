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

Records are rows of the structured dtype ROW, one float64 field per name in
CSV_COLUMNS (88 B); a column rows[name] is a view of them.  `record` returns
the rows of a block of states, filled in one pass.  Each reduction runs along
the last axis of the states laid end to end as C-contiguous rows, which sums
a row exactly as the state's own array is summed; the Boltzmann sum still
runs over each row's compressed positive entries, and the square and fourth
roots stay Python float powers.  So every row has the bits of the state
recorded alone.  A run hands it blocks of about RECORD_BLOCK_CELLS cells.

The block's arrays live in a `RecordBuffers` that `run` builds once and that
dies with the run: `record` lays the states, pressures and faces end to end in
it and takes its products, powers and masks there with ``out=``, and the cell
radii come from it too.  Left to fresh temporaries, a block's 64 KiB arrays
(about 420 KiB at their peak on a 1-D N = 1024 run) would land at the top of
the heap, which the C allocator trims when they are freed and faults back in
for the next block: tens of thousands of minor page faults and about 18 % more
wall time on a stride-1 1-D run (glibc on x86-64).
"""

from __future__ import annotations

import numpy as np

from .fracops import FracOperator
from .grid import Grid

BOLTZMANN_FLOOR = 1e-30
# x ** 4 is exactly +0.0 at and below this: under correct rounding pow(x, 4)
# is 0 for every x below 2^(-1075/4) ~ 1.2537e-81
L4_UNDERFLOW = 1e-82
RECORD_BLOCK_CELLS = 8192  # cells per block of states `run` records at once
CSV_COLUMNS = ("time", "mass", "linf", "l2", "l4", "moment2", "energy1", "entropy",
               "boltzmann", "dissipation", "support_radius")  # the CSV header
ROW = np.dtype([(name, np.float64) for name in CSV_COLUMNS])  # one record


class RecordBuffers:
    """The arrays `record` fills for a block of up to `states` states on
    `grid`: the states, their pressures, and each axis's face velocities w
    and upwind densities up, one state to a row; the product, fourth power
    and mask scratch of the same rows; and the cell radii squared as one
    row."""

    def __init__(self, grid: Grid, states: int):
        cells = grid.npoints
        faces = cells // grid.points_per_axis * (grid.points_per_axis - 1)
        self.r2 = grid.radius2().reshape(-1)
        self.states, self.pressures, self.product, self.a4 = (
            np.empty((states, cells)) for _ in range(4))
        self.mask = np.empty((states, cells), bool)
        self.faces = [(np.empty((states, faces)), np.empty((states, faces)))
                      for _ in range(grid.dim)]


@np.errstate(over="ignore", invalid="ignore")
def record(states: list, times: list, op: FracOperator, pressures: list, faces: list,
           masses: list, peaks: list, buffers: RecordBuffers) -> np.ndarray:
    """The ROW array of one row per state of `states` (value arrays on
    op.grid) at the matching `times`, from what the run computed for each
    state: its pressure op.convolve(state), its `FlowKernel.faces`, its mass
    h^n * sum and its maximum (states are nonnegative).  Every array the
    block needs is taken from the first rows of `buffers`, built on op.grid
    for at least len(states) states; only the compressed Boltzmann entries
    and the rows themselves are allocated.

    The dissipation sums w^2 * up over the given faces, so it carries the
    confining drift exactly when the faces do; the entropy formula always
    carries its beta moment term.  The support radius is the largest
    cell-center radius where the state exceeds 1e-10 of its maximum modulus,
    zero for an identically zero state.  The l4 sum takes the fourth power
    only of entries above L4_UNDERFLOW, whose fourth powers are exactly +0.0
    (pow(x, 4) rounds to 0 for every x below 2^(-1075/4) ~ 1.2537e-81).

    A quantity that overflows is recorded as inf or nan without a warning;
    `run` aborts on such a row."""
    grid = op.grid
    vol = grid.spacing ** grid.dim
    k = len(states)

    def rows_of(arrays, out) -> np.ndarray:
        # the arrays end to end in the first k rows of out, one row each
        rows = out[:k]
        np.concatenate(arrays, out=rows.reshape((-1,) + arrays[0].shape[1:]))
        return rows

    block = rows_of(states, buffers.states)
    r2 = buffers.r2
    product, mask = buffers.product[:k], buffers.mask[:k]
    moment2 = vol * np.add.reduce(np.multiply(r2, block, out=product), axis=1)
    energy1 = vol * np.add.reduce(
        np.multiply(block, rows_of(pressures, buffers.pressures), out=product), axis=1)
    beta = op.params.beta
    # each row's Boltzmann sum runs over that row's compressed entries
    pos_mask = np.greater(block, BOLTZMANN_FLOOR, out=mask)
    pos = block[pos_mask]
    plogp = np.log(pos, out=buffers.product.reshape(-1)[:pos.size])
    plogp *= pos
    ends = np.add.reduce(pos_mask, axis=1).cumsum().tolist()
    boltzmann = [vol * float(np.add.reduce(plogp[a:b])) for a, b in zip([0] + ends, ends)]
    dissipation = 0.0
    for ax, (w_rows, up_rows) in enumerate(buffers.faces):
        integrand = rows_of([f[ax][0] for f in faces], w_rows)
        integrand *= integrand
        integrand *= rows_of([f[ax][1] for f in faces], up_rows)
        dissipation = dissipation + np.add.reduce(integrand, axis=1) * vol
    # states are >= 0 or -0.0, so l2 and l4 read the block as its own modulus
    linf = np.abs(peaks)  # a -0.0 peak prints 0
    # pow(x, 4) is exactly 0 for x <= L4_UNDERFLOW but slow there, so only
    # larger entries (and nan) take the power; the summed array is unchanged
    a4 = buffers.a4[:k]
    a4.fill(0.0)
    np.power(block, 4, out=a4,
             where=np.logical_not(np.less_equal(block, L4_UNDERFLOW, out=mask), out=mask))
    inside = np.greater(block, (1e-10 * linf)[:, None], out=mask)
    np.square(block, out=block)
    columns = {
        "time": times,
        "mass": masses,
        "linf": linf,
        # the roots stay Python float powers, as for a state recorded alone
        "l2": [(vol * x) ** 0.5 for x in np.add.reduce(block, axis=1).tolist()],
        "l4": [(vol * x) ** 0.25 for x in np.add.reduce(a4, axis=1).tolist()],
        "moment2": moment2,
        "energy1": energy1,
        "entropy": 0.5 * (energy1 + beta * moment2),
        "boltzmann": boltzmann,
        "dissipation": dissipation,
        # r2 >= 0, so the zeros outside do not move a maximum over inside
        "support_radius": np.sqrt(np.maximum.reduce(np.multiply(inside, r2, out=product),
                                                    axis=1)),
    }
    rows = np.empty(k, ROW)
    for name in CSV_COLUMNS:
        rows[name] = columns[name]
    return rows


def entropy_dissipation_identity_check(rows: np.ndarray, window: tuple) -> float:
    """Centered dE/dtau against -I at the interior records (ROW array) in the
    window; returns the maximum relative mismatch |dE/dtau + I| / max(|dE/dtau|, I)."""
    if len(rows) < 3:
        raise ValueError("need at least 3 records for the centered difference")
    t, e, i = rows["time"], rows["entropy"], rows["dissipation"]
    de = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    mid_t, mid_i = t[1:-1], i[1:-1]
    sel = (mid_t >= window[0]) & (mid_t <= window[1])
    if not sel.any():
        raise ValueError(f"no interior records in window {window}")
    de, mid_i = de[sel], mid_i[sel]
    scale = np.maximum(np.maximum(np.abs(de), mid_i), 1e-300)
    return float((np.abs(de + mid_i) / scale).max())


def fit_power_law(rows: np.ndarray, quantity: str, window: tuple) -> float:
    """Least-squares slope of log(quantity) against log(time) in the window,
    over the records of the ROW array `rows`."""
    t, y = rows["time"], rows[quantity]
    sel = (t >= window[0]) & (t <= window[1]) & (t > 0.0)
    if sel.sum() < 10:
        raise ValueError(f"need >= 10 records in window {window}, have {int(sel.sum())}")
    y = y[sel]
    if (y <= 0.0).any():
        raise ValueError(f"nonpositive {quantity} values in the fit window")
    slope, _ = np.polyfit(np.log(t[sel]), np.log(y), 1)
    return float(slope)
