"""Recorded quantities, identity checks, and power-law fits."""

from types import SimpleNamespace

import numpy as np
import pytest

from numpy.lib.recfunctions import structured_to_unstructured

from fracpme.diagnostics import (
    CSV_COLUMNS,
    L4_UNDERFLOW,
    RECORD_BLOCK_CELLS,
    ROW,
    entropy_dissipation_identity_check,
    fit_power_law,
    record,
)
from fracpme.evolution import FlowKernel, run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.oracles import kernel_matrix


def make_rows(times, **overrides):
    """Records at `times`, every other column 1.0 (boltzmann 0.0) unless
    `overrides` gives it (a value or one per record)."""
    rows = np.ones(len(times), ROW)
    rows["time"] = times
    rows["boltzmann"] = 0.0
    for name, value in overrides.items():
        rows[name] = value
    return rows


def record_states(states, times, op, confined):
    """record() of the value arrays `states`, handed their pressures, faces,
    masses and peaks as `run` computes them."""
    kernel = FlowKernel(op, confined, 1.0)
    vol = op.grid.spacing ** op.grid.dim
    pressures = [op.convolve(v) for v in states]
    return record(states, times, op, pressures,
                  [kernel.faces(v, p) for v, p in zip(states, pressures)],
                  [vol * float(v.sum()) for v in states], [float(v.max()) for v in states])


def record_one(v, op, confined=True, time=0.0):
    """The diagnostics of the single state v, by column name."""
    (row,) = record_states([v.values], [time], op, confined).tolist()
    return SimpleNamespace(**dict(zip(CSV_COLUMNS, row)))


def gaussian_field(grid, width=0.8):
    vals = np.exp(-grid.axis() ** 2 / (2 * width**2))
    vals[vals < 1e-14] = 0.0
    return Field(grid, vals)


def test_record_cross_checks():
    grid = Grid(dim=1, half_width=8.0, points_per_axis=256)
    params = FracParams(s=0.25, dim=1)
    op = FracOperator(grid, params)
    v = gaussian_field(grid)
    rec = record_one(v, op, time=0.3)
    h = grid.spacing
    assert rec.time == 0.3
    assert rec.mass == pytest.approx(h * v.values.sum(), rel=1e-15)
    assert rec.moment2 == pytest.approx(h * (grid.axis() ** 2 * v.values).sum(), rel=1e-14)
    assert rec.linf == v.linf()
    assert rec.l2 == (h * (np.abs(v.values) ** 2).sum()) ** 0.5
    # quadratic energy two ways: FFT convolution and the dense kernel matrix
    dense = kernel_matrix(op, np.arange(grid.npoints))
    assert rec.energy1 == pytest.approx(h * v.values @ dense @ v.values, rel=1e-10)
    assert rec.entropy == pytest.approx(
        0.5 * (rec.energy1 + params.beta * rec.moment2), rel=1e-14
    )
    pos = v.values[v.values > 0]
    assert rec.boltzmann == pytest.approx(h * (pos * np.log(pos)).sum(), rel=1e-13)
    assert rec.dissipation > 0.0


def test_l4_cutoff_powers_are_exactly_zero():
    # record skips the power at and below L4_UNDERFLOW, so every fourth power
    # there must be +0.0; the first nonzero one starts near 2^(-1075/4)
    x = np.geomspace(5e-324, L4_UNDERFLOW, 1_000_001)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), [L4_UNDERFLOW]])
    x = x[(x > 0.0) & (x <= L4_UNDERFLOW)]
    assert (np.power(x, 4) == 0.0).all()
    assert np.power(1.2537e-81, 4) > 0.0


def test_norms_exact_on_underflowing_tail():
    # tails from 1e-320 to 1e-60, where fourth powers are 0 or subnormal: on
    # a bulk, alone, alone in the range where subnormal powers dominate, and
    # alone in (1e-100, 1e-82], where record skips powers that are exactly 0
    grid = Grid(dim=1, half_width=8.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1))
    h = grid.spacing
    bulk = gaussian_field(grid).values
    bulk[:100] = np.logspace(-320, -60, 100)
    bulk[-100:] = np.logspace(-60, -320, 100) * 0.7
    bulk[100:110] = 0.0
    tail = np.zeros(256)
    tail[::2] = np.logspace(-320, -60, 128)
    subnormal = np.zeros(256)
    subnormal[1::2] = np.logspace(-100, -78, 128)
    skipped = np.zeros(256)
    skipped[::2] = np.logspace(-99.9, -82, 128)
    skipped[1::2] = np.nextafter(skipped[::2], 0.0)
    for vals in (bulk, tail, subnormal, skipped):
        v = Field(grid, vals)
        rec = record_one(v, op)
        assert rec.l4 == (h * (np.abs(v.values) ** 4).sum()) ** 0.25
        assert rec.l2 == (h * (np.abs(v.values) ** 2).sum()) ** 0.5
        assert rec.linf == float(np.abs(v.values).max())
    assert 0.0 < record_one(Field(grid, subnormal), op).l4
    assert record_one(Field(grid, skipped), op).l4 == 0.0
    bulk[5] = np.nan
    assert np.isnan(record_one(Field(grid, bulk), op).l4)
    # a single spike has the closed forms
    spike = np.zeros(256)
    spike[40] = 3.0
    rec = record_one(Field(grid, spike), op)
    assert rec.linf == 3.0
    assert rec.l2 == pytest.approx(np.sqrt(h * 9.0), rel=1e-15)
    assert rec.l4 == pytest.approx((h * 81.0) ** 0.25, rel=1e-15)


def _face_gradient_dissipation(pot, weight, grid, drift_coeff):
    """The dissipation as written before the shared face pass: face gradients
    of the potential (plus drift) squared, times the upwind weight."""
    h = grid.spacing
    total = 0.0
    for ax in range(grid.dim):
        g = np.diff(pot, axis=ax) / h
        if drift_coeff is not None:
            shape = [1] * grid.dim
            shape[ax] = grid.points_per_axis - 1
            g = g + drift_coeff * grid.interior_faces().reshape(shape)
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        w = np.where(g < 0.0, weight[tuple(lo)], weight[tuple(hi)])
        total += float(np.sum(g * g * w)) * h ** grid.dim
    return total


@pytest.mark.parametrize("confined", [True, False], ids=["confined", "physical"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1-freespace_kernel", "2-freespace_kernel"])
def test_dissipation_matches_face_gradient_formula(dim, confined):
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 24)
    s = 0.25 if dim == 1 else 0.5
    params = FracParams(s=s, dim=dim)
    op = FracOperator(grid, params)
    c = np.meshgrid(*[grid.axis()] * dim, indexing="ij")
    # off-centre and lopsided, so faces of both signs and zero cells occur
    vals = np.clip(1.0 - (c[0] - 0.4) ** 2 - sum(0.5 * x ** 2 for x in c[1:]), 0.0, None)
    v = Field(grid, vals * (1.0 + 0.3 * c[0]).clip(0.0))
    expected = _face_gradient_dissipation(
        op.convolve(v.values), v.values, grid, params.beta if confined else None)
    assert record_one(v, op, confined=confined).dissipation == expected
    assert expected > 0.0


def test_record_columns_are_views_of_its_rows():
    # record returns one 88-B ROW per state, and a column is a view of them
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = FracOperator(grid, FracParams(s=0.25, dim=1))
    states = [gaussian_field(grid, width).values for width in (0.5, 0.8, 1.1)]
    rows = record_states(states, [0.0, 0.1, 0.2], op, True)
    assert rows.dtype == ROW and rows.dtype.names == CSV_COLUMNS
    assert rows.nbytes == 88 * len(states)
    table = structured_to_unstructured(rows)
    for j, name in enumerate(CSV_COLUMNS):
        assert np.shares_memory(rows[name], rows)
        assert rows[name].tolist() == table[:, j].tolist()
    assert rows["time"].tolist() == [0.0, 0.1, 0.2]


def reference_row(vals, op, confined):
    """The diagnostics of one state as a lone array: every reduction is the
    full-array one, with no block in sight."""
    grid = op.grid
    vol = grid.spacing ** grid.dim
    beta = op.params.beta
    r2 = grid.radius2()
    kv = op.convolve(vals)
    moment2 = vol * float((r2 * vals).sum())
    energy1 = vol * float((vals * kv).sum())
    pos = vals[vals > 1e-30]
    boltzmann = vol * float((np.log(pos) * pos).sum())
    dissipation = 0.0
    for ax in range(grid.dim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        w = (kv[hi] - kv[lo]) / -grid.spacing
        if confined:
            shape = [1] * grid.dim
            shape[ax] = grid.points_per_axis - 1
            w = w - beta * grid.interior_faces().reshape(shape)
        up = np.where(w > 0.0, vals[lo], vals[hi])
        dissipation += float((w * w * up).sum()) * vol
    a = np.abs(vals)
    linf = float(a.max())
    a4 = np.power(a, 4, out=np.zeros(a.shape), where=~(a <= 1e-100))
    return [0.0, vol * float(vals.sum()), linf, float((vol * (a * a).sum()) ** 0.5),
            float((vol * a4.sum()) ** 0.25), moment2, energy1,
            0.5 * (energy1 + beta * moment2), boltzmann, dissipation,
            float(np.sqrt(r2.max(where=vals > 1e-10 * linf, initial=0.0)))]


def _bits(rows):
    # a nan's sign bit is not data (the CSV prints nan either way)
    a = np.array(rows, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@pytest.mark.parametrize("confined", [True, False], ids=["confined", "physical"])
@pytest.mark.parametrize("dim, n", [(1, 256), (1, 1024), (2, 24), (2, 96)])
def test_block_rows_equal_lone_state_rows(dim, n, confined):
    # a block's row sums must carry each state's own bits: tails from 1e-320
    # up (subnormal fourth powers), a nan, a zero state, a lone spike, and
    # blocks of every length up to a partial one
    grid = Grid(dim=dim, half_width=5.0, points_per_axis=n)
    op = FracOperator(grid, FracParams(s=0.25 if dim == 1 else 0.5, dim=dim))
    rng = np.random.default_rng(n)
    bump = np.clip(1.0 - grid.radius2() / 4.0, 0.0, None)
    states = []
    for k in range(7):
        vals = bump * rng.uniform(0.5, 2.0) + rng.random(grid.shape) * (bump > 0)
        flat = vals.reshape(-1)
        tail = flat == 0.0
        flat[tail] = np.logspace(-320, -60, int(tail.sum())) * (k % 3)
        states.append(vals)
    states.append(np.zeros(grid.shape))
    spike = np.zeros(grid.shape)
    spike.reshape(-1)[grid.npoints // 3] = 3.0
    states.append(spike)
    nan = states[1].copy()
    nan.reshape(-1)[5] = np.nan
    states.append(nan)
    expected = [reference_row(v, op, confined) for v in states]
    for size in (1, 3, len(states)):
        blocks = []
        for start in range(0, len(states), size):
            part = states[start:start + size]
            blocks.append(record_states(part, [start + j + 1.0 for j in range(len(part))], op,
                                        confined))
        got = structured_to_unstructured(np.concatenate(blocks))
        got[:, 0] = 0.0
        assert _bits(got) == _bits(expected), size


@pytest.mark.parametrize("mode", ["physical", "rescaled"])
@pytest.mark.parametrize("dim", [1, 2])
def test_run_rows_equal_lone_state_rows(dim, mode):
    # the run's blocks end on a partial one; every row has the lone bits
    n = 512 if dim == 1 else 48
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=n)
    op = FracOperator(grid, FracParams(s=0.25 if dim == 1 else 0.5, dim=dim))
    per_block = RECORD_BLOCK_CELLS // grid.npoints
    states = []
    traj = run(Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0)), mode,
               op.params.s, 0.3, snapshot_stride=1, cfl_safety=0.4,
               on_record=lambda k, t, state: states.append(state))
    assert len(traj.times) % per_block != 0 and len(traj.times) > per_block
    expected = [reference_row(snap.values, op, mode == "rescaled")
                for snap in states]
    got = structured_to_unstructured(traj.diagnostics, copy=True)
    assert np.array_equal(got[:, 0], traj.times)
    got[:, 0] = 0.0
    assert _bits(got) == _bits(expected)


def test_record_handles_zeros_in_boltzmann():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = FracOperator(grid, FracParams(s=0.25, dim=1))
    box = Field(grid, np.where(np.abs(grid.axis()) < 1, 0.5, 0.0))
    rec = record_one(box, op)
    assert np.isfinite(rec.boltzmann)
    assert rec.boltzmann < 0.0  # 0.5 log 0.5 cells only


def test_support_radius():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1))
    box = Field(grid, np.where(np.abs(grid.axis()) < 1.0, 2.0, 0.0))
    assert record_one(box, op).support_radius == pytest.approx(1.0, abs=grid.spacing)
    # a cell at 1e-10 of the peak or below is outside the support
    faint = box.values.copy()
    faint[np.abs(grid.axis()) > 3.0] = 2e-10
    assert record_one(Field(grid, faint), op).support_radius == pytest.approx(
        1.0, abs=grid.spacing)
    faint[np.abs(grid.axis()) > 3.0] = 3e-10
    assert record_one(Field(grid, faint), op).support_radius == pytest.approx(
        4.0, abs=grid.spacing)
    assert record_one(Field(grid, np.zeros(256)), op).support_radius == 0.0


def test_entropy_identity_on_manufactured_series():
    # entropy e^-t with dissipation e^-t satisfies dE/dtau = -I exactly;
    # the centered difference leaves only its own dt^2/6 truncation error
    dt = 0.01
    t = np.arange(101) * dt
    rows = make_rows(t, entropy=np.exp(-t), dissipation=np.exp(-t))
    assert entropy_dissipation_identity_check(rows, (0.0, 1.0)) < dt**2 / 4.0


def test_entropy_identity_input_errors():
    with pytest.raises(ValueError, match="3 records"):
        entropy_dissipation_identity_check(make_rows([0.0, 0.1]), (0.0, 1.0))
    with pytest.raises(ValueError, match="window"):
        entropy_dissipation_identity_check(make_rows([0.0, 0.1, 0.2]), (5.0, 6.0))


def test_entropy_identity_on_run():
    # companion to the refinement study in the acceptance suite
    grid = Grid(dim=1, half_width=6.0, points_per_axis=256)
    vals = np.clip(1.0 - np.abs(grid.axis()), 0.0, None) ** 2
    traj = run(Field(grid, vals), "rescaled", 0.25, 2.0, snapshot_stride=20,
               cfl_safety=0.3, on_record=lambda k, t, state: None)
    mismatch = entropy_dissipation_identity_check(traj.diagnostics, (0.5, 1.5))
    assert mismatch < 0.03  # measured 0.017 at 256 cells


def test_fit_power_law_recovers_exact_slope():
    t = np.linspace(1.0, 10.0, 25)
    rows = make_rows(t, linf=3.0 * t**-0.4)
    assert fit_power_law(rows, "linf", (1.0, 10.0)) == pytest.approx(-0.4, abs=1e-12)


def test_fit_power_law_input_errors():
    with pytest.raises(ValueError, match="10 records"):
        fit_power_law(make_rows(np.linspace(1.0, 2.0, 5)), "linf", (1.0, 2.0))
    with pytest.raises(ValueError, match="nonpositive"):
        fit_power_law(make_rows(np.linspace(1.0, 2.0, 12), linf=0.0), "linf", (1.0, 2.0))
