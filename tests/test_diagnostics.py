"""Recorded quantities, identity checks, and power-law fits."""

import numpy as np
import pytest

from fracpme.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    DiagnosticsSeries,
    entropy_dissipation_identity_check,
    fit_power_law,
    record,
)
from fracpme.evolution import Exponents, SolverConfig, run
from fracpme.fracops import FREESPACE, FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.oracles import kernel_matrix


def make_record(time, **overrides):
    base = dict(
        time=time, mass=1.0, linf=1.0, l2=1.0, l4=1.0, moment2=1.0, energy1=1.0,
        entropy=1.0, boltzmann=0.0, dissipation=1.0, support_radius=1.0,
    )
    base.update(overrides)
    return DiagnosticsRecord(**base)


def gaussian_field(grid, width=0.8):
    vals = np.exp(-grid.axis() ** 2 / (2 * width**2))
    vals[vals < 1e-14] = 0.0
    return Field(grid, vals, "density")


def test_record_cross_checks():
    grid = Grid(dim=1, half_width=8.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), FREESPACE)
    exp = Exponents(1, 0.25)
    v = gaussian_field(grid)
    rec = record(v, 0.3, exp, op)
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
        0.5 * (rec.energy1 + exp.beta * rec.moment2), rel=1e-14
    )
    pos = v.values[v.values > 0]
    assert rec.boltzmann == pytest.approx(h * (pos * np.log(pos)).sum(), rel=1e-13)
    assert rec.dissipation > 0.0


def test_norms_exact_on_underflowing_tail():
    # tails from 1e-320 to 1e-60, where fourth powers are 0 or subnormal: on
    # a bulk, alone, and alone in the range where subnormal powers dominate
    grid = Grid(dim=1, half_width=8.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), FREESPACE)
    h = grid.spacing
    bulk = gaussian_field(grid).values
    bulk[:100] = np.logspace(-320, -60, 100)
    bulk[-100:] = np.logspace(-60, -320, 100) * 0.7
    bulk[100:110] = 0.0
    tail = np.zeros(256)
    tail[::2] = np.logspace(-320, -60, 128)
    subnormal = np.zeros(256)
    subnormal[1::2] = np.logspace(-100, -78, 128)
    for vals in (bulk, tail, subnormal):
        v = Field(grid, vals, "density")
        rec = record(v, 0.0, Exponents(1, 0.25), op)
        assert rec.l4 == (h * (np.abs(v.values) ** 4).sum()) ** 0.25
        assert rec.l2 == (h * (np.abs(v.values) ** 2).sum()) ** 0.5
        assert rec.linf == float(np.abs(v.values).max())
    assert 0.0 < record(Field(grid, subnormal), 0.0, Exponents(1, 0.25), op).l4
    bulk[5] = np.nan
    assert np.isnan(record(Field(grid, bulk), 0.0, Exponents(1, 0.25), op).l4)
    # a single spike has the closed forms
    spike = np.zeros(256)
    spike[40] = 3.0
    rec = record(Field(grid, spike, "density"), 0.0, Exponents(1, 0.25), op)
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
@pytest.mark.parametrize("mode", [FREESPACE])  # the flow is freespace only
@pytest.mark.parametrize("dim", [1, 2])
def test_dissipation_matches_face_gradient_formula(dim, mode, confined):
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 24)
    s = 0.25 if dim == 1 else 0.5
    op = FracOperator(grid, FracParams(s=s, dim=dim), mode)
    exp = Exponents(dim, s)
    c = grid.coords()
    # off-centre and lopsided, so faces of both signs and zero cells occur
    vals = np.clip(1.0 - (c[0] - 0.4) ** 2 - sum(0.5 * x ** 2 for x in c[1:]), 0.0, None)
    v = Field(grid, vals * (1.0 + 0.3 * c[0]).clip(0.0), "density")
    expected = _face_gradient_dissipation(
        op.inverse(v).values, v.values, grid, exp.beta if confined else None)
    assert record(v, 0.0, exp, op, confined=confined).dissipation == expected
    assert expected > 0.0


def test_record_row_matches_columns():
    rec = make_record(0.0)
    row = rec.row()
    assert len(row) == len(CSV_COLUMNS)
    for name, value in zip(CSV_COLUMNS, row):
        assert getattr(rec, name) == value


def test_record_handles_zeros_in_boltzmann():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), FREESPACE)
    box = Field(grid, np.where(np.abs(grid.axis()) < 1, 0.5, 0.0), "density")
    rec = record(box, 0.0, Exponents(1, 0.25), op)
    assert np.isfinite(rec.boltzmann)
    assert rec.boltzmann < 0.0  # 0.5 log 0.5 cells only


def test_support_radius():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), FREESPACE)
    exp = Exponents(1, 0.25)
    box = Field(grid, np.where(np.abs(grid.axis()) < 1.0, 2.0, 0.0), "density")
    assert record(box, 0.0, exp, op).support_radius == pytest.approx(1.0, abs=grid.spacing)
    # a cell at 1e-10 of the peak or below is outside the support
    faint = box.values.copy()
    faint[np.abs(grid.axis()) > 3.0] = 2e-10
    assert record(Field(grid, faint), 0.0, exp, op).support_radius == pytest.approx(
        1.0, abs=grid.spacing)
    faint[np.abs(grid.axis()) > 3.0] = 3e-10
    assert record(Field(grid, faint), 0.0, exp, op).support_radius == pytest.approx(
        4.0, abs=grid.spacing)
    assert record(Field(grid, np.zeros(256)), 0.0, exp, op).support_radius == 0.0


def test_series_append_requires_increasing_time():
    series = DiagnosticsSeries()
    series.append(make_record(0.0))
    series.append(make_record(0.5))
    with pytest.raises(ValueError, match="increase"):
        series.append(make_record(0.5))
    assert len(series) == 2
    np.testing.assert_allclose(series.column("time"), [0.0, 0.5])
    with pytest.raises(KeyError):
        series.column("no_such_column")


def test_entropy_identity_on_manufactured_series():
    # entropy e^-t with dissipation e^-t satisfies dE/dtau = -I exactly;
    # the centered difference leaves only its own dt^2/6 truncation error
    series = DiagnosticsSeries()
    dt = 0.01
    for k in range(101):
        t = k * dt
        series.append(make_record(t, entropy=np.exp(-t), dissipation=np.exp(-t)))
    out = entropy_dissipation_identity_check(series)
    assert out["max_rel_mismatch"] < dt**2 / 4.0
    assert out["times"].shape == out["mismatch"].shape


def test_entropy_identity_input_errors():
    series = DiagnosticsSeries()
    series.append(make_record(0.0))
    series.append(make_record(0.1))
    with pytest.raises(ValueError, match="3 records"):
        entropy_dissipation_identity_check(series)
    series.append(make_record(0.2))
    with pytest.raises(ValueError, match="window"):
        entropy_dissipation_identity_check(series, window=(5.0, 6.0))


def test_entropy_identity_on_run():
    # companion to the refinement study in the acceptance suite
    exp = Exponents(1, 0.25)
    grid = Grid(dim=1, half_width=6.0, points_per_axis=256)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), FREESPACE)
    vals = np.clip(1.0 - np.abs(grid.axis()), 0.0, None) ** 2
    traj = run(Field(grid, vals, "density"), "rescaled",
               SolverConfig(end_time=2.0, snapshot_stride=20, cfl_safety=0.3),
               op, exp)
    out = entropy_dissipation_identity_check(traj.diagnostics, window=(0.5, 1.5))
    assert out["max_rel_mismatch"] < 0.03  # measured 0.017 at 256 cells


def test_fit_power_law_recovers_exact_slope():
    series = DiagnosticsSeries()
    for t in np.linspace(1.0, 10.0, 25):
        series.append(make_record(t, linf=3.0 * t**-0.4))
    slope, stderr = fit_power_law(series, "linf", (1.0, 10.0))
    assert slope == pytest.approx(-0.4, abs=1e-12)
    assert stderr < 1e-12


def test_fit_power_law_input_errors():
    series = DiagnosticsSeries()
    for t in np.linspace(1.0, 2.0, 5):
        series.append(make_record(t))
    with pytest.raises(ValueError, match="10 records"):
        fit_power_law(series, "linf", (1.0, 2.0))
    series2 = DiagnosticsSeries()
    for t in np.linspace(1.0, 2.0, 12):
        series2.append(make_record(t, linf=0.0))
    with pytest.raises(ValueError, match="nonpositive"):
        fit_power_law(series2, "linf", (1.0, 2.0))
