"""Stepper, similarity exponents, and the physical/rescaled change of frame."""

import numpy as np
import pytest

from fracpme import diagnostics, evolution
from fracpme.evolution import (DT_MAX, Exponents, NumericalAbort, SolverConfig, run,
                               step_physical)
from fracpme.faces import upwind_faces
from fracpme.fracops import FREESPACE, PERIODIC, FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.remap import resample


def freespace_op(grid, s=0.25):
    return FracOperator(grid, FracParams(s=s, dim=grid.dim), FREESPACE)


def box_datum(grid, width=1.0, height=1.0):
    return Field(grid, np.where(np.abs(grid.axis()) < width, height, 0.0), "density")


def gaussian_datum(grid, width=0.8):
    vals = np.exp(-grid.axis() ** 2 / (2 * width**2))
    vals[vals < 1e-14] = 0.0
    return Field(grid, vals, "density")


@pytest.mark.parametrize(
    "n, s, beta, alpha, sigma, a",
    [
        (1, 0.25, 0.4, 0.4, 0.2, 0.2),
        (2, 0.5, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    ],
)
def test_exponent_values(n, s, beta, alpha, sigma, a):
    e = Exponents(n, s)
    assert e.beta == pytest.approx(beta, abs=1e-15)
    assert e.alpha == pytest.approx(alpha, abs=1e-15)
    assert e.sigma == pytest.approx(sigma, abs=1e-15)
    assert e.a == pytest.approx(a, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.49, 0.75])
def test_exponent_identity(n, s):
    e = Exponents(n, s)
    assert e.alpha + (2.0 - 2.0 * s) * e.beta == pytest.approx(1.0, abs=1e-14)
    assert e.a == pytest.approx(e.beta / 2.0, abs=1e-16)


@pytest.mark.parametrize("n, s", [(3, 0.25), (0, 0.25), (1, 0.0), (1, 1.0), (1, -0.1)])
def test_exponent_validation(n, s):
    with pytest.raises(ValueError):
        Exponents(n, s)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cfl_safety": 0.0},
        {"cfl_safety": 1.5},
        {"end_time": -1.0},
        {"snapshot_stride": 0},
    ],
)
def test_solver_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_velocity_points_outward():
    grid = Grid(dim=1, half_width=8.0, points_per_axis=256)
    op = freespace_op(grid)
    # transport velocity -grad K u at the faces, as the stepper uses it
    u = gaussian_datum(grid)
    ((w, _),) = upwind_faces(u.values, op.inverse(u).values, op, None)
    x = grid.interior_faces()
    assert (w[(x > 0.5) & (x < 4.0)] > 0.0).all()
    assert (w[(x < -0.5) & (x > -4.0)] < 0.0).all()


def test_step_rejects_negative_state():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    bad = Field(grid, np.where(np.abs(grid.axis()) < 1, 1.0, -0.1))
    with pytest.raises(NumericalAbort, match="negative"):
        step_physical(bad, op, SolverConfig())


def test_run_input_validation():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    exp = Exponents(1, 0.25)
    u = box_datum(grid)
    with pytest.raises(ValueError, match="mode"):
        run(u, "backwards", SolverConfig(), op, exp)
    nan_vals = u.values.copy()
    nan_vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(Field(grid, nan_vals), "physical", SolverConfig(), op, exp)


def test_mass_conserved_and_positive():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    u0 = box_datum(grid)
    traj = run(u0, "physical", SolverConfig(end_time=0.5, snapshot_stride=10),
               op, Exponents(1, 0.25))
    mass = traj.diagnostics.column("mass")
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]
    for snap in traj.snapshots:
        assert snap.values.min() >= 0.0


def test_norms_non_increasing():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=0.5), op,
               Exponents(1, 0.25))
    for name in ("linf", "l2", "l4"):
        col = traj.diagnostics.column(name)
        assert (np.diff(col) <= 1e-8 * col[:-1]).all(), name


def test_positivity_exact_at_sharp_cfl():
    # flux-form roundoff dust must be repaired, not let through as -1e-16
    grid = Grid(dim=1, half_width=4.0, points_per_axis=128)
    op = freespace_op(grid)
    state = box_datum(grid)
    mass0 = state.mass()
    for _ in range(200):
        state, _ = step_physical(state, op, SolverConfig(cfl_safety=1.0))
    assert state.values.min() >= 0.0
    assert abs(state.mass() - mass0) <= 1e-12 * mass0


def test_zero_state_advances_in_dt_max_hops():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    zero = Field(grid, np.zeros(64), "density")
    traj = run(zero, "physical", SolverConfig(end_time=3.0 * DT_MAX), freespace_op(grid),
               Exponents(1, 0.25))
    assert traj.times == [0.0, DT_MAX, 2.0 * DT_MAX, 3.0 * DT_MAX]
    assert all(np.array_equal(snap.values, zero.values) for snap in traj.snapshots)


def test_symmetry_preserved_by_step():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    state, _ = step_physical(gaussian_datum(grid), op, SolverConfig())
    np.testing.assert_allclose(state.values, state.values[::-1], atol=1e-14)


def test_dt_cap_honored():
    # the first step is cut to the end time, well below its own bound
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=1e-4),
               freespace_op(grid), Exponents(1, 0.25))
    assert traj.steps == 1
    assert traj.times == [0.0, 1e-4]


def rescale(u, t, exp):
    """v(y) = (1+t)^alpha u(y (1+t)^beta): the rescaled state of u at time t."""
    v = resample(u, u.grid, lam=(1.0 + t) ** exp.beta)
    return v.with_values((1.0 + t) ** exp.alpha * v.values)


def test_rescale_matches_analytic_dilation():
    grid = Grid(dim=1, half_width=8.0, points_per_axis=512)
    exp = Exponents(1, 0.25)
    width = 0.8
    v = rescale(gaussian_datum(grid, width), 1.5, exp)
    lam = 2.5**exp.beta
    expected = 2.5**exp.alpha * np.exp(-((grid.axis() * lam) ** 2) / (2 * width**2))
    assert np.abs(v.values - expected).max() < 2e-4


def test_pressure_scaling_under_rescale():
    # K u (x) = (1+t)^(-sigma) K v (x (1+t)^(-beta)) for v = rescale of u
    grid = Grid(dim=1, half_width=8.0, points_per_axis=512)
    op = freespace_op(grid)
    exp = Exponents(1, 0.25)
    u = gaussian_datum(grid)
    t = 1.5
    v = rescale(u, t, exp)
    pu = op.inverse(u).values
    pv = op.inverse(v).values
    x = grid.axis()
    pv_pulled = np.interp(x / (1 + t) ** exp.beta, x, pv)
    err = np.abs(pu - (1 + t) ** (-exp.sigma) * pv_pulled).max()
    assert err < 1e-3 * np.abs(pu).max()


def test_records_cover_run():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    traj = run(box_datum(grid), "rescaled", SolverConfig(end_time=0.4, snapshot_stride=7),
               op, Exponents(1, 0.25))
    times = np.array(traj.times)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.4, abs=1e-12)
    assert (np.diff(times) > 0).all()
    assert len(traj.snapshots) == len(traj.diagnostics)


def test_rescaled_entropy_monotone():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    vals = np.clip(1.0 - np.abs(grid.axis()), 0.0, None) ** 2
    traj = run(Field(grid, vals, "density"), "rescaled",
               SolverConfig(end_time=1.5, snapshot_stride=5), op, Exponents(1, 0.25))
    e = traj.diagnostics.column("entropy")
    assert (np.diff(e) <= 1e-8 * abs(e[0])).all()


@pytest.mark.parametrize("mode", ["physical", "rescaled"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_pressure_per_state(monkeypatch, dim, mode):
    # each state's pressure and face pass serve its record and the next step
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 32)
    op = freespace_op(grid, s=0.25 if dim == 1 else 0.5)
    calls = []
    face_calls = []
    inverse = FracOperator.inverse

    def counted(self, f):
        calls.append(f)
        return inverse(self, f)

    def counted_faces(vals, pressure, op, drift):
        face_calls.append(vals)
        return upwind_faces(vals, pressure, op, drift)

    monkeypatch.setattr(FracOperator, "inverse", counted)
    monkeypatch.setattr(evolution, "upwind_faces", counted_faces)
    monkeypatch.setattr(diagnostics, "upwind_faces", counted_faces)
    u0 = Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0), "density")
    traj = run(u0, mode, SolverConfig(end_time=0.3, snapshot_stride=1), op,
               Exponents(dim, op.s))
    assert traj.steps >= 3
    assert len(traj.times) == traj.steps + 1
    assert len(calls) == traj.steps + 1
    assert len(face_calls) == traj.steps + 1
    for vals, snap in zip(face_calls, traj.snapshots, strict=True):
        assert vals is snap.values


def test_streamed_states_match_kept_snapshots():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    cfg = SolverConfig(end_time=0.3, snapshot_stride=4)
    kept = run(box_datum(grid), "rescaled", cfg, op, Exponents(1, 0.25))
    seen = []
    streamed = run(box_datum(grid), "rescaled", cfg, op, Exponents(1, 0.25),
                   on_record=lambda k, t, state: seen.append((k, t, state)))
    assert streamed.snapshots == []
    assert streamed.steps == kept.steps and streamed.times == kept.times
    assert streamed.diagnostics.records == kept.diagnostics.records
    assert [k for k, _, _ in seen] == list(range(len(kept.times)))
    assert [t for _, t, _ in seen] == kept.times
    for (_, _, state), snap in zip(seen, kept.snapshots):
        assert np.array_equal(state.values, snap.values)


def test_run_continues_from_start_time():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=1.2, snapshot_stride=5),
               op, Exponents(1, 0.25), start_time=1.0)
    assert traj.times[0] == 1.0
    assert traj.times[-1] == pytest.approx(1.2, abs=1e-12)
    assert traj.diagnostics.column("time")[0] == 1.0
    with pytest.raises(ValueError, match="start_time"):
        run(box_datum(grid), "physical", SolverConfig(), op, Exponents(1, 0.25),
            start_time=-1.0)


def test_rescaled_run_rejects_periodic_operator():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), PERIODIC)
    with pytest.raises(ValueError, match="freespace"):
        run(box_datum(grid), "rescaled", SolverConfig(end_time=0.1), op,
            Exponents(1, 0.25))


def test_flow_rejects_periodic_operator():
    # the flow is posed on the whole space: every other route through the
    # face pass refuses the periodic realization too
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = FracOperator(grid, FracParams(s=0.25, dim=1), PERIODIC)
    u, exp = box_datum(grid), Exponents(1, 0.25)
    with pytest.raises(ValueError, match="freespace"):
        run(u, "physical", SolverConfig(end_time=0.1), op, exp)
    with pytest.raises(ValueError, match="freespace"):
        step_physical(u, op, SolverConfig())
    for confined in (True, False):
        with pytest.raises(ValueError, match="freespace"):
            diagnostics.record(u, 0.0, exp, op, confined=confined)
