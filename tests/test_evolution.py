"""Stepper, similarity exponents, and the physical/rescaled change of frame."""

import tracemalloc

import numpy as np
import pytest

from fracpme.evolution import DT_MAX, MAX_STEPS, FlowKernel, NumericalAbort, SolverConfig, run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.remap import resample


def freespace_op(grid, s=0.25):
    return FracOperator(grid, FracParams(s=s, dim=grid.dim))


def discard(k, t, state):
    """on_record for runs read only through their diagnostics."""


def collect(states):
    """on_record that appends each recorded state to `states`."""
    return lambda k, t, state: states.append(state)


def box_datum(grid, width=1.0, height=1.0):
    return Field(grid, np.where(np.abs(grid.axis()) < width, height, 0.0))


def gaussian_datum(grid, width=0.8):
    vals = np.exp(-grid.axis() ** 2 / (2 * width**2))
    vals[vals < 1e-14] = 0.0
    return Field(grid, vals)


@pytest.mark.parametrize(
    "n, s, beta, alpha, sigma, a",
    [
        (1, 0.25, 0.4, 0.4, 0.2, 0.2),
        (2, 0.5, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    ],
)
def test_exponent_values(n, s, beta, alpha, sigma, a):
    e = FracParams(s, n)
    assert e.beta == pytest.approx(beta, abs=1e-15)
    assert e.alpha == pytest.approx(alpha, abs=1e-15)
    assert 1.0 - 2.0 * e.beta == pytest.approx(sigma, abs=1e-15)
    assert e.a == pytest.approx(a, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.49, 0.75])
@pytest.mark.filterwarnings("ignore:dim = 1 with s = 0.75:UserWarning")
def test_exponent_identity(n, s):
    e = FracParams(s, n, allow_supercritical=True)
    assert e.alpha + (2.0 - 2.0 * s) * e.beta == pytest.approx(1.0, abs=1e-14)
    assert e.a == pytest.approx(e.beta / 2.0, abs=1e-16)


@pytest.mark.parametrize("n, s", [(3, 0.25), (0, 0.25), (1, 0.0), (1, 1.0), (1, -0.1)])
def test_exponent_validation(n, s):
    with pytest.raises(ValueError):
        FracParams(s, n)


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
    ((w, _),) = FlowKernel(op, False, 1.0).faces(u.values, op.convolve(u.values))
    x = grid.interior_faces()
    assert (w[(x > 0.5) & (x < 4.0)] > 0.0).all()
    assert (w[(x < -0.5) & (x > -4.0)] < 0.0).all()


def kernel_step(kernel, op, vals):
    """One FlowKernel step of the state `vals`, as run takes it: (values, dt, min)."""
    return kernel.step(vals, kernel.faces(vals, op.convolve(vals)), float(vals.max()), np.inf)


def test_step_rejects_negative_state():
    # a negative state never enters a step: run refuses it as a datum
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    bad = Field(grid, np.where(np.abs(grid.axis()) < 1, 1.0, -0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        run(bad, "physical", SolverConfig(), op, on_record=discard)


def test_step_rejects_negative_result(monkeypatch):
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)

    def overshoot(self, vals, *args):
        # moves one unit of mass from the first cell to the last: mass kept, sign lost
        new = vals.copy()
        new[0] -= 1.0
        new[-1] += 1.0
        return new, 0.1, float(new.min())

    monkeypatch.setattr(FlowKernel, "step", overshoot)
    with pytest.raises(NumericalAbort, match="positivity lost"):
        run(box_datum(grid), "physical", SolverConfig(), op, on_record=discard)


def test_run_input_validation():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    u = box_datum(grid)
    with pytest.raises(ValueError, match="mode"):
        run(u, "backwards", SolverConfig(), op, on_record=discard)
    nan_vals = u.values.copy()
    nan_vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(Field(grid, nan_vals), "physical", SolverConfig(), op, on_record=discard)
    other = Grid(dim=1, half_width=5.0, points_per_axis=64)
    with pytest.raises(ValueError, match="grid"):
        run(box_datum(other), "physical", SolverConfig(), op, on_record=discard)


def test_mass_conserved_and_positive():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    u0 = box_datum(grid)
    states = []
    traj = run(u0, "physical", SolverConfig(end_time=0.5, snapshot_stride=10),
               op, on_record=collect(states))
    mass = traj.diagnostics.column("mass")
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]
    for snap in states:
        assert snap.values.min() >= 0.0


def test_norms_non_increasing():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=0.5), op, on_record=discard)
    for name in ("linf", "l2", "l4"):
        col = traj.diagnostics.column(name)
        assert (np.diff(col) <= 1e-8 * col[:-1]).all(), name


def test_positivity_exact_at_sharp_cfl():
    # flux-form roundoff dust must be repaired, not let through as -1e-16
    grid = Grid(dim=1, half_width=4.0, points_per_axis=128)
    op = freespace_op(grid)
    kernel = FlowKernel(op, False, 1.0)
    state = box_datum(grid)
    mass0 = state.mass()
    vals = state.values
    for _ in range(200):
        vals, _, low = kernel_step(kernel, op, vals)
        assert low >= 0.0
    assert vals.min() >= 0.0
    assert abs(Field(grid, vals).mass() - mass0) <= 1e-12 * mass0


def test_zero_state_advances_in_dt_max_hops():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    zero = Field(grid, np.zeros(64))
    states = []
    traj = run(zero, "physical", SolverConfig(end_time=3.0 * DT_MAX), freespace_op(grid),
               on_record=collect(states))
    assert traj.times.tolist() == [0.0, DT_MAX, 2.0 * DT_MAX, 3.0 * DT_MAX]
    assert all(np.array_equal(snap.values, zero.values) for snap in states)


def test_symmetry_preserved_by_step():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    vals, _, _ = kernel_step(FlowKernel(op, False, 0.4), op, gaussian_datum(grid).values)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-14)


def test_dt_cap_honored():
    # the first step is cut to the end time, well below its own bound
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=1e-4),
               freespace_op(grid), on_record=discard)
    assert traj.steps == 1
    assert traj.times.tolist() == [0.0, 1e-4]


def rescale(u, t, exp):
    """v(y) = (1+t)^alpha u(y (1+t)^beta): the rescaled state of u at time t."""
    v = resample(u, u.grid, lam=(1.0 + t) ** exp.beta)
    return Field(v.grid, (1.0 + t) ** exp.alpha * v.values)


def test_rescale_matches_analytic_dilation():
    grid = Grid(dim=1, half_width=8.0, points_per_axis=512)
    exp = FracParams(0.25, 1)
    width = 0.8
    v = rescale(gaussian_datum(grid, width), 1.5, exp)
    lam = 2.5**exp.beta
    expected = 2.5**exp.alpha * np.exp(-((grid.axis() * lam) ** 2) / (2 * width**2))
    assert np.abs(v.values - expected).max() < 2e-4


def test_pressure_scaling_under_rescale():
    # K u (x) = (1+t)^(-sigma) K v (x (1+t)^(-beta)) for v = rescale of u
    grid = Grid(dim=1, half_width=8.0, points_per_axis=512)
    op = freespace_op(grid)
    exp = FracParams(0.25, 1)
    u = gaussian_datum(grid)
    t = 1.5
    v = rescale(u, t, exp)
    pu = op.convolve(u.values)
    pv = op.convolve(v.values)
    x = grid.axis()
    pv_pulled = np.interp(x / (1 + t) ** exp.beta, x, pv)
    sigma = 1.0 - 2.0 * exp.beta
    err = np.abs(pu - (1 + t) ** (-sigma) * pv_pulled).max()
    assert err < 1e-3 * np.abs(pu).max()


def test_records_cover_run():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    states = []
    traj = run(box_datum(grid), "rescaled", SolverConfig(end_time=0.4, snapshot_stride=7),
               op, on_record=collect(states))
    times = np.array(traj.times)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.4, abs=1e-12)
    assert (np.diff(times) > 0).all()
    assert len(states) == len(traj.diagnostics)


def test_rescaled_entropy_monotone():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    vals = np.clip(1.0 - np.abs(grid.axis()), 0.0, None) ** 2
    traj = run(Field(grid, vals), "rescaled",
               SolverConfig(end_time=1.5, snapshot_stride=5), op, on_record=discard)
    e = traj.diagnostics.column("entropy")
    assert (np.diff(e) <= 1e-8 * abs(e[0])).all()


@pytest.mark.parametrize("mode", ["physical", "rescaled"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_pressure_per_state(monkeypatch, dim, mode):
    # each state's convolution and face pass serve its record and the next step
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 32)
    op = freespace_op(grid, s=0.25 if dim == 1 else 0.5)
    calls = []
    face_calls = []
    convolve, faces = FracOperator.convolve, FlowKernel.faces

    def counted(self, values):
        calls.append(values)
        return convolve(self, values)

    def counted_faces(self, vals, pressure):
        face_calls.append(vals)
        return faces(self, vals, pressure)

    monkeypatch.setattr(FracOperator, "convolve", counted)
    monkeypatch.setattr(FlowKernel, "faces", counted_faces)
    u0 = Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0))
    states = []
    traj = run(u0, mode, SolverConfig(end_time=0.3, snapshot_stride=1), op,
               on_record=collect(states))
    assert traj.steps >= 3
    assert len(traj.times) == traj.steps + 1
    assert len(calls) == traj.steps + 1
    assert len(face_calls) == traj.steps + 1
    for vals, called, snap in zip(face_calls, calls, states, strict=True):
        assert vals is snap.values
        assert called is vals


def test_streamed_states_match_kept_snapshots():
    # each record reaches on_record once, numbered and timed as in the
    # diagnostics, and a repeat hands on the same bits
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    cfg = SolverConfig(end_time=0.3, snapshot_stride=4)
    first, seen = [], []
    kept = run(box_datum(grid), "rescaled", cfg, op, on_record=collect(first))
    streamed = run(box_datum(grid), "rescaled", cfg, op,
                   on_record=lambda k, t, state: seen.append((k, t, state)))
    assert streamed.steps == kept.steps
    assert streamed.times.tobytes() == kept.times.tobytes()
    assert streamed.diagnostics.table.tobytes() == kept.diagnostics.table.tobytes()
    assert [k for k, _, _ in seen] == list(range(len(kept.times)))
    assert [t for _, t, _ in seen] == kept.times.tolist()
    assert len(first) == len(seen)
    for (_, _, state), snap in zip(seen, first):
        assert np.array_equal(state.values, snap.values)


def test_records_cost_one_table_row_each():
    # a streamed stride-1 run keeps one 88-B row per record and nothing else;
    # a first identical run fills the caches and the interpreter's free lists
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    cfg = SolverConfig(end_time=20.0, snapshot_stride=1)
    discard = lambda k, t, state: None
    run(box_datum(grid), "physical", cfg, op, on_record=discard)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run(box_datum(grid), "physical", cfg, op, on_record=discard)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = len(traj.times)
    assert records > 600
    assert traj.diagnostics.table.nbytes == 88 * records
    assert grown <= 128 * records


@pytest.mark.parametrize("dim", [1, 2])
def test_kept_snapshots_are_distinct_arrays(dim):
    # every step returns a fresh array, so no kept state aliases another
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 24)
    op = freespace_op(grid, s=0.25 if dim == 1 else 0.5)
    u0 = Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0))
    cfg = SolverConfig(end_time=0.2, snapshot_stride=1)
    states = []
    kept = run(u0, "physical", cfg, op, on_record=collect(states))
    assert kept.steps >= 3
    arrays = [snap.values for snap in states]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    seen = []
    run(u0, "physical", cfg, op,
        on_record=lambda k, t, state: seen.append(state.values.copy()))
    assert len(seen) == len(arrays)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, seen))


def test_run_refuses_a_span_beyond_the_step_budget(monkeypatch):
    # every step is at most DT_MAX, so such a run could never finish; it is
    # refused before any work, and the span counts from the start time
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    tiny = Field(grid, np.where(np.abs(grid.axis()) < 0.5, 1e-300, 0.0))
    calls = []
    monkeypatch.setattr(FracOperator, "convolve", lambda self, values: calls.append(values))
    for start, end in ((0.0, 1e300), (0.0, 2.0 * MAX_STEPS * DT_MAX),
                       (5.0, 5.0 + 2.0 * MAX_STEPS * DT_MAX)):
        with pytest.raises(ValueError, match=f"needs more than {MAX_STEPS} steps"):
            run(tiny, "physical", SolverConfig(end_time=end), op,
                start_time=start, on_record=discard)
    assert calls == []
    monkeypatch.undo()
    late = MAX_STEPS * DT_MAX
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=late), op,
               start_time=late - 1e-3, on_record=discard)
    assert traj.times[-1] == late


def test_run_continues_from_start_time():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    traj = run(box_datum(grid), "physical", SolverConfig(end_time=1.2, snapshot_stride=5),
               op, start_time=1.0, on_record=discard)
    assert traj.times[0] == 1.0
    assert traj.times[-1] == pytest.approx(1.2, abs=1e-12)
    assert traj.diagnostics.column("time")[0] == 1.0
    with pytest.raises(ValueError, match="start_time"):
        run(box_datum(grid), "physical", SolverConfig(), op,
            start_time=-1.0, on_record=discard)
