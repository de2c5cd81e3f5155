"""Stepper, similarity exponents, and the physical/rescaled change of frame."""

import pickle
import tracemalloc

import numpy as np
import pytest

from fracpme import evolution
from fracpme.evolution import DT_MAX, MAX_STEPS, FlowKernel, NumericalAbort, run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.io import datum_box


# run's solver settings for a run recording every step at the CLI's CFL factor
SETTINGS = {"snapshot_stride": 1, "cfl_safety": 0.4}


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
    assert n * e.beta == pytest.approx(alpha, abs=1e-15)
    assert 1.0 - 2.0 * e.beta == pytest.approx(sigma, abs=1e-15)
    assert e.a == pytest.approx(a, abs=1e-15)


@pytest.mark.parametrize("s, n", [(s, n) for s in (0.1, 0.25, 0.4, 0.49, 0.75)
                                  for n in (1, 2) if n == 2 or s < 0.5])
def test_exponent_identity(n, s):
    e = FracParams(s, n)
    alpha = n * e.beta
    assert alpha + (2.0 - 2.0 * s) * e.beta == pytest.approx(1.0, abs=1e-14)
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
        {"end_time": float("nan")},
    ],
)
def test_solver_config_validation(kwargs):
    # run refuses a bad solver setting, naming it, before it builds anything
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    (key,) = kwargs
    with pytest.raises(ValueError, match=f"^{key} must "):
        run(box_datum(grid), "physical", 0.25, on_record=discard,
            **{"end_time": 1.0, **SETTINGS, **kwargs})


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
    """One Euler step of the state `vals` through the kernel's bound and
    divergence, with no end-time cap and no dust floor: (values, dt)."""
    faces = kernel.faces(vals, op.convolve(vals))
    dt = kernel.bound(faces, float(vals.max()))
    return vals - dt * kernel.divergence(faces), dt


def test_step_rejects_negative_state():
    # a negative state never enters a step: run refuses it as a datum
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    bad = Field(grid, np.where(np.abs(grid.axis()) < 1, 1.0, -0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        run(bad, "physical", 0.25, 1.0, **SETTINGS, on_record=discard)


def test_step_rejects_negative_result(monkeypatch):
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    divergence = FlowKernel.divergence

    def overshoot(self, faces):
        # moves dt of mass from the empty first cell to the last: mass kept, sign lost
        div = divergence(self, faces)
        div[0] += 1.0
        div[-1] -= 1.0
        return div

    monkeypatch.setattr(FlowKernel, "divergence", overshoot)
    with pytest.raises(NumericalAbort, match="positivity lost"):
        run(box_datum(grid), "physical", 0.25, 1.0, **SETTINGS, on_record=discard)


def test_run_input_validation():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    u = box_datum(grid)
    with pytest.raises(ValueError, match="mode"):
        run(u, "backwards", 0.25, 1.0, **SETTINGS, on_record=discard)
    nan_vals = u.values.copy()
    nan_vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(Field(grid, nan_vals), "physical", 0.25, 1.0, **SETTINGS, on_record=discard)


def test_mass_conserved_and_positive():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    u0 = box_datum(grid)
    states = []
    traj = run(u0, "physical", 0.25, 0.5, snapshot_stride=10, cfl_safety=0.4,
               on_record=collect(states))
    mass = traj.diagnostics["mass"]
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]
    for snap in states:
        assert snap.values.min() >= 0.0


def test_norms_non_increasing():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    traj = run(box_datum(grid), "physical", 0.25, 0.5, **SETTINGS, on_record=discard)
    for name in ("linf", "l2", "l4"):
        col = traj.diagnostics[name]
        assert (np.diff(col) <= 1e-8 * col[:-1]).all(), name


def test_positivity_exact_at_sharp_cfl():
    # at cfl 1 the advective bound is tight, and no step leaves a negative
    # value even before the dust floor
    grid = Grid(dim=1, half_width=4.0, points_per_axis=128)
    op = freespace_op(grid)
    kernel = FlowKernel(op, False, 1.0)
    state = box_datum(grid)
    mass0 = state.mass()
    vals = state.values
    for _ in range(200):
        vals, _ = kernel_step(kernel, op, vals)
        assert vals.min() >= 0.0
    assert abs(Field(grid, vals).mass() - mass0) <= 1e-12 * mass0


def test_zero_state_advances_in_dt_max_hops():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    zero = Field(grid, np.zeros(64))
    states = []
    traj = run(zero, "physical", 0.25, 3.0 * DT_MAX, **SETTINGS, on_record=collect(states))
    assert traj.times.tolist() == [0.0, DT_MAX, 2.0 * DT_MAX, 3.0 * DT_MAX]
    assert all(np.array_equal(snap.values, zero.values) for snap in states)


def test_dust_floor_zeroes_roundoff_negatives(monkeypatch):
    # an update that leaves -1e-17 in a cell is floored to +0.0 and the run
    # goes on; the zero datum steps DT_MAX = 1, so the update is minus div
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    divergence = FlowKernel.divergence

    def dusty(self, faces):
        div = divergence(self, faces)
        div[0] += 1e-17
        div[-1] -= 1e-17
        return div

    monkeypatch.setattr(FlowKernel, "divergence", dusty)
    states = []
    traj = run(Field(grid, np.zeros(64)), "physical", 0.25, 2.0 * DT_MAX, **SETTINGS,
               on_record=collect(states))
    assert traj.steps == 2
    assert states[1].values[-1] == 1e-17
    for snap in states:
        assert snap.values[0] == 0.0 and not np.signbit(snap.values[0])


def test_symmetry_preserved_by_step():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    op = freespace_op(grid)
    vals, _ = kernel_step(FlowKernel(op, False, 0.4), op, gaussian_datum(grid).values)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-14)


def test_dt_cap_honored():
    # the first step is cut to the end time, well below its own bound
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    traj = run(box_datum(grid), "physical", 0.25, 1e-4, **SETTINGS, on_record=discard)
    assert traj.steps == 1
    assert traj.times.tolist() == [0.0, 1e-4]


def test_bound_at_rest_is_dt_max():
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    op = freespace_op(grid)
    kernel = FlowKernel(op, False, 0.4)
    zero = np.zeros(64)
    assert kernel.bound(kernel.faces(zero, op.convolve(zero)), 0.0) == DT_MAX


def test_bound_diffusive_on_a_fine_grid():
    # s = 0.1 on a fine grid: 2 / (vmax stiffness) is sharper than h / outflow
    grid = Grid(1, 6.0, 1024)
    op = freespace_op(grid, s=0.1)
    vals = datum_box(grid, 0.0, 2.0, 1.0).values
    kernel = FlowKernel(op, False, 0.4)
    vmax = float(vals.max())
    dt = kernel.bound(kernel.faces(vals, op.convolve(vals)), vmax)
    assert dt == 0.4 * 2.0 / (vmax * op.stiffness_bound())


def test_bound_advective_under_the_drift():
    # a faint state in rescaled form: the drift beta y sets the outflow, and
    # h over the largest per-cell outflow is the bound
    grid = Grid(1, 6.0, 64)
    op = freespace_op(grid)
    vals = 1e-6 * datum_box(grid, 0.0, 2.0, 1.0).values
    kernel = FlowKernel(op, True, 0.4)
    dt = kernel.bound(kernel.faces(vals, op.convolve(vals)), float(vals.max()))
    h = grid.spacing
    w = -np.diff(op.convolve(vals)) / h - op.params.beta * grid.interior_faces()
    outflow = np.zeros(grid.npoints)
    outflow[:-1] += np.maximum(w, 0.0)
    outflow[1:] -= np.minimum(w, 0.0)
    assert dt == 0.4 * h / outflow.max()


def test_pressure_scaling_under_rescale():
    # K u (x) = (1+t)^(-sigma) K v (x (1+t)^(-beta)) for the rescaled state
    # v(y) = (1+t)^(n beta) u(y (1+t)^beta) of the Gaussian u, sampled directly
    grid = Grid(dim=1, half_width=8.0, points_per_axis=512)
    op = freespace_op(grid)
    exp = FracParams(0.25, 1)
    width = 0.8
    u = gaussian_datum(grid, width)
    t = 1.5
    lam = (1.0 + t) ** exp.beta
    v = Field(grid, lam ** grid.dim * np.exp(-(grid.axis() * lam) ** 2 / (2 * width**2)))
    pu = op.convolve(u.values)
    pv = op.convolve(v.values)
    x = grid.axis()
    pv_pulled = np.interp(x / (1 + t) ** exp.beta, x, pv)
    sigma = 1.0 - 2.0 * exp.beta
    err = np.abs(pu - (1 + t) ** (-sigma) * pv_pulled).max()
    assert err < 1e-3 * np.abs(pu).max()


def test_records_cover_run():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    states = []
    traj = run(box_datum(grid), "rescaled", 0.25, 0.4, snapshot_stride=7, cfl_safety=0.4,
               on_record=collect(states))
    times = np.array(traj.times)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.4, abs=1e-12)
    assert (np.diff(times) > 0).all()
    assert len(states) == len(traj.diagnostics)


@pytest.mark.parametrize("mode, start, end, stride", [
    ("physical", 0.0, 10.0, 1),  # past one block of rows
    ("rescaled", 0.0, 0.3, 3),
    ("physical", 1.0, 1.2, 5),  # a restart
    ("rescaled", 0.0, 1e-6, 4),  # one step, taken at the end-time cap
], ids=["physical", "rescaled", "restart", "end-time-cap"])
def test_record_times_increase(mode, start, end, stride):
    # every record is noted once, at a later time than the one before it
    grid = Grid(dim=1, half_width=6.0, points_per_axis=64)
    traj = run(box_datum(grid), mode, 0.25, end, snapshot_stride=stride, cfl_safety=0.4,
               start_time=start, on_record=discard)
    times = traj.times
    assert times[0] == start
    assert times[-1] == pytest.approx(end, abs=1e-12)
    assert len(times) >= 2
    assert (np.diff(times) > 0).all()


def test_rescaled_entropy_monotone():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    vals = np.clip(1.0 - np.abs(grid.axis()), 0.0, None) ** 2
    traj = run(Field(grid, vals), "rescaled", 0.25, 1.5, snapshot_stride=5,
               cfl_safety=0.4, on_record=discard)
    e = traj.diagnostics["entropy"]
    assert (np.diff(e) <= 1e-8 * abs(e[0])).all()


@pytest.mark.parametrize("mode", ["physical", "rescaled"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_pressure_per_state(monkeypatch, dim, mode):
    # each state's convolution and face pass serve its record and the next step
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 32)
    calls = []
    face_calls = []
    face_sets = []
    bound_calls = []
    convolve, faces, bound = FracOperator.convolve, FlowKernel.faces, FlowKernel.bound

    def counted(self, values):
        calls.append(values)
        return convolve(self, values)

    def counted_faces(self, vals, pressure):
        face_calls.append(vals)
        face_sets.append(faces(self, vals, pressure))
        return face_sets[-1]

    def counted_bound(self, face_set, vmax):
        bound_calls.append(face_set)
        return bound(self, face_set, vmax)

    monkeypatch.setattr(FracOperator, "convolve", counted)
    monkeypatch.setattr(FlowKernel, "faces", counted_faces)
    monkeypatch.setattr(FlowKernel, "bound", counted_bound)
    u0 = Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0))
    states = []
    traj = run(u0, mode, 0.25 if dim == 1 else 0.5, 0.3, **SETTINGS,
               on_record=collect(states))
    assert traj.steps >= 3
    assert len(traj.times) == traj.steps + 1
    assert len(calls) == traj.steps + 1
    assert len(face_calls) == traj.steps + 1
    assert len(bound_calls) == traj.steps + 1  # the last state is checked too
    assert all(b is f for b, f in zip(bound_calls, face_sets))  # on its own faces
    for vals, called, snap in zip(face_calls, calls, states, strict=True):
        assert vals is snap.values
        assert called is vals


def test_streamed_states_match_kept_snapshots():
    # each record reaches on_record once, numbered and timed as in the
    # diagnostics, and a repeat hands on the same bits
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    settings = dict(snapshot_stride=4, cfl_safety=0.4)
    first, seen = [], []
    kept = run(box_datum(grid), "rescaled", 0.25, 0.3, **settings,
               on_record=collect(first))
    streamed = run(box_datum(grid), "rescaled", 0.25, 0.3, **settings,
                   on_record=lambda k, t, state: seen.append((k, t, state)))
    assert streamed.steps == kept.steps
    assert streamed.times.tobytes() == kept.times.tobytes()
    assert streamed.diagnostics.tobytes() == kept.diagnostics.tobytes()
    assert [k for k, _, _ in seen] == list(range(len(kept.times)))
    assert [t for _, t, _ in seen] == kept.times.tolist()
    assert len(first) == len(seen)
    for (_, _, state), snap in zip(seen, first):
        assert np.array_equal(state.values, snap.values)
    # the rows are a writeable, aligned view that pickles (as verify's forked
    # workers send them back) to the same bytes
    rows = kept.diagnostics
    assert rows.flags.writeable and rows.flags.aligned
    assert pickle.loads(pickle.dumps(rows)).tobytes() == rows.tobytes()


def test_records_cost_one_table_row_each(monkeypatch):
    # a streamed stride-1 run keeps one 88-B row per record and nothing else;
    # a first identical run fills the caches and the interpreter's free lists.
    # With one state a block (32 cells a block on 64 cells), each row is
    # appended to the one buffer the diagnostics view, so the peak is that
    # buffer and its slack (at most an eighth), well below two copies of the rows
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    discard = lambda k, t, state: None
    for block_cells, end_time in ((None, 20.0), (32, 60.0)):
        if block_cells is not None:
            monkeypatch.setattr(evolution, "RECORD_BLOCK_CELLS", block_cells)
        run(box_datum(grid), "physical", 0.25, end_time, **SETTINGS, on_record=discard)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = run(box_datum(grid), "physical", 0.25, end_time, **SETTINGS,
                       on_record=discard)
            grown, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        records = len(traj.times)
        assert records > (600 if block_cells is None else 2048)
        assert traj.diagnostics.nbytes == 88 * records
        assert grown <= 128 * records
        if block_cells is not None:
            assert peak <= 128 * records


@pytest.mark.parametrize("dim", [1, 2])
def test_kept_snapshots_are_distinct_arrays(dim):
    # every step returns a fresh array, so no kept state aliases another
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=64 if dim == 1 else 24)
    s = 0.25 if dim == 1 else 0.5
    u0 = Field(grid, np.where(grid.radius2() < 1.0, 1.0, 0.0))
    states = []
    kept = run(u0, "physical", s, 0.2, **SETTINGS, on_record=collect(states))
    assert kept.steps >= 3
    arrays = [snap.values for snap in states]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    seen = []
    run(u0, "physical", s, 0.2, **SETTINGS,
        on_record=lambda k, t, state: seen.append(state.values.copy()))
    assert len(seen) == len(arrays)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, seen))


def test_run_refuses_a_span_beyond_the_step_budget(monkeypatch):
    # every step is at most DT_MAX, so such a run could never finish; it is
    # refused before any work, and the span counts from the start time
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    tiny = Field(grid, np.where(np.abs(grid.axis()) < 0.5, 1e-300, 0.0))
    calls = []
    monkeypatch.setattr(FracOperator, "convolve", lambda self, values: calls.append(values))
    for start, end in ((0.0, 1e300), (0.0, 2.0 * MAX_STEPS * DT_MAX),
                       (5.0, 5.0 + 2.0 * MAX_STEPS * DT_MAX)):
        with pytest.raises(ValueError, match=f"needs more than {MAX_STEPS} steps"):
            run(tiny, "physical", 0.25, end, **SETTINGS, start_time=start, on_record=discard)
    assert calls == []
    monkeypatch.undo()
    late = MAX_STEPS * DT_MAX
    traj = run(box_datum(grid), "physical", 0.25, late, **SETTINGS,
               start_time=late - 1e-3, on_record=discard)
    assert traj.times[-1] == late


def test_run_continues_from_start_time():
    grid = Grid(dim=1, half_width=6.0, points_per_axis=128)
    traj = run(box_datum(grid), "physical", 0.25, 1.2, snapshot_stride=5, cfl_safety=0.4,
               start_time=1.0, on_record=discard)
    assert traj.times[0] == 1.0
    assert traj.times[-1] == pytest.approx(1.2, abs=1e-12)
    assert traj.diagnostics["time"][0] == 1.0
    with pytest.raises(ValueError, match="start_time"):
        run(box_datum(grid), "physical", 0.25, 1.0, **SETTINGS,
            start_time=-1.0, on_record=discard)
    with pytest.raises(ValueError, match="end_time 1 is before start_time 5"):
        run(box_datum(grid), "physical", 0.25, 1.0, **SETTINGS,
            start_time=5.0, on_record=discard)
