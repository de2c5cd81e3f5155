"""Explicit conservative time stepping for the nonlocal-pressure flow.

Physical form: u_t = div(u grad K u).  Rescaled (Fokker-Planck) form, reached
through y = x (1+t)^(-beta), tau = log(1+t), v = (1+t)^alpha u:
v_tau = div(v (grad K v + beta y)).

Both are advanced by the same first-order upwind finite-volume step.  The flux
through a face is the face velocity times the upwind cell value, where the
face velocity is minus the difference of adjacent pressure cells over h (plus
the exact confining drift -beta y_face in rescaled form).  The equation is
posed on the whole space, so the pressure is the Riesz kernel potential
and the box boundary carries no flux.  Flux form makes the discrete mass
exactly conserved, and the time step is chosen from the largest per-cell sum
of outgoing face speeds, which is the sharp positivity bound:
u_i(1 - dt/h * outflow_i) plus nonnegative inflow stays nonnegative whenever
dt/h * outflow_i <= 1, in every dimension; a state negative beyond roundoff
dust aborts.  beta comes from the operator's (n, s), never from the caller.

Positivity alone does not give stability here: the pressure coupling makes the
equation a degenerate diffusion of order 2-2s, so an explicit step must also
satisfy dt * u_max * stiffness <= 2, where stiffness is the operator's
second-difference/kernel symbol bound (h^(2s-2) scaling).  With s < 1/2 that
bound is the binding one on fine grids; without it the interior develops a
growing checkerboard.  The step controller takes the sharper of the two.

The step itself is `flow.FlowKernel.step`.  `run` builds one kernel per run
and carries value arrays through it; `step_physical` is the same kernel for
one step of a Field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import RECORD_BLOCK_CELLS, DiagnosticsSeries, record
from .flow import DT_MAX, QUIESCENT_SPEED, FlowKernel, NumericalAbort
from .fracops import FracOperator
from .grid import Field

MAX_STEPS = 10 ** 7  # step budget of a run: checked up front and while stepping


@dataclass
class SolverConfig:
    cfl_safety: float = 0.4
    end_time: float = 1.0
    snapshot_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.end_time < 0.0:
            raise ValueError(f"end_time must be nonnegative, got {self.end_time}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)  # empty when run streams states
    diagnostics: DiagnosticsSeries = field(default_factory=DiagnosticsSeries)
    steps: int = 0  # accepted steps; len(times) counts records, not steps

    @property
    def times(self) -> np.ndarray:
        """Record times: the diagnostics' time column (a view)."""
        return self.diagnostics.column("time")


def step_physical(u: Field, op: FracOperator, cfg: SolverConfig) -> tuple:
    """One upwind step of u_t = div(u grad K u); returns (new field, dt).
    A negative entering or resulting density raises NumericalAbort."""
    if u.values.min() < 0.0:
        raise NumericalAbort(f"negative density entering step (min {u.values.min():.3e})")
    kernel = FlowKernel(op, False, cfg.cfl_safety)
    faces = kernel.faces(u.values, kernel.convolve(u.values))
    vals, dt, low = kernel.step(u.values, faces, float(u.values.max()), np.inf)
    if low < 0.0:
        raise NumericalAbort(f"positivity lost in step (min {low:.3e})")
    return Field(u.grid, vals), dt


def check_time_span(start_time: float, end_time: float) -> None:
    """Raise ValueError unless a run can go from start_time to end_time: the
    start must be finite and nonnegative, and since every step is at most
    DT_MAX, (end_time - start_time) / DT_MAX steps at least must fit in
    MAX_STEPS."""
    if not (math.isfinite(start_time) and start_time >= 0.0):
        raise ValueError(f"start_time must be finite and nonnegative, got {start_time}")
    if (end_time - start_time) / DT_MAX > MAX_STEPS:
        raise ValueError(f"end_time {end_time:g} from t = {start_time:g} needs more "
                         f"than {MAX_STEPS} steps of at most DT_MAX = {DT_MAX:g}")


def run(u0: Field, mode: str, cfg: SolverConfig, op: FracOperator,
        start_time: float = 0.0, *, on_record) -> Trajectory:
    """Advance u0 from start_time to cfg.end_time, recording diagnostics every
    snapshot_stride accepted steps (plus the initial and final states).

    The loop carries value arrays through one FlowKernel: each state's
    pressure, face pass, sum and maximum are computed once and serve both its
    record and the next step, and every step returns a fresh array.  A Field
    is built only for a recorded state.  Recorded states are kept in
    traj.snapshots when on_record is None, and are otherwise handed to
    on_record(k, time, state) for record k and not kept (on_record must not
    modify the state);
    times, diagnostics and steps are filled either way.  Diagnostics are
    recorded in blocks of about RECORD_BLOCK_CELLS cells, and the series is
    trimmed when the run ends.

    Aborts (NumericalAbort) on cumulative mass drift above 1e-9 relative, on
    any negative value, on non-finite velocities, and once MAX_STEPS steps
    have not reached the end time.  A time span that check_time_span
    refuses, a negative or non-finite datum and a datum on another grid
    raise ValueError before the first step.
    """
    if mode not in ("physical", "rescaled"):
        raise ValueError(f"unknown run mode {mode!r}")
    if not np.isfinite(u0.values).all():
        raise ValueError("initial datum has non-finite entries")
    if u0.values.min() < 0.0:
        raise ValueError("initial datum must be nonnegative")
    if u0.grid is not op.grid and not u0.grid.compatible(op.grid):
        raise ValueError("initial datum grid does not match operator grid")
    check_time_span(start_time, cfg.end_time)
    kernel = FlowKernel(op, mode == "rescaled", cfg.cfl_safety)
    grid = u0.grid
    vol = kernel.vol
    stop = cfg.end_time - 1e-15 * max(cfg.end_time, 1.0)
    traj = Trajectory()
    vals = u0.values.copy()
    p = kernel.convolve(vals)
    faces = kernel.faces(vals, p)
    t = float(start_time)
    mass0 = mass = vol * float(vals.sum())
    peak = float(vals.max())
    threshold = QUIESCENT_SPEED * max(mass0, 1.0)
    per_block = max(1, RECORD_BLOCK_CELLS // grid.npoints)
    block = []  # (state, pressure, faces, time, mass, peak) awaiting their rows

    def flush():
        states, ps, face_sets, times, masses, peaks = zip(*block)
        record(traj.diagnostics, states, times, op, ps, face_sets, masses, peaks)
        block.clear()

    def note(vals, p, faces, time, mass, peak):
        k = len(traj.diagnostics) + len(block)
        block.append((vals, p, faces, time, mass, peak))
        state = Field(grid, vals)
        if on_record is None:
            traj.snapshots.append(state)
        else:
            on_record(k, time, state)
        if len(block) == per_block:
            flush()

    note(vals, p, faces, t, mass, peak)
    steps = 0
    while t < stop:
        if steps == MAX_STEPS:
            raise NumericalAbort(f"{MAX_STEPS} steps did not reach end_time (t = {t:.6g})")
        vals, dt, low = kernel.step(vals, faces, peak, cfg.end_time - t)
        t += dt
        steps += 1
        mass = vol * float(vals.sum())
        peak = float(vals.max())
        if mass0 > threshold:
            drift_rel = abs(mass - mass0) / mass0
            if drift_rel > 1e-9:
                raise NumericalAbort(
                    f"cumulative mass drift {drift_rel:.3e} exceeds 1e-9 at t = {t:.6g}"
                )
        if low < 0.0:
            raise NumericalAbort(f"positivity lost at t = {t:.6g} (min {low:.3e})")
        p = kernel.convolve(vals)
        faces = kernel.faces(vals, p)
        if steps % cfg.snapshot_stride == 0 or t >= stop:
            note(vals, p, faces, t, mass, peak)
    if block:
        flush()
    traj.diagnostics.trim()
    traj.steps = steps
    return traj
