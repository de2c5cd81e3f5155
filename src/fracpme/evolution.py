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

The stepper's flux through a face and the recorded dissipation both read the
same two arrays per axis: the face velocity w, which is minus the pressure
difference over h less the confining drift beta y_face when there is one, and
the upwind value up of the density at that face.  The flux is w * up and the
dissipation is sum(w * w * up) h^n, so one face pass per state serves both.

The step itself is `FlowKernel.step`, the one single-step API; `run`, the one
stepping loop, builds one kernel per run and carries value arrays through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagnostics import RECORD_BLOCK_CELLS, DiagnosticsSeries, record
from .fracops import FracOperator
from .grid import Field

MAX_STEPS = 10 ** 7  # step budget of a run: checked up front and while stepping
QUIESCENT_SPEED = 1e-14
DT_MAX = 1.0  # step taken when the velocity field is quiescent


class NumericalAbort(RuntimeError):
    """A run monitor tripped (mass drift, lost positivity, non-finite velocity,
    a stalled clock)."""


class _Axis(NamedTuple):
    """One axis's slices, drift and buffers; the buffer views are taken once."""

    lo: tuple  # lower cell of each interior face
    hi: tuple  # upper cell
    drift: np.ndarray | None
    part: np.ndarray  # outflow through this axis's faces
    part_lo: np.ndarray
    part_hi: np.ndarray
    part_last: np.ndarray
    flux_inner: np.ndarray  # the interior faces of a flux buffer zero at both ends
    flux_hi: np.ndarray
    flux_lo: np.ndarray


class FlowKernel:
    """Face pass and upwind step of the flow through `op`; confined adds the
    drift of the rescaled form."""

    def __init__(self, op: FracOperator, confined: bool, cfl_safety: float):
        grid = op.grid
        self.h = grid.spacing
        self.vol = self.h ** grid.dim
        self._stiffness = op.stiffness_bound()
        self._cfl_h = cfl_safety * self.h
        self._cfl_2 = cfl_safety * 2.0
        beta = op.params.beta
        faces = grid.interior_faces()
        self._axes = []
        for ax in range(grid.dim):
            lead = (slice(None),) * ax
            lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
            shape = [1] * grid.dim
            shape[ax] = faces.size
            part = np.empty(grid.shape)
            flux_shape = list(grid.shape)
            flux_shape[ax] += 1
            flux = np.zeros(flux_shape)  # the box faces stay zero
            self._axes.append(_Axis(
                lo, hi, beta * faces.reshape(shape) if confined else None,
                part, part[lo], part[hi], part[lead + (slice(-1, None),)],
                flux[lead + (slice(1, -1),)], flux[hi], flux[lo]))

    def faces(self, vals: np.ndarray, pressure: np.ndarray) -> list:
        """(w, up) for each axis of the state `vals` whose pressure is `pressure`.

        The N-1 interior faces of each axis, with face i+1/2 between cells i
        and i+1; up is the lower cell's value where w > 0 and the upper cell's
        otherwise.  Both are fresh arrays."""
        out = []
        neg_h = -self.h
        for axis in self._axes:
            lo, hi = axis.lo, axis.hi
            w = np.subtract(pressure[hi], pressure[lo])
            w /= neg_h
            if axis.drift is not None:
                w -= axis.drift
            out.append((w, np.where(w > 0.0, vals[lo], vals[hi])))
        return out

    def step(self, vals: np.ndarray, faces: list, vmax: float, dt_cap: float) -> tuple:
        """One upwind step of the state `vals` whose faces are `faces` and whose
        maximum is `vmax`.

        Returns (new values, dt, min of the new values); the new values are a
        fresh array.  dt is at most dt_cap and otherwise cfl_safety times the
        sharper of two bounds: h over the largest per-cell sum of outgoing
        face speeds (advective positivity), and 2 / (vmax * operator
        stiffness) (non-amplification of the linearized pressure diffusion;
        it scales like h^(2-2s) and binds on fine grids when s < 1/2).
        Raises NumericalAbort on a non-finite face speed."""
        outflow = None
        for axis, (w, _) in zip(self._axes, faces):
            np.maximum(w, 0.0, out=axis.part_lo)  # out through i+1/2
            axis.part_last.fill(0.0)
            np.subtract(axis.part_hi, np.minimum(w, 0.0), out=axis.part_hi)  # i-1/2
            part = axis.part
            outflow = part if outflow is None else np.add(outflow, part, out=outflow)
        peak = float(outflow.max())
        if not math.isfinite(peak):
            raise NumericalAbort("non-finite velocity (operator blowup)")
        if peak < QUIESCENT_SPEED:
            # zero flux everywhere: the state is an exact fixed point of the
            # update and the diffusion bound has nothing to amplify
            dt = DT_MAX
        else:
            dt = self._cfl_h / peak
            rate = vmax * self._stiffness
            if rate >= QUIESCENT_SPEED:
                dt = min(dt, self._cfl_2 / rate)
            dt = min(dt, DT_MAX)
        dt = min(dt, dt_cap)

        div = None
        for axis, (w, up) in zip(self._axes, faces):
            np.multiply(w, up, out=axis.flux_inner)
            term = np.subtract(axis.flux_hi, axis.flux_lo)
            term /= self.h
            div = term if div is None else np.add(div, term, out=div)
        div *= dt
        new_vals = np.subtract(vals, div, out=div)
        # The convex-combination positivity bound is exact in exact arithmetic,
        # but the flux-difference form can leave -O(eps * peak) dust when the
        # bound is tight.  Zero only that dust; deeper negatives are genuine.
        low = float(new_vals.min())
        if low < 0.0:
            floor = -1e-12 * max(vmax, 1.0)
            new_vals[(new_vals < 0.0) & (new_vals >= floor)] = 0.0
            low = float(new_vals.min())
        return new_vals, dt, low


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
    diagnostics: DiagnosticsSeries = field(default_factory=DiagnosticsSeries)
    steps: int = 0  # accepted steps; len(times) counts records, not steps

    @property
    def times(self) -> np.ndarray:
        """Record times: the diagnostics' time column (a view)."""
        return self.diagnostics.column("time")


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
    is built only for a recorded state and handed to on_record(k, time,
    state) for record k; run keeps no state, and on_record must not modify
    it.  Diagnostics are recorded in blocks of about RECORD_BLOCK_CELLS
    cells, and the series is trimmed when the run ends.

    Aborts (NumericalAbort) on cumulative mass drift above 1e-9 relative, on
    any negative value, on non-finite velocities, on a step too small to
    advance the clock (t + dt == t), and once MAX_STEPS steps have not
    reached the end time.  A time span that check_time_span
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
    p = op.convolve(vals)
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
        on_record(k, time, Field(grid, vals))
        if len(block) == per_block:
            flush()

    note(vals, p, faces, t, mass, peak)
    steps = 0
    while t < stop:
        if steps == MAX_STEPS:
            raise NumericalAbort(f"{MAX_STEPS} steps did not reach end_time (t = {t:.6g})")
        vals, dt, low = kernel.step(vals, faces, peak, cfg.end_time - t)
        if t + dt == t:
            raise NumericalAbort(f"step {dt:.3e} does not advance the clock at t = {t:.6g}")
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
        p = op.convolve(vals)
        faces = kernel.faces(vals, p)
        if steps % cfg.snapshot_stride == 0 or t >= stop:
            note(vals, p, faces, t, mass, peak)
    if block:
        flush()
    traj.diagnostics.trim()
    traj.steps = steps
    return traj
