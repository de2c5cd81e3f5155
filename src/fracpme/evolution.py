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

`FlowKernel` gives a state's bound on dt and its flux divergence.  `run`, the
one stepping loop, builds one operator and one kernel from the datum's grid
and s, and takes each state through one pass: bound it, record it when due,
then stop or step (cap dt at the end time, Euler update, dust floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import CSV_COLUMNS, RECORD_BLOCK_CELLS, ROW, record
from .fracops import FracOperator, FracParams
from .grid import Field

MAX_STEPS = 10 ** 7  # step budget of a run: checked up front and while stepping
QUIESCENT_SPEED = 1e-14
DT_MAX = 1.0  # step taken when the velocity field is quiescent


class NumericalAbort(RuntimeError):
    """A run monitor tripped (mass drift, lost positivity, non-finite velocity,
    an overflowing pressure, flux or diagnostic, a stalled clock)."""


class _Axis(NamedTuple):
    """One axis's slices, drift and buffers; the buffer views are taken once."""

    lo: tuple  # lower cell of each interior face
    hi: tuple  # upper cell
    drift: np.ndarray | None
    part: np.ndarray  # outflow through this axis's faces: out_up - out_down
    out_up: np.ndarray  # max(w, 0) in the lower cells, the last cell zero
    out_up_lo: np.ndarray
    out_down: np.ndarray  # min(w, 0) in the upper cells, the first cell zero
    out_down_hi: np.ndarray
    flux_inner: np.ndarray  # the interior faces of a flux buffer zero at both ends
    flux_hi: np.ndarray
    flux_lo: np.ndarray


class FlowKernel:
    """Face pass, step bound and flux divergence of the upwind flow through
    `op`; confined adds the drift of the rescaled form."""

    def __init__(self, op: FracOperator, confined: bool, cfl_safety: float):
        grid = op.grid
        self.h = grid.spacing
        self.vol = self.h ** grid.dim
        self._stiffness = op.stiffness_bound()
        self._cfl_h = cfl_safety * self.h
        self._cfl_2 = cfl_safety * 2.0
        self._two_dim = 2.0 * grid.dim
        beta = op.params.beta
        faces = grid.interior_faces()
        self._axes = []
        for ax in range(grid.dim):
            lead = (slice(None),) * ax
            lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
            shape = [1] * grid.dim
            shape[ax] = faces.size
            out_up, out_down = np.zeros(grid.shape), np.zeros(grid.shape)
            flux_shape = list(grid.shape)
            flux_shape[ax] += 1
            flux = np.zeros(flux_shape)  # the box faces stay zero
            self._axes.append(_Axis(
                lo, hi, beta * faces.reshape(shape) if confined else None,
                np.empty(grid.shape), out_up, out_up[lo], out_down, out_down[hi],
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

    def bound(self, faces: list, vmax: float) -> float:
        """The step of the state whose faces are `faces` and whose maximum is
        `vmax`: DT_MAX when it is quiescent, else cfl_safety times the sharper
        of h over the largest per-cell sum of outgoing face speeds (advective
        positivity) and 2 / (vmax * operator stiffness) (non-amplification of
        the linearized pressure diffusion; it scales like h^(2-2s) and binds on
        fine grids when s < 1/2), and at most DT_MAX.  Raises NumericalAbort on
        a non-finite face speed and on a flux bound that overflows."""
        outflow = None
        for axis, (w, _) in zip(self._axes, faces):
            np.maximum(w, 0.0, out=axis.out_up_lo)  # out through i+1/2
            np.minimum(w, 0.0, out=axis.out_down_hi)  # out through i-1/2
            # the zero edge cells give x - 0.0 = x and 0.0 - m = -m there
            part = np.subtract(axis.out_up, axis.out_down, out=axis.part)
            outflow = part if outflow is None else np.add(outflow, part, out=outflow)
        peak = float(np.maximum.reduce(outflow, axis=None))
        if not math.isfinite(peak):
            raise NumericalAbort("non-finite velocity (operator blowup)")
        # |w| <= peak and 0 <= up <= vmax, so this bounds every flux and
        # divergence term
        flux_bound = self._two_dim * peak * vmax / self.h
        if not math.isfinite(flux_bound):
            raise NumericalAbort(f"flux overflows: face speed {peak:.3e} times "
                                 f"peak density {vmax:.3e}")
        if peak < QUIESCENT_SPEED:
            # zero flux everywhere: the state is an exact fixed point of the
            # update and the diffusion bound has nothing to amplify
            return DT_MAX
        dt = self._cfl_h / peak
        rate = vmax * self._stiffness
        if rate >= QUIESCENT_SPEED:
            dt = min(dt, self._cfl_2 / rate)
        return min(dt, DT_MAX)

    def divergence(self, faces: list) -> np.ndarray:
        """div(w up) of the state whose faces are `faces`, a fresh array."""
        div = None
        for axis, (w, up) in zip(self._axes, faces):
            np.multiply(w, up, out=axis.flux_inner)
            term = np.subtract(axis.flux_hi, axis.flux_lo)
            term /= self.h
            div = term if div is None else np.add(div, term, out=div)
        return div


@dataclass
class Trajectory:
    diagnostics: np.ndarray  # one diagnostics.ROW per record
    steps: int  # accepted steps; len(times) counts records, not steps

    @property
    def times(self) -> np.ndarray:
        """Record times: the diagnostics' time column (a view)."""
        return self.diagnostics["time"]


def _check_time_span(start_time: float, end_time: float) -> None:
    """Raise ValueError unless a run can go from start_time to end_time: the
    start must be finite, nonnegative and not after the end, and since every
    step is at most DT_MAX, (end_time - start_time) / DT_MAX steps at least
    must fit in MAX_STEPS."""
    if not (math.isfinite(start_time) and start_time >= 0.0):
        raise ValueError(f"start_time must be finite and nonnegative, got {start_time}")
    if end_time < start_time:
        raise ValueError(f"end_time {end_time:g} is before start_time {start_time:g}")
    if (end_time - start_time) / DT_MAX > MAX_STEPS:
        raise ValueError(f"end_time {end_time:g} from t = {start_time:g} needs more "
                         f"than {MAX_STEPS} steps of at most DT_MAX = {DT_MAX:g}")


def run(u0: Field, mode: str, s: float, end_time: float, *, snapshot_stride: int,
        cfl_safety: float, start_time: float = 0.0, on_record) -> Trajectory:
    """Advance u0 from start_time to end_time under the operator of order s
    on u0's grid, recording diagnostics every snapshot_stride accepted steps
    (plus the initial and final states).

    The loop carries value arrays through one FlowKernel.  A step's dt is
    the kernel's bound capped at the time left, and its Euler update
    u - dt div is a fresh array whose dust above -1e-12 max(peak, 1) is
    zeroed.  Each state's pressure, face pass, sum and maximum are computed
    once and serve both its record and the next step.  A Field is built only
    for a recorded state and handed to on_record(k, time, state) for record
    k; run keeps no state, and on_record must not modify it.  Diagnostics
    are recorded in blocks of about RECORD_BLOCK_CELLS cells.  Each flushed
    block's rows are appended to one growing buffer, and the returned
    diagnostics are a view of it, with no copy at the end: about 88-99 MB
    of rows for a million records (88 B a row, at most an eighth more slack).

    Aborts (NumericalAbort) on cumulative mass drift above 1e-9 relative, on
    a value below the dust floor, on non-finite velocities, on a datum whose
    pressure overflows, on a flux or a recorded row that is not finite (each
    state's flux check precedes its row, the datum's row is checked at once),
    on a step too small to advance the clock (t + dt == t), and once MAX_STEPS
    steps have not reached the end time.  A bad cfl_safety, end_time or
    snapshot_stride, an end_time before start_time or a span that
    _check_time_span otherwise refuses, a negative or non-finite datum and an
    s the operator refuses raise ValueError before the first step.
    """
    if not 0.0 < cfl_safety <= 1.0:
        raise ValueError(f"cfl_safety must lie in (0, 1], got {cfl_safety}")
    if not end_time >= 0.0:
        raise ValueError(f"end_time must be nonnegative, got {end_time}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if mode not in ("physical", "rescaled"):
        raise ValueError(f"unknown run mode {mode!r}")
    if not np.isfinite(u0.values).all():
        raise ValueError("initial datum has non-finite entries")
    if u0.values.min() < 0.0:
        raise ValueError("initial datum must be nonnegative")
    _check_time_span(start_time, end_time)
    grid = u0.grid
    op = FracOperator(grid, FracParams(s=s, dim=grid.dim))
    kernel = FlowKernel(op, mode == "rescaled", cfl_safety)
    vol = kernel.vol
    stop = end_time - 1e-15 * max(end_time, 1.0)
    vals = u0.values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        p = op.convolve(vals)
    if not np.isfinite(p).all():
        raise NumericalAbort("the datum's pressure overflows")
    faces = kernel.faces(vals, p)
    t = float(start_time)
    mass0 = mass = vol * float(vals.sum())
    peak = float(vals.max())
    threshold = QUIESCENT_SPEED * max(mass0, 1.0)
    per_block = max(1, RECORD_BLOCK_CELLS // grid.npoints)
    pending = []  # (state, pressure, faces, time, mass, peak) awaiting their rows
    buf = bytearray()  # the flushed blocks' rows, ROW after ROW

    def flush():
        states, ps, face_sets, times, masses, peaks = zip(*pending)
        pending.clear()
        rows = record(states, times, op, ps, face_sets, masses, peaks)
        table = rows.view(np.float64).reshape(len(rows), len(CSV_COLUMNS))
        if not np.isfinite(table).all():
            i, j = np.argwhere(~np.isfinite(table))[0]
            raise NumericalAbort(f"diagnostics overflow: {CSV_COLUMNS[j]} is "
                                 f"{table[i, j]} at t = {table[i, 0]:.6g}")
        buf.extend(rows.tobytes())

    steps = 0
    while True:
        bound = kernel.bound(faces, peak)
        if steps % snapshot_stride == 0 or t >= stop:
            pending.append((vals, p, faces, t, mass, peak))
            on_record(len(buf) // ROW.itemsize + len(pending) - 1, t, Field(grid, vals))
            if len(pending) == per_block or steps == 0:
                flush()
        if t >= stop:
            break
        if steps == MAX_STEPS:
            raise NumericalAbort(f"{MAX_STEPS} steps did not reach end_time (t = {t:.6g})")
        dt = min(bound, end_time - t)
        div = kernel.divergence(faces)
        div *= dt
        vals = np.subtract(vals, div, out=div)
        # the positivity bound is exact, but flux differences leave -O(eps *
        # peak) dust where it is tight: zero only that; deeper is genuine
        low = float(np.minimum.reduce(vals, axis=None))
        if low < 0.0:
            vals[(vals < 0.0) & (vals >= -1e-12 * max(peak, 1.0))] = 0.0
            low = float(np.minimum.reduce(vals, axis=None))
        if t + dt == t:
            raise NumericalAbort(f"step {dt:.3e} does not advance the clock at t = {t:.6g}")
        t += dt
        steps += 1
        mass = vol * float(np.add.reduce(vals, axis=None))
        peak = float(np.maximum.reduce(vals, axis=None))
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
    if pending:
        flush()
    return Trajectory(np.frombuffer(buf, ROW), steps)
