"""Explicit conservative time stepping for the nonlocal-pressure flow.

Physical form: u_t = div(u grad K u).  Rescaled (Fokker-Planck) form, reached
through y = x (1+t)^(-beta), tau = log(1+t), v = (1+t)^alpha u:
v_tau = div(v (grad K v + beta y)).

Both are advanced by the same first-order upwind finite-volume step.  The flux
through a face is the face velocity times the upwind cell value, where the
face velocity is minus the difference of adjacent pressure cells over h (plus
the exact confining drift -beta y_face in rescaled form).  The equation is
posed on the whole space, so the pressure is the freespace kernel potential
and the box boundary carries no flux.  Flux form makes the discrete mass
exactly conserved, and the time step is chosen from the largest per-cell sum
of outgoing face speeds, which is the sharp positivity bound:
u_i(1 - dt/h * outflow_i) plus nonnegative inflow stays nonnegative whenever
dt/h * outflow_i <= 1, in every dimension.

Positivity alone does not give stability here: the pressure coupling makes the
equation a degenerate diffusion of order 2-2s, so an explicit step must also
satisfy dt * u_max * stiffness <= 2, where stiffness is the operator's
second-difference/kernel symbol bound (h^(2s-2) scaling).  With s < 1/2 that
bound is the binding one on fine grids; without it the interior develops a
growing checkerboard.  The step controller takes the sharper of the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsSeries, record
from .faces import confining_drift, upwind_faces
from .fracops import FracOperator
from .grid import Field

QUIESCENT_SPEED = 1e-14
DT_MAX = 1.0  # step taken when the velocity field is quiescent


class NumericalAbort(RuntimeError):
    """A run monitor tripped (mass drift, lost positivity, non-finite velocity)."""


@dataclass(frozen=True)
class Exponents:
    """Similarity exponents for dimension n and order s.

    beta = 1/(n+2-2s) scales space, alpha = n beta scales amplitude (so that
    mass is conserved), sigma = 1-2 beta scales the pressure, and a = beta/2
    is the obstacle-parabola coefficient.  alpha + (2-2s) beta = 1 by
    construction.
    """

    n: int
    s: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")

    @property
    def beta(self) -> float:
        return 1.0 / (self.n + 2.0 - 2.0 * self.s)

    @property
    def alpha(self) -> float:
        return self.n * self.beta

    @property
    def sigma(self) -> float:
        return 1.0 - 2.0 * self.beta

    @property
    def a(self) -> float:
        return self.beta / 2.0


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
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # empty when run streams states
    diagnostics: DiagnosticsSeries = field(default_factory=DiagnosticsSeries)
    steps: int = 0  # accepted steps; len(times) counts records, not steps


def _upwind_step(vals: np.ndarray, faces: list, op: FracOperator,
                 cfl_safety: float, dt_cap: float) -> tuple:
    """One upwind step of the state `vals` whose faces are `faces` =
    upwind_faces(vals, K vals, op, drift).

    Returns (new values, dt, min of the new values).  dt is at most dt_cap
    and otherwise cfl_safety times the sharper of two bounds: h over the
    largest per-cell sum of outgoing face speeds (advective positivity), and
    2 / (max vals * operator stiffness) (non-amplification of the linearized
    pressure diffusion; it scales like h^(2-2s) and binds on fine grids when
    s < 1/2)."""
    h = op.grid.spacing
    cut = []  # (lower, upper) neighbour slices along each axis
    outflow = None
    for ax, (w, _) in enumerate(faces):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        cut.append((lo, hi))
        contrib = np.zeros(vals.shape)
        contrib[lo] = np.maximum(w, 0.0)    # out through face i+1/2
        contrib[hi] += np.maximum(-w, 0.0)  # out through face i-1/2
        outflow = contrib if outflow is None else outflow + contrib
    peak = float(outflow.max())
    if not np.isfinite(peak):
        raise NumericalAbort("non-finite velocity (operator blowup)")
    vmax = float(vals.max())
    if peak < QUIESCENT_SPEED:
        # zero flux everywhere: the state is an exact fixed point of the
        # update and the diffusion bound has nothing to amplify
        dt = DT_MAX
    else:
        dt = cfl_safety * h / peak
        rate = vmax * op.stiffness_bound()
        if rate >= QUIESCENT_SPEED:
            dt = min(dt, cfl_safety * 2.0 / rate)
        dt = min(dt, DT_MAX)
    dt = min(dt, dt_cap)

    div = None
    for ax, ((w, up), (lo, hi)) in enumerate(zip(faces, cut)):
        shape = list(vals.shape)
        shape[ax] += 1
        flux = np.zeros(shape)  # boundary faces carry zero flux
        flux[(slice(None),) * ax + (slice(1, -1),)] = w * up
        term = (flux[hi] - flux[lo]) / h
        div = term if div is None else div + term
    new_vals = vals - dt * div
    # The convex-combination positivity bound is exact in exact arithmetic,
    # but the flux-difference form can leave -O(eps * peak) dust when the
    # bound is tight.  Zero only that dust; deeper negatives are genuine.
    low = float(new_vals.min())
    if low < 0.0:
        floor = -1e-12 * max(vmax, 1.0)
        new_vals[(new_vals < 0.0) & (new_vals >= floor)] = 0.0
        low = float(new_vals.min())
    return new_vals, dt, low


def step_physical(u: Field, op: FracOperator, cfg: SolverConfig) -> tuple:
    """One upwind step of u_t = div(u grad K u); returns (new field, dt)."""
    if u.values.min() < 0.0:
        raise NumericalAbort(f"negative density entering step (min {u.values.min():.3e})")
    faces = upwind_faces(u.values, op.inverse(u).values, op, None)
    vals, dt, _ = _upwind_step(u.values, faces, op, cfg.cfl_safety, np.inf)
    return Field(u.grid, vals, "density"), dt


def run(u0: Field, mode: str, cfg: SolverConfig, op: FracOperator,
        exp: Exponents, start_time: float = 0.0, on_record=None) -> Trajectory:
    """Advance u0 from start_time to cfg.end_time, recording diagnostics every
    snapshot_stride accepted steps (plus the initial and final states).

    Each state's pressure and face pass (upwind_faces) are computed once and
    serve both its record and the next step.  Recorded states are kept in
    traj.snapshots, or, when on_record is given, handed to
    on_record(k, time, state) for record k and not kept; times, diagnostics
    and steps are filled either way.

    Aborts (NumericalAbort) on cumulative mass drift above 1e-9 relative, on
    any negative value, and on non-finite velocities.  A periodic operator is
    rejected with ValueError by the face pass.
    """
    if mode not in ("physical", "rescaled"):
        raise ValueError(f"unknown run mode {mode!r}")
    if not np.isfinite(u0.values).all():
        raise ValueError("initial datum has non-finite entries")
    if u0.values.min() < 0.0:
        raise ValueError("initial datum must be nonnegative")
    if not (np.isfinite(start_time) and start_time >= 0.0):
        raise ValueError(f"start_time must be finite and nonnegative, got {start_time}")
    confined = mode == "rescaled"
    drift = confining_drift(op, exp.beta) if confined else None
    grid = u0.grid
    vol = grid.spacing ** grid.dim
    stop = cfg.end_time - 1e-15 * max(cfg.end_time, 1.0)
    traj = Trajectory()
    u = Field(grid, u0.values.copy(), "density")
    p = op.inverse(u)
    faces = upwind_faces(u.values, p.values, op, drift)
    t = float(start_time)
    mass0 = u.mass()
    threshold = QUIESCENT_SPEED * max(mass0, 1.0)

    def note(state: Field, pressure: Field, faces: list, time: float):
        k = len(traj.times)
        traj.times.append(time)
        traj.diagnostics.append(record(state, time, exp, op, confined=confined,
                                       pressure=pressure, faces=faces))
        if on_record is None:
            traj.snapshots.append(state)
        else:
            on_record(k, time, state)

    note(u, p, faces, t)
    steps = 0
    while t < stop:
        vals, dt, low = _upwind_step(u.values, faces, op, cfg.cfl_safety,
                                     cfg.end_time - t)
        t += dt
        steps += 1
        if mass0 > threshold:
            drift_rel = abs(vol * float(vals.sum()) - mass0) / mass0
            if drift_rel > 1e-9:
                raise NumericalAbort(
                    f"cumulative mass drift {drift_rel:.3e} exceeds 1e-9 at t = {t:.6g}"
                )
        if low < 0.0:
            raise NumericalAbort(f"positivity lost at t = {t:.6g} (min {low:.3e})")
        u = Field(grid, vals)
        u.kind = "density"  # low >= 0 was just checked; skip the constructor's min
        p = op.inverse(u)
        faces = upwind_faces(vals, p.values, op, drift)
        if steps % cfg.snapshot_stride == 0 or t >= stop:
            note(u, p, faces, t)
    traj.steps = steps
    return traj
