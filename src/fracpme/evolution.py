"""Explicit conservative time stepping for the nonlocal-pressure flow.

Physical form: u_t = div(u grad K u).  Rescaled (Fokker-Planck) form, reached
through y = x (1+t)^(-beta), tau = log(1+t), v = (1+t)^alpha u:
v_tau = div(v (grad K v + beta y)).

Both are advanced by the same first-order upwind finite-volume step.  The flux
through a face is the face velocity times the upwind cell value, where the
face velocity is minus the difference of adjacent pressure cells over h (plus
the exact confining drift -beta y_face in rescaled form).  Flux form makes the
discrete mass exactly conserved (zero-flux box boundary in freespace mode,
wrap-around in periodic mode), and the time step is chosen from the largest
per-cell sum of outgoing face speeds, which is the sharp positivity bound:
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
from .fracops import PERIODIC, FracOperator
from .grid import Field
from .remap import resample

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
    snapshots: list = field(default_factory=list)
    diagnostics: DiagnosticsSeries = field(default_factory=DiagnosticsSeries)
    steps: int = 0  # accepted steps; len(times) counts records, not steps

    def final(self) -> Field:
        return self.snapshots[-1]


def _face_velocities(u_values: np.ndarray, op: FracOperator,
                     drift_beta: float | None) -> list:
    """Per-axis face velocities.  Freespace: N-1 interior faces (zero-flux box
    boundary); periodic: N faces with wrap.  Drift adds -beta y exactly at the
    face positions (rescaled form only)."""
    grid = op.grid
    h = grid.spacing
    p = op.inverse(Field(grid, u_values)).values
    out = []
    for ax in range(grid.dim):
        if op.mode == PERIODIC:
            w = -(np.roll(p, -1, axis=ax) - p) / h  # face i+1/2 for each i
        else:
            w = -np.diff(p, axis=ax) / h
            if drift_beta is not None:
                faces = grid.interior_faces()
                shape = [1] * grid.dim
                shape[ax] = faces.size
                w = w - drift_beta * faces.reshape(shape)
        out.append(w)
    return out


def _stable_dt(face_w: list, h: float, dim: int, periodic: bool,
               cfl_safety: float, diffusion_rate: float = 0.0) -> float:
    """cfl_safety times the sharper of the two step bounds: h over the largest
    per-cell sum of outgoing face speeds (advective positivity), and
    2 / diffusion_rate (non-amplification of the linearized pressure
    diffusion, rate = u_max * operator stiffness; it scales like h^(2-2s)
    and binds on fine grids when s < 1/2)."""
    outflow = None
    for ax, w in enumerate(face_w):
        if periodic:
            out_right = np.maximum(w, 0.0)                      # through face i+1/2
            out_left = np.maximum(-np.roll(w, 1, axis=ax), 0.0)  # through face i-1/2
        else:
            pad = [(0, 0)] * dim
            pad[ax] = (0, 1)
            out_right = np.pad(np.maximum(w, 0.0), pad)
            pad[ax] = (1, 0)
            out_left = np.pad(np.maximum(-w, 0.0), pad)
        contrib = out_right + out_left
        outflow = contrib if outflow is None else outflow + contrib
    peak = float(outflow.max())
    if not np.isfinite(peak):
        raise NumericalAbort("non-finite velocity (operator blowup)")
    if peak < QUIESCENT_SPEED:
        # zero flux everywhere: the state is an exact fixed point of the
        # update and the diffusion bound has nothing to amplify
        return DT_MAX
    dt = cfl_safety * h / peak
    if diffusion_rate >= QUIESCENT_SPEED:
        dt = min(dt, cfl_safety * 2.0 / diffusion_rate)
    return min(dt, DT_MAX)


def _upwind_divergence(u: np.ndarray, face_w: list, h: float, periodic: bool) -> np.ndarray:
    """div(u w) from upwind face fluxes; boundary faces carry zero flux."""
    div = np.zeros_like(u)
    for ax, w in enumerate(face_w):
        if periodic:
            upwind = np.where(w > 0.0, u, np.roll(u, -1, axis=ax))
            flux = w * upwind
            div += (flux - np.roll(flux, 1, axis=ax)) / h
        else:
            lo = [slice(None)] * u.ndim
            hi = [slice(None)] * u.ndim
            lo[ax] = slice(None, -1)
            hi[ax] = slice(1, None)
            upwind = np.where(w > 0.0, u[tuple(lo)], u[tuple(hi)])
            flux = w * upwind
            pad = [(0, 0)] * u.ndim
            pad[ax] = (1, 1)
            padded = np.pad(flux, pad)
            div += (padded[tuple(hi)] - padded[tuple(lo)]) / h
    return div


def _step(u: Field, op: FracOperator, cfg: SolverConfig, drift_beta: float | None,
          dt_cap: float | None) -> tuple:
    if u.values.min() < 0.0:
        raise NumericalAbort(f"negative density entering step (min {u.values.min():.3e})")
    periodic = op.mode == PERIODIC
    h = u.grid.spacing
    face_w = _face_velocities(u.values, op, drift_beta)
    rate = float(u.values.max()) * op.stiffness_bound()
    dt = _stable_dt(face_w, h, u.grid.dim, periodic, cfg.cfl_safety,
                    diffusion_rate=rate)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    new_vals = u.values - dt * _upwind_divergence(u.values, face_w, h, periodic)
    # The convex-combination positivity bound is exact in exact arithmetic,
    # but the flux-difference form can leave -O(eps * peak) dust when the
    # bound is tight.  Zero only that dust; deeper negatives are genuine.
    floor = -1e-12 * max(float(u.values.max()), 1.0)
    dust = (new_vals < 0.0) & (new_vals >= floor)
    if dust.any():
        new_vals[dust] = 0.0
    return Field(u.grid, new_vals, "density"), dt


def step_physical(u: Field, op: FracOperator, cfg: SolverConfig,
                  dt_cap: float | None = None) -> tuple:
    """One upwind step of u_t = div(u grad K u); returns (new field, dt)."""
    return _step(u, op, cfg, None, dt_cap)


def step_rescaled(v: Field, op: FracOperator, exp: Exponents, cfg: SolverConfig,
                  dt_cap: float | None = None) -> tuple:
    """One upwind step of v_tau = div(v (grad K v + beta y)); returns (field, dtau)."""
    if op.mode == PERIODIC:
        raise ValueError("the confining drift beta*y is not periodic; use freespace mode")
    return _step(v, op, cfg, exp.beta, dt_cap)


def rescale_forward(u: Field, t: float, exp: Exponents) -> tuple:
    """(v, tau) with v(y) = (1+t)^alpha u(y (1+t)^beta), tau = log(1+t).

    Conservative remap onto the same grid; mass is preserved exactly because
    alpha = n beta.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    lam = (1.0 + t) ** exp.beta
    v = resample(u, u.grid, lam=lam)
    return v.with_values((1.0 + t) ** exp.alpha * v.values), float(np.log1p(t))


def rescale_backward(v: Field, tau: float, exp: Exponents) -> tuple:
    """Inverse of rescale_forward: (u, t) with t = e^tau - 1."""
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    t = float(np.expm1(tau))
    lam = (1.0 + t) ** (-exp.beta)
    u = resample(v, v.grid, lam=lam)
    return u.with_values((1.0 + t) ** (-exp.alpha) * u.values), t


def run(u0: Field, mode: str, cfg: SolverConfig, op: FracOperator,
        exp: Exponents) -> Trajectory:
    """Advance u0 to cfg.end_time, recording diagnostics every snapshot_stride
    accepted steps (plus the initial and final states).

    Aborts (NumericalAbort) on cumulative mass drift above 1e-9 relative, on
    any negative value, and on non-finite velocities.
    """
    if mode not in ("physical", "rescaled"):
        raise ValueError(f"unknown run mode {mode!r}")
    if not np.isfinite(u0.values).all():
        raise ValueError("initial datum has non-finite entries")
    if u0.values.min() < 0.0:
        raise ValueError("initial datum must be nonnegative")
    drift = exp.beta if mode == "rescaled" else None
    confined = mode == "rescaled"
    traj = Trajectory()
    u = Field(u0.grid, u0.values.copy(), "density")
    t = 0.0
    mass0 = u.mass()
    threshold = QUIESCENT_SPEED * max(mass0, 1.0)

    def note(state: Field, time: float):
        traj.times.append(time)
        traj.snapshots.append(state.copy())
        traj.diagnostics.append(record(state, time, exp, op, confined=confined))

    note(u, t)
    steps = 0
    while t < cfg.end_time - 1e-15 * max(cfg.end_time, 1.0):
        u, dt = _step(u, op, cfg, drift, dt_cap=cfg.end_time - t)
        t += dt
        steps += 1
        if mass0 > threshold:
            drift_rel = abs(u.mass() - mass0) / mass0
            if drift_rel > 1e-9:
                raise NumericalAbort(
                    f"cumulative mass drift {drift_rel:.3e} exceeds 1e-9 at t = {t:.6g}"
                )
        if u.values.min() < 0.0:
            raise NumericalAbort(f"positivity lost at t = {t:.6g} (min {u.values.min():.3e})")
        if steps % cfg.snapshot_stride == 0 or t >= cfg.end_time - 1e-15 * max(cfg.end_time, 1.0):
            note(u, t)
    traj.steps = steps
    return traj
