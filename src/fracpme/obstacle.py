"""Parabolic-obstacle solutions: the stationary profile pair of the rescaled flow.

The pair (P, V): P >= Phi = C - a|y|^2 with equality on the contact set,
V = (-Lap)^s P >= 0 supported there, and V (P - Phi) = 0.  The coefficient
a = beta/2 is fixed by the similarity exponent of (n, s), so the level C is
the one free parameter.  V is taken as the
unknown: for compactly supported V the pressure P = K V is the exact
free-space potential, so P -> 0 at infinity holds by kernel decay rather than
by boundary conditions, and the unknown lives only on cells with
|y| <= sqrt(C/a) + 2h (the contact set sits strictly inside the parabola's
positivity ball).  There the system is the linear complementarity problem

    V >= 0,   W V - Phi >= 0,   V^T (W V - Phi) = 0

with W the symmetric positive definite kernel restricted to those cells.  A
primal-dual active-set loop solves it: each pass solves W v = Phi on the
current free set {V > 0} by the module's own conjugate gradients, with every
product W v done by the operator's FFT convolution, so W is never formed.
The result is re-verified on the full grid.

A target mass M has one route, `match_mass`: one bracketed regula falsi
search for the level C whose discrete mass equals M on the given grid.  Every
probe level is capped at the largest C the box admits with its margin, and a
box whose largest level still holds less than M is rejected with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import FracOperator, FracParams
from .grid import Field, Grid
from .remap import resample

MARGIN_FACTOR = 1.5
BOX_FACTOR = 3.0  # make_problem's box half-width over the parabola radius
SOLVE_TOL = 1e-9  # relative contact and pressure-deficit tolerance
ACTIVE_SET_MAX_PASSES = 100


def _max_level(a: float, grid: Grid) -> float:
    """Largest level C whose positivity ball fits the box with the margin."""
    return a * (grid.half_width / MARGIN_FACTOR) ** 2


@dataclass(frozen=True)
class ObstacleProblem:
    """Parabolic obstacle Phi = C - a|y|^2 on a freespace grid, with
    a = beta/2 fixed by (grid.dim, s).

    The grid box must contain the parabola's positivity ball
    {|y| < sqrt(C/a)} with a factor >= 1.5 to spare, so the free boundary
    never competes with the box edge.
    """

    C: float
    s: float
    grid: Grid

    def __post_init__(self):
        FracParams(self.s, self.grid.dim)  # the s-range and 1-D rules
        if self.C > _max_level(self.a, self.grid):
            needed = MARGIN_FACTOR * float(np.sqrt(self.C / self.a))
            raise ValueError(
                f"grid half-width {self.grid.half_width} below the required "
                f"margin {needed:.6g} = 1.5 sqrt(C/a)"
            )

    @property
    def a(self) -> float:
        """Parabola coefficient beta/2 of the similarity exponents."""
        return FracParams(self.s, self.grid.dim).a

    @property
    def parabola_radius(self) -> float:
        """Radius where the obstacle crosses zero; free boundary sits inside it."""
        return float(np.sqrt(max(self.C, 0.0) / self.a))

    def obstacle_values(self) -> np.ndarray:
        return self.C - self.a * self.grid.radius2()

    def cells(self) -> np.ndarray:
        """Flat indices of the unknowns: the cells within parabola_radius + 2h."""
        reach = self.parabola_radius + 2.0 * self.grid.spacing
        return np.nonzero(self.grid.radius2().ravel() <= reach**2)[0]


def make_problem(C: float, n: int, s: float, points_per_axis: int) -> ObstacleProblem:
    """Problem on the default box: half-width BOX_FACTOR * sqrt(C/a)."""
    a = FracParams(s, n).a
    if C <= 0.0:
        raise ValueError(f"default sizing needs C > 0, got {C}")
    half = BOX_FACTOR * float(np.sqrt(C / a))
    return ObstacleProblem(C=C, s=s, grid=Grid(n, half, points_per_axis))


@dataclass
class ObstacleSolution:
    """Profile pair with its full-grid residuals; `sweeps` counts the
    active-set passes the solve took."""

    problem: ObstacleProblem
    pressure: Field
    density: Field
    contact_mask: Field
    contact_radius: float
    residuals: dict
    sweeps: int

    @property
    def mass(self) -> float:
        return self.density.mass()


@np.errstate(over="ignore", invalid="ignore")
def _cg(matvec, b: np.ndarray) -> tuple:
    """Unpreconditioned conjugate gradients for matvec(x) = b from x = 0, with
    the arithmetic of scipy's ``cg(rtol=1e-15, atol=0)``: stop once
    |r| < 1e-15 |b|.  Returns (x, 0), or (x, 10 len(b)) when that many
    iterations leave it unconverged, or (x, -1) once r.r is not finite (the
    problem's scale overflows; numpy's overflow warnings are off here); a
    zero or empty b returns at once."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b, 0
    x, r, p = np.zeros(b.size), b.copy(), None
    for _ in range(10 * b.size):
        rho = np.dot(r, r)
        if not math.isfinite(rho):
            return x, -1
        if math.sqrt(rho) < 1e-15 * bnorm:  # numpy's norm of r, bit for bit
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * b.size


def _active_set_solve(op: FracOperator, phi: np.ndarray, cells: np.ndarray) -> tuple:
    """Primal-dual active-set loop (Hintermueller-Ito-Kunisch) on LCP(W, -phi),
    W the kernel restricted to the flat indices `cells`, never formed.

    Each pass solves W_FF v_F = phi_F by `_cg` on the free set F (a principal
    block of an SPD kernel) with every product done by `op.convolve` on the
    full grid, then resets F to {v - (W v - phi) > 0}.  Returns (V, P,
    passes) once F repeats, P the full-grid potential of V from the last
    pass; raises RuntimeError on a revisited set, on the pass cap, or on a
    CG that reaches its iteration cap."""
    grid = op.grid
    full = np.zeros(grid.npoints)

    def potential(v: np.ndarray, sel: np.ndarray) -> np.ndarray:
        full[:] = 0.0
        full[sel] = v
        return op.convolve(full.reshape(grid.shape))

    free = phi > 0.0
    seen = set()
    for passes in range(1, ACTIVE_SET_MAX_PASSES + 1):
        seen.add(free.tobytes())
        v = np.zeros(phi.size)
        sel = cells[free]
        v[free], info = _cg(lambda x: potential(x, sel).ravel()[sel], phi[free])
        pressure = potential(v, cells)
        r = pressure.ravel()[cells] - phi
        res = float(np.abs(np.minimum(v, r)).max())
        if info != 0:
            raise RuntimeError(f"obstacle CG stopped with info {info} in active-set "
                               f"pass {passes} (residual {res:.3e})")
        nxt = v - r > 0.0
        if np.array_equal(nxt, free):
            return v, pressure, passes
        if nxt.tobytes() in seen:
            raise RuntimeError(f"obstacle active set cycles at pass {passes} "
                               f"(residual {res:.3e})")
        free = nxt
    raise RuntimeError(f"obstacle active set did not settle in {ACTIVE_SET_MAX_PASSES} "
                       f"passes (residual {res:.3e})")


def solve_obstacle(prob: ObstacleProblem) -> ObstacleSolution:
    """Stationary profile pair for the parabolic obstacle.

    The contact set and the pressure-deficit abort are measured against
    SOLVE_TOL * max(C, max V).  Raises RuntimeError (with the residual in the
    message) if the active-set loop fails to settle.  A level C <= 0 takes
    the same route: its first free set is empty, so one pass returns the
    zero profile.
    """
    grid = prob.grid
    op = FracOperator(grid, FracParams(s=prob.s, dim=grid.dim))
    phi_full = prob.obstacle_values()
    r2 = grid.radius2()
    idx = prob.cells()
    v_loc, p_full, sweeps = _active_set_solve(op, phi_full.ravel()[idx], idx)

    v_full = np.zeros(grid.npoints)
    v_full[idx] = v_loc
    density = Field(grid, v_full.reshape(grid.shape))
    pressure = Field(grid, p_full)

    gap = pressure.values - phi_full
    scale = max(prob.C, float(v_loc.max()))
    contact = gap <= 10.0 * SOLVE_TOL * scale
    contact_radius = float(np.sqrt(r2[contact].max())) if contact.any() else 0.0
    residuals = {
        "pressure_deficit": float(np.clip(-gap, 0.0, None).max()),
        "density_negativity": float(np.clip(-density.values, 0.0, None).max()),
        "complementarity": float(np.abs(density.values * gap).max()),
        "lcp_residual": float(np.abs(np.minimum(v_full.reshape(grid.shape),
                                                gap)).max()),
    }
    if residuals["pressure_deficit"] > SOLVE_TOL * scale * 10.0:
        raise RuntimeError(
            f"pressure dips below the obstacle by {residuals['pressure_deficit']:.3e} "
            "outside the solved region; enlarge the grid box"
        )
    return ObstacleSolution(
        problem=prob, pressure=pressure, density=density,
        contact_mask=Field(grid, contact), contact_radius=contact_radius,
        residuals=residuals, sweeps=sweeps,
    )


def barenblatt_at(sol: ObstacleSolution, t: float) -> Field:
    """The self-similar solution through the profile,
    U_C(x, t) = (1+t)^(-alpha) V_C(x (1+t)^(-beta)), at time t > -1 on the
    profile's grid.  The conservative remap carries the amplitude factor
    exactly, so the mass is t-independent."""
    if t <= -1.0:
        raise ValueError(f"self-similar time must exceed -1, got {t}")
    params = FracParams(sol.problem.s, sol.problem.grid.dim)
    # resample yields V(lam x) with mass / lam^n; lam = (1+t)^-beta plus the
    # (1+t)^-alpha amplitude leaves the mass exactly t-independent
    out = resample(sol.density, sol.density.grid, lam=(1.0 + t) ** -params.beta)
    return Field(out.grid, (1.0 + t) ** -params.alpha * out.values)


def scaling_check(sol1: ObstacleSolution, sol_c: ObstacleSolution) -> float:
    """Maximum deviation of sol_c's density from the dilation law applied to
    sol1, relative to sol_c's peak.

    V_C(y) = (C/C1)^(1-s) V_1(y / sqrt(C/C1)); sol1 is conservatively
    resampled onto sol_c's grid, so the deviation includes one interpolation
    error."""
    ratio = sol_c.problem.C / sol1.problem.C
    # resample gives V1(y/lam) for dilation factor 1/lam = 1/sqrt(ratio)
    v_pred = resample(sol1.density, sol_c.density.grid, lam=1.0 / float(np.sqrt(ratio)))
    v_pred = v_pred.values * ratio ** (1.0 - sol1.problem.s)
    return float(np.abs(sol_c.density.values - v_pred).max()) / sol_c.density.linf()


def mass_law(solutions: list) -> tuple:
    """Fit mass = c * C^p over the solved family; returns (p, c).

    Needs at least 4 levels spanning a factor of 8 in C."""
    cs = np.array([s.problem.C for s in solutions], dtype=float)
    masses = np.array([s.mass for s in solutions], dtype=float)
    if len(cs) < 4:
        raise ValueError(f"need at least 4 solutions, got {len(cs)}")
    if cs.min() <= 0.0 or masses.min() <= 0.0:
        raise ValueError("mass-law fit needs positive C and positive masses")
    if cs.max() / cs.min() < 8.0:
        raise ValueError(
            f"C values span only a factor {cs.max() / cs.min():.3g}; need >= 8"
        )
    slope, intercept = np.polyfit(np.log(cs), np.log(masses), 1)
    return float(slope), float(np.exp(intercept))


def match_mass(mass: float, s: float, grid: Grid) -> ObstacleSolution:
    """Profile on `grid` whose discrete mass equals `mass` to 1e-12 relative,
    or as nearly as any float level allows.

    The power law only predicts the continuum mass; quadrature shifts it by
    O(h^2), which would leave a spurious floor in any density comparison at
    matched mass.  So search on the level C instead (mass is increasing in
    C).  The bracket's lower end is the level a min|y|^2 (a (h/2)^2 in 1-D),
    at which no cell center holds mass, so its gap is -mass without a solve.
    The upper end starts at the power-law seed and doubles until it holds
    `mass`, capped at the largest level the box admits; if even that level
    holds less, the box is too small and ValueError is raised.  Regula falsi
    (Illinois) then closes the bracket, down to adjacent floats if it must,
    solving each level once.
    """
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    a = FracParams(s, grid.dim).a
    c_max = _max_level(a, grid)
    by_level = {}

    def gap(level: float) -> float:
        if level not in by_level:
            by_level[level] = solve_obstacle(ObstacleProblem(C=level, s=s, grid=grid))
        return by_level[level].mass - mass

    # Phi = C - a|y|^2 is positive at no cell center while C <= a min|y|^2
    lo, g_lo = float(a * grid.radius2().min()), -mass
    # the power law with coefficient 1: the true prefactor is O(1)
    hi = min(max(mass ** (2.0 / (grid.dim + 2.0 - 2.0 * s)), lo), c_max)
    while (g_hi := gap(hi)) < 0.0:
        if hi >= c_max:
            raise ValueError(
                f"box too small for mass {mass:g}: the largest level it admits, "
                f"C = {c_max:.6g}, holds mass {g_hi + mass:.6g}"
            )
        lo, g_lo = hi, g_hi
        hi = min(2.0 * hi, c_max)
    # Illinois: an end kept twice has its gap halved; every probe is at least
    # one float inside the bracket, and a closed bracket keeps the nearer end
    level, g, kept = hi, g_hi, 0
    while abs(g) > 1e-12 * mass:
        level = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        level = min(max(level, np.nextafter(lo, hi)), np.nextafter(hi, lo))
        if not lo < level < hi:
            level = min(lo, hi, key=lambda c: abs(gap(c)))
            break
        g = gap(level)
        if g < 0.0:
            lo, g_lo = level, g
            g_hi, kept = (g_hi / 2.0 if kept > 0 else g_hi), 1
        else:
            hi, g_hi = level, g
            g_lo, kept = (g_lo / 2.0 if kept < 0 else g_lo), -1
    return by_level[level]
