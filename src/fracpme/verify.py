"""Numbered self-checks: measured values against fixed targets.

Fourteen checks cover the operator identities, conservation and
monotonicity of the stepper, the decay and propagation laws, the
entropy budget, the obstacle solver against dense oracles, the scaling
relations of the stationary profile, and the convergence of the
rescaled flow to it.  Every profile comes from the one obstacle solver
on the grid it is compared on: the self-similar solution through a
profile at time t is the profile at level C (1+t)^(2 beta) over 1 + t
(`_self_similar`), and the dilation law compares make_problem boxes cell
by cell, so no check interpolates.  `run_suite(quick, out_dir)` prints one
line per check and writes out_dir/verify_results.csv; the command layer
turns the boolean into an exit status.

The long runs and solves that checks read (artifacts) are built first,
longest first, by `fanout.fan_out`; the checks then run in order in this
process, so the scoreboard and verify_results.csv do not depend on the
number of cores.

Quick mode coarsens grids and doubles tolerances; step-count floors
and order bounds stay put.
"""

from __future__ import annotations

import functools
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import entropy_dissipation_identity_check, fit_power_law
from .evolution import FlowKernel, NumericalAbort, run
from .fanout import fan_out
from .fracops import FracOperator, FracParams
from .grid import Field, Grid
from .io import datum_box, datum_gaussian, datum_parabola_cap, write_diagnostics
from .obstacle import ObstacleProblem, make_problem, match_mass, solve_obstacle
from .oracles import (kernel_matrix, lemke_lcp, quadrature_taps_1d,
                      riesz_potential_gaussian)


@dataclass
class CheckResult:
    number: int
    name: str
    measured: str   # no commas: goes into a CSV cell verbatim
    target: str
    passed: bool

    def __post_init__(self):
        self.passed = bool(self.passed)  # a numpy comparison gives numpy.bool_


@dataclass
class Suite:
    quick: bool
    started: float
    cache: dict = field(default_factory=dict)

    def tol(self, value: float) -> float:
        """A check's headline tolerance `value`: doubled in quick mode."""
        return value * (2.0 if self.quick else 1.0)

    def pick(self, full, quick):
        return quick if self.quick else full

    def artifact(self, key: tuple):
        """The artifact `key` names as run_suite prefetched it, raised if its
        build raised; built now for a check called on its own."""
        if key not in self.cache:
            self.cache[key] = _build(key)
        value = self.cache[key]
        if isinstance(value, Exception):
            raise value
        return value


def _discard(k, t, state):
    """on_record for runs read only through their diagnostics."""


def _l1(a: Field, b: Field) -> float:
    vol = a.grid.spacing ** a.grid.dim
    return float(np.abs(a.values - b.values).sum() * vol)


# shared expensive artifacts, built once per suite run; a key is
# (kind, *arguments of the kind's builder)

def _decay_2d(n_pts: int):
    """Diagnostics of a long 2-D physical run from a box (decay check)."""
    g = Grid(2, 8.0, n_pts)
    return run(datum_box(g, 0.0, 2.0, 1.0), "physical", 0.5, 100.0,
               snapshot_stride=10, cfl_safety=0.4, on_record=_discard).diagnostics


def _mass_run(mode: str, n_pts: int, cfl: float, end_time: float) -> tuple:
    """(relative mass drift, steps, minimum over the recorded states) of a
    long run from a box recording only its first and last states."""
    g = Grid(1, 12.0, n_pts)
    low = []
    traj = run(datum_box(g, 0.0, 2.0, 1.0), mode, 0.25, end_time, snapshot_stride=10 ** 9,
               cfl_safety=cfl, on_record=lambda k, t, state: low.append(state.values.min()))
    m = traj.diagnostics["mass"]
    return abs(m[-1] - m[0]) / m[0], traj.steps, min(low)


def _smoothing_1d(n_pts: int):
    """Diagnostics of a long physical run from a box (decay and rate checks)."""
    g = Grid(1, 12.0, n_pts)
    return run(datum_box(g, 0.0, 2.0, 1.0), "physical", 0.25, 100.0,
               snapshot_stride=5, cfl_safety=0.4, on_record=_discard).diagnostics


def _relaxation(n_pts: int):
    """Diagnostics of a rescaled relaxation from a Gaussian (entropy checks)."""
    g = Grid(1, 6.0, n_pts)
    return run(datum_gaussian(g, 0.8), "rescaled", 0.25, 2.0,
               snapshot_stride=1, cfl_safety=0.3, on_record=_discard).diagnostics


def _settled(n_pts: int, width: float, height: float) -> Field:
    """Terminal state of a mass-2 box datum after a long rescaled run."""
    g = Grid(1, 12.0, n_pts)
    states = []
    run(datum_box(g, 0.0, width, height), "rescaled", 0.25, 8.0, snapshot_stride=10 ** 9,
        cfl_safety=0.4, on_record=lambda k, t, state: states.append(state))
    return states[-1]


# builder of each kind, longest first in full mode: the prefetch order.
# Serial in-process medians of three on a 2-core VM, over two runs, quick /
# full mode: decay_2d 0.24-0.40 / 2.7-3.0 s, each mass_run 0.40-0.68 /
# 0.54-0.84 s, smoothing_1d 0.07-0.12 / 0.13 s, every other artifact at
# most 0.05 / 0.12 s
_BUILDERS = {
    "decay_2d": _decay_2d,
    "mass_run": _mass_run,
    "smoothing_1d": _smoothing_1d,
    "relaxation": _relaxation,
    "settled": _settled,
    "mass_profile": match_mass,
    "profile": solve_obstacle,
}


def _build(key: tuple):
    return _BUILDERS[key[0]](*key[1:])


def _reads(keys):
    """Decorate check(ctx, *artifacts): it is handed the artifacts named by
    keys(ctx), in order.  keys stays on the check as `reads`, so that
    run_suite can prefetch what the checks in CHECKS read."""
    def decorate(body):
        @functools.wraps(body)
        def check(ctx: Suite) -> CheckResult:
            return body(ctx, *(ctx.artifact(key) for key in keys(ctx)))
        check.reads = keys
        return check
    return decorate


def _smoothing(ctx: Suite) -> tuple:
    return ("smoothing_1d", ctx.pick(384, 256))


def _unit_level(n_pts: int) -> tuple:
    return ("profile", make_problem(1.0, 1, 0.25, n_pts))


def _mass_profile(n_pts: int) -> tuple:
    """Key of the profile of mass 2 (the limit of the settled runs)."""
    return ("mass_profile", 2.0, 0.25, Grid(1, 12.0, n_pts))


def _conservation_runs(ctx: Suite) -> list:
    # cfl tuned so both runs clear 1e4 steps at either resolution
    n_pts, cfl_p, cfl_r = ctx.pick((1024, 0.4, 0.4), (512, 0.2, 0.15))
    return [("mass_run", "physical", n_pts, cfl_p, 100.0),
            ("mass_run", "rescaled", n_pts, cfl_r, 16.0)]


def _limit_pair(ctx: Suite) -> list:
    """A settled run and the profile of its mass, on the same grid."""
    n_pts = ctx.pick(512, 256)
    return [("settled", n_pts, 2.0, 1.0), _mass_profile(n_pts)]


# the fourteen checks

def _gaussian_potential_error(grid: Grid, s: float) -> float:
    """Maximum error of the potential of a sampled unit Gaussian against its
    closed form, relative to the largest value."""
    r2 = grid.radius2()
    op = FracOperator(grid, FracParams(s=s, dim=grid.dim))
    got = op.convolve(np.exp(-r2 / 2.0))
    ref = riesz_potential_gaussian(r2, grid.dim, s)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _check_operators(ctx: Suite) -> CheckResult:
    # the convolution against kernel weights recomputed by quadrature
    g = Grid(1, 6.0, ctx.pick(512, 256))
    f = np.exp(-g.axis() ** 2 / 2.0)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    got = op.convolve(f)
    taps = quadrature_taps_1d(g, 0.25)
    idx = np.abs(np.arange(g.points_per_axis)[:, None]
                 - np.arange(g.points_per_axis)[None, :])
    ref = taps[idx] @ f
    kernel_dev = float(np.abs(got - ref).max() / np.abs(ref).max())
    tol_kernel = ctx.tol(1e-6)
    measured = [f"kernel {kernel_dev:.2e}"]
    target = [f"kernel <= {tol_kernel:.0e}"]
    ok = kernel_dev <= tol_kernel
    # the whole operator (taps, embedding, pruned FFT) against the closed-form
    # potential of a Gaussian, at N and N/2: error at N and the observed order
    for dim, s, half_width, n_pts, bound in ((1, 0.25, 12.0, ctx.pick(1024, 512), 1e-4),
                                             (2, 0.5, 10.0, ctx.pick(256, 128), 2e-3)):
        coarse, fine = (_gaussian_potential_error(Grid(dim, half_width, m), s)
                        for m in (n_pts // 2, n_pts))
        order = float(np.log2(coarse / fine))
        tol = ctx.tol(bound)
        measured.append(f"gauss{dim}d {fine:.2e} order {order:.2f}")
        target.append(f"gauss{dim}d <= {tol:.0e} order >= 1.5")
        ok = ok and fine <= tol and order >= 1.5
    return CheckResult(1, "operator identities", "; ".join(measured),
                       "; ".join(target), ok)


@_reads(_conservation_runs)
def _check_conservation(ctx: Suite, *runs) -> CheckResult:
    drift, steps, low = zip(*runs)
    tol = ctx.tol(1e-9)
    ok = (max(drift) <= tol and min(steps) >= 10 ** 4 and min(low) >= 0.0)
    return CheckResult(
        2, "mass conservation and positivity",
        f"drift {max(drift):.1e}; steps {min(steps)}; min {min(low):.1e}",
        f"drift <= {tol:.0e}; steps >= 1e4; min >= 0",
        ok)


def _check_monotone_norms(ctx: Suite) -> CheckResult:
    g = Grid(1, 6.0, ctx.pick(256, 128))
    traj = run(datum_box(g, 0.0, 2.0, 1.0), "physical", 0.25, 2.0,
               snapshot_stride=1, cfl_safety=0.4, on_record=_discard)
    worst = -np.inf
    for col in ("linf", "l2", "l4"):
        y = traj.diagnostics[col]
        worst = max(worst, float((np.diff(y) / y[:-1]).max()))
    tol = ctx.tol(1e-8)
    return CheckResult(
        3, "monotone norms",
        f"max per-step rise {worst:+.1e}",
        f"<= {tol:.0e}",
        worst <= tol)


@_reads(lambda ctx: [_smoothing(ctx), ("decay_2d", ctx.pick(256, 128))])
def _check_peak_decay(ctx: Suite, diag1, diag2) -> CheckResult:
    slope1 = fit_power_law(diag1, "linf", (10.0, 100.0))
    slope2 = fit_power_law(diag2, "linf", (10.0, 100.0))
    tol1 = ctx.tol(0.04)    # 10% of 0.4
    tol2 = ctx.tol(0.10)    # 15% of 2/3
    ok = abs(slope1 + 0.4) <= tol1 and abs(slope2 + 2.0 / 3.0) <= tol2
    return CheckResult(
        4, "peak decay exponents",
        f"1-D {slope1:.4f}; 2-D {slope2:.4f}",
        f"-0.4 +- {tol1:.2f}; -2/3 +- {tol2:.2f}",
        ok)


def _check_propagation(ctx: Suite) -> CheckResult:
    g = Grid(1, 4.0, ctx.pick(512, 256))
    h = g.spacing
    records = []
    traj = run(datum_parabola_cap(g, 1.0, 1.0), "physical", 0.25, 1.0, snapshot_stride=5,
               cfl_safety=0.4, on_record=lambda k, t, state: records.append((t, state)))
    times = traj.diagnostics["time"]
    rad = traj.diagnostics["support_radius"]
    late = times >= 0.05
    speed = float(((rad[late] - 1.0) / times[late]).max())
    env_excess = float((rad - (1.0 + speed * times + 3.0 * h)).max())
    x = np.abs(g.axis())
    pw_excess = -np.inf
    for t, snap in records:
        # one face of numerical dust shifts the front by up to two cells
        bound = np.clip(speed * t - (x - 1.0 - 2.0 * h), 0.0, None) ** 2
        pw_excess = max(pw_excess, float((snap.values - bound).max()))
    tol = ctx.tol(1e-8)
    ok = speed <= 5.0 and env_excess <= 0.0 and pw_excess <= tol
    return CheckResult(
        5, "finite propagation envelope",
        f"speed {speed:.3f}; envelope {env_excess:+.1e}; "
        f"pointwise {pw_excess:+.1e}",
        f"speed <= 5; envelope <= 0; pointwise <= {tol:.0e}",
        ok)


# the same relaxation at two resolutions
@_reads(lambda ctx: [("relaxation", ctx.pick(256, 128)),
                     ("relaxation", ctx.pick(512, 256))])
def _check_entropy_identity(ctx: Suite, coarse, fine) -> CheckResult:
    m_c = entropy_dissipation_identity_check(coarse, (0.5, 1.5))
    m_f = entropy_dissipation_identity_check(fine, (0.5, 1.5))
    order = float(np.log2(m_c / m_f))
    tol = ctx.tol(0.05)
    ok = m_f <= tol and order >= 1.0
    return CheckResult(
        6, "entropy-dissipation identity",
        f"mismatch {m_f:.4f}; order {order:.2f}",
        f"mismatch <= {tol:.2f}; order >= 1",
        ok)


@_reads(lambda ctx: [("relaxation", ctx.pick(512, 256))])
def _check_entropy_budget(ctx: Suite, fine) -> CheckResult:
    t, e, i = fine["time"], fine["entropy"], fine["dissipation"]
    max_rise = float(np.diff(e).max())
    integral = float(np.trapezoid(i, t))
    slack = ctx.tol(1e-6) * e[0]
    budget_gap = integral - (e[0] - e[-1]) - slack
    ok = max_rise <= 1e-12 * abs(e[0]) and budget_gap <= 0.0
    return CheckResult(
        7, "entropy monotonicity and budget",
        f"max rise {max_rise:+.1e}; budget gap {budget_gap:+.1e}",
        "rise <= 1e-12*E0; gap <= 0",
        ok)


@_reads(lambda ctx: [_unit_level(ctx.pick(512, 256)), _unit_level(128)])
def _check_obstacle(ctx: Suite, sol, ref_sol) -> CheckResult:
    scale = max(1.0, sol.density.linf())
    comp = sol.residuals["complementarity"]
    radius_ok = sol.contact_radius < sol.problem.parabola_radius
    # the contact set must be one symmetric interval of cells
    mask = sol.contact_mask.values > 0.0
    idx = np.nonzero(mask)[0]
    axis = sol.problem.grid.axis()
    h = sol.problem.grid.spacing
    contiguous = bool(np.all(np.diff(idx) == 1))
    symmetric = abs(axis[idx[0]] + axis[idx[-1]]) <= h + 1e-12
    # dense pivoting oracle on the restricted system at 128 cells
    prob = ref_sol.problem
    keep = prob.cells()
    op = FracOperator(prob.grid, FracParams(s=prob.s, dim=prob.grid.dim))
    v_ref = lemke_lcp(kernel_matrix(op, keep),
                      -prob.obstacle_values().ravel()[keep])
    lcp_dev = float(np.abs(ref_sol.density.values.ravel()[keep] - v_ref).max())
    tol_comp = ctx.tol(1e-8) * scale
    tol_lcp = ctx.tol(1e-6)
    ok = (comp <= tol_comp and radius_ok and contiguous and symmetric
          and lcp_dev <= tol_lcp)
    return CheckResult(
        8, "obstacle complementarity and oracle",
        f"compl {comp:.1e}; pivot dev {lcp_dev:.1e}; "
        f"interval {contiguous and symmetric}",
        f"compl <= {tol_comp:.1e}; pivot <= {tol_lcp:.0e}; R inside",
        ok)


def _mass_law_families(ctx: Suite) -> list:
    """Four levels in 1-D (s = 1/4, L = 7) and four in 2-D (s = 1/2, L = 8)."""
    levels = (0.5, 1.0, 2.0, 4.0)
    grids = ((0.25, Grid(1, 7.0, ctx.pick(512, 256))), (0.5, Grid(2, 8.0, ctx.pick(96, 64))))
    return [("profile", ObstacleProblem(C=c, s=s, grid=g)) for s, g in grids for c in levels]


# default sizing makes the level-4 box exactly twice the level-1 box with
# the same N, so cell j of one grid is cell j of the other dilated by 2
@_reads(lambda ctx: [("profile", make_problem(c, 1, 0.25, ctx.pick(1024, 512)))
                     for c in (1.0, 4.0)] + _mass_law_families(ctx))
def _check_scaling(ctx: Suite, sol1, sol4, *families) -> CheckResult:
    # the dilation law V_4(y) = 4^(1-s) V_1(y/2), cell by cell
    v_pred = (sol4.problem.C / sol1.problem.C) ** (1.0 - sol1.problem.s) * sol1.density.values
    dev = float(np.abs(sol4.density.values - v_pred).max()) / sol4.density.linf()
    # the mass law mass = c C^p: p is the slope of the log-log fit per family
    p1, p2 = (float(np.polyfit(np.log([sol.problem.C for sol in family]),
                               np.log([sol.mass for sol in family]), 1)[0])
              for family in (families[:4], families[4:]))
    tol_dev = ctx.tol(0.02)
    tol_p1 = ctx.tol(0.025)   # 2% of 1.25
    tol_p2 = ctx.tol(0.03)    # 2% of 1.5
    ok = (dev <= tol_dev and abs(p1 - 1.25) <= tol_p1
          and abs(p2 - 1.5) <= tol_p2)
    return CheckResult(
        9, "profile scaling and mass law",
        f"scaling dev {dev:.1e}; exponents {p1:.4f} / {p2:.4f}",
        f"dev < {tol_dev:.2f}; 1.25 +- {tol_p1:.3f}; 1.5 +- {tol_p2:.2f}",
        ok)


def _self_similar(prob: ObstacleProblem, t: float) -> ObstacleProblem:
    """`prob` at level C (1+t)^(2 beta) on the same grid.  The dilation law
    V_C'(y) = (C'/C)^(1-s) V_C(y sqrt(C/C')) and alpha + (2-2s) beta = 1 make
    the self-similar solution U_C(x, t) = (1+t)^(-alpha) V_C(x (1+t)^(-beta))
    this problem's profile over 1 + t.  Raises ValueError once the level
    outgrows the box margin (t > 2^(1/beta) - 1 on make_problem's box)."""
    beta = FracParams(prob.s, prob.grid.dim).beta
    return replace(prob, C=prob.C * (1.0 + t) ** (2.0 * beta))


def _one_step_problems(ctx: Suite) -> list:
    return [make_problem(1.0, 1, 0.25, n) for n in ctx.pick((256, 512, 1024), (128, 256, 512))]


# the t = 1 profiles are prefetched; the t = 1 + dt ones wait for the step's dt
@_reads(lambda ctx: [("profile", _self_similar(prob, 1.0)) for prob in _one_step_problems(ctx)])
def _check_one_step(ctx: Suite, *sols) -> CheckResult:
    resids, ratios = [], []
    for prob, sol in zip(_one_step_problems(ctx), sols):
        u1 = Field(prob.grid, sol.density.values / 2.0)  # U(., t) = V / (1 + t) at t = 1
        op = FracOperator(prob.grid, FracParams(s=prob.s, dim=prob.grid.dim))
        kernel = FlowKernel(op, False, 0.4)
        faces = kernel.faces(u1.values, op.convolve(u1.values))
        dt = kernel.bound(faces, float(u1.values.max()))
        vals = u1.values - dt * kernel.divergence(faces)
        if vals.min() < 0.0:
            raise NumericalAbort(f"positivity lost in step (min {vals.min():.3e})")
        v_next = solve_obstacle(_self_similar(prob, 1.0 + dt)).density.values
        r = _l1(Field(prob.grid, vals), Field(prob.grid, v_next / (2.0 + dt)))
        resids.append(r)
        ratios.append(r / (dt * prob.grid.spacing))
    mean_order = float(np.log2(resids[0] / resids[-1]) / 2.0)
    tol = ctx.tol(3.0)
    decreasing = resids[0] > resids[1] > resids[2]
    ok = max(ratios) <= tol and decreasing and mean_order >= 1.0
    return CheckResult(
        10, "self-similar one-step residual",
        f"resid/(dt h) {max(ratios):.2f}; order {mean_order:.2f}",
        f"ratio <= {tol:.0f}; decreasing; order >= 1",
        ok)


@_reads(lambda ctx: _limit_pair(ctx) + [("settled", ctx.pick(512, 256), 1.0, 2.0)])
def _check_convergence(ctx: Suite, terminal, prof, twin) -> CheckResult:
    d1 = _l1(terminal, prof.density)
    dinf = float(np.abs(terminal.values - prof.density.values).max())
    d1_twin = _l1(twin, prof.density)
    ratio = max(d1, d1_twin) / min(d1, d1_twin)
    tol_1 = ctx.tol(0.01) * 2.0              # mass of the datum
    tol_inf = ctx.tol(0.01) * prof.density.linf()
    tol_ratio = ctx.tol(2.0)
    ok = d1 <= tol_1 and dinf <= tol_inf and ratio <= tol_ratio
    return CheckResult(
        11, "convergence to the profile",
        f"L1 {d1:.1e}; Linf {dinf:.1e}; twin ratio {ratio:.2f}",
        f"L1 <= {tol_1:.0e}; Linf <= {tol_inf:.1e}; ratio <= {tol_ratio:.0f}",
        ok)


# each scheme's floor: distance between its answers at N and N/2
@_reads(lambda ctx: _limit_pair(ctx) + [("settled", ctx.pick(256, 128), 2.0, 1.0),
                                        _mass_profile(ctx.pick(256, 128))])
def _check_terminal_match(ctx: Suite, terminal, prof, term_half,
                          prof_half) -> CheckResult:
    dist = _l1(terminal, prof.density)

    def pair_avg(values):
        return 0.5 * (values[0::2] + values[1::2])

    h_half = term_half.grid.spacing
    floor_run = float(np.abs(pair_avg(terminal.values)
                             - term_half.values).sum() * h_half)
    floor_obs = float(np.abs(pair_avg(prof.density.values)
                             - prof_half.density.values).sum() * h_half)
    allowance = ctx.tol(1.0) * max(floor_run, floor_obs)
    return CheckResult(
        12, "stationary limit equals profile",
        f"L1 {dist:.1e}; floors {floor_run:.1e} / {floor_obs:.1e}",
        f"L1 <= {allowance:.1e} (larger floor)",
        dist <= allowance)


@_reads(lambda ctx: [_smoothing(ctx)])
def _check_rate_fits(ctx: Suite, diag) -> CheckResult:
    m2 = fit_power_law(diag, "moment2", (10.0, 100.0))
    e1 = fit_power_law(diag, "energy1", (10.0, 100.0))
    tol_m2 = 0.8 + ctx.tol(0.1)    # 2*beta plus the allowed excess
    tol_e1 = ctx.tol(0.05)
    ok = m2 <= tol_m2 and abs(e1 + 0.2) <= tol_e1
    return CheckResult(
        13, "moment and energy rates",
        f"moment {m2:.4f}; energy {e1:.4f}",
        f"moment <= {tol_m2:.2f}; energy -0.2 +- {tol_e1:.2f}",
        ok)


def _check_harness(ctx: Suite) -> CheckResult:
    # repeat a representative run and demand byte-identical diagnostics
    def probe(path):
        g = Grid(1, 6.0, 128)
        traj = run(datum_box(g, 0.0, 2.0, 1.0), "physical", 0.25, 0.5,
                   snapshot_stride=1, cfl_safety=0.4, on_record=_discard)
        write_diagnostics(path, traj.diagnostics)
        return Path(path).read_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        identical = probe(Path(tmp) / "a.csv") == probe(Path(tmp) / "b.csv")
    elapsed = time.perf_counter() - ctx.started
    budget = 300.0 if ctx.quick else float("inf")
    ok = identical and elapsed < budget
    return CheckResult(
        14, "determinism and runtime budget",
        f"repeat identical {identical}",
        "bit-identical; quick suite < 300 s",
        ok)


CHECKS = (
    _check_operators, _check_conservation, _check_monotone_norms,
    _check_peak_decay, _check_propagation, _check_entropy_identity,
    _check_entropy_budget, _check_obstacle, _check_scaling,
    _check_one_step, _check_convergence, _check_terminal_match,
    _check_rate_fits, _check_harness,
)


def _prefetch(ctx: Suite) -> None:
    """Build every artifact the checks in CHECKS read into ctx.cache, longest
    first; a build that raises leaves its exception under its key."""
    reads = (key for check in CHECKS for key in getattr(check, "reads", lambda ctx: ())(ctx))
    kinds = list(_BUILDERS)
    keys = sorted(dict.fromkeys(reads), key=lambda key: kinds.index(key[0]))
    ctx.cache.update(zip(keys, fan_out(_build, keys)))


def run_suite(quick: bool, out_dir) -> bool:
    ctx = Suite(quick=quick, started=time.perf_counter())
    print(f"self-check suite, {'quick' if quick else 'full'} mode")
    _prefetch(ctx)
    results = []
    for check in CHECKS:
        r = check(ctx)
        results.append(r)
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:2d}] {mark}  {r.name:<36} {r.measured}"
              f"  | target: {r.target}")
    n_pass = sum(r.passed for r in results)
    elapsed = time.perf_counter() - ctx.started
    print(f"{n_pass}/{len(results)} passed in {elapsed:.1f} s")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["criterion,name,measured,target,pass"]
    for r in results:
        lines.append(f"{r.number},{r.name},{r.measured},{r.target},"
                     f"{str(r.passed).lower()}")
    (out / "verify_results.csv").write_text("\n".join(lines) + "\n")
    return n_pass == len(results)
