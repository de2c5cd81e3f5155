"""Numbered self-checks: measured values against fixed targets.

Fourteen checks cover the operator identities, conservation and
monotonicity of the stepper, the decay and propagation laws, the
entropy budget, the obstacle solver against dense oracles, the scaling
relations of the stationary profile, and the convergence of the
rescaled flow to it.  `run_suite(quick, out_dir)` prints one line per
check and writes out_dir/verify_results.csv; the command layer turns the
boolean into an exit status.

The long runs and solves that checks read (artifacts) are built first,
longest first, by `fanout.fan_out`; the checks then run in order in this
process, so the scoreboard and verify_results.csv do not depend on the
number of cores.

Quick mode coarsens grids and doubles tolerances; step-count floors
and order bounds stay put.  Setting FRACPME_TAMPER=<number> poisons
that check's headline tolerance, which must surface as a FAIL row and
a nonzero exit (self-test of the failure path).
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import entropy_dissipation_identity_check, fit_power_law
from .evolution import FlowKernel, NumericalAbort, SolverConfig, run
from .fanout import fan_out
from .fracops import FracOperator, FracParams
from .grid import Field, Grid
from .io import datum_box, datum_gaussian, datum_parabola_cap, write_diagnostics
from .obstacle import (ObstacleProblem, barenblatt_at, make_problem, mass_law,
                       match_mass, scaling_check, solve_obstacle)
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
    tamper: int | None
    started: float
    cache: dict = field(default_factory=dict)

    def tol(self, number: int, value: float) -> float:
        """Headline tolerance of a check: doubled in quick mode, made
        unsatisfiable when the tamper hook targets this check."""
        if self.tamper == number:
            return float("-inf")
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


def _evolve(grid: Grid, u0: Field, mode: str, s: float, end_time: float,
            stride: int, cfl: float, on_record):
    op = FracOperator(grid, FracParams(s=s, dim=grid.dim))
    cfg = SolverConfig(end_time=end_time, snapshot_stride=stride,
                       cfl_safety=cfl)
    return run(u0, mode, cfg, op, on_record=on_record)


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
    return _evolve(g, datum_box(g, 0.0, 2.0, 1.0), "physical", 0.5, 100.0,
                   10, 0.4, _discard).diagnostics


def _mass_run(mode: str, n_pts: int, cfl: float, end_time: float) -> tuple:
    """(relative mass drift, steps, minimum over the recorded states) of a
    long run from a box recording only its first and last states."""
    g = Grid(1, 12.0, n_pts)
    low = []
    traj = _evolve(g, datum_box(g, 0.0, 2.0, 1.0), mode, 0.25, end_time,
                   10 ** 9, cfl, lambda k, t, state: low.append(state.values.min()))
    m = traj.diagnostics.column("mass")
    return abs(m[-1] - m[0]) / m[0], traj.steps, min(low)


def _smoothing_1d(n_pts: int):
    """Diagnostics of a long physical run from a box (decay and rate checks)."""
    g = Grid(1, 12.0, n_pts)
    return _evolve(g, datum_box(g, 0.0, 2.0, 1.0), "physical", 0.25, 100.0,
                   5, 0.4, _discard).diagnostics


def _relaxation(n_pts: int):
    """Diagnostics of a rescaled relaxation from a Gaussian (entropy checks)."""
    g = Grid(1, 6.0, n_pts)
    return _evolve(g, datum_gaussian(g, 0.8), "rescaled", 0.25, 2.0, 1, 0.3,
                   _discard).diagnostics


def _settled(n_pts: int, width: float, height: float) -> Field:
    """Terminal state of a mass-2 box datum after a long rescaled run."""
    g = Grid(1, 12.0, n_pts)
    states = []
    _evolve(g, datum_box(g, 0.0, width, height), "rescaled", 0.25, 8.0, 10 ** 9, 0.4,
            lambda k, t, state: states.append(state))
    return states[-1]


# builder of each kind, longest first: the prefetch order (in quick mode
# the three runs take about 0.4, 0.7 and 0.6 s, in full mode 4.0, 1.5 and
# 0.9 s, serial medians of three on a 2-core VM; every other artifact takes
# at most about 0.3 s)
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
    tol_kernel = ctx.tol(1, 1e-6)
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
        tol = ctx.tol(1, bound)
        measured.append(f"gauss{dim}d {fine:.2e} order {order:.2f}")
        target.append(f"gauss{dim}d <= {tol:.0e} order >= 1.5")
        ok = ok and fine <= tol and order >= 1.5
    return CheckResult(1, "operator identities", "; ".join(measured),
                       "; ".join(target), ok)


@_reads(_conservation_runs)
def _check_conservation(ctx: Suite, *runs) -> CheckResult:
    drift, steps, low = zip(*runs)
    tol = ctx.tol(2, 1e-9)
    ok = (max(drift) <= tol and min(steps) >= 10 ** 4 and min(low) >= 0.0)
    return CheckResult(
        2, "mass conservation and positivity",
        f"drift {max(drift):.1e}; steps {min(steps)}; min {min(low):.1e}",
        f"drift <= {tol:.0e}; steps >= 1e4; min >= 0",
        ok)


def _check_monotone_norms(ctx: Suite) -> CheckResult:
    g = Grid(1, 6.0, ctx.pick(256, 128))
    traj = _evolve(g, datum_box(g, 0.0, 2.0, 1.0), "physical",
                   0.25, 2.0, 1, 0.4, _discard)
    worst = -np.inf
    for col in ("linf", "l2", "l4"):
        y = traj.diagnostics.column(col)
        worst = max(worst, float((np.diff(y) / y[:-1]).max()))
    tol = ctx.tol(3, 1e-8)
    return CheckResult(
        3, "monotone norms",
        f"max per-step rise {worst:+.1e}",
        f"<= {tol:.0e}",
        worst <= tol)


@_reads(lambda ctx: [_smoothing(ctx), ("decay_2d", ctx.pick(256, 128))])
def _check_peak_decay(ctx: Suite, diag1, diag2) -> CheckResult:
    slope1 = fit_power_law(diag1, "linf", (10.0, 100.0))
    slope2 = fit_power_law(diag2, "linf", (10.0, 100.0))
    tol1 = ctx.tol(4, 0.04)    # 10% of 0.4
    tol2 = ctx.tol(4, 0.10)    # 15% of 2/3
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
    traj = _evolve(g, datum_parabola_cap(g, 1.0, 1.0), "physical", 0.25, 1.0, 5, 0.4,
                   lambda k, t, state: records.append((t, state)))
    times = traj.diagnostics.column("time")
    rad = traj.diagnostics.column("support_radius")
    late = times >= 0.05
    speed = float(((rad[late] - 1.0) / times[late]).max())
    env_excess = float((rad - (1.0 + speed * times + 3.0 * h)).max())
    x = np.abs(g.axis())
    pw_excess = -np.inf
    for t, snap in records:
        # one face of numerical dust shifts the front by up to two cells
        bound = np.clip(speed * t - (x - 1.0 - 2.0 * h), 0.0, None) ** 2
        pw_excess = max(pw_excess, float((snap.values - bound).max()))
    tol = ctx.tol(5, 1e-8)
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
    tol = ctx.tol(6, 0.05)
    ok = m_f <= tol and order >= 1.0
    return CheckResult(
        6, "entropy-dissipation identity",
        f"mismatch {m_f:.4f}; order {order:.2f}",
        f"mismatch <= {tol:.2f}; order >= 1",
        ok)


@_reads(lambda ctx: [("relaxation", ctx.pick(512, 256))])
def _check_entropy_budget(ctx: Suite, fine) -> CheckResult:
    t = fine.column("time")
    e = fine.column("entropy")
    i = fine.column("dissipation")
    max_rise = float(np.diff(e).max())
    integral = float(np.trapezoid(i, t))
    slack = ctx.tol(7, 1e-6) * e[0]
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
    tol_comp = ctx.tol(8, 1e-8) * scale
    tol_lcp = ctx.tol(8, 1e-6)
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


# default sizing makes the level-4 box exactly twice the level-1 box,
# so the rescaled grids align cell by cell
@_reads(lambda ctx: [("profile", make_problem(c, 1, 0.25, ctx.pick(1024, 512)))
                     for c in (1.0, 4.0)] + _mass_law_families(ctx))
def _check_scaling(ctx: Suite, sol1, sol4, *families) -> CheckResult:
    dev = scaling_check(sol1, sol4)
    p1, _ = mass_law(families[:4])
    p2, _ = mass_law(families[4:])
    tol_dev = ctx.tol(9, 0.02)
    tol_p1 = ctx.tol(9, 0.025)   # 2% of 1.25
    tol_p2 = ctx.tol(9, 0.03)    # 2% of 1.5
    ok = (dev <= tol_dev and abs(p1 - 1.25) <= tol_p1
          and abs(p2 - 1.5) <= tol_p2)
    return CheckResult(
        9, "profile scaling and mass law",
        f"scaling dev {dev:.1e}; exponents {p1:.4f} / {p2:.4f}",
        f"dev < {tol_dev:.2f}; 1.25 +- {tol_p1:.3f}; 1.5 +- {tol_p2:.2f}",
        ok)


@_reads(lambda ctx: [_unit_level(n) for n in ctx.pick((256, 512, 1024),
                                                      (128, 256, 512))])
def _check_one_step(ctx: Suite, *sols) -> CheckResult:
    resids, ratios = [], []
    for sol in sols:
        prob = sol.problem
        u1 = barenblatt_at(sol, 1.0)
        op = FracOperator(prob.grid, FracParams(s=prob.s, dim=prob.grid.dim))
        kernel = FlowKernel(op, False, 0.4)
        faces = kernel.faces(u1.values, op.convolve(u1.values))
        vals, dt, low = kernel.step(u1.values, faces, float(u1.values.max()), np.inf)
        if low < 0.0:
            raise NumericalAbort(f"positivity lost in step (min {low:.3e})")
        r = _l1(Field(prob.grid, vals), barenblatt_at(sol, 1.0 + dt))
        resids.append(r)
        ratios.append(r / (dt * prob.grid.spacing))
    mean_order = float(np.log2(resids[0] / resids[-1]) / 2.0)
    tol = ctx.tol(10, 3.0)
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
    tol_1 = ctx.tol(11, 0.01) * 2.0              # mass of the datum
    tol_inf = ctx.tol(11, 0.01) * prof.density.linf()
    tol_ratio = ctx.tol(11, 2.0)
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
    allowance = ctx.tol(12, 1.0) * max(floor_run, floor_obs)
    return CheckResult(
        12, "stationary limit equals profile",
        f"L1 {dist:.1e}; floors {floor_run:.1e} / {floor_obs:.1e}",
        f"L1 <= {allowance:.1e} (larger floor)",
        dist <= allowance)


@_reads(lambda ctx: [_smoothing(ctx)])
def _check_rate_fits(ctx: Suite, diag) -> CheckResult:
    m2 = fit_power_law(diag, "moment2", (10.0, 100.0))
    e1 = fit_power_law(diag, "energy1", (10.0, 100.0))
    tol_m2 = 0.8 + ctx.tol(13, 0.1)    # 2*beta plus the allowed excess
    tol_e1 = ctx.tol(13, 0.05)
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
        traj = _evolve(g, datum_box(g, 0.0, 2.0, 1.0), "physical",
                       0.25, 0.5, 1, 0.4, _discard)
        write_diagnostics(path, traj.diagnostics)
        return Path(path).read_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        identical = probe(Path(tmp) / "a.csv") == probe(Path(tmp) / "b.csv")
    elapsed = time.perf_counter() - ctx.started
    budget = 300.0 if ctx.quick else float("inf")
    if ctx.tamper == 14:
        budget = -1.0
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
    tamper_env = os.environ.get("FRACPME_TAMPER")
    tamper = None
    if tamper_env:
        try:
            tamper = int(tamper_env)
        except ValueError:
            tamper = 1   # any set value must poison something
    ctx = Suite(quick=quick, tamper=tamper, started=time.perf_counter())
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
