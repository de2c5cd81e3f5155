"""Obstacle-problem solver, its oracles, and the stationary-profile laws."""

import numpy as np
import pytest

from fracpme import obstacle, oracles
from fracpme.evolution import SolverConfig, run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Grid
from fracpme.obstacle import (
    ObstacleProblem,
    barenblatt_at,
    make_problem,
    mass_law,
    match_mass,
    scaling_check,
    solve_obstacle,
)
from fracpme.oracles import enumerate_lcp, kernel_matrix, lemke_lcp


@pytest.fixture(scope="module")
def sol_c1():
    return solve_obstacle(make_problem(1.0, 1, 0.25, 512))


@pytest.fixture(scope="module")
def sol_c4():
    return solve_obstacle(make_problem(4.0, 1, 0.25, 512))


def test_problem_sizing_and_validation():
    prob = make_problem(1.0, 1, 0.25, 256)
    assert prob.a == pytest.approx(0.2)
    assert prob.parabola_radius == pytest.approx(np.sqrt(5.0))
    assert prob.grid.half_width == pytest.approx(3.0 * np.sqrt(5.0))
    with pytest.raises(ValueError, match="margin"):
        ObstacleProblem(C=1.0, s=0.25, grid=Grid(1, 2.0, 64))
    with pytest.raises(ValueError, match="one dimension"):
        ObstacleProblem(C=1.0, s=0.6, grid=Grid(1, 8.0, 64))
    with pytest.raises(ValueError):
        make_problem(-1.0, 1, 0.25, 64)


def test_nonpositive_level_is_trivial():
    sol = solve_obstacle(ObstacleProblem(C=-1.0, s=0.25, grid=Grid(1, 4.0, 64)))
    assert sol.pressure.linf() == 0.0
    assert sol.density.linf() == 0.0
    assert sol.contact_radius == 0.0
    assert sol.sweeps == 1  # the active-set route: one pass on an empty free set


def test_solution_quality(sol_c1):
    sol = sol_c1
    scale = max(1.0, sol.density.linf())
    assert sol.residuals["complementarity"] <= 1e-12 * scale
    assert sol.residuals["pressure_deficit"] <= 1e-12 * scale
    assert sol.residuals["density_negativity"] == 0.0
    assert 1.0 < sol.contact_radius < np.sqrt(5.0)
    assert sol.density.values.min() >= 0.0
    # measured 1.359982 at this resolution; 1.360000 at N=1024
    assert sol.mass == pytest.approx(1.36, abs=2e-3)
    p = sol.pressure.values
    assert np.abs(p - p[::-1]).max() <= 1e-13 * p.max()  # even in y


def test_contact_set_is_an_interval(sol_c1):
    mask = sol_c1.contact_mask.values > 0.5
    idx = np.nonzero(mask)[0]
    assert idx.size > 0
    assert (np.diff(idx) == 1).all()
    n = mask.size
    np.testing.assert_array_equal(mask, mask[::-1])
    assert not mask[0] and not mask[n - 1]


def test_compact_support_and_pressure_decay(sol_c1):
    sol = sol_c1
    g = sol.density.grid
    r = np.abs(g.axis())
    assert sol.density.values[r > sol.contact_radius + 2 * g.spacing].max() == 0.0
    p = sol.pressure.values
    assert (p > 0.0).all()
    tail = p[g.axis() > sol.contact_radius]
    assert (np.diff(tail) < 0.0).all()


def test_far_field_kernel_decay(sol_c1):
    g = sol_c1.pressure.grid
    x = g.axis()
    p = sol_c1.pressure.values
    y1 = 0.45 * g.half_width
    j1 = int(np.argmin(np.abs(x - y1)))
    j2 = int(np.argmin(np.abs(x - 2.0 * y1)))
    measured = p[j2] / p[j1]
    predicted = 2.0 ** -(1.0 - 0.5)  # n - 2s = 0.5
    assert abs(measured - predicted) <= 0.1 * predicted


@pytest.mark.parametrize("args", [(1.0, 1, 0.25, 128), (1.0, 2, 0.5, 24)],
                         ids=["1d", "2d"])
def test_solver_matches_lemke_pivoting(args):
    prob = make_problem(*args)
    sol = solve_obstacle(prob)
    grid = prob.grid
    op = FracOperator(grid, FracParams(s=prob.s, dim=grid.dim))
    idx = prob.cells()
    r2 = grid.radius2().ravel()
    assert idx.tolist() == [k for k in range(grid.npoints)
                            if r2[k] <= (prob.parabola_radius + 2 * grid.spacing) ** 2]
    w_mat = kernel_matrix(op, idx)
    phi = prob.obstacle_values().ravel()[idx]
    v_ref = lemke_lcp(w_mat, -phi)
    v_sol = sol.density.values.ravel()[idx]
    assert np.abs(v_sol - v_ref).max() <= 1e-12


@pytest.mark.parametrize("args", [(1.0, 1, 0.25, 128), (4.0, 2, 0.5, 32)],
                         ids=["1d", "2d"])
def test_one_pressure_per_state(monkeypatch, args):
    # each CG product and each pass's residual take one convolution; the
    # solution's pressure is the last pass's potential, not one more
    convolve, cg = FracOperator.convolve, obstacle._cg
    calls, products = [], []

    def counted(self, values):
        calls.append(values)
        return convolve(self, values)

    def counted_cg(matvec, b):
        def product(x):
            products.append(x)
            return matvec(x)
        return cg(product, b)

    monkeypatch.setattr(FracOperator, "convolve", counted)
    monkeypatch.setattr(obstacle, "_cg", counted_cg)
    prob = make_problem(*args)
    sol = solve_obstacle(prob)
    assert sol.sweeps >= 2
    assert len(calls) == len(products) + sol.sweeps
    op = FracOperator(prob.grid, FracParams(s=prob.s, dim=prob.grid.dim))
    assert np.array_equal(sol.pressure.values, convolve(op, sol.density.values))


def test_solver_forms_no_dense_kernel(monkeypatch):
    def refuse(op, flat_index):
        raise AssertionError("dense kernel submatrix requested")

    monkeypatch.setattr(oracles, "kernel_matrix", refuse)
    for args in ((1.0, 1, 0.25, 128), (1.0, 2, 0.5, 32)):
        sol = solve_obstacle(make_problem(*args))
        assert sol.residuals["lcp_residual"] <= 1e-12 * max(1.0, sol.density.linf())


# (mass, s, grid, solves the brentq-then-refine search took on the same case)
@pytest.mark.parametrize("mass, s, grid, before", [
    (2.0, 0.25, Grid(1, 12.0, 128), 7),
    (2.0, 0.25, Grid(1, 12.0, 256), 8),
    (2.0, 0.25, Grid(1, 12.0, 512), 8),
    (2.0, 0.25, Grid(1, 4.0, 512), 7),
    (0.1, 0.25, Grid(1, 3.0, 256), 8),
    (1.0, 0.5, Grid(2, 6.0, 48), 9),
], ids=["L12_N128", "L12_N256", "L12_N512", "readme", "small_box", "2d"])
def test_match_mass_solves_each_level_once(monkeypatch, mass, s, grid, before):
    levels = []

    def counting(prob):
        levels.append(prob.C)
        return solve_obstacle(prob)

    monkeypatch.setattr(obstacle, "solve_obstacle", counting)
    sol = match_mass(mass, s, grid)
    assert abs(sol.mass - mass) <= 1e-12 * mass
    assert len(levels) == len(set(levels))
    assert sol.problem.C in levels
    assert len(levels) <= before


@pytest.mark.parametrize("mass", [1e-300, 1e-18, 5e-18])
def test_match_mass_starts_below_every_cell(mass):
    # the nearest cell center of this grid rounds to inside h/2, so the level
    # a (h/2)^2 already holds about 1.2e-17; the search starts at a min|y|^2,
    # and no adjacent float level holds a mass nearer to M than the one returned
    grid = Grid(1, 3.3, 16)
    sol = match_mass(mass, 0.25, grid)
    first = ObstacleProblem(C=sol.problem.a * (grid.spacing / 2.0) ** 2, s=0.25, grid=grid)
    assert solve_obstacle(first).mass > mass
    miss = abs(sol.mass - mass)
    for level in (np.nextafter(sol.problem.C, 0.0), np.nextafter(sol.problem.C, 1.0)):
        other = solve_obstacle(ObstacleProblem(C=level, s=0.25, grid=grid)).mass
        assert miss <= abs(other - mass)


def test_cg_failure_raises_with_residual(monkeypatch):
    monkeypatch.setattr(obstacle, "_cg", lambda matvec, b: (np.zeros(b.size), 3))
    with pytest.raises(RuntimeError, match=r"CG stopped with info 3 in active-set "
                                           r"pass 1 \(residual \d\.\d{3}e[+-]\d+\)"):
        solve_obstacle(make_problem(1.0, 1, 0.25, 64))


def test_cycling_active_set_raises_with_residual(monkeypatch):
    # a true first solve moves the free set; a zero second solve sends it
    # back to {phi > 0}, which the loop has already visited
    real_cg = obstacle._cg
    calls = []

    def alternating(matvec, b):
        calls.append(b.size)
        if len(calls) == 1:
            return real_cg(matvec, b)
        return np.zeros(b.size), 0

    monkeypatch.setattr(obstacle, "_cg", alternating)
    with pytest.raises(RuntimeError, match=r"active set cycles at pass 2 "
                                           r"\(residual \d\.\d{3}e[+-]\d+\)"):
        solve_obstacle(make_problem(1.0, 1, 0.25, 64))
    assert len(calls) == 2 and calls[1] != calls[0]


def test_cg_repeats_scipy_arithmetic():
    # scipy's unpreconditioned cg is the reference, bit for bit: a system
    # that converges, one that reaches the 10 n iteration cap, and b = 0
    from scipy.linalg import hilbert
    from scipy.sparse.linalg import cg

    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    cases = ((a @ a.T + 40.0 * np.eye(40), rng.normal(size=40), 0),
             (hilbert(12), np.ones(12), 120), (np.eye(5), np.zeros(5), 0))
    for m, b, expected_info in cases:
        ref, ref_info = cg(m, b, rtol=1e-15, atol=0.0)
        got, info = obstacle._cg(lambda x: m @ x, b)
        assert info == ref_info == expected_info
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_lemke_against_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = 9
    b = rng.normal(size=(n, n))
    m = b @ b.T + n * np.eye(n)
    q = 3.0 * rng.normal(size=n)
    assert np.abs(lemke_lcp(m, q) - enumerate_lcp(m, q)).max() <= 1e-12


def test_center_value_against_extrapolated_pivoting_oracle():
    def lemke_center(pts):
        prob = make_problem(1.0, 1, 0.25, pts)
        g = prob.grid
        op = FracOperator(g, FracParams(s=0.25, dim=1))
        r2 = g.radius2().ravel()
        idx = np.nonzero(r2 <= (prob.parabola_radius + 2 * g.spacing) ** 2)[0]
        v = lemke_lcp(kernel_matrix(op, idx), -prob.obstacle_values().ravel()[idx])
        full = np.zeros(g.npoints)
        full[idx] = v
        c = pts // 2
        return 0.5 * (full[c - 1] + full[c])

    coarse, fine = lemke_center(64), lemke_center(128)
    extrapolated = fine + (fine - coarse) / 3.0  # second-order pair
    sol = solve_obstacle(make_problem(1.0, 1, 0.25, 1024))
    c = 512
    v0 = 0.5 * (sol.density.values[c - 1] + sol.density.values[c])
    assert abs(v0 - extrapolated) <= 0.02 * v0  # measured 2e-4 relative


def test_scaling_law(sol_c1, sol_c4):
    # boxes scale with sqrt(C), so the two discrete systems are exact copies:
    # deviations sit at solver precision, far below the 2% contract
    assert scaling_check(sol_c1, sol_c4) <= 1e-10
    # the boxes align cell by cell, so P_4 = 4 P_1 and R_4 = 2 R_1 per cell
    p_dev = np.abs(sol_c4.pressure.values - 4.0 * sol_c1.pressure.values).max()
    assert p_dev <= 1e-10 * sol_c4.pressure.linf()
    cell = sol_c4.density.grid.spacing
    assert abs(sol_c4.contact_radius - 2.0 * sol_c1.contact_radius) <= cell
    assert scaling_check(sol_c1, sol_c1) <= 1e-12


def test_mass_law_on_fixed_grid():
    grid = make_problem(4.0, 1, 0.25, 512).grid
    sols = [solve_obstacle(ObstacleProblem(C=c, s=0.25, grid=grid))
            for c in (0.5, 1.0, 2.0, 4.0)]
    slope, c_fit = mass_law(sols)
    assert abs(slope - 1.25) <= 0.02 * 1.25  # measured 1.25003
    assert c_fit == pytest.approx(1.36, abs=2e-3)


def test_mass_law_input_validation(sol_c1, sol_c4):
    with pytest.raises(ValueError, match="4 solutions"):
        mass_law([sol_c1, sol_c4])
    sols = [sol_c1, sol_c1, sol_c1, sol_c4]
    # C values 1,1,1,4 span only 4x
    with pytest.raises(ValueError, match="span"):
        mass_law(sols)


def test_self_similar_sampling(sol_c1):
    u0 = barenblatt_at(sol_c1, 0.0)
    assert np.abs(u0.values - sol_c1.density.values).max() <= 1e-12
    for t in (1.0, 10.0):
        assert barenblatt_at(sol_c1, t).mass() == pytest.approx(sol_c1.mass, rel=1e-6)
    with pytest.raises(ValueError):
        barenblatt_at(sol_c1, -1.0)


def test_profile_is_stationary_under_rescaled_step(sol_c1):
    g = sol_c1.density.grid
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    states = []
    traj = run(sol_c1.density, "rescaled", SolverConfig(end_time=0.05), op,
               on_record=lambda k, t, state: states.append(state))
    assert traj.steps >= 1
    for state in states:
        assert np.abs(state.values - sol_c1.density.values).max() <= 1e-12
    # upwind dissipation quadrature sees the fixed point exactly
    assert traj.diagnostics.column("dissipation")[0] <= 1e-20


def test_convexity_report(sol_c1):
    # P + a|y|^2 is convex (theory), up to 10 h^2 max|P| of roundoff; outside
    # the contact set P itself is strictly convex, far above the -2a the
    # theory allows; the pressure peaks at the innermost cells
    grid = sol_c1.problem.grid
    h, a = grid.spacing, sol_c1.problem.a
    p = sol_c1.pressure.values
    q = p + a * grid.radius2()
    assert (q[2:] - 2.0 * q[1:-1] + q[:-2]).min() >= -10.0 * h**2 * np.abs(p).max()
    outside = sol_c1.contact_mask.values[1:-1] == 0.0
    dee = (p[2:] - 2.0 * p[1:-1] + p[:-2])[outside] / h**2
    assert outside.any() and dee.min() > 0.0 > -2.0 * a
    inner = grid.radius2() <= grid.radius2().min() + 1e-12
    assert p[inner].max() == pytest.approx(p.max(), rel=0.0, abs=1e-12 * p.max())
    assert (p[~inner] < p.max()).all()


def test_box_independence(sol_c1):
    g = sol_c1.density.grid
    doubled = Grid(1, 2.0 * g.half_width, 2 * g.points_per_axis)  # same spacing
    sol2 = solve_obstacle(ObstacleProblem(C=1.0, s=0.25, grid=doubled))
    inner = slice(g.points_per_axis // 2, g.points_per_axis // 2 + g.points_per_axis)
    dv = np.abs(sol_c1.density.values - sol2.density.values[inner]).max()
    assert dv <= 1e-12 * sol_c1.density.linf()


def test_pressure_monotone_in_level(sol_c1):
    grid = sol_c1.problem.grid
    higher = solve_obstacle(ObstacleProblem(C=2.0, s=0.25, grid=grid))
    gap = higher.pressure.values - sol_c1.pressure.values
    assert gap.min() > 0.0
    # any shifted higher-level pressure is a supersolution staying above
    for shift in (0.0, 0.1):
        assert (higher.pressure.values + shift - sol_c1.pressure.values).min() >= 0.0


def test_two_dimensional_solution():
    sol = solve_obstacle(make_problem(1.0, 2, 0.5, 64))
    scale = max(1.0, sol.density.linf())
    assert sol.residuals["complementarity"] <= 1e-12 * scale
    assert sol.contact_radius < np.sqrt(6.0)
    assert sol.mass == pytest.approx(4.62, abs=2e-2)
    # contact set fills a centered ball to within one cell
    g = sol.density.grid
    r = np.sqrt(g.radius2())
    mask = sol.contact_mask.values > 0.5
    assert r[mask].max() <= sol.contact_radius
    inside = r <= sol.contact_radius - g.spacing * np.sqrt(2.0)
    assert mask[inside].all()


def test_two_dimensional_mass_law():
    sols = [solve_obstacle(make_problem(c, 2, 0.5, 64)) for c in (0.5, 1.0, 2.0, 4.0)]
    slope, c_fit = mass_law(sols)
    # per-C boxes are exact rescalings of one another, so the discrete
    # exponent is exact; the intercept is the measured content
    assert abs(slope - 1.5) <= 1e-6
    assert c_fit == pytest.approx(4.62, abs=2e-2)
