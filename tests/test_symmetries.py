"""Exact symmetries of the flow and of the obstacle solver, gated bit for bit.

Unlike the golden digests these hold for any bits the stepper or the solver
produce, so they survive a declared re-recording.  Each scaling factor is a
power of two, so scaling commutes with every rounding.  The data keep clear
of the absolute constants that break scale invariance: QUIESCENT_SPEED (the
peak and mass thresholds), the dust floor's max(vmax, 1), the stop
tolerance's max(end_time, 1) and DT_MAX.
"""

import numpy as np
import pytest

from fracpme.evolution import run
from fracpme.fracops import FracOperator, FracParams
from fracpme.grid import Field, Grid
from fracpme.io import datum_box, datum_gaussian
from fracpme.obstacle import _active_set_solve, make_problem

FLOWS = {
    "1d-box": (lambda: datum_box(Grid(1, 6.0, 256), 0.0, 2.0, 1.0), 0.25, 1.0),
    "1d-gaussian": (lambda: datum_gaussian(Grid(1, 6.0, 256), 0.8), 0.25, 1.0),
    "2d-box": (lambda: datum_box(Grid(2, 4.0, 48), 0.0, 2.0, 1.0), 0.5, 0.5),
}


def recorded_run(u0, s, end_time):
    """(trajectory, recorded value arrays) of a physical run recording every step."""
    states = []
    traj = run(u0, "physical", s, end_time, snapshot_stride=1, cfl_safety=0.4,
               on_record=lambda k, t, state: states.append(state.values))
    return traj, states


@pytest.mark.parametrize("lam", [2.0, 0.5, 8.0])
@pytest.mark.parametrize("flow", FLOWS)
def test_amplitude_scaling_of_the_physical_flow(flow, lam):
    # u -> lam u over T / lam: dt scales by 1 / lam and every flux by lam^2
    make, s, end_time = FLOWS[flow]
    u0 = make()
    base, base_states = recorded_run(u0, s, end_time)
    scaled, scaled_states = recorded_run(Field(u0.grid, lam * u0.values), s,
                                         end_time / lam)
    assert base.steps >= 5
    assert scaled.steps == base.steps
    assert np.array_equal(scaled.times, base.times / lam)
    for a, b in zip(base_states, scaled_states, strict=True):
        assert np.array_equal(b, lam * a)


@pytest.mark.parametrize("lam", [2.0, 0.25, 1024.0])
@pytest.mark.parametrize("C, n, s, N", [(1.0, 1, 0.25, 256), (4.0, 2, 0.5, 48),
                                        (1.0, 2, 0.5, 64)])
def test_obstacle_homogeneity(C, n, s, N, lam):
    # the complementarity problem is linear in the obstacle: lam phi gives
    # lam V and lam P in the same passes
    prob = make_problem(C, n, s, N)
    op = FracOperator(prob.grid, FracParams(s=s, dim=n))
    cells = prob.cells()
    phi = prob.obstacle_values().ravel()[cells]
    v, p, passes = _active_set_solve(op, phi, cells)
    v_lam, p_lam, passes_lam = _active_set_solve(op, lam * phi, cells)
    assert passes_lam == passes
    assert np.array_equal(v_lam, lam * v)
    assert np.array_equal(p_lam, lam * p)
