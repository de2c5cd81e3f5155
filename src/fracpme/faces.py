"""Face velocities and upwind face densities of one state.

The stepper's flux through a face and the recorded dissipation both read the
same two arrays per axis: the face velocity w, which is minus the pressure
difference over h less the confining drift beta y_face when there is one, and
the upwind value up of the density at that face.  The flux is w * up and the
dissipation is sum(w * w * up) h^n, so one pass per state serves both.

The flow is posed on the whole space, so only the freespace operator is
admitted; its box boundary carries no flux.
"""

from __future__ import annotations

import numpy as np

from .fracops import FREESPACE, FracOperator


def confining_drift(op: FracOperator, beta: float) -> list:
    """beta y at the interior faces of each axis, shaped to broadcast against
    that axis's face velocities (rescaled form)."""
    grid = op.grid
    faces = grid.interior_faces()
    out = []
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = faces.size
        out.append(beta * faces.reshape(shape))
    return out


def upwind_faces(vals: np.ndarray, pressure: np.ndarray, op: FracOperator,
                 drift: list | None) -> list:
    """(w, up) for each axis of the state `vals` whose pressure is `pressure`.

    The N-1 interior faces of each axis, with face i+1/2 between cells i and
    i+1 (the box boundary carries no flux and has no entry); up is the lower
    cell's value where w > 0 and the upper cell's otherwise.  Raises
    ValueError for any operator but the freespace one."""
    if op.mode != FREESPACE:
        raise ValueError(f"the flow is posed on the whole space and needs the "
                         f"freespace operator, got {op.mode!r}")
    h = op.grid.spacing
    out = []
    for ax in range(vals.ndim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        w = (pressure[hi] - pressure[lo]) / -h
        if drift is not None:
            w -= drift[ax]
        up = np.where(w > 0.0, vals[lo], vals[hi])
        out.append((w, up))
    return out
