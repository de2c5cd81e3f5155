"""The flow kernel: one run's pressure, face pass and upwind step on raw arrays.

The stepper's flux through a face and the recorded dissipation both read the
same two arrays per axis: the face velocity w, which is minus the pressure
difference over h less the confining drift beta y_face when there is one, and
the upwind value up of the density at that face.  The flux is w * up and the
dissipation is sum(w * w * up) h^n, so one face pass per state serves both.

A FlowKernel binds once what stays fixed during a run: the spacing, the cell
volume, the operator's stiffness bound and its array-level convolution, the
CFL safety factor, the drift, the per-axis slices and the flux buffers, whose
zero ends (the box boundary carries no flux) are set at construction.  Its
arrays are plain value arrays on the operator's grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fracops import Exponents, FracOperator

QUIESCENT_SPEED = 1e-14
DT_MAX = 1.0  # step taken when the velocity field is quiescent


class NumericalAbort(RuntimeError):
    """A run monitor tripped (mass drift, lost positivity, non-finite velocity)."""


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
        self.convolve = op.convolve
        self._stiffness = op.stiffness_bound()
        self._cfl_h = cfl_safety * self.h
        self._cfl_2 = cfl_safety * 2.0
        beta = Exponents(grid.dim, op.s).beta
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
