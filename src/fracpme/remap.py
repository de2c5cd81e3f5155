"""Conservative resampling of cell-averaged densities under dilation.

The primitive is 1-D: given cell averages u_i on a uniform grid, produce cell
averages of x -> u(lam x) on a (possibly different) uniform grid.  Cumulative
cell masses at the source edges are known exactly from the averages, so the
target masses are differences of an interpolant of that cumulative function
evaluated at the dilated target edges; telescoping makes the total mass exact
whenever the dilated target box covers the source support.

The cumulative is interpolated by a cubic Hermite with centered second-order
slope estimates, clamped into the Fritsch-Carlson monotonicity region when the
data is nonnegative.  The clamp binds only where the density varies by a
factor of ~3 between neighboring cells (support edges, kinks); elsewhere the
interpolant keeps its full accuracy, which the round-trip test measures at
better than third order.  A nondecreasing interpolant makes every resampled
average nonnegative, and cells with zero mass stay exactly zero (no spurious
support spreading).

Multi-d resampling applies the primitive axis by axis (dilations are
separable).
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .grid import Field, Grid


def _edges(half_width: float, n: int) -> np.ndarray:
    return np.linspace(-half_width, half_width, n + 1)


def _edge_slopes(cum: np.ndarray, h: float, monotone: bool) -> np.ndarray:
    """Slope estimates for the cumulative at the edges, first axis.

    Fourth-order centered differences inside (the resampled cell averages lose
    one order to the edge differencing, so anything less degrades the whole
    remap to second order), second-order at the four outermost edges.
    """
    d = np.empty_like(cum)
    d[2:-2] = (cum[:-4] - 8.0 * cum[1:-3] + 8.0 * cum[3:-1] - cum[4:]) / (12.0 * h)
    d[1] = (cum[2] - cum[0]) / (2.0 * h)
    d[-2] = (cum[-1] - cum[-3]) / (2.0 * h)
    d[0] = (-3.0 * cum[0] + 4.0 * cum[1] - cum[2]) / (2.0 * h)
    d[-1] = (3.0 * cum[-1] - 4.0 * cum[-2] + cum[-3]) / (2.0 * h)
    if not monotone:
        return d
    delta = np.diff(cum, axis=0) / h  # the cell averages themselves, >= 0
    cap = np.empty_like(cum)
    cap[0] = 3.0 * delta[0]
    cap[-1] = 3.0 * delta[-1]
    cap[1:-1] = 3.0 * np.minimum(delta[:-1], delta[1:])
    return np.clip(d, 0.0, cap)


def _resample_axis(values: np.ndarray, src_half_width: float, target_edges: np.ndarray,
                   lam: float, axis: int) -> np.ndarray:
    """Cell averages along `axis` of x -> values(lam x), other axes untouched."""
    vals = np.moveaxis(values, axis, 0)
    n = vals.shape[0]
    h_src = 2.0 * src_half_width / n
    monotone = bool(vals.min() >= 0.0)
    cum = np.cumsum(vals, axis=0) * h_src
    cum = np.concatenate([np.zeros((1,) + cum.shape[1:]), cum], axis=0)
    interp = CubicHermiteSpline(
        _edges(src_half_width, n), cum, _edge_slopes(cum, h_src, monotone), axis=0
    )
    # outside the source box the density is zero, so the cumulative is flat
    pts = np.clip(lam * target_edges, -src_half_width, src_half_width)
    h_tgt = target_edges[1] - target_edges[0]
    out = np.diff(interp(pts), axis=0) / (h_tgt * lam)
    if monotone:
        out = np.maximum(out, 0.0)
    return np.moveaxis(out, 0, axis)


def resample(f: Field, target: Grid, lam: float = 1.0,
             require_mass: bool = True) -> Field:
    """Cell averages of x -> f(lam x) on the target grid.

    The result integrates to mass(f) / lam^n exactly, provided lam * L_target
    covers the support of f; require_mass turns silent clipping loss into an
    error (1e-12 relative budget).
    """
    if target.dim != f.grid.dim:
        raise ValueError("target grid dimension does not match the field")
    if lam <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    values = f.values
    tgt_edges = _edges(target.half_width, target.points_per_axis)
    for ax in range(f.grid.dim):
        values = _resample_axis(values, f.grid.half_width, tgt_edges, lam, ax)
    out = Field(target, values)
    if require_mass:
        expected = f.mass() / lam ** f.grid.dim
        if expected != 0.0 and abs(out.mass() - expected) > 1e-12 * abs(expected):
            raise ValueError(
                f"resampling lost mass ({out.mass():.15e} vs {expected:.15e}); "
                "the dilated target box does not cover the source support"
            )
    return out
