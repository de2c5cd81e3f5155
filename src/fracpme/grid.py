"""Uniform cell-centered tensor grids on [-L, L]^n and scalar fields living on them.

Cells are squares of side h = 2L/N with centers at -L + (i + 1/2) h, so the box
is tiled exactly and midpoint quadrature is h^n * sum(values).  There is no grid
point at the origin; for even N the centers straddle it symmetrically, which keeps
radially symmetric data exactly symmetric on the lattice.  The spacing, the cell
volume and 4/h^2 must be positive finite floats, and so must the squared
corner radius n L^2.  A Field is a grid and its values, with no sign
constraint of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-L, L]^dim, cell-centered, dim in {1, 2}."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.points_per_axis
        if n < 8 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {n}")
        if n > sys.float_info.max:  # 2 L / N would raise OverflowError
            raise ValueError(f"points_per_axis {n} is beyond the float range")
        h = self.spacing
        vol = math.prod([h] * self.dim)  # h ** dim, but inf rather than OverflowError
        if not (0.0 < h < math.inf and 0.0 < vol < math.inf):
            raise ValueError(f"grid spacing {h:g} and cell volume {vol:g} must be "
                             f"positive and finite (L = {self.half_width:g}, N = {n})")
        if not (h * h > 0.0 and math.isfinite(4.0 / (h * h))):
            raise ValueError(f"grid spacing {h:g} is too fine: 4/h^2 is not finite "
                             f"(L = {self.half_width:g}, N = {n})")
        if not math.isfinite(self.dim * self.half_width * self.half_width):
            raise ValueError(f"grid half-width {self.half_width:g} is too large: the "
                             f"squared corner radius n L^2 is not finite (n = {self.dim})")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def npoints(self) -> int:
        return self.points_per_axis ** self.dim

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis (all axes are identical)."""
        n, h = self.points_per_axis, self.spacing
        return -self.half_width + (np.arange(n) + 0.5) * h

    def interior_faces(self) -> np.ndarray:
        """Positions of the N-1 interior faces along one axis."""
        n, h = self.points_per_axis, self.spacing
        return -self.half_width + np.arange(1, n) * h

    def radius2(self) -> np.ndarray:
        """Squared distance of each cell center from the origin, a new array each call."""
        r2 = self.axis() ** 2
        if self.dim == 2:
            r2 = r2[:, None] + r2[None, :]
        return r2


@dataclass
class Field:
    """Scalar grid function: values shaped like the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    def mass(self) -> float:
        """Midpoint-rule integral over the box."""
        return float(self.grid.spacing ** self.grid.dim * self.values.sum())

    def linf(self) -> float:
        return float(np.abs(self.values).max())
