"""Uniform cell-centered tensor grids on [-L, L]^n and scalar fields living on them.

Cells are squares of side h = 2L/N with centers at -L + (i + 1/2) h, so the box
is tiled exactly and midpoint quadrature is h^n * sum(values).  There is no grid
point at the origin; for even N the centers straddle it symmetrically, which keeps
radially symmetric data exactly symmetric on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_KINDS = ("density", "pressure", "generic")


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

    def coords(self) -> list:
        """Cell-center coordinate arrays, one per axis, each shaped like a field."""
        ax = self.axis()
        if self.dim == 1:
            return [ax]
        x0, x1 = np.meshgrid(ax, ax, indexing="ij")
        return [x0, x1]

    def interior_faces(self) -> np.ndarray:
        """Positions of the N-1 interior faces along one axis."""
        n, h = self.points_per_axis, self.spacing
        return -self.half_width + np.arange(1, n) * h

    def radius2(self) -> np.ndarray:
        """Squared Euclidean distance of each cell center from the origin.

        Built on first use and shared by every later call, so it is read-only."""
        r2 = self.__dict__.get("_radius2")
        if r2 is None:
            c = self.coords()
            r2 = c[0] ** 2
            for x in c[1:]:
                r2 = r2 + x ** 2
            r2.flags.writeable = False
            object.__setattr__(self, "_radius2", r2)  # a cache, not a field
        return r2

    def compatible(self, other: "Grid") -> bool:
        return (
            self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and np.isclose(self.half_width, other.half_width, rtol=1e-14, atol=0.0)
        )


@dataclass
class Field:
    """Scalar grid function.  kind='density' enforces nonnegativity on construction."""

    grid: Grid
    values: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "density" and self.values.size and self.values.min() < 0.0:
            raise ValueError(f"density field has negative entries (min {self.values.min():.3e})")

    def mass(self) -> float:
        """Midpoint-rule integral over the box."""
        return float(self.grid.spacing ** self.grid.dim * self.values.sum())

    def linf(self) -> float:
        return float(np.abs(self.values).max())

    def with_values(self, values: np.ndarray, kind: str | None = None) -> "Field":
        return Field(self.grid, values, self.kind if kind is None else kind)
