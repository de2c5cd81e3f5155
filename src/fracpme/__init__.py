"""Numerical laboratory for porous medium flow driven by a fractional pressure.

Core pieces: the pressure operator, the Riesz potential (-Lap)^(-s) realized
by exact kernel quadrature on free space (`fracops`), a conservative upwind
finite-volume solver for the physical and self-similar flows (`evolution`), a
complementarity solver for the stationary profile (`obstacle`), entropy and
decay diagnostics (`diagnostics`), independent oracles that recompute answers a
second way (`oracles`), and a file oriented CLI (`cli`).
"""

from .grid import Field, Grid
from .fracops import FracOperator, FracParams, riesz_constant

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Grid",
    "FracOperator",
    "FracParams",
    "riesz_constant",
    "__version__",
]
