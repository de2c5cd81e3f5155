"""Reference implementations the tests compare against, too slow or too
narrow for the package: one 2-D kernel tap by nested adaptive quadrature, and
the LCP solved by trying every active set."""

import numpy as np
from scipy.integrate import dblquad

from fracpme.fracops import riesz_constant
from fracpme.grid import Grid


def quadrature_tap_2d(grid: Grid, s: float, mx: int, my: int) -> float:
    """One 2-D kernel tap by nested adaptive quadrature (slow; spot checks only)."""
    h = grid.spacing
    c = riesz_constant(2, s)
    dx, dy = mx * h, my * h
    if mx == 0 and my == 0:
        # integrate |z|^(2s-2) over the quarter cell and use symmetry; the inner
        # integral is still singular at the origin, which `points` handles.
        val, _ = dblquad(
            lambda y, x: (x * x + y * y) ** (s - 1.0),
            0.0, h / 2.0, 0.0, h / 2.0, epsabs=1e-12,
        )
        return float(4.0 * c * val)
    val, _ = dblquad(
        lambda y, x: ((dx - x) ** 2 + (dy - y) ** 2) ** (s - 1.0),
        -h / 2.0, h / 2.0, -h / 2.0, h / 2.0, epsabs=1e-12,
    )
    return float(c * val)


def enumerate_lcp(m_mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Brute-force LCP solution by trying every active set (n <= 16 only)."""
    q = np.asarray(q, dtype=float)
    n = q.size
    if n > 16:
        raise ValueError(f"enumeration oracle limited to 16 unknowns, got {n}")
    for mask in range(2**n):
        act = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        v = np.zeros(n)
        if act.any():
            try:
                v[act] = np.linalg.solve(m_mat[np.ix_(act, act)], -q[act])
            except np.linalg.LinAlgError:
                continue
            if v[act].min() < -1e-12:
                continue
        w = m_mat @ v + q
        if w.min() >= -1e-10:
            return v
    raise RuntimeError("no active set solves the LCP (matrix not a P-matrix?)")
