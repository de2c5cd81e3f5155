"""Independent oracles used to cross-check the operator and the obstacle solver.

Everything here recomputes a quantity through a route that shares no code with the
implementation it checks: adaptive quadrature instead of closed-form antiderivatives
for the kernel taps, the closed-form Riesz potential of a Gaussian instead of the
tap table and FFT convolution, dense kernel matrices instead of FFT convolution,
and complementary pivoting or enumeration instead of the active-set obstacle
solver.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, hyp1f1

from .fracops import FracOperator, riesz_constant
from .grid import Grid


def quadrature_taps_1d(grid: Grid, s: float) -> np.ndarray:
    """Cell averages of the 1-D Riesz kernel by adaptive quadrature.

    Recomputes the freespace tap table integral by integral; the singular cell is
    split at the kernel singularity via quad's `points` mechanism.
    """
    n, h = grid.points_per_axis, grid.spacing
    c = riesz_constant(1, s)
    kern = lambda z: abs(z) ** (2.0 * s - 1.0)
    taps = np.empty(n)
    val, _ = quad(kern, -h / 2.0, h / 2.0, points=[0.0], epsabs=1e-13, limit=200)
    taps[0] = val
    for m in range(1, n):
        d = m * h
        val, _ = quad(kern, d - h / 2.0, d + h / 2.0, epsabs=1e-13, limit=200)
        taps[m] = val
    return c * taps


def quadrature_tap_2d(grid: Grid, s: float, mx: int, my: int) -> float:
    """One 2-D kernel tap by nested adaptive quadrature (slow; spot checks only)."""
    from scipy.integrate import dblquad

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


def riesz_potential_gaussian(r2: np.ndarray, n: int, s: float) -> np.ndarray:
    """(-Lap)^(-s) of exp(-|x|^2/2) in n dimensions, at squared radii r2:

    2^(-s) Gamma(n/2 - s) / Gamma(n/2) * 1F1(n/2 - s; n/2; -|x|^2/2).

    The Gaussian's transform is radial, so the potential is a Hankel transform
    of |k|^(-2s) exp(-|k|^2/2), which Kummer's function closes.  At x = 0 it is
    the Gamma ratio alone.  Requires 2s < n.
    """
    r2 = np.asarray(r2, dtype=float)
    a, b = n / 2.0 - s, n / 2.0
    return 2.0 ** (-s) * gamma(a) / gamma(b) * hyp1f1(a, b, -r2 / 2.0)


def kernel_matrix(op: FracOperator, flat_index: np.ndarray) -> np.ndarray:
    """Dense inverse-potential matrix of a freespace operator restricted to
    the given flat (row-major) cell indices, gathered from `op.taps`.

    The matrix product is the direct-summation route to `op.inverse`, whose
    FFT convolution it checks, and the matrix is what the pivoting oracles
    take; the obstacle solver never forms it."""
    if op.grid.dim == 1:
        d = np.abs(flat_index[:, None] - flat_index[None, :])
        return op.taps[d]
    ix, iy = np.divmod(flat_index, op.grid.points_per_axis)
    dx = np.abs(ix[:, None] - ix[None, :])
    dy = np.abs(iy[:, None] - iy[None, :])
    return op.taps[dx, dy]


def lemke_lcp(m_mat: np.ndarray, q: np.ndarray, max_pivots: int = 20000) -> np.ndarray:
    """Complementary pivoting for the LCP w = M v + q, v, w >= 0, v'w = 0.

    Textbook Lemke with the all-ones covering vector; terminates for positive
    definite M.  Independent of the active-set solver, so their agreement is
    evidence, not tautology.  Returns v.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    if (q >= 0.0).all():
        return np.zeros(n)
    # tableau columns: w (n) | v (n) | z0 | rhs; basis starts all-w
    tab = np.hstack([np.eye(n), -np.asarray(m_mat, dtype=float),
                     -np.ones((n, 1)), q[:, None]])
    basis = list(range(n))
    row = int(np.argmin(tab[:, -1]))
    entering = 2 * n  # z0
    for _ in range(max_pivots):
        piv = tab[row, entering]
        if abs(piv) < 1e-14:
            raise RuntimeError("degenerate pivot in complementary pivoting")
        tab[row] /= piv
        for r in range(n):
            if r != row and tab[r, entering] != 0.0:
                tab[r] -= tab[r, entering] * tab[row]
        leaving = basis[row]
        basis[row] = entering
        if leaving == 2 * n:  # z0 left the basis: complementary solution found
            v = np.zeros(n)
            for r, b in enumerate(basis):
                if n <= b < 2 * n:
                    v[b - n] = tab[r, -1]
            return v
        # complementarity: the partner of the leaving variable enters next
        entering = leaving + n if leaving < n else leaving - n
        col = tab[:, entering]
        pos = col > 1e-12
        if not pos.any():
            raise RuntimeError("unbounded ray in complementary pivoting")
        ratios = np.where(pos, tab[:, -1] / np.where(pos, col, 1.0), np.inf)
        row = int(np.argmin(ratios))
    raise RuntimeError(f"no complementary solution within {max_pivots} pivots")


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
