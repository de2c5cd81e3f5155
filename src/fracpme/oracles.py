"""Independent oracles used to cross-check the operator and the obstacle solver.

Everything here recomputes a quantity through a route that shares no code with the
implementation it checks: Gauss-Legendre quadrature instead of closed-form
antiderivatives for the kernel taps, the closed-form Riesz potential of a Gaussian
instead of the tap table and FFT convolution, dense kernel matrices instead of FFT
convolution, and complementary pivoting instead of the active-set obstacle solver.
The quadrature rules come from numpy, Kummer's function is summed here as a series
of positive terms, and Gamma is the package's port of Cephes', so no command loads
any part of scipy.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fracops import FracOperator, _gamma, riesz_constant
from .grid import Grid

LEMKE_MAX_PIVOTS = 20000  # pivots lemke_lcp takes before it gives up


def quadrature_taps_1d(grid: Grid, s: float) -> np.ndarray:
    """Cell integrals of the 1-D Riesz kernel by Gauss-Legendre quadrature.

    Recomputes the freespace tap table integral by integral, without the
    antiderivative the operator uses.  A regular cell [d - h/2, d + h/2] takes one
    20-point rule.  The singular cell is twice the integral over [0, h/2], cut into
    64 dyadic pieces [a/2, a] graded toward z = 0, each with the same rule; halving
    a piece scales |z|^(2s-1) by r = 4^(-s), so the rest [0, eps] below the last
    piece is that piece times the geometric tail r / (1 - r), not dropped.
    """
    n, h = grid.points_per_axis, grid.spacing
    expo = 2.0 * s - 1.0
    x, w = leggauss(20)
    taps = np.empty(n)
    d = np.arange(1, n) * h
    taps[1:] = (h / 2.0) * ((d[:, None] + (h / 2.0) * x) ** expo @ w)
    a = (h / 2.0) * 0.5 ** np.arange(64)
    pieces = (a / 4.0) * ((a[:, None] * (3.0 + x) / 4.0) ** expo @ w)
    r = 0.25 ** s
    taps[0] = 2.0 * (pieces[::-1].sum() + pieces[-1] * r / (1.0 - r))
    return riesz_constant(1, s) * taps


def riesz_potential_gaussian(r2: np.ndarray, n: int, s: float) -> np.ndarray:
    """(-Lap)^(-s) of exp(-|x|^2/2) in n dimensions, at squared radii r2:

    2^(-s) Gamma(n/2 - s) / Gamma(n/2) * 1F1(n/2 - s; n/2; -|x|^2/2).

    The Gaussian's transform is radial, so the potential is a Hankel transform
    of |k|^(-2s) exp(-|k|^2/2), which Kummer's function closes.  At x = 0 it is
    the Gamma ratio alone.  Requires 2s < n.

    1F1(a; b; -z), z = |x|^2/2, is summed after Kummer's transformation,
    e^(-z) sum_k (b-a)_k / (b)_k z^k / k!, whose terms u_0 = e^(-z),
    u_(k+1) = u_k z (b-a+k) / ((b+k)(k+1)) are all positive, so nothing
    cancels; it takes about 200 terms at z = 100.  Raises ValueError where
    e^(-z) falls below the normal range (z above about 708).
    """
    z = np.asarray(r2, dtype=float) / 2.0
    a, b = n / 2.0 - s, n / 2.0
    u = np.exp(-z)
    if (u < np.finfo(float).tiny).any():
        raise ValueError(f"Gaussian potential oracle needs |x|^2/2 <= 708, got {z.max():g}")
    total = u.copy()
    k, z_max = 0, float(z.max(initial=0.0))
    # past k = z_max the terms fall, and they stop moving the sums at 2^-54
    while k <= z_max or not (u <= 2.0 ** -54 * total).all():
        u = u * z
        u *= (b - a + k) / ((b + k) * (k + 1.0))
        total += u
        k += 1
    return 2.0 ** (-s) * _gamma(a) / _gamma(b) * total


def kernel_matrix(op: FracOperator, flat_index: np.ndarray) -> np.ndarray:
    """Dense potential matrix of a freespace operator restricted to the
    given flat (row-major) cell indices, gathered from `op.taps` at the index
    distance along each axis, the same in any dimension.

    The matrix product is the direct-summation route to `op.convolve`, whose
    FFT convolution it checks, and the matrix is what the pivoting oracles
    take; the obstacle solver never forms it."""
    cells = np.unravel_index(flat_index, op.grid.shape)
    return op.taps[tuple(np.abs(i[:, None] - i[None, :]) for i in cells)]


def lemke_lcp(m_mat: np.ndarray, q: np.ndarray) -> np.ndarray:
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
    for _ in range(LEMKE_MAX_PIVOTS):
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
    raise RuntimeError(f"no complementary solution within {LEMKE_MAX_PIVOTS} pivots")
