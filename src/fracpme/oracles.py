"""Independent quadrature oracles used to cross-check the operator realizations.

Everything here recomputes a quantity through a route that shares no code with the
implementation it checks: adaptive quadrature instead of closed-form antiderivatives
for the kernel taps, direct singular-integral evaluation instead of Fourier
multipliers for the fractional Laplacian of a Gaussian, dense kernel matrices
instead of FFT convolution, and complementary pivoting or enumeration instead of
the active-set obstacle solver.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

from .fracops import FracOperator, riesz_constant
from .grid import Grid


def hypersingular_constant(n: int, s: float) -> float:
    """Normalization of the singular-integral form of the fractional Laplacian:

    (-Lap)^s f(x) = C(n,s) pv-int (f(x) - f(y)) |x-y|^(-n-2s) dy,
    C(n,s) = 4^s Gamma(n/2 + s) / (pi^(n/2) |Gamma(-s)|).
    """
    return float(4.0 ** s * gamma(n / 2.0 + s) / (np.pi ** (n / 2.0) * abs(gamma(-s))))


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


def _gaussian_even_derivative(x: np.ndarray, order: int) -> np.ndarray:
    """d^order/dx^order exp(-x^2/2) via probabilists' Hermite polynomials."""
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    he = np.polynomial.hermite_e.hermeval(x, coeffs)
    return (-1.0) ** order * he * np.exp(-x * x / 2.0)


def frac_laplacian_gaussian_1d(x: np.ndarray, s: float, delta: float = 0.5,
                               series_terms: int = 14) -> np.ndarray:
    """(-Lap)^s of exp(-x^2/2) in 1-D through the singular integral.

    Uses the symmetrized form C(1,s) int_0^inf (2f(x) - f(x+r) - f(x-r)) r^(-1-2s) dr,
    with the near part r < delta summed as a Taylor series and the far part handled
    by adaptive quadrature.  Accuracy ~1e-10 for s in (0, 1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cns = hypersingular_constant(1, s)
    g = lambda t: np.exp(-t * t / 2.0)

    near = np.zeros_like(x)
    fact = 1.0
    for k in range(1, series_terms + 1):
        fact *= (2.0 * k - 1.0) * (2.0 * k)
        term = -2.0 * _gaussian_even_derivative(x, 2 * k) / fact
        near += term * delta ** (2.0 * k - 2.0 * s) / (2.0 * k - 2.0 * s)

    far = np.empty_like(x)
    for i, xi in enumerate(x):
        integrand = lambda r: (2.0 * g(xi) - g(xi + r) - g(xi - r)) * r ** (-1.0 - 2.0 * s)
        # the integrand has a bump near r = |x| (where x -+ r crosses the Gaussian);
        # adaptive quadrature on [delta, inf) misses it for large |x| unless the
        # interval is split there explicitly.
        breaks = [delta]
        if abs(xi) > delta + 9.0:
            breaks += [abs(xi) - 8.0, abs(xi) + 8.0]
        val = 0.0
        for a, b in zip(breaks, breaks[1:] + [np.inf]):
            piece, _ = quad(integrand, a, b, epsabs=1e-14, limit=400)
            val += piece
        far[i] = val
    return cns * (near + far)


def periodized_frac_laplacian_gaussian_1d(x: np.ndarray, s: float, period: float,
                                          images: int = 5) -> np.ndarray:
    """Singular-integral value of the fractional Laplacian of a periodized Gaussian.

    The periodic realization acts on the periodization of its operand, so this is
    the quantity it should reproduce on a sampled Gaussian.  Image terms out to
    `images` periods are evaluated by quadrature; the remaining algebraic tail
    sum(|x + period m|^(-1-2s)) is closed with the Hurwitz zeta function and the
    leading far-field coefficient -C(1,s) * integral(f).
    """
    from scipy.special import zeta

    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = frac_laplacian_gaussian_1d(x, s)
    for m in range(1, images + 1):
        out = out + frac_laplacian_gaussian_1d(x + period * m, s)
        out = out + frac_laplacian_gaussian_1d(x - period * m, s)
    lead = -hypersingular_constant(1, s) * np.sqrt(2.0 * np.pi)
    tail = lead * period ** (-1.0 - 2.0 * s) * (
        zeta(1.0 + 2.0 * s, images + 1 + x / period)
        + zeta(1.0 + 2.0 * s, images + 1 - x / period)
    )
    return out + tail


def frac_laplacian_gaussian_fourier_1d(x: np.ndarray, s: float) -> np.ndarray:
    """Same quantity through the Fourier side: (1/pi) int k^(2s) ghat(k) cos(kx) dk."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        f = lambda k: k ** (2.0 * s) * np.sqrt(2.0 * np.pi) * np.exp(-k * k / 2.0) * np.cos(k * xi)
        val, _ = quad(f, 0.0, np.inf, epsabs=1e-13, limit=400)
        out[i] = val / np.pi
    return out


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
