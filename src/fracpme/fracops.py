"""Inverse fractional Laplacian (Riesz potential) on a grid.

The equation is posed on the whole space, so the inverse (-Lap)^(-s) is
realized as convolution with the Riesz kernel c(n,s) |x|^(2s-n), discretized by
exact cell averages of the kernel over each source cell (the singular cell via
closed form in 1-D and a polar-coordinate reduction in 2-D).  The operator is
translation invariant, so a single tap table drives both a zero-padded circular
convolution and the dense kernel submatrices that the pivoting oracles take.
Its geometry is one path in either dimension: the 2N-point embedding (taps, a
zero slice, taps[1:] flipped), the stiffness symbol and the submatrix gather all
go one axis at a time.  `FracOperator.convolve`, on value arrays, is the one way
to apply the operator.

The convolution runs on the 2N-point embedding one axis at a time, pruned: only
the N data rows pass through the forward last-axis transform, and only the N
rows that are kept pass through the last-axis inverse.  The transforms are
scipy's ``pypocketfft`` (``r2c``, ``c2c``, ``c2r``, one thread), which keeps a
cache of the plans it builds, so a run of one length pays for its twiddle
tables once.  It is the pocketfft code that ``np.fft`` calls, and every 1-D
transform is the one ``rfftn``/``irfftn`` of the padded box would run, on the
same data and in the same order, so the result has their bits;
``test_conv_apply_matches_padded_rfftn`` gates that.  The inverse factor
(``inorm=2``) is 1/(2N) rounded through long double, which is numpy's double
1/(2N) except at a sparse set of lengths, the smallest N = 2731, where the last
bit of the potential may differ.  Each operator holds zero-padded scratch that
``convolve`` writes only in its data part, so ``convolve`` is not reentrant: an
operator must not be shared between threads (``fan_out`` forks processes, and
no package code shares one).
The 2-D tap table is built in blocks of rows, which bounds the Gauss-Legendre node
arrays to about TAP_BLOCK_CELLS cells at any N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c, c2r, r2c
from scipy.integrate import quad
from scipy.special import gamma, roots_legendre

from .grid import Grid

FREESPACE = "freespace_kernel"
TAP_BLOCK_CELLS = 2048  # cells per row block of the 2-D tap build


def riesz_constant(n: int, s: float) -> float:
    """Normalization c(n,s) = Gamma((n-2s)/2) / (4^s pi^(n/2) Gamma(s)).

    With this constant, convolution against c(n,s)|x|^(2s-n) has Fourier symbol
    |k|^(-2s), i.e. it inverts the fractional Laplacian.  Positive for 2s < n.
    Raises ValueError where it diverges (2s = n) and where it falls to 0 because
    Gamma(s) overflows (s below about 1e-308).
    """
    with np.errstate(over="ignore"):
        c = float(gamma((n - 2.0 * s) / 2.0) / (4.0 ** s * np.pi ** (n / 2.0) * gamma(s)))
    if not np.isfinite(c):
        raise ValueError(f"Riesz kernel normalization diverges at 2s = n (s = {s}, n = {n})")
    if c == 0.0:
        raise ValueError(f"Riesz kernel normalization underflows at s = {s:g} (n = {n})")
    return c


@dataclass(frozen=True)
class FracParams:
    """Order s and dimension, which fix both the operator and the similarity
    exponents.

    In one dimension the inverse potential requires s < 1/2: the kernel constant
    diverges at s = 1/2 and is negative above it, so larger s raises ValueError.

    beta = 1/(n+2-2s) scales space, alpha = n beta scales amplitude (so that
    mass is conserved), and a = beta/2 is the obstacle-parabola coefficient;
    alpha + (2-2s) beta = 1 by construction.
    """

    s: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.dim == 1 and self.s >= 0.5:
            raise ValueError(f"s = {self.s} needs s < 1/2 in one dimension "
                             "(kernel not positive)")

    @property
    def beta(self) -> float:
        return 1.0 / (self.dim + 2.0 - 2.0 * self.s)

    @property
    def a(self) -> float:
        return self.beta / 2.0


# ---------------------------------------------------------------------------
# Kernel tap tables (cell-averaged Riesz kernel)
# ---------------------------------------------------------------------------


def _taps_1d(grid: Grid, s: float) -> np.ndarray:
    """Cell integrals of c(1,s)|x|^(2s-1) at displacements 0, h, ..., (N-1) h.

    The antiderivative of |z|^(2s-1) is |z|^(2s) sign(z) / (2s), which gives every
    tap in closed form, the singular one included.
    """
    n, h = grid.points_per_axis, grid.spacing
    c = riesz_constant(1, s)
    m = np.arange(n, dtype=float)
    taps = np.empty(n)
    taps[0] = 2.0 * (h / 2.0) ** (2 * s) / (2 * s)
    d = m[1:] * h
    taps[1:] = ((d + h / 2.0) ** (2 * s) - (d - h / 2.0) ** (2 * s)) / (2 * s)
    return c * taps


def _singular_cell_2d(h: float, s: float) -> float:
    """Integral of |z|^(2s-2) over the square [-h/2, h/2]^2 by polar reduction.

    Splitting the square into 8 congruent triangles leaves a smooth 1-D integral
    of sec(theta)^(2s) over [0, pi/4].
    """
    sec_int, err = quad(lambda t: np.cos(t) ** (-2.0 * s), 0.0, np.pi / 4.0, epsabs=1e-14)
    if err > 1e-10:
        raise RuntimeError(f"singular-cell quadrature failed to converge (err {err:.1e})")
    return (8.0 / (2.0 * s)) * (h / 2.0) ** (2.0 * s) * sec_int


def _gl_rule(h: float, subdivisions: int, order: int) -> tuple:
    """Tensor Gauss-Legendre rule over [-h/2, h/2]^2: flat nodes (one axis) and weights."""
    x, w = roots_legendre(order)
    edges = np.linspace(-h / 2.0, h / 2.0, subdivisions + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def _taps_2d(grid: Grid, s: float) -> np.ndarray:
    """Cell integrals of c(2,s)|x|^(2s-2) at displacements (i h, j h), i,j in [0, N).

    Off-center cells are regular, so fixed Gauss-Legendre rules suffice; the rule is
    refined near the singularity where the integrand still varies strongly.  The
    table is built in blocks of rows, so the node arrays stay near TAP_BLOCK_CELLS
    cells whatever N is; every cell's sum is the same however the rows are cut.
    """
    n, h = grid.points_per_axis, grid.spacing
    c = riesz_constant(2, s)
    expo = s - 1.0  # (|d - z|^2)^(s-1)
    taps = np.zeros((n, n))
    taps[0, 0] = _singular_cell_2d(h, s)
    # (subdivisions, order) per distance band; the band edges were chosen so that
    # doubling either parameter moves no tap by more than ~1e-12 relative.
    bands = [(lo, hi, *_gl_rule(h, q, g))
             for lo, hi, q, g in ((1, 2, 8, 12), (3, 6, 2, 10), (7, None, 1, 8))]
    rows = max(1, TAP_BLOCK_CELLS // n)
    for r0 in range(0, n, rows):
        ii, jj = np.meshgrid(np.arange(r0, min(r0 + rows, n)), np.arange(n), indexing="ij")
        dinf = np.maximum(ii, jj)
        block = taps[r0:r0 + rows]
        for lo, hi, nodes, wts in bands:
            sel = (dinf >= lo) if hi is None else ((dinf >= lo) & (dinf <= hi))
            sel &= ~((ii == 0) & (jj == 0))
            if not sel.any():
                continue
            dx = ii[sel, None, None] * h - nodes[None, :, None]
            dy = jj[sel, None, None] * h - nodes[None, None, :]
            vals = (dx ** 2 + dy ** 2) ** expo
            block[sel] = np.einsum("kab,a,b->k", vals, wts, wts)
    return c * taps


# ---------------------------------------------------------------------------
# Operator realization
# ---------------------------------------------------------------------------


def _second_difference_symbol(m: int, h: float, dim: int) -> np.ndarray:
    """Symbol of the (negative) discrete Laplacian on an m-point periodic box,
    laid out like an rfftn half-spectrum: (4/h^2) sum over the axes, first axis
    first, of sin^2(pi k), k from fftfreq on the leading axes, rfftfreq on the last."""
    freqs = [np.fft.fftfreq(m)] * (dim - 1) + [np.fft.rfftfreq(m)]
    return (4.0 / h**2) * sum(np.sin(np.pi * k) ** 2
                              for k in np.meshgrid(*freqs, indexing="ij", sparse=True))


class FracOperator:
    """The Riesz potential on one (grid, s) with its cached kernel tables.

    `mode` may name FREESPACE, the only realization; any other value raises
    ValueError."""

    def __init__(self, grid: Grid, params: FracParams, mode: str = FREESPACE):
        if params.dim != grid.dim:
            raise ValueError(f"params.dim = {params.dim} does not match grid.dim = {grid.dim}")
        if mode != FREESPACE:
            raise ValueError(f"unknown operator mode {mode!r}")
        self.grid = grid
        self.params = params
        taps = _taps_1d(grid, params.s) if grid.dim == 1 else _taps_2d(grid, params.s)
        self.taps = taps
        n = grid.points_per_axis
        emb = taps
        for axis in range(grid.dim):  # taps, a zero slice, then taps[1:] flipped
            e = np.moveaxis(emb, axis, 0)
            emb = np.moveaxis(np.concatenate([e, np.zeros_like(e[:1]), e[:0:-1]]), 0, axis)
        self._taps_hat = np.fft.rfftn(emb)
        # zero-padded data rows; convolve writes only their first N columns
        self._pad = np.zeros(taps.shape[:-1] + (2 * n,))
        # the forward spectra; in 2-D convolve writes only the first N rows
        self._cbuf = np.zeros(self._taps_hat.shape, complex)

    def stiffness_bound(self) -> float:
        """max over Fourier modes of (second-difference symbol) * (kernel symbol).

        Bounds the decay rate of the linearized density-weighted diffusion
        div(u grad K du): a mode decays at rate <= u * bound, so an explicit
        Euler step is non-amplifying when dt * u_max * bound <= 2.  Because
        the kernel symbol behaves like |k|^(-2s), the bound scales like
        h^(2s-2): the diffusion constraint dt ~ h^(2-2s) beats the advective
        CFL dt ~ h on fine grids whenever s < 1/2."""
        # circulant symbol of the embedded kernel; taps are symmetric so it
        # is real up to roundoff
        n = self.grid.points_per_axis
        kernel = np.maximum(self._taps_hat.real, 0.0)
        lap = _second_difference_symbol(2 * n, self.grid.spacing, self.grid.dim)
        return float((lap * kernel).max())

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """The potential of a value array shaped like this grid: the pruned
        rfftn/irfftn pair of the module docstring on the operator's padded
        scratch, with numpy's lengths and factors (1 forward, 1/(2N) inverse),
        hence its bits.  Every call returns a fresh array, since a run keeps
        the pressures it records; the scratch makes the call non-reentrant.
        `run` calls it once per state, the obstacle CG once per product."""
        # positional pypocketfft arguments (a, axes, [lastsize,] forward, inorm,
        # out, nthreads): keywords cost about half a microsecond a call
        n = self.grid.points_per_axis
        self._pad[..., :n] = values
        if values.ndim == 1:
            spec = r2c(self._pad, (0,), True, 0, self._cbuf, 1)
        else:
            r2c(self._pad, (1,), True, 0, self._cbuf[:n], 1)
            spec = c2c(self._cbuf, (0,), True, 0, None, 1)
        spec *= self._taps_hat
        if values.ndim == 2:
            spec = c2c(spec, (0,), False, 2, spec, 1)[:n]
        return c2r(spec, (values.ndim - 1,), 2 * n, False, 2, None, 1)[..., :n]
