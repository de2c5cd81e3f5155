"""Fractional Laplacian and its inverse potential on a grid.

Two realizations of the operator family are provided:

* ``periodic_spectral``: Fourier multipliers on the periodized box, |k|^(2s) for the
  fractional Laplacian and |k|^(-2s) for the inverse, with the zero mode of the
  inverse mapped to 0.  Exact on plane waves.
* ``freespace_kernel``: the inverse is realized as convolution with the Riesz kernel
  c(n,s) |x|^(2s-n), discretized by exact cell averages of the kernel over each source
  cell (the singular cell via closed form in 1-D and a polar-coordinate reduction in
  2-D).  The operator is translation invariant, so a single tap table drives both a
  zero-padded circular convolution (any grid) and the dense kernel submatrices that
  the pivoting oracles take.  Only the inverse exists in this mode.

The convolution runs on the 2N-point embedding one axis at a time, pruned: the
forward transforms zero-pad the N data rows themselves, and only the N rows that
are kept pass through the last-axis inverse.  Every 1-D transform is the one
``rfftn``/``irfftn`` of the padded box would run, so the result has their bits.
The 2-D tap table is built in blocks of rows, which bounds the Gauss-Legendre node
arrays to about TAP_BLOCK_CELLS cells at any N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, roots_legendre

from .grid import Field, Grid

PERIODIC = "periodic_spectral"
FREESPACE = "freespace_kernel"
TAP_BLOCK_CELLS = 2048  # cells per row block of the 2-D tap build


def riesz_constant(n: int, s: float) -> float:
    """Normalization c(n,s) = Gamma((n-2s)/2) / (4^s pi^(n/2) Gamma(s)).

    With this constant, convolution against c(n,s)|x|^(2s-n) has Fourier symbol
    |k|^(-2s), i.e. it inverts the fractional Laplacian.  Positive for 2s < n.
    """
    return float(gamma((n - 2.0 * s) / 2.0) / (4.0 ** s * np.pi ** (n / 2.0) * gamma(s)))


@dataclass(frozen=True)
class FracParams:
    """Order parameter s with its validity range tied to the dimension.

    In one dimension the inverse potential requires s < 1/2; larger s is admitted
    only with allow_supercritical=True and comes with a warning (the kernel constant
    changes sign there, so the freespace realization loses positivity).
    """

    s: float
    dim: int
    allow_supercritical: bool = False

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.dim == 1 and self.s >= 0.5:
            if not self.allow_supercritical:
                raise ValueError(
                    f"s = {self.s} >= 1/2 with dim = 1 is outside the supported range; "
                    "pass allow_supercritical=True to override"
                )
            warnings.warn(
                f"dim = 1 with s = {self.s} >= 1/2: inverse-potential kernel is not "
                "positive, results are exploratory",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Exponents:
    """Similarity exponents for dimension n and order s.

    beta = 1/(n+2-2s) scales space, alpha = n beta scales amplitude (so that
    mass is conserved), and a = beta/2 is the obstacle-parabola coefficient.
    alpha + (2-2s) beta = 1 by construction.  They depend on (n, s) alone, so
    the flow and its diagnostics build them from the operator.
    """

    n: int
    s: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")

    @property
    def beta(self) -> float:
        return 1.0 / (self.n + 2.0 - 2.0 * self.s)

    @property
    def alpha(self) -> float:
        return self.n * self.beta

    @property
    def a(self) -> float:
        return self.beta / 2.0


# ---------------------------------------------------------------------------
# Kernel tap tables (cell-averaged Riesz kernel, freespace realization)
# ---------------------------------------------------------------------------


def _taps_1d(grid: Grid, s: float) -> np.ndarray:
    """Cell integrals of c(1,s)|x|^(2s-1) at displacements 0, h, ..., (N-1) h.

    The antiderivative of |z|^(2s-1) is |z|^(2s) sign(z) / (2s), which gives every
    tap in closed form, the singular one included.
    """
    n, h = grid.points_per_axis, grid.spacing
    c = riesz_constant(1, s)
    if not np.isfinite(c):
        raise ValueError(f"Riesz kernel normalization diverges at 2s = n (s = {s}, n = 1)")
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
    """Symbol of the (negative) discrete Laplacian on an m-point periodic axis,
    laid out like an rfftn half-spectrum."""
    k1 = np.fft.fftfreq(m)
    kr = np.abs(np.fft.rfftfreq(m))
    if dim == 1:
        return (4.0 / h**2) * np.sin(np.pi * kr) ** 2
    return (4.0 / h**2) * (
        np.sin(np.pi * k1[:, None]) ** 2 + np.sin(np.pi * kr[None, :]) ** 2
    )


class FracOperator:
    """One (grid, s, mode) realization with cached multipliers / kernel tables."""

    def __init__(self, grid: Grid, params: FracParams, mode: str):
        if params.dim != grid.dim:
            raise ValueError(f"params.dim = {params.dim} does not match grid.dim = {grid.dim}")
        if mode not in (PERIODIC, FREESPACE):
            raise ValueError(f"unknown operator mode {mode!r}")
        self.grid = grid
        self.s = params.s
        self.mode = mode
        self._stiffness = None

        if mode == PERIODIC:
            k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
            kr = k1[: grid.points_per_axis // 2 + 1].copy()
            kr[-1] = abs(k1[grid.points_per_axis // 2])  # Nyquist enters positive
            if grid.dim == 1:
                kabs = np.abs(kr)
            else:
                kabs = np.sqrt(k1[:, None] ** 2 + kr[None, :] ** 2)
            self._mult_lap = kabs ** (2.0 * self.s)
            with np.errstate(divide="ignore"):
                inv = kabs ** (-2.0 * self.s)
            inv[~np.isfinite(inv)] = 0.0
            self._mult_inv = inv
        else:
            taps = _taps_1d(grid, self.s) if grid.dim == 1 else _taps_2d(grid, self.s)
            self.taps = taps
            n = grid.points_per_axis
            if grid.dim == 1:
                emb = np.zeros(2 * n)
                emb[:n] = taps
                emb[n + 1:] = taps[1:][::-1]
            else:
                emb = np.zeros((2 * n, 2 * n))
                emb[:n, :n] = taps
                emb[n + 1:, :n] = taps[1:, :][::-1, :]
                emb[:n, n + 1:] = taps[:, 1:][:, ::-1]
                emb[n + 1:, n + 1:] = taps[1:, 1:][::-1, ::-1]
            self._taps_hat = np.fft.rfftn(emb)
            self._pad_shape = emb.shape

    # -- internals ---------------------------------------------------------

    def _spectral_apply(self, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
        axes = tuple(range(values.ndim))
        fh = np.fft.rfftn(values)
        return np.fft.irfftn(fh * mult, s=values.shape, axes=axes)

    def _check_field(self, f: Field):
        if f.grid is not self.grid and not f.grid.compatible(self.grid):
            raise ValueError("field grid does not match operator grid")

    def stiffness_bound(self) -> float:
        """max over Fourier modes of (second-difference symbol) * (kernel symbol).

        Bounds the decay rate of the linearized density-weighted diffusion
        div(u grad K du): a mode decays at rate <= u * bound, so an explicit
        Euler step is non-amplifying when dt * u_max * bound <= 2.  Because
        the kernel symbol behaves like |k|^(-2s), the bound scales like
        h^(2s-2): the diffusion constraint dt ~ h^(2-2s) beats the advective
        CFL dt ~ h on fine grids whenever s < 1/2.  Freespace realization
        only, like the flow it bounds."""
        if self._stiffness is None:
            # circulant symbol of the embedded kernel; taps are symmetric so
            # it is real up to roundoff
            kernel = np.maximum(self._taps_hat.real, 0.0)
            lap = _second_difference_symbol(self._pad_shape[0], self.grid.spacing,
                                             self.grid.dim)
            self._stiffness = float((lap * kernel).max())
        return self._stiffness

    # -- public applications -------------------------------------------------

    def frac_laplacian(self, f: Field) -> Field:
        if self.mode != PERIODIC:
            raise ValueError("fractional Laplacian exists only for the periodic realization")
        self._check_field(f)
        return Field(self.grid, self._spectral_apply(f.values, self._mult_lap))

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """The freespace inverse of a value array on this grid, unchecked: the
        pruned rfftn/irfftn pair of the module docstring.  The flow kernel
        calls it once per state; `inverse` is it behind the Field checks."""
        n = self.grid.points_per_axis
        spec = np.fft.rfft(values, 2 * n, axis=-1)
        if values.ndim == 2:
            spec = np.fft.fft(spec, 2 * n, axis=0)
        spec *= self._taps_hat
        if values.ndim == 2:
            spec = np.fft.ifft(spec, axis=0)[:n]
        return np.fft.irfft(spec, 2 * n, axis=-1)[..., :n]

    def inverse(self, f: Field) -> Field:
        self._check_field(f)
        if self.mode == PERIODIC:
            out = self._spectral_apply(f.values, self._mult_inv)
        else:
            out = self.convolve(f.values)
        return Field(self.grid, out)
