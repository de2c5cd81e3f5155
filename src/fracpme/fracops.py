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
scipy's compiled ``pypocketfft`` module (``r2c``, ``c2c``, ``c2r``, one thread),
which keeps a cache of the plans it builds, so a run of one length pays for its
twiddle tables once.  It is loaded from its extension file in scipy's folder,
which `importlib.util.find_spec` finds without importing scipy: importing it by
name would first run the ``scipy.fft`` package, which loads ``scipy.special``
and scipy's array-API layer (about 0.3 s and 27 MiB of every command on a
2-core x86-64 VM).  It is the pocketfft code that ``np.fft`` calls, and every
1-D transform is the one ``rfftn``/``irfftn`` of the padded box would run, on the
same data and in the same order, so the result has their bits;
``test_conv_apply_matches_padded_rfftn`` gates that.  The kernel symbol is the
same module's ``rfftn`` of the embedding, and the stiffness symbol takes numpy's
``fftfreq``/``rfftfreq`` values from ``arange``, so no run loads ``numpy.fft``
either (about 2 ms on the first operator of a process).  The inverse factor
(``inorm=2``) is 1/(2N) rounded through long double, which is numpy's double
1/(2N) except at a sparse set of lengths, the smallest N = 2731, where the last
bit of the potential may differ.  Each operator holds zero-padded scratch that
``convolve`` writes only in its data part, so ``convolve`` is not reentrant: an
operator must not be shared between threads (``fan_out`` forks processes, and
no package code shares one).
The 2-D tap table is built in blocks of rows, which bounds the Gauss-Legendre node
arrays to about TAP_BLOCK_CELLS cells at any N.  Every Gauss-Legendre rule, the
singular cell's included, comes from numpy's ``leggauss``, and Gamma is the
package's own port of Cephes' (`_gamma`, the code ``scipy.special.gamma`` runs,
bit for bit) on 0 < x < 3, which holds every argument it takes: s, n/2 - s and
n/2 with 2s < n <= 2 lie in (0, 1].  So a command imports no part of scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Grid

FREESPACE = "freespace_kernel"
TAP_BLOCK_CELLS = 2048  # cells per row block of the 2-D tap build


def _load_pocketfft():
    """scipy's ``pypocketfft`` extension module, loaded from its file in
    scipy's ``fft/_pocketfft`` folder under a bare name that enters no
    ``sys.modules``; a later ``import scipy.fft`` loads its own copy of the
    same code.  Raises ImportError naming the folder if the file is not
    there."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed: it ships the pocketfft transforms")
    folder = Path(spec.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader("pypocketfft", str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader("pypocketfft", loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no pypocketfft extension module in {folder}")


_pocketfft = _load_pocketfft()
c2c, c2r, r2c = _pocketfft.c2c, _pocketfft.c2r, _pocketfft.r2c

# Cephes' rational approximation of Gamma(2 + x) on x in [0, 1)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


def _gamma(x: float) -> float:
    """Gamma(x) for 0 < x < 3, ported from Cephes' ``Gamma``, which
    ``scipy.special.gamma`` runs; the same float operations in the same order
    give its bits.  The upward recurrence brings x into [2, 3), where the P/Q
    rational takes over; x below 1e-9 takes the two-term expansion.  Every
    argument the package passes lies in (0, 1] (see the module docstring), so
    any x outside (0, 3) raises ValueError."""
    if not 0.0 < x < 3.0:
        raise ValueError(f"gamma is computed for 0 < x < 3 only, got {x}")
    z = 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    p = q = 0.0
    for c in _GAMMA_P:
        p = p * x + c
    for c in _GAMMA_Q:
        q = q * x + c
    return z * p / q


def riesz_constant(n: int, s: float) -> float:
    """Normalization c(n,s) = Gamma((n-2s)/2) / (4^s pi^(n/2) Gamma(s)).

    With this constant, convolution against c(n,s)|x|^(2s-n) has Fourier symbol
    |k|^(-2s), i.e. it inverts the fractional Laplacian.  Positive for 2s < n,
    where both Gamma arguments lie in (0, 1) and `_gamma` is finite.  Raises
    ValueError where `_gamma` refuses an argument (2s >= n, which `FracParams`
    refuses too) and where c falls to 0 because Gamma(s) overflows (s below
    about 1e-308).
    """
    c = _gamma((n - 2.0 * s) / 2.0) / (4.0 ** s * np.pi ** (n / 2.0) * _gamma(s))
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
    of sec(theta)^(2s) over [0, pi/4], which a fixed 16-point Gauss-Legendre rule
    takes to within about 3e-16 relative for any s in (0, 1).
    """
    x, w = leggauss(16)
    theta = (np.pi / 8.0) * (x + 1.0)
    sec_int = (np.pi / 8.0) * float(w @ np.cos(theta) ** (-2.0 * s))
    return (8.0 / (2.0 * s)) * (h / 2.0) ** (2.0 * s) * sec_int


def _gl_rule(h: float, subdivisions: int, order: int) -> tuple:
    """Tensor Gauss-Legendre rule over [-h/2, h/2]^2: flat nodes (one axis) and weights."""
    x, w = leggauss(order)
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
    first, of sin^2(pi k), k from fftfreq on the leading axes, rfftfreq on the last
    (numpy's integers times 1/m, hence its bits)."""
    full = np.arange(m)
    full[(m + 1) // 2:] -= m
    freqs = [full * (1.0 / m)] * (dim - 1) + [np.arange(m // 2 + 1) * (1.0 / m)]
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
        # numpy's rfftn: the last axis real to complex, then the others
        self._taps_hat = r2c(emb, (grid.dim - 1,), True, 0, None, 1)
        for axis in range(grid.dim - 1):
            c2c(self._taps_hat, (axis,), True, 0, self._taps_hat, 1)
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
