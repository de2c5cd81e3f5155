import tracemalloc

import numpy as np
import pytest

from fracpme import fracops
from fracpme.fracops import FracOperator, FracParams, riesz_constant
from fracpme.grid import Field, Grid
from fracpme.oracles import kernel_matrix, quadrature_taps_1d, riesz_potential_gaussian
from reference_oracles import quadrature_tap_2d


def grid1(L=8.0, N=256):
    return Grid(dim=1, half_width=L, points_per_axis=N)


def gaussian_field(g, width=1.0):
    return Field(g, np.exp(-g.radius2() / (2.0 * width ** 2)))


def test_riesz_constant_closed_forms():
    # c(1, 1/4) = 1/sqrt(2 pi) and c(2, 1/2) = 1/(2 pi)
    assert riesz_constant(1, 0.25) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-14)
    assert riesz_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


def test_riesz_constant_diverges_at_2s_equal_n():
    with pytest.raises(ValueError, match="diverges at 2s = n"):
        riesz_constant(1, 0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        FracParams(s=0.0, dim=1)
    with pytest.raises(ValueError):
        FracParams(s=1.0, dim=2)
    for s in (0.5, 0.6):
        with pytest.raises(ValueError, match="needs s < 1/2 in one dimension"):
            FracParams(s=s, dim=1)
    FracParams(s=0.6, dim=2)  # fine in 2-D


def test_unknown_mode_rejected():
    # the freespace kernel is the only realization: naming it builds the same
    # operator, and any other name is refused
    g = grid1(N=16)
    params = FracParams(s=0.25, dim=1)
    named = FracOperator(g, params, fracops.FREESPACE)
    assert named.taps.tobytes() == FracOperator(g, params).taps.tobytes()
    for mode in ("periodic_spectral", "chebyshev", "periodic", "freespace"):
        with pytest.raises(ValueError, match="unknown operator mode"):
            FracOperator(g, params, mode)


def test_freespace_taps_match_quadrature_1d():
    g = grid1(L=6.0, N=512)
    s = 0.25
    op = FracOperator(g, FracParams(s=s, dim=1))
    oracle = quadrature_taps_1d(g, s)
    assert np.max(np.abs(op.taps - oracle) / oracle) < 1e-12


def test_freespace_inverse_matches_quadrature_oracle_on_gaussian():
    # acceptance item: K_s applied to a sampled Gaussian against kernel weights
    # recomputed by adaptive quadrature, N = 512
    g = grid1(L=6.0, N=512)
    s = 0.25
    op = FracOperator(g, FracParams(s=s, dim=1))
    f = gaussian_field(g)
    got = op.convolve(f.values)
    taps = quadrature_taps_1d(g, s)
    idx = np.abs(np.arange(g.points_per_axis)[:, None] - np.arange(g.points_per_axis)[None, :])
    ref = taps[idx] @ f.values
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("mx,my", [(0, 0), (1, 0), (1, 1), (5, 3)])
def test_freespace_taps_match_quadrature_2d(mx, my):
    g = Grid(dim=2, half_width=2.0, points_per_axis=16)
    s = 0.5
    op = FracOperator(g, FracParams(s=s, dim=2))
    assert op.taps[mx, my] == pytest.approx(quadrature_tap_2d(g, s, mx, my), rel=1e-12)


def test_freespace_far_field_of_box():
    # mass-1 box: K_s u at x = 10 approaches the kernel tail c |x|^(2s-1)
    L, N, s = 12.0, 384, 0.25
    g = grid1(L=L, N=N)
    x = g.axis()
    vals = np.where(np.abs(x) <= 0.5, 1.0, 0.0)
    f = Field(g, vals / (vals.sum() * g.spacing))
    op = FracOperator(g, FracParams(s=s, dim=1))
    p = op.convolve(f.values)
    i10 = int(np.argmin(np.abs(x - 10.0)))
    tail = riesz_constant(1, s) * np.abs(x[i10]) ** (2.0 * s - 1.0)
    assert abs(p[i10] - tail) / tail < 0.01
    i8 = int(np.argmin(np.abs(x - 8.0)))
    tail8 = riesz_constant(1, s) * np.abs(x[i8]) ** (2.0 * s - 1.0)
    assert abs(p[i8] - tail8) / tail8 < 0.01


def test_freespace_inverse_positivity():
    rng = np.random.default_rng(11)
    g = grid1(L=3.0, N=128)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    f = Field(g, rng.random(g.shape))
    assert op.convolve(f.values).min() >= 0.0


def test_dense_matrix_agrees_with_convolution():
    rng = np.random.default_rng(5)
    g = grid1(L=4.0, N=512)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    f = rng.random(g.shape)
    via_dense = kernel_matrix(op, np.arange(g.npoints)) @ f
    via_conv = op.convolve(f)
    assert np.max(np.abs(via_dense - via_conv)) / np.max(np.abs(via_dense)) < 1e-8

    g2 = Grid(dim=2, half_width=2.0, points_per_axis=24)
    op2 = FracOperator(g2, FracParams(s=0.5, dim=2))
    f2 = rng.random(g2.shape)
    via_dense2 = (kernel_matrix(op2, np.arange(g2.npoints)) @ f2.ravel()).reshape(g2.shape)
    via_conv2 = op2.convolve(f2)
    assert np.max(np.abs(via_dense2 - via_conv2)) / np.max(np.abs(via_dense2)) < 1e-8


def test_kernel_submatrix_consistent_with_dense():
    for dim, n, s in ((1, 144, 0.25), (2, 12, 0.5)):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=n)
        op = FracOperator(g, FracParams(s=s, dim=dim))
        dense = kernel_matrix(op, np.arange(g.npoints))
        # row-major block gather of the tap table, independent of the flat indexing
        d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        blocks = (op.taps[d] if dim == 1 else
                  op.taps[d[:, None, :, None], d[None, :, None, :]].reshape(g.npoints, -1))
        assert np.array_equal(dense, blocks)
        # unsorted, with one index repeated: a gather is exact
        idx = np.array([100, 5, 143, 0, 17, 5])
        assert np.array_equal(kernel_matrix(op, idx), dense[np.ix_(idx, idx)])


def test_self_adjointness():
    rng = np.random.default_rng(13)
    g = grid1(L=3.0, N=128)
    op = FracOperator(g, FracParams(s=0.3, dim=1))
    f = Field(g, rng.random(g.shape))
    v = Field(g, rng.random(g.shape))
    kf, kv = op.convolve(f.values), op.convolve(v.values)
    a = np.dot(kf, v.values)
    b = np.dot(f.values, kv)
    assert abs(a - b) / abs(a) < 1e-12


def test_energy_identity():
    # h <f, K f> is the squared norm of the half operator K^(1/2) f, computed
    # here independently from the eigendecomposition of the kernel matrix
    rng = np.random.default_rng(17)
    g = grid1(L=3.0, N=256)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    f = Field(g, rng.random(g.shape))
    h = g.spacing
    quad_form = h * np.dot(f.values, op.convolve(f.values))
    vals, vecs = np.linalg.eigh(kernel_matrix(op, np.arange(g.npoints)))
    assert vals.min() > 0.0
    half = (vecs * np.sqrt(vals)) @ vecs.T @ f.values
    norm_sq = h * np.dot(half, half)
    assert abs(quad_form - norm_sq) / quad_form < 1e-10


def test_zero_field_fixed_points():
    g = grid1(N=32)
    op = FracOperator(g, FracParams(s=0.25, dim=1))
    assert np.abs(op.convolve(np.zeros(g.shape))).max() == 0.0


@pytest.mark.parametrize("dim, s, half_width, sizes, bound", [
    (1, 0.45, 12.0, (192, 384), 3e-5),
    (2, 0.9, 10.0, (48, 96), 1e-3),
    (2, 0.25, 10.0, (96, 192), 1e-3),
], ids=["1d-s0.45", "2d-s0.9", "2d-s0.25"])
def test_gaussian_potential_matches_closed_form(dim, s, half_width, sizes, bound):
    # the whole operator (taps, 2N embedding, pruned FFT) against the Riesz
    # potential of a Gaussian in closed form, at grids verify check 1 skips;
    # the error at the finer grid and the observed order between the two
    errors = []
    for n in sizes:
        g = Grid(dim=dim, half_width=half_width, points_per_axis=n)
        r2 = g.radius2()
        got = FracOperator(g, FracParams(s=s, dim=dim)).convolve(np.exp(-r2 / 2.0))
        ref = riesz_potential_gaussian(r2, dim, s)
        errors.append(np.abs(got - ref).max() / np.abs(ref).max())
    assert errors[1] < bound
    assert np.log2(errors[0] / errors[1]) >= 1.5


def test_closed_form_matches_fourier_quadrature():
    # the closed form against its defining Fourier integral, 1-D and 2-D
    from scipy.integrate import quad
    from scipy.special import j0

    for x in (0.0, 1.3, 5.0):
        one, _ = quad(lambda k: k ** -0.5 * np.exp(-k * k / 2.0) * np.cos(k * x),
                      0.0, np.inf, limit=400, epsabs=1e-14)
        two, _ = quad(lambda k: np.exp(-k * k / 2.0) * j0(k * x), 0.0, np.inf,
                      limit=400, epsabs=1e-14)
        assert riesz_potential_gaussian(x * x, 1, 0.25) == pytest.approx(
            one * np.sqrt(2.0 / np.pi), rel=1e-10)
        assert riesz_potential_gaussian(x * x, 2, 0.5) == pytest.approx(two, rel=1e-10)


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 96), (1, 512), (1, 1000), (1, 1024),
                                    (2, 8), (2, 40), (2, 48), (2, 96), (2, 128)])
def test_conv_apply_matches_padded_rfftn(dim, n):
    # the pruned per-axis transforms give the bits of the full padded pair;
    # the 2N lengths 192, 2000 and 80 take pocketfft's radix-3 and -5 passes.
    # A second input between two calls on the same input shows that neither
    # the cached plans nor the operator's padded scratch carry anything over.
    g = Grid(dim=dim, half_width=6.0, points_per_axis=n)
    op = FracOperator(g, FracParams(s=0.25 if dim == 1 else 0.5, dim=dim))
    rng = np.random.default_rng(n)
    values, other = rng.random(g.shape), rng.random(g.shape)
    axes = tuple(range(dim))
    spec = np.fft.rfftn(values, s=(2 * n,) * dim, axes=axes)
    reference = np.fft.irfftn(spec * op._taps_hat, s=(2 * n,) * dim, axes=axes)
    reference = reference[(slice(0, n),) * dim].tobytes()
    first = op.convolve(values)
    op.convolve(other)
    again = op.convolve(values)
    assert first.shape == again.shape == g.shape
    assert first.tobytes() == reference
    assert again.tobytes() == reference


@pytest.mark.parametrize("dim", [1, 2])
def test_convolve_returns_a_fresh_array(dim):
    # a run keeps the pressure of every recorded state, so no call may hand
    # back memory that the input, another call's result or the operator's
    # own arrays (taps, symbol, scratch) hold
    g = Grid(dim=dim, half_width=6.0, points_per_axis=16)
    op = FracOperator(g, FracParams(s=0.25, dim=dim))
    rng = np.random.default_rng(dim)
    values, other = rng.random(g.shape), rng.random(g.shape)
    first = op.convolve(values)
    kept = first.tobytes()
    second = op.convolve(other)
    assert first.tobytes() == kept
    assert second.tobytes() != kept
    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    assert len(held) >= 3
    for result in (first, second):
        for a in (values, other, *held):
            assert not np.shares_memory(result, a)
    assert not np.shares_memory(first, second)


def explicit_embedding(taps):
    """The 2N-point embedding written out per dimension: the taps, a zero
    slice, then the negative displacements, taps[1:] flipped."""
    n = taps.shape[0]
    if taps.ndim == 1:
        emb = np.zeros(2 * n)
        emb[:n] = taps
        emb[n + 1:] = taps[1:][::-1]
        return emb
    emb = np.zeros((2 * n, 2 * n))
    emb[:n, :n] = taps
    emb[n + 1:, :n] = taps[1:, :][::-1, :]
    emb[:n, n + 1:] = taps[:, 1:][:, ::-1]
    emb[n + 1:, n + 1:] = taps[1:, 1:][::-1, ::-1]
    return emb


def explicit_symbol(m, h, dim):
    """The second-difference symbol written out per dimension."""
    k1 = np.fft.fftfreq(m)
    kr = np.fft.rfftfreq(m)
    if dim == 1:
        return (4.0 / h**2) * np.sin(np.pi * kr) ** 2
    return (4.0 / h**2) * (np.sin(np.pi * k1[:, None]) ** 2 + np.sin(np.pi * kr[None, :]) ** 2)


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 96), (1, 1000), (1, 1024),
                                    (2, 8), (2, 40), (2, 128)])
def test_geometry_matches_explicit_per_dimension_build(dim, n):
    # the golden digests skip on another numpy, scipy or SIMD target; this
    # pins the one-path embedding and symbol to the written-out ones anywhere
    g = Grid(dim=dim, half_width=6.0, points_per_axis=n)
    op = FracOperator(g, FracParams(s=0.25 if dim == 1 else 0.5, dim=dim))
    taps_hat = np.fft.rfftn(explicit_embedding(op.taps))
    assert op._taps_hat.tobytes() == taps_hat.tobytes()
    lap = explicit_symbol(2 * n, g.spacing, dim)
    assert op.stiffness_bound() == float((lap * np.maximum(taps_hat.real, 0.0)).max())


def unblocked_taps_2d(grid, s):
    """The 2-D tap table with every cell's node array built at once."""
    n, h = grid.points_per_axis, grid.spacing
    taps = np.zeros((n, n))
    taps[0, 0] = fracops._singular_cell_2d(h, s)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dinf = np.maximum(ii, jj)
    for lo, hi, q, g in ((1, 2, 8, 12), (3, 6, 2, 10), (7, None, 1, 8)):
        sel = (dinf >= lo) if hi is None else ((dinf >= lo) & (dinf <= hi))
        sel &= ~((ii == 0) & (jj == 0))
        nodes, wts = fracops._gl_rule(h, q, g)
        dx = ii[sel, None, None] * h - nodes[None, :, None]
        dy = jj[sel, None, None] * h - nodes[None, None, :]
        vals = (dx ** 2 + dy ** 2) ** (s - 1.0)
        taps[sel] = np.einsum("kab,a,b->k", vals, wts, wts)
    return riesz_constant(2, s) * taps


@pytest.mark.parametrize("block_cells", [32, 3 * 32, 5 * 32, 2048])
def test_blocked_taps_match_unblocked_build(monkeypatch, block_cells):
    # 1-, 3- and 5-row blocks (the last one short) and a single block
    g = Grid(dim=2, half_width=6.0, points_per_axis=32)
    monkeypatch.setattr(fracops, "TAP_BLOCK_CELLS", block_cells)
    assert fracops._taps_2d(g, 0.5).tobytes() == unblocked_taps_2d(g, 0.5).tobytes()


def test_tap_build_memory_is_bounded():
    # the unblocked N = 128 build peaks near 18.6 MiB of node arrays
    g = Grid(dim=2, half_width=6.0, points_per_axis=128)
    tracemalloc.start()
    try:
        fracops._taps_2d(g, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
