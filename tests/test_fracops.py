import numpy as np
import pytest

from fracpme.fracops import (
    FREESPACE,
    PERIODIC,
    FracOperator,
    FracParams,
    riesz_constant,
)
from fracpme.grid import Field, Grid
from fracpme.oracles import (
    frac_laplacian_gaussian_1d,
    frac_laplacian_gaussian_fourier_1d,
    kernel_matrix,
    periodized_frac_laplacian_gaussian_1d,
    quadrature_tap_2d,
    quadrature_taps_1d,
)


def grid1(L=8.0, N=256):
    return Grid(dim=1, half_width=L, points_per_axis=N)


def gaussian_field(g, width=1.0):
    return Field(g, np.exp(-g.radius2() / (2.0 * width ** 2)), "density")


def test_riesz_constant_closed_forms():
    # c(1, 1/4) = 1/sqrt(2 pi) and c(2, 1/2) = 1/(2 pi)
    assert riesz_constant(1, 0.25) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-14)
    assert riesz_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        FracParams(s=0.0, dim=1)
    with pytest.raises(ValueError):
        FracParams(s=1.0, dim=2)
    with pytest.raises(ValueError):
        FracParams(s=0.6, dim=1)
    with pytest.warns(UserWarning):
        FracParams(s=0.6, dim=1, allow_supercritical=True)
    FracParams(s=0.6, dim=2)  # fine in 2-D


def test_unknown_mode_rejected():
    g = grid1(N=16)
    for mode in ("chebyshev", "periodic", "freespace"):  # no short aliases
        with pytest.raises(ValueError, match="unknown operator mode"):
            FracOperator(g, FracParams(s=0.25, dim=1), mode)


@pytest.mark.parametrize("s", [0.25, 0.4])
@pytest.mark.parametrize("k_mode", [1, 2, 7])
def test_plane_wave_eigenrelation_1d(s, k_mode):
    g = grid1(L=5.0, N=64)
    op = FracOperator(g, FracParams(s=s, dim=1), PERIODIC)
    k = 2.0 * np.pi * k_mode / (2.0 * g.half_width)
    f = Field(g, np.cos(k * g.axis()))
    out = op.frac_laplacian(f)
    err = np.max(np.abs(out.values - k ** (2.0 * s) * f.values)) / k ** (2.0 * s)
    assert err < 1e-12


def test_plane_wave_eigenrelation_2d():
    g = Grid(dim=2, half_width=3.0, points_per_axis=32)
    s = 0.5
    op = FracOperator(g, FracParams(s=s, dim=2), PERIODIC)
    kx = 2.0 * np.pi * 3 / (2.0 * g.half_width)
    ky = 2.0 * np.pi * 1 / (2.0 * g.half_width)
    x0, x1 = g.coords()
    f = Field(g, np.cos(kx * x0) * np.cos(ky * x1))
    lam = (kx ** 2 + ky ** 2) ** s
    out = op.frac_laplacian(f)
    assert np.max(np.abs(out.values - lam * f.values)) / lam < 1e-12


def test_constant_maps_to_zero():
    g = grid1(N=32)
    op = FracOperator(g, FracParams(s=0.3, dim=1), PERIODIC)
    f = Field(g, np.full(g.shape, 2.5))
    assert op.frac_laplacian(f).linf() < 1e-13
    assert op.inverse(f).linf() < 1e-13  # zero mode dropped


def test_periodic_round_trip():
    rng = np.random.default_rng(7)
    g = grid1(N=128)
    op = FracOperator(g, FracParams(s=0.25, dim=1), PERIODIC)
    f = Field(g, rng.random(g.shape))
    back = op.inverse(op.frac_laplacian(f))
    target = f.values - f.values.mean()
    assert np.linalg.norm(back.values - target) / np.linalg.norm(target) < 1e-10


def test_freespace_taps_match_quadrature_1d():
    g = grid1(L=6.0, N=512)
    s = 0.25
    op = FracOperator(g, FracParams(s=s, dim=1), FREESPACE)
    oracle = quadrature_taps_1d(g, s)
    assert np.max(np.abs(op.taps - oracle) / oracle) < 1e-12


def test_freespace_inverse_matches_quadrature_oracle_on_gaussian():
    # acceptance item: K_s applied to a sampled Gaussian against kernel weights
    # recomputed by adaptive quadrature, N = 512
    g = grid1(L=6.0, N=512)
    s = 0.25
    op = FracOperator(g, FracParams(s=s, dim=1), FREESPACE)
    f = gaussian_field(g)
    got = op.inverse(f).values
    taps = quadrature_taps_1d(g, s)
    idx = np.abs(np.arange(g.points_per_axis)[:, None] - np.arange(g.points_per_axis)[None, :])
    ref = taps[idx] @ f.values
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("mx,my", [(0, 0), (1, 0), (1, 1), (5, 3)])
def test_freespace_taps_match_quadrature_2d(mx, my):
    g = Grid(dim=2, half_width=2.0, points_per_axis=16)
    s = 0.5
    op = FracOperator(g, FracParams(s=s, dim=2), FREESPACE)
    assert op.taps[mx, my] == pytest.approx(quadrature_tap_2d(g, s, mx, my), rel=1e-12)


def test_freespace_far_field_of_box():
    # mass-1 box: K_s u at x = 10 approaches the kernel tail c |x|^(2s-1)
    L, N, s = 12.0, 384, 0.25
    g = grid1(L=L, N=N)
    x = g.axis()
    vals = np.where(np.abs(x) <= 0.5, 1.0, 0.0)
    f = Field(g, vals / (vals.sum() * g.spacing), "density")
    op = FracOperator(g, FracParams(s=s, dim=1), FREESPACE)
    p = op.inverse(f)
    i10 = int(np.argmin(np.abs(x - 10.0)))
    tail = riesz_constant(1, s) * np.abs(x[i10]) ** (2.0 * s - 1.0)
    assert abs(p.values[i10] - tail) / tail < 0.01
    i8 = int(np.argmin(np.abs(x - 8.0)))
    tail8 = riesz_constant(1, s) * np.abs(x[i8]) ** (2.0 * s - 1.0)
    assert abs(p.values[i8] - tail8) / tail8 < 0.01


def test_freespace_inverse_positivity():
    rng = np.random.default_rng(11)
    g = grid1(L=3.0, N=128)
    op = FracOperator(g, FracParams(s=0.25, dim=1), FREESPACE)
    f = Field(g, rng.random(g.shape), "density")
    assert op.inverse(f).values.min() >= 0.0


def test_dense_matrix_agrees_with_convolution():
    rng = np.random.default_rng(5)
    g = grid1(L=4.0, N=512)
    op = FracOperator(g, FracParams(s=0.25, dim=1), FREESPACE)
    f = rng.random(g.shape)
    via_dense = kernel_matrix(op, np.arange(g.npoints)) @ f
    via_conv = op.inverse(Field(g, f)).values
    assert np.max(np.abs(via_dense - via_conv)) / np.max(np.abs(via_dense)) < 1e-8

    g2 = Grid(dim=2, half_width=2.0, points_per_axis=24)
    op2 = FracOperator(g2, FracParams(s=0.5, dim=2), FREESPACE)
    f2 = rng.random(g2.shape)
    via_dense2 = (kernel_matrix(op2, np.arange(g2.npoints)) @ f2.ravel()).reshape(g2.shape)
    via_conv2 = op2.inverse(Field(g2, f2)).values
    assert np.max(np.abs(via_dense2 - via_conv2)) / np.max(np.abs(via_dense2)) < 1e-8


def test_kernel_submatrix_consistent_with_dense():
    g = Grid(dim=2, half_width=2.0, points_per_axis=12)
    op = FracOperator(g, FracParams(s=0.5, dim=2), FREESPACE)
    dense = kernel_matrix(op, np.arange(g.npoints))
    # row-major block gather of the tap table, independent of the flat indexing
    d = np.abs(np.arange(12)[:, None] - np.arange(12)[None, :])
    blocks = op.taps[d[:, None, :, None], d[None, :, None, :]].reshape(g.npoints, g.npoints)
    assert np.array_equal(dense, blocks)
    idx = np.array([0, 5, 17, 100, 143])
    sub = kernel_matrix(op, idx)
    assert np.allclose(sub, dense[np.ix_(idx, idx)], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("mode", [PERIODIC, FREESPACE])
def test_self_adjointness(mode):
    rng = np.random.default_rng(13)
    g = grid1(L=3.0, N=128)
    op = FracOperator(g, FracParams(s=0.3, dim=1), mode)
    f = Field(g, rng.random(g.shape))
    v = Field(g, rng.random(g.shape))
    if mode == PERIODIC:
        lf, lv = op.frac_laplacian(f), op.frac_laplacian(v)
        a = np.dot(lf.values, v.values)
        b = np.dot(f.values, lv.values)
        assert abs(a - b) / abs(a) < 1e-12
    else:
        # the freespace realization has the inverse only
        with pytest.raises(ValueError, match="periodic"):
            op.frac_laplacian(f)
    kf, kv = op.inverse(f), op.inverse(v)
    a = np.dot(kf.values, v.values)
    b = np.dot(f.values, kv.values)
    assert abs(a - b) / abs(a) < 1e-12


@pytest.mark.parametrize("mode", [PERIODIC, FREESPACE])
def test_energy_identity(mode):
    # h <f, K f> is the squared norm of the half operator K^(1/2) f, computed
    # here independently: Parseval on the full FFT (periodic) or the
    # eigendecomposition of the kernel matrix (freespace)
    rng = np.random.default_rng(17)
    g = grid1(L=3.0, N=256)
    op = FracOperator(g, FracParams(s=0.25, dim=1), mode)
    f = Field(g, rng.random(g.shape), "density")
    h = g.spacing
    quad_form = h * np.dot(f.values, op.inverse(f).values)
    if mode == PERIODIC:
        k = 2.0 * np.pi * np.fft.fftfreq(g.points_per_axis, d=h)
        with np.errstate(divide="ignore"):
            symbol = np.where(k == 0.0, 0.0, np.abs(k) ** (-2.0 * 0.25))
        fhat = np.fft.fft(f.values)
        norm_sq = h * float(np.sum(symbol * np.abs(fhat) ** 2)) / g.points_per_axis
    else:
        vals, vecs = np.linalg.eigh(kernel_matrix(op, np.arange(g.npoints)))
        assert vals.min() > 0.0
        half = (vecs * np.sqrt(vals)) @ vecs.T @ f.values
        norm_sq = h * np.dot(half, half)
    assert abs(quad_form - norm_sq) / quad_form < 1e-10


def test_zero_field_fixed_points():
    g = grid1(N=32)
    op = FracOperator(g, FracParams(s=0.25, dim=1), FREESPACE)
    z = Field(g, np.zeros(g.shape))
    assert op.inverse(z).linf() == 0.0


def test_periodic_gaussian_against_singular_integral_oracle():
    # the spectral operator acts on the periodization of the sampled Gaussian,
    # so the oracle integrates the periodized function
    for s, supercrit in ((0.25, False), (0.5, True)):
        g = grid1(L=10.0, N=512)
        if supercrit:
            with pytest.warns(UserWarning):
                params = FracParams(s=s, dim=1, allow_supercritical=True)
        else:
            params = FracParams(s=s, dim=1)
        op = FracOperator(g, params, PERIODIC)
        f = gaussian_field(g)
        got = op.frac_laplacian(f).values
        idx = np.linspace(0, g.points_per_axis - 1, 25).astype(int)
        ref = periodized_frac_laplacian_gaussian_1d(g.axis()[idx], s, 2.0 * g.half_width)
        assert np.max(np.abs(got[idx] - ref)) / np.max(np.abs(ref)) < 1e-6


def test_singular_integral_oracle_against_fourier_oracle():
    # two independent oracle routes for the same quantity
    x = np.array([0.0, 0.7, 2.3])
    for s in (0.25, 0.5):
        a = frac_laplacian_gaussian_1d(x, s)
        b = frac_laplacian_gaussian_fourier_1d(x, s)
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-12


def test_mode_consistency_improves_with_box_size():
    # periodic and freespace grad K f agree on the support as the box grows;
    # the gap shrinks like a kernel-tail effect, measured here, not pinned
    s = 0.25
    gaps = []
    for L, N in ((6.0, 192), (12.0, 384)):
        g = grid1(L=L, N=N)
        x = g.axis()
        f = Field(g, np.where(np.abs(x) <= 1.0, (1.0 - x ** 2) ** 2, 0.0), "density")
        params = FracParams(s=s, dim=1)
        # face differences of the pressure, as the stepper forms them
        wp = np.diff(FracOperator(g, params, PERIODIC).inverse(f).values) / g.spacing
        wf = np.diff(FracOperator(g, params, FREESPACE).inverse(f).values) / g.spacing
        on_supp = np.abs(g.interior_faces()) <= 1.0
        gaps.append(np.max(np.abs(wp - wf)[on_supp]))
    assert gaps[1] < gaps[0] / 2.0


def test_grid_mismatch_rejected():
    g = grid1(N=32)
    other = grid1(L=2.0, N=32)
    op = FracOperator(g, FracParams(s=0.25, dim=1), PERIODIC)
    with pytest.raises(ValueError):
        op.frac_laplacian(Field(other, np.zeros(other.shape)))
