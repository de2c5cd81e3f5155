import numpy as np
import pytest

from fracpme.grid import Field, Grid
from fracpme.remap import resample


def smooth_random_density(g, seed=0, modes=6):
    # random trigonometric bump, compactly supported, strictly nonnegative
    rng = np.random.default_rng(seed)
    x = g.axis() / g.half_width
    u = np.ones_like(x)
    for m in range(1, modes + 1):
        u = u + rng.normal(scale=1.0 / m ** 2) * np.cos(np.pi * m * x)
    u = np.clip(u, 0.0, None) * np.where(np.abs(x) < 0.75, np.cos(np.pi * x / 1.5) ** 2, 0.0)
    return Field(g, u)


def test_identity_resample_is_exact():
    g = Grid(dim=1, half_width=4.0, points_per_axis=64)
    f = smooth_random_density(g)
    out = resample(f, g, lam=1.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_mass_exact_under_dilation():
    g = Grid(dim=1, half_width=4.0, points_per_axis=128)
    f = smooth_random_density(g, seed=3)
    for lam in (0.8, 0.9, 1.2):
        out = resample(f, g, lam=lam)
        assert out.mass() == pytest.approx(f.mass() / lam, rel=1e-13)


def test_positivity_preserved():
    g = Grid(dim=1, half_width=4.0, points_per_axis=96)
    rng = np.random.default_rng(5)
    vals = np.clip(rng.normal(size=g.shape), 0.0, None)
    vals[:10] = 0.0
    vals[-10:] = 0.0
    f = Field(g, vals)
    out = resample(f, g, lam=1.1)
    assert out.values.min() >= 0.0


def test_round_trip_error_small():
    # forward dilation then its inverse; contract is relative L1 < 1e-5 at N = 512
    g = Grid(dim=1, half_width=4.0, points_per_axis=512)
    f = smooth_random_density(g, seed=11)
    lam = 2.0 ** 0.4  # dilation for t = 1 at beta = 0.4
    back = resample(resample(f, g, lam=lam), g, lam=1.0 / lam)
    err = np.sum(np.abs(back.values - f.values)) * g.spacing / f.mass()
    assert err < 1e-5


def test_round_trip_error_refines():
    errs = []
    for n in (128, 256):
        g = Grid(dim=1, half_width=4.0, points_per_axis=n)
        f = smooth_random_density(g, seed=11)
        back = resample(resample(f, g, lam=1.3), g, lam=1.0 / 1.3)
        errs.append(np.sum(np.abs(back.values - f.values)) * g.spacing / f.mass())
    assert errs[1] < errs[0] / 6.0  # third order or better


def test_resample_to_different_grid():
    src = Grid(dim=1, half_width=4.0, points_per_axis=256)
    tgt = Grid(dim=1, half_width=6.0, points_per_axis=384)
    f = smooth_random_density(src, seed=7)
    out = resample(f, tgt)
    assert out.mass() == pytest.approx(f.mass(), rel=1e-13)
    # pointwise agreement on the common region at interpolation accuracy
    xi = tgt.axis()
    ref = np.interp(xi, src.axis(), f.values)
    assert np.max(np.abs(out.values - ref)) < 5e-3


def test_2d_separable_mass_and_positivity():
    g = Grid(dim=2, half_width=3.0, points_per_axis=48)
    r2 = g.radius2()
    f = Field(g, np.clip(1.0 - r2, 0.0, None))
    out = resample(f, g, lam=1.25)
    assert out.values.min() >= 0.0
    assert out.mass() == pytest.approx(f.mass() / 1.25 ** 2, rel=1e-13)


def test_support_overflow_raises():
    g = Grid(dim=1, half_width=2.0, points_per_axis=64)
    x = g.axis()
    f = Field(g, np.clip(1.0 - np.abs(x), 0.0, None))
    # shrinking the argument (lam < 1) dilates the support beyond the box
    with pytest.raises(ValueError):
        resample(f, g, lam=0.2)
