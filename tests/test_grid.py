import pickle

import numpy as np
import pytest

from fracpme.grid import Field, Grid


def test_spacing_and_axis():
    g = Grid(dim=1, half_width=4.0, points_per_axis=16)
    assert g.spacing == pytest.approx(0.5)
    ax = g.axis()
    assert ax.shape == (16,)
    assert ax[0] == pytest.approx(-4.0 + 0.25)
    # cell centers straddle the origin symmetrically
    assert np.allclose(ax + ax[::-1], 0.0, atol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=3, half_width=1.0, points_per_axis=16)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=-1.0, points_per_axis=16)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=1.0, points_per_axis=15)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=1.0, points_per_axis=4)


def test_coords_and_radius_2d():
    g = Grid(dim=2, half_width=2.0, points_per_axis=8)
    x0, x1 = np.meshgrid(g.axis(), g.axis(), indexing="ij")
    assert g.radius2().shape == (8, 8)
    assert np.array_equal(g.radius2(), x0 ** 2 + x1 ** 2)
    # radius2 is symmetric under both axis flips
    r2 = g.radius2()
    assert np.allclose(r2, r2[::-1, :])
    assert np.allclose(r2, r2[:, ::-1])


def test_interior_faces():
    g = Grid(dim=1, half_width=1.0, points_per_axis=10)
    f = g.interior_faces()
    assert f.shape == (9,)
    assert f[0] == pytest.approx(-1.0 + g.spacing)
    assert np.allclose(np.diff(f), g.spacing)


def test_mass_is_midpoint_rule():
    g = Grid(dim=2, half_width=1.0, points_per_axis=16)
    f = Field(g, np.ones(g.shape))
    assert f.mass() == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("dim, half_width", [(1, 1e308), (1, float("inf")), (2, 1e200),
                                             (2, 1e-170), (1, 1e-320), (1, 1e-160)])
def test_grid_rejects_overflowing_cells(dim, half_width):
    # the spacing 2L/N, the cell volume h^n or the stiffness scale 4/h^2
    # overflows to inf or underflows to 0
    with pytest.raises(ValueError, match=r"must be positive and finite|4/h\^2 is not finite"):
        Grid(dim=dim, half_width=half_width, points_per_axis=32)


def test_shape_mismatch_rejected():
    g = Grid(dim=2, half_width=1.0, points_per_axis=8)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))


def test_norms():
    g = Grid(dim=1, half_width=1.0, points_per_axis=8)
    vals = np.zeros(8)
    vals[2] = 3.0
    f = Field(g, vals)
    assert f.linf() == 3.0


def test_compatible():
    # one grid is the same grid as another when their fields are equal
    a = Grid(dim=2, half_width=1.0, points_per_axis=8)
    b = Grid(dim=2, half_width=1.0, points_per_axis=8)
    assert a == b and hash(a) == hash(b)
    assert a != Grid(dim=2, half_width=2.0, points_per_axis=8)
    assert a != Grid(dim=2, half_width=1.0, points_per_axis=10)
    assert a != Grid(dim=1, half_width=1.0, points_per_axis=8)


@pytest.mark.parametrize("dim", [1, 2])
def test_radius2_is_a_new_array(dim):
    # a grid holds only its three fields: radius2 shares nothing between
    # calls, and a pickled grid (as verify's workers send them) is the same value
    g = Grid(dim=dim, half_width=3.0, points_per_axis=8)
    first = g.radius2()
    expect = first.copy()
    first[...] = -1.0
    assert np.array_equal(g.radius2(), expect)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert copy.__dict__ == {"dim": dim, "half_width": 3.0, "points_per_axis": 8}
    assert np.array_equal(copy.radius2(), expect)
