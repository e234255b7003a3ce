import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penflow import (ConfigurationError, LevelField, check_admissibility,
                     compose_disks, compose_ellipses, domain_level_function,
                     smoothed_heaviside, DomainSpec)


def test_cutoff_hits_exact_values_at_knots():
    for width in (1.0, 0.5, 0.25):
        val, der = smoothed_heaviside(np.array([0.0, width / 2, width]), width)
        assert val[0] == 0.0 and der[0] == 0.0
        assert val[1] == 0.5
        assert val[2] == 1.0 and der[2] == 0.0
        # the shifted step: the standard one a width further on
        sval, sder = smoothed_heaviside(
            np.array([-width, -width / 2, 0.0]) + width, width)
        assert sval[0] == 0.0 and sder[0] == 0.0
        assert sval[1] == 0.5
        assert sval[2] == 1.0 and sder[2] == 0.0


def test_cutoff_midpoint_is_half_to_rounding_at_any_width():
    for width in (0.05, 0.0175, 3.7, 1e-6):
        val, _ = smoothed_heaviside(np.array([width / 2]), width)
        assert abs(val[0] - 0.5) < 1e-15


def test_cutoff_saturates_outside_band():
    val, der = smoothed_heaviside(np.array([-5.0, -0.001, 0.26, 40.0]), 0.25)
    assert np.array_equal(val, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(der, [0.0, 0.0, 0.0, 0.0])


def test_cutoff_is_monotone_on_dense_samples():
    r = np.linspace(-2.0, 2.0, 1000)
    for shift in (0.0, 0.8):  # the standard and the shifted step
        val, der = smoothed_heaviside(r + shift, 0.8)
        assert np.all(np.diff(val) >= 0.0)
        assert np.all(der >= 0.0)
        assert np.all((0.0 <= val) & (val <= 1.0))


@given(r=st.floats(-10, 10), w=st.floats(0.01, 5))
@settings(max_examples=200, deadline=None)
def test_cutoff_derivative_matches_difference_quotient(r, w):
    d = 1e-7 * w
    v1, _ = smoothed_heaviside(r - d, w)
    v2, _ = smoothed_heaviside(r + d, w)
    _, der = smoothed_heaviside(r, w)
    # away from the knots the cubic is smooth; near them allow the kink
    near_knot = min(abs(r), abs(r - w)) < 2 * d
    if not near_knot:
        assert abs((v2 - v1) / (2 * d) - der) < 1e-5 * max(1.0, der)


def test_smoothing_width_must_be_positive():
    for width in (0.0, -1.0, np.nan):
        with pytest.raises(ConfigurationError):
            smoothed_heaviside(0.5, width)


def test_disk_composition_signed_distance():
    g = compose_disks([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.25],
                      signed_distance=True)
    # distance to the nearest disk boundary, positive inside
    assert np.isclose(g(np.array([0.0, 0.0])), 0.5)
    assert np.isclose(g(np.array([0.5, 0.0])), 0.0)
    assert np.isclose(g(np.array([1.0, 0.0])), 0.25)
    assert np.isclose(g(np.array([-1.0, 0.0])), -0.5)
    pts = np.array([[0.1, 0.2], [0.9, -0.1], [2.0, 2.0]])
    vals = g(pts)
    d1 = 0.5 - np.hypot(pts[:, 0], pts[:, 1])
    d2 = 0.25 - np.hypot(pts[:, 0] - 1.0, pts[:, 1])
    assert np.allclose(vals, np.maximum(d1, d2))


def test_disk_composition_quadratic_default():
    g = compose_disks([(0.0, 0.0)], [0.5])
    assert np.isclose(g(np.array([0.5, 0.0])), 0.0)
    assert g(np.array([0.0, 0.0])) > 0
    assert g(np.array([0.7, 0.0])) < 0


def test_ellipse_composition_formula():
    g = compose_ellipses([(-0.2, 0.0)], [(0.2, 0.4)])
    pts = np.array([[-0.2, 0.0], [0.0, 0.0], [-0.2, 0.4], [0.5, 0.5]])
    want = 1.0 - ((pts[:, 0] + 0.2) / 0.2) ** 2 - (pts[:, 1] / 0.4) ** 2
    assert np.allclose(g(pts), want)


def test_domain_level_function_merges_shapes():
    spec = DomainSpec(outer=(-1.0, -1.0, 1.0, 1.0), h_mesh=0.2,
                      obstacles=(("disk", (-0.4, 0.0), 0.2),
                                 ("ellipse", (0.4, 0.0), (0.2, 0.3))))
    g = domain_level_function(spec)
    assert g(np.array([-0.4, 0.0])) > 0
    assert g(np.array([0.4, 0.0])) > 0
    assert g(np.array([0.0, 0.9])) < 0


def test_domain_level_function_of_a_polygon_is_its_signed_distance():
    square = ((-0.2, -0.2), (0.2, -0.2), (0.2, 0.2), (-0.2, 0.2))
    pts = np.array([[0.0, 0.0], [0.1, 0.05], [0.2, 0.0], [0.5, 0.0],
                    [0.5, 0.5]])
    want = [0.2, 0.1, 0.0, -0.3, -np.hypot(0.3, 0.3)]
    for poly in (square, square[::-1]):  # either orientation
        spec = DomainSpec(outer=(-1.0, -1.0, 1.0, 1.0), h_mesh=0.2,
                          obstacles=(("polygon", poly),))
        assert np.allclose(domain_level_function(spec)(pts), want,
                           rtol=0.0, atol=1e-15)


def test_smoothing_width_whose_cube_underflows_is_rejected():
    # the ramp divides by width**3: subnormal below about 2.8e-103, and 0
    # below about 1.7e-108
    for width in (1e-300, 1e-104):
        with pytest.raises(ConfigurationError, match="cube underflows"):
            smoothed_heaviside(0.0, width)
    val, der = smoothed_heaviside(np.array([0.5e-100, 1e-100]), 1e-100)
    assert np.allclose(val, [0.5, 1.0]) and np.all(np.isfinite(der))


def test_interpolation_matches_callable(unit_square_mesh):
    g = compose_disks([(0.5, 0.5)], [0.3], signed_distance=True)
    field = LevelField.interpolate(unit_square_mesh, g)
    assert np.allclose(field.nodal_values, g(unit_square_mesh.vertices))


def test_admissibility_flags_boundary_sign(unit_square_mesh):
    good = LevelField.interpolate(
        unit_square_mesh, compose_disks([(0.5, 0.5)], [0.2],
                                        signed_distance=True))
    assert check_admissibility(good, unit_square_mesh) is True
    # a disk overlapping the boundary turns nodal values nonnegative there
    bad = LevelField(np.ones(unit_square_mesh.num_vertices))
    assert check_admissibility(bad, unit_square_mesh) is False


def test_level_field_rejects_wrong_size(unit_square_mesh):
    field = LevelField(np.zeros(3))
    assert field.nodal_values.shape == (3,)
    with pytest.raises(ConfigurationError):
        LevelField(np.zeros((3, 2)))
