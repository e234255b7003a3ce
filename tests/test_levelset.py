import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penflow import (ConfigurationError, LevelField, SHIFTED, STANDARD,
                     SmoothingParams, check_admissibility, compose_disks,
                     compose_ellipses, domain_level_function,
                     smoothed_heaviside, DomainSpec)
from penflow.presets import TEST1_CENTERS, TEST1_RADII, sec31_level


def test_cutoff_hits_exact_values_at_knots():
    for width in (1.0, 0.5, 0.25):
        p = SmoothingParams(width, STANDARD)
        val, der = smoothed_heaviside(np.array([0.0, width / 2, width]), p)
        assert val[0] == 0.0 and der[0] == 0.0
        assert val[1] == 0.5
        assert val[2] == 1.0 and der[2] == 0.0
        sh = SmoothingParams(width, SHIFTED)
        sval, sder = smoothed_heaviside(np.array([-width, -width / 2, 0.0]), sh)
        assert sval[0] == 0.0 and sder[0] == 0.0
        assert sval[1] == 0.5
        assert sval[2] == 1.0 and sder[2] == 0.0


def test_cutoff_midpoint_is_half_to_rounding_at_any_width():
    for width in (0.05, 0.0175, 3.7, 1e-6):
        val, _ = smoothed_heaviside(np.array([width / 2]),
                                    SmoothingParams(width, STANDARD))
        assert abs(val[0] - 0.5) < 1e-15


def test_cutoff_saturates_outside_band():
    p = SmoothingParams(0.25)
    val, der = smoothed_heaviside(np.array([-5.0, -0.001, 0.26, 40.0]), p)
    assert np.array_equal(val, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(der, [0.0, 0.0, 0.0, 0.0])


def test_cutoff_is_monotone_on_dense_samples():
    r = np.linspace(-2.0, 2.0, 1000)
    for kind in (STANDARD, SHIFTED):
        val, der = smoothed_heaviside(r, SmoothingParams(0.8, kind))
        assert np.all(np.diff(val) >= 0.0)
        assert np.all(der >= 0.0)
        assert np.all((0.0 <= val) & (val <= 1.0))


def test_shifted_cutoff_is_translated_standard():
    r = np.linspace(-1.5, 1.5, 257)
    w = 0.4
    std, _ = smoothed_heaviside(r + w, SmoothingParams(w, STANDARD))
    shf, _ = smoothed_heaviside(r, SmoothingParams(w, SHIFTED))
    assert np.array_equal(std, shf)


@given(r=st.floats(-10, 10), w=st.floats(0.01, 5))
@settings(max_examples=200, deadline=None)
def test_cutoff_derivative_matches_difference_quotient(r, w):
    p = SmoothingParams(w, STANDARD)
    d = 1e-7 * w
    v1, _ = smoothed_heaviside(r - d, p)
    v2, _ = smoothed_heaviside(r + d, p)
    _, der = smoothed_heaviside(r, p)
    # away from the knots the cubic is smooth; near them allow the kink
    near_knot = min(abs(r), abs(r - w)) < 2 * d
    if not near_knot:
        assert abs((v2 - v1) / (2 * d) - der) < 1e-5 * max(1.0, der)


def test_smoothing_params_reject_bad_inputs():
    with pytest.raises(ConfigurationError):
        SmoothingParams(0.0)
    with pytest.raises(ConfigurationError):
        SmoothingParams(1.0, kind="fancy")


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


def test_interpolation_matches_callable(unit_square_mesh):
    g = compose_disks([(0.5, 0.5)], [0.3], signed_distance=True)
    field = LevelField.interpolate(unit_square_mesh, g)
    assert np.allclose(field.nodal_values, g(unit_square_mesh.vertices))


def test_admissibility_flags_boundary_sign(unit_square_mesh):
    good = LevelField.interpolate(
        unit_square_mesh, compose_disks([(0.5, 0.5)], [0.2],
                                        signed_distance=True))
    rep = check_admissibility(good, unit_square_mesh)
    assert rep.boundary_sign_ok
    # a disk overlapping the boundary turns nodal values nonnegative there
    bad = LevelField(np.ones(unit_square_mesh.num_vertices))
    rep2 = check_admissibility(bad, unit_square_mesh)
    assert not rep2.boundary_sign_ok


@pytest.mark.parametrize("level", [
    sec31_level(),
    compose_disks(TEST1_CENTERS, TEST1_RADII, signed_distance=True)],
    ids=["sec31", "test1"])
def test_admissibility_distances_match_dense_formulas(flow_cell_coarse,
                                                       level):
    mesh = flow_cell_coarse
    vals = LevelField.interpolate(mesh, level).nodal_values
    rep = check_admissibility(LevelField(vals), mesh)
    # every nonnegative vertex against every boundary vertex
    bpts = mesh.vertices[np.unique(mesh.boundary_edges.ravel())]
    nonneg = mesh.vertices[vals >= 0.0]
    dist = np.linalg.norm(nonneg[:, None, :] - bpts[None, :, :], axis=2).min()
    # P1 gradient from corner differences on the sign-changing triangles
    v = vals[mesh.triangles]
    change = np.any(v > 0.0, axis=1) & np.any(v < 0.0, axis=1)
    p, v = mesh.vertices[mesh.triangles[change]], v[change]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    gx = ((v[:, 1] - v[:, 0]) * d2[:, 1] - (v[:, 2] - v[:, 0]) * d1[:, 1]) / det
    gy = ((v[:, 2] - v[:, 0]) * d1[:, 0] - (v[:, 1] - v[:, 0]) * d2[:, 0]) / det
    grad_min = np.hypot(gx, gy).min()
    assert change.any() and dist > 0.0
    assert abs(rep.zero_distance - dist) <= 1e-14 * dist
    assert abs(rep.grad_min_near_zero - grad_min) <= 1e-14 * grad_min


def test_level_field_rejects_wrong_size(unit_square_mesh):
    field = LevelField(np.zeros(3))
    assert field.nodal_values.shape == (3,)
    with pytest.raises(ConfigurationError):
        LevelField(np.zeros((3, 2)))
