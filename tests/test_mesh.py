import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penflow import (DomainSpec, GeometryError, Mesh, MeshInvariantError,
                     UnknownLabelError, boundary_flux, build_spaces,
                     extract_submesh, generate_mesh, mesh_from_text,
                     mesh_to_text, polygon_signed_distance)
from penflow.ns_solver import flux_row_vector


def triangle_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def test_rectangle_mesh_covers_domain(unit_square_mesh):
    m = unit_square_mesh
    assert np.isclose(triangle_areas(m).sum(), 1.0, atol=1e-12)
    assert np.all(triangle_areas(m) > 0)
    assert set(m.labels()) == {"Gamma1", "Gamma2", "Gamma3", "Gamma4"}


def test_rectangle_boundary_labels_sit_on_their_sides(unit_square_mesh):
    m = unit_square_mesh
    for label, coord, value in (("Gamma1", 0, 0.0), ("Gamma2", 1, 0.0),
                                ("Gamma3", 0, 1.0), ("Gamma4", 1, 1.0)):
        edges = m.edges_with_label(label)
        pts = m.vertices[np.unique(edges)]
        assert np.allclose(pts[:, coord], value, atol=1e-12), label


def test_flow_cell_area_and_arc():
    spec = DomainSpec(outer="flow-cell", h_mesh=0.08)
    m = generate_mesh(spec)
    # unit square plus a half disk of radius 1/2 on the right
    want = 1.0 + np.pi * 0.25 / 2.0
    assert abs(triangle_areas(m).sum() - want) < 2e-3
    arc = m.vertices[np.unique(m.edges_with_label("Gamma3"))]
    r = np.hypot(arc[:, 0] - 0.5, arc[:, 1])
    on_arc = r > 0.49
    assert np.allclose(r[on_arc], 0.5, atol=1e-9)


def test_unknown_boundary_label_raises(unit_square_mesh):
    with pytest.raises(UnknownLabelError):
        unit_square_mesh.edges_with_label("Gamma9")


def test_mesh_validation_rejects_flipped_triangle(unit_square_mesh):
    tri = unit_square_mesh.triangles.copy()
    tri[0] = tri[0][::-1]
    with pytest.raises(MeshInvariantError):
        Mesh(unit_square_mesh.vertices, tri,
             unit_square_mesh.boundary_edges,
             unit_square_mesh.boundary_labels)


def _corner(m, x, y):
    return int(np.argmin(np.hypot(m.vertices[:, 0] - x, m.vertices[:, 1] - y)))


@pytest.mark.parametrize("case", ["interior", "missing", "out-of-range"])
def test_mesh_validation_names_bad_boundary_edge(unit_square_mesh, case):
    m = unit_square_mesh
    be = m.boundary_edges.copy()
    if case == "interior":
        on_boundary = {tuple(e) for e in np.sort(be, axis=1).tolist()}
        bad = next(e for e in map(tuple, m.edges().tolist())
                   if e not in on_boundary)
        want = f"boundary edge {bad} belongs to 2 triangles, expected 1"
    elif case == "missing":
        # opposite corners of the square never share a triangle
        bad = tuple(sorted((_corner(m, 0, 0), _corner(m, 1, 1))))
        want = f"boundary edge {bad} belongs to 0 triangles, expected 1"
    else:
        bad = (0, m.num_vertices)
        want = "boundary edge index out of range"
    be[3] = bad[::-1]
    with pytest.raises(MeshInvariantError, match=re.escape(want)):
        Mesh(m.vertices, m.triangles, be, m.boundary_labels)


def test_domain_spec_rejects_bad_rectangle():
    with pytest.raises(GeometryError):
        DomainSpec(outer=(1.0, 0.0, 0.0, 1.0), h_mesh=0.1)


def test_domain_spec_rejects_obstacle_leaving_domain():
    with pytest.raises(GeometryError):
        DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.1,
                   obstacles=(("disk", (0.05, 0.5), 0.2),))


def test_with_mesh_size_returns_rescaled_copy():
    spec = DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.2,
                      obstacles=(("disk", (0.5, 0.5), 0.2),))
    finer = spec.with_mesh_size(0.1)
    assert finer.h_mesh == 0.1
    assert finer.obstacles == spec.obstacles
    assert spec.h_mesh == 0.2


def test_conforming_mesh_partitions_regions(square_disk_conforming):
    full, fluid = square_disk_conforming
    regions = set(full.triangle_region)
    assert regions == {"Fluid", "Obstacle"}
    hole = full.triangles_in_region("Obstacle")
    # obstacle triangles tile the disk
    assert abs(triangle_areas(full)[hole].sum() - np.pi * 0.04) < 2e-3
    assert "Obstacle1" in fluid.labels()


def test_obstacle_boundary_vertices_lie_on_circle(square_disk_conforming):
    full, fluid = square_disk_conforming
    ring = fluid.vertices[np.unique(fluid.edges_with_label("Obstacle1"))]
    r = np.hypot(ring[:, 0] - 0.5, ring[:, 1] - 0.5)
    assert np.allclose(r, 0.2, atol=1e-9)


def test_submesh_parent_maps_point_back(square_disk_conforming):
    full, fluid = square_disk_conforming
    assert np.allclose(full.vertices[fluid.parent_vertex_ids],
                       fluid.vertices)
    got = full.vertices[full.triangles[fluid.parent_triangle_ids]]
    assert np.allclose(got, fluid.vertices[fluid.triangles])


def test_multiple_obstacles_get_stable_labels():
    spec = DomainSpec(outer=(0.0, 0.0, 2.0, 1.0), h_mesh=0.1,
                      obstacles=(("disk", (1.5, 0.5), 0.15),
                                 ("disk", (0.5, 0.5), 0.15)))
    fluid = extract_submesh(generate_mesh(spec, conform_to_obstacles=True),
                            "Fluid")
    ring1 = fluid.vertices[np.unique(fluid.edges_with_label("Obstacle1"))]
    ring2 = fluid.vertices[np.unique(fluid.edges_with_label("Obstacle2"))]
    # numbering follows geometric position, not input order
    assert ring1[:, 0].max() < 1.0 < ring2[:, 0].min()


def test_boundary_loops_are_closed_cycles(square_disk_conforming):
    _, fluid = square_disk_conforming
    loops = fluid.boundary_loops()
    assert len(loops) == 2  # outer square and the hole
    for loop in loops:
        verts, counts = np.unique(fluid.boundary_edges[loop],
                                  return_counts=True)
        # every vertex of a closed loop touches exactly two of its edges
        assert np.all(counts == 2)


def test_text_round_trip_is_byte_identical(square_disk_conforming):
    full, _ = square_disk_conforming
    text = mesh_to_text(full)
    again = mesh_to_text(mesh_from_text(text))
    assert text == again
    back = mesh_from_text(text)
    assert np.array_equal(back.vertices, full.vertices)
    assert np.array_equal(back.triangles, full.triangles)
    assert list(back.boundary_labels) == list(full.boundary_labels)


def test_boundary_flux_of_uniform_field(unit_square_mesh):
    m = unit_square_mesh
    vel = np.tile([1.0, 0.0], (m.num_vertices, 1))
    # unit outflow through the right side, unit inflow on the left
    assert np.isclose(boundary_flux(m, vel, "Gamma3"), 1.0, atol=1e-12)
    assert np.isclose(boundary_flux(m, vel, "Gamma1"), -1.0, atol=1e-12)
    assert np.isclose(boundary_flux(m, vel, "Gamma2"), 0.0, atol=1e-12)
    assert np.isclose(boundary_flux(m, vel, "Gamma4"), 0.0, atol=1e-12)


def test_boundary_flux_of_linear_field_matches_divergence(unit_square_mesh):
    m = unit_square_mesh
    vel = m.vertices.copy()  # v = (x, y), div v = 2
    total = sum(boundary_flux(m, vel, lab) for lab in m.labels())
    assert np.isclose(total, 2.0, atol=1e-12)


def _per_edge_flux_terms(mesh, vel, label):
    """Per-edge fluxes, normals pointing away from the opposite vertex."""
    terms = []
    for (a, b), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
        if lab != label:
            continue
        tri = mesh.triangles[np.isin(mesh.triangles, (a, b)).sum(axis=1) == 2][0]
        opp = tri[~np.isin(tri, (a, b))][0]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        tvec = pb - pa
        elen = np.hypot(*tvec)
        n = np.array([tvec[1], -tvec[0]]) / elen
        if np.dot(n, mesh.vertices[opp] - 0.5 * (pa + pb)) > 0:
            n = -n
        terms.append(elen * 0.5 * float(np.dot(vel[a] + vel[b], n)))
    return np.array(terms)


def test_flux_and_flux_row_match_per_edge_reference(unit_square_mesh,
                                                    square_disk_conforming,
                                                    rng):
    for mesh in (unit_square_mesh, *square_disk_conforming):
        layout = build_spaces(mesh)
        Y = rng.standard_normal(2 * layout.N1)
        vel = np.column_stack([Y[:layout.V], Y[layout.N1:layout.N1 + layout.V]])
        for label in mesh.labels():
            terms = _per_edge_flux_terms(mesh, vel, label)
            tol = 1e-14 * np.abs(terms).sum()
            assert abs(boundary_flux(mesh, Y, label) - terms.sum()) <= tol
            assert abs(flux_row_vector(layout, label) @ Y - terms.sum()) <= tol


@given(cx=st.floats(-0.3, 0.3), cy=st.floats(-0.3, 0.3),
       px=st.floats(-2, 2), py=st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_polygon_signed_distance_tracks_square(cx, cy, px, py):
    poly = np.array([(cx - 0.5, cy - 0.5), (cx + 0.5, cy - 0.5),
                     (cx + 0.5, cy + 0.5), (cx - 0.5, cy + 0.5)])
    d = polygon_signed_distance(np.array([[px, py]]), poly)[0]
    dx = max(abs(px - cx) - 0.5, 0.0)
    dy = max(abs(py - cy) - 0.5, 0.0)
    outside = np.hypot(dx, dy)
    if outside > 1e-9:
        assert np.isclose(d, outside, atol=1e-9)
    else:
        inside = min(0.5 - abs(px - cx), 0.5 - abs(py - cy))
        assert np.isclose(d, -inside, atol=1e-9)


@pytest.mark.parametrize("h", [0.3, 0.18])
def test_generated_meshes_have_sound_connectivity(h):
    m = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=h))
    # every boundary edge appears in exactly one triangle
    edge_count = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    for a, b in m.boundary_edges:
        assert edge_count[(min(a, b), max(a, b))] == 1
    interior = [k for k, c in edge_count.items() if c == 2]
    boundary = [k for k, c in edge_count.items() if c == 1]
    assert len(boundary) == len(m.boundary_edges)
    assert len(interior) + len(boundary) == len(edge_count)
