import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penflow import (ConfigurationError, DomainSpec, GeometryError, Mesh,
                     MeshInvariantError, MixedState, UnknownLabelError,
                     boundary_flux, build_spaces, extract_submesh,
                     generate_mesh, mesh_from_text, mesh_to_text,
                     polygon_signed_distance)
from penflow import mesh as mesh_module
from penflow.mesh import _side_keys
from penflow.ns_solver import flux_row_vector
from penflow.presets import (SEC31_OBSTACLES, TEST1_CENTERS, TEST1_RADII,
                             flow_cell_spec)

DISK = (("disk", (0.5, 0.5), 0.2),)
PENTAGON = (("polygon", ((0.3, -0.25), (0.6, -0.25), (0.6, 0.25),
                         (0.45, 0.05), (0.3, 0.25))),)


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


def test_domain_spec_keeps_obstacles_the_meshers_clearance_off_the_wall():
    # the disk's rightmost vertex sits 5e-10 from the wall, then 2e-9
    square = dict(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.1)
    with pytest.raises(GeometryError, match="strictly inside the outer"):
        DomainSpec(**square, obstacles=(("disk", (0.5, 0.5), 0.4999999995),))
    DomainSpec(**square, obstacles=(("disk", (0.5, 0.5), 0.499999998),))


@pytest.mark.parametrize("h, most", [(0.1, 1024), (0.2, 512), (5.0, 64)])
@pytest.mark.parametrize("key", ["arc_segments", "circle_segments"])
def test_domain_spec_bounds_segment_counts_by_h(h, most, key):
    # 64 times the arc's implied count ceil(pi / 2h); no mesh is made
    assert getattr(DomainSpec(h_mesh=h, **{key: most}), key) == most
    assert DomainSpec(h_mesh=h).arc_segments == 64  # the default, at any h
    for bad in (7, most + 1):
        with pytest.raises(GeometryError, match=f"{key} must be between 8 "
                           f"and {most}"):
            DomainSpec(h_mesh=h, **{key: bad})


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
def test_domain_spec_rejects_mesh_sizes_that_are_not_positive(h):
    with pytest.raises(GeometryError, match="positive and finite"):
        DomainSpec(h_mesh=h)


@pytest.mark.parametrize("outer, obstacle", [
    ((0.0, 0.0, 1.0, 1.0), ("disk", (0.5, 0.5), np.nan)),
    ((0.0, 0.0, 1.0, 1.0), ("disk", (np.nan, 0.5), 0.1)),
    ((0.0, 0.0, 1.0, 1.0), ("disk", (0.5, 0.5), np.inf)),
    ((0.0, 0.0, 1.0, 1.0), ("ellipse", (0.5, 0.5), (np.nan, 0.1))),
    ((0.0, 0.0, 1.0, 1.0), ("polygon", ((0.4, 0.4), (0.6, 0.4),
                                        (0.5, np.nan)))),
    # no polygon of 6e12 sides is built before the wall check
    ((0.0, 0.0, 1.0, 1.0), ("disk", (0.5, 0.5), 1e12)),
    ("flow-cell", ("disk", (0.0, 0.0), 1e12)),
], ids=["radius", "center", "inf", "ellipse", "polygon", "huge",
        "huge-flow-cell"])
def test_domain_spec_rejects_obstacle_numbers_beyond_the_outer_box(
        outer, obstacle):
    with pytest.raises(GeometryError, match="obstacles must be given by "
                       "finite numbers from -1.0 to 1.0"):
        DomainSpec(outer=outer, h_mesh=0.1, obstacles=(obstacle,))


def test_clockwise_polygon_obstacle_is_reversed():
    clockwise = (("polygon", PENTAGON[0][1][::-1]),)
    polys = [flow_cell_spec(0.1, obstacles).obstacle_polygons()[0]
             for obstacles in (PENTAGON, clockwise)]
    assert np.array_equal(polys[1], polys[0])
    assert mesh_module._polygon_area(polys[1]) > 0.0


def test_replace_returns_validated_copy():
    spec = DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.2,
                      arc_segments=12, circle_segments=16,
                      obstacles=(("disk", (0.5, 0.5), 0.2),))
    finer = spec.replace(h_mesh=0.1)
    assert finer.h_mesh == 0.1
    assert vars(finer) == {**vars(spec), "h_mesh": 0.1}
    assert spec.h_mesh == 0.2
    with pytest.raises(GeometryError):
        spec.replace(obstacles=(("disk", (0.05, 0.5), 0.2),))


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


@pytest.mark.parametrize("shape", ["interleaved", "three-columns"])
def test_boundary_flux_rejects_unknown_velocity_shapes(unit_square_mesh, shape):
    m = unit_square_mesh
    # a flat vector of length 2V is not a velocity DOF vector
    vel = np.ones(2 * m.num_vertices) if shape == "interleaved" \
        else np.ones((m.num_vertices, 3))
    with pytest.raises(ConfigurationError, match="velocity shape"):
        boundary_flux(m, vel, "Gamma1")


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
            flux = boundary_flux(mesh, Y, label)
            assert abs(flux - terms.sum()) <= tol
            # the MixedState form, as the benchmark calls it, and the (V, 2)
            # form read the same vertex values
            state = MixedState(layout, Y, np.zeros(layout.N2))
            assert boundary_flux(mesh, state, label) == flux
            assert boundary_flux(mesh, vel, label) == flux
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


def test_polygon_signed_distance_chunks_match_one_block(rng, monkeypatch):
    poly = np.array(PENTAGON[0][1])
    pts = rng.uniform(0.2, 0.7, (2 * mesh_module._DISTANCE_CHUNK + 77, 2))
    got = polygon_signed_distance(pts, poly)
    monkeypatch.setattr(mesh_module, "_DISTANCE_CHUNK", len(pts))
    want = polygon_signed_distance(pts, poly)
    assert got.shape == (len(pts),)
    assert np.array_equal(got, want)
    assert (got < 0).any() and (got > 0).any()  # both signs occur


@pytest.mark.parametrize("h, obstacles", [(0.3, ()), (0.18, ()), (0.1, DISK)],
                         ids=["0.3", "0.18", "conforming"])
def test_generated_meshes_have_sound_connectivity(h, obstacles):
    m = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=h,
                                 obstacles=obstacles),
                      conform_to_obstacles=bool(obstacles))
    # every boundary edge appears in exactly one triangle
    edge_count = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            edge_count[key] = edge_count.get(key, 0) + 1
    for a, b in m.boundary_edges:
        assert edge_count[(min(a, b), max(a, b))] == 1
    interior = [k for k, c in edge_count.items() if c == 2]
    boundary = [k for k, c in edge_count.items() if c == 1]
    assert len(boundary) == len(m.boundary_edges)
    assert len(interior) + len(boundary) == len(edge_count)
    assert m.edges().tolist() == [list(k) for k in sorted(edge_count)]
    # computed once per mesh, and shared read-only by every caller
    assert m.edges() is m.edges() and not m.edges().flags.writeable


def test_edge_keys_do_not_wrap_on_int32_indices():
    # Delaunay returns int32 simplices; a * nv overflows int32 here
    tri = np.array([[59_998, 60_000, 59_999], [3, 60_000, 59_998]],
                   dtype=np.int32)
    nv = 60_001
    want = [min(a, b) * nv + max(a, b)
            for s in range(3) for a, b in ((int(t[s]), int(t[(s + 1) % 3]))
                                           for t in tri)]
    assert _side_keys(tri, nv).tolist() == want


@pytest.mark.parametrize("spec", [
    DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.1, obstacles=DISK),
    DomainSpec(outer=(0.0, 0.0, 2.0, 1.0), h_mesh=0.1,
               obstacles=(("disk", (1.5, 0.5), 0.15),
                          ("disk", (0.5, 0.5), 0.15))),
    flow_cell_spec(0.08, SEC31_OBSTACLES),
    flow_cell_spec(0.05, tuple(("disk", c, r)
                               for c, r in zip(TEST1_CENTERS, TEST1_RADII))),
    flow_cell_spec(0.1, PENTAGON),
], ids=["square-disk", "two-disks", "sec31", "test1", "pentagon"])
def test_region_tags_match_centroid_polygon_test(spec):
    m = generate_mesh(spec, conform_to_obstacles=True)
    # reference rule: a centroid inside any obstacle polygon is Obstacle
    cent = m.vertices[m.triangles].mean(axis=1)
    inside = np.zeros(m.num_triangles, dtype=bool)
    for poly in spec.obstacle_polygons():
        inside |= polygon_signed_distance(cent, poly) < 0.0
    assert list(m.triangle_region) == ["Obstacle" if f else "Fluid"
                                       for f in inside]
    fluid = extract_submesh(m, "Fluid")
    assert len(fluid.boundary_loops()) == 1 + len(spec.obstacles)


# sec31 with both centres moved, as the benchmark's sweep ops move them
JITTERED_SEC31 = (("disk", (0.513, 0.242), 0.15),
                  ("disk", (0.739, 0.017), 0.15))
TEST1 = tuple(("disk", c, r) for c, r in zip(TEST1_CENTERS, TEST1_RADII))


def _mesh_bytes(m):
    return (m.vertices.tobytes(), m.triangles.tobytes(),
            m.boundary_edges.tobytes(), m.boundary_labels, m.triangle_region)


@pytest.mark.parametrize("spec", [
    flow_cell_spec(0.057, JITTERED_SEC31),
    flow_cell_spec(0.08, SEC31_OBSTACLES),
    flow_cell_spec(0.05, TEST1),
    DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.1, obstacles=DISK),
], ids=["sec31-jittered", "sec31", "test1", "square-disk"])
def test_flip_repair_meshes_equal_qhull_meshes(spec, monkeypatch):
    default = generate_mesh(spec, conform_to_obstacles=True)
    monkeypatch.setattr(mesh_module, "_flip_to_delaunay",
                        lambda *args: None)  # qhull at every step
    qhull = generate_mesh(spec, conform_to_obstacles=True)
    assert _mesh_bytes(default) == _mesh_bytes(qhull)


def _sorted_rows(tri):
    s = np.sort(tri, axis=1)
    return s[np.lexsort(s.T[::-1])]


def _square_with_interior_points(rng, n=60):
    ring = np.vstack([mesh_module._subdivide(a, b, 0.1)[:-1]
                      for a, b in (((0, 0), (1, 0)), ((1, 0), (1, 1)),
                                   ((1, 1), (0, 1)), ((0, 1), (0, 0)))])
    return np.vstack([ring, rng.uniform(0.05, 0.95, (n, 2))]), len(ring)


def _qhull_ccw(p):
    simplices = mesh_module.Delaunay(p).simplices
    return mesh_module._counterclockwise(p, simplices)[0]


@pytest.mark.parametrize("stale", ["moved-points", "fan"])
def test_flip_repair_returns_qhull_triangles(rng, stale):
    if stale == "moved-points":
        p, nfix = _square_with_interior_points(rng)
        tri = _qhull_ccw(p)
        p[nfix:] += rng.uniform(-0.01, 0.01, (len(p) - nfix, 2))
    else:
        # ten points on an ellipse fanned from one: adjacent illegal edges
        th = np.sort(rng.uniform(0.0, 2 * np.pi, 10))
        p, nfix = np.column_stack([2 * np.cos(th), np.sin(th)]), 10
        tri = np.column_stack([np.zeros(8, dtype=np.int64),
                               np.arange(1, 9), np.arange(2, 10)])
    want = _qhull_ccw(p)
    got = mesh_module._flip_to_delaunay(p, tri, nfix)
    assert not np.array_equal(_sorted_rows(tri), _sorted_rows(want))
    assert np.array_equal(_sorted_rows(got), _sorted_rows(want))
    assert np.all(mesh_module._doubled_areas(p[got]) > 0)


@pytest.mark.parametrize("case", ["inverted", "cocircular",
                                  "nearly-cocircular", "not-a-vertex",
                                  "moved-hull-vertex"])
def test_flip_repair_gives_up_where_it_cannot_certify(rng, case):
    p, nfix = _square_with_interior_points(rng)
    tri = _qhull_ccw(p)
    if case == "inverted":
        tri[0] = tri[0, ::-1]
    elif case.endswith("cocircular"):
        # a square lattice, every square split along the same diagonal
        g = np.arange(4.0)
        p = np.column_stack([np.repeat(g, 4), np.tile(g, 4)])
        c = (4 * g[:3, None] + g[None, :3]).ravel().astype(np.int64)
        tri = np.vstack([np.column_stack([c, c + 4, c + 5]),
                         np.column_stack([c, c + 5, c + 1])])
        nfix = len(p)
        if case == "nearly-cocircular":  # every square has an inner corner
            inner = [5, 6, 9, 10]
            p[inner] += rng.uniform(-1e-12, 1e-12, (4, 2))
    elif case == "not-a-vertex":
        p = np.vstack([p, [[0.5, 0.5]]])
    else:
        nfix -= 1  # the last ring vertex, on the hull, counts as moved
    assert np.all(mesh_module._doubled_areas(p[tri]) != 0)
    assert mesh_module._flip_to_delaunay(p, tri, nfix) is None


def _count_qhull_calls(monkeypatch):
    calls = {}
    delaunay = mesh_module.Delaunay

    def counting(points):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return delaunay(points)

    monkeypatch.setattr(mesh_module, "Delaunay", counting)
    return calls


def _record_repairs(monkeypatch):
    outcomes = []
    repair = mesh_module._flip_to_delaunay

    def recording(*args):
        tri = repair(*args)
        outcomes.append(tri is not None)
        return tri

    monkeypatch.setattr(mesh_module, "_flip_to_delaunay", recording)
    return outcomes


def test_relaxation_calls_qhull_once_where_every_repair_holds(monkeypatch):
    calls = _count_qhull_calls(monkeypatch)
    outcomes = _record_repairs(monkeypatch)
    generate_mesh(flow_cell_spec(0.057, JITTERED_SEC31),
                  conform_to_obstacles=True)
    # one conformity round, one qhull call each
    assert calls == {"_relax": 1, "_conforming_delaunay": 1}
    assert outcomes == [True] * 7


def test_relaxation_stops_repairing_after_a_repair_gives_up(monkeypatch):
    calls = _count_qhull_calls(monkeypatch)
    outcomes = _record_repairs(monkeypatch)
    generate_mesh(flow_cell_spec(0.08, SEC31_OBSTACLES),
                  conform_to_obstacles=True)
    # the disks' polygons hold exactly cocircular quadruples; from then on
    # qhull runs at every re-triangulation, 24 in all as before the repair
    assert outcomes == [False]
    assert calls == {"_relax": 24, "_conforming_delaunay": 1}
