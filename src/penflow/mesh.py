"""Triangular meshes of the holdall domain and its body-fitted fluid subregion.

Meshes are plain triangulations with labeled boundary edges.  The outer
boundary labels are Gamma1 (left), Gamma2 (bottom), Gamma3 (right side,
polygonized arc for the flow cell), Gamma4 (top); internal obstacle loops
are labeled Obstacle1, Obstacle2, ...  Triangles of conforming meshes carry
a region tag (Fluid or Obstacle).

Every edge computation works on one integer table: the undirected edge
(a, b), a < b, of a mesh with nv vertices is the int64 key a * nv + b, so
sorted keys list the edges in lexicographic order.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from .errors import (
    EmptyRegionError,
    GenerationError,
    GeometryError,
    MeshInvariantError,
    UnknownLabelError,
)

FLUID = "Fluid"
OBSTACLE = "Obstacle"

_DUPLICATE_TOL = 1e-12
_CLEARANCE = 1e-9  # of an obstacle polygon from the wall and other obstacles
# fewest segments of the flow cell's arc and of each obstacle curve
_MIN_SEGMENTS = 64


class Mesh:
    """Immutable conforming triangulation with labeled boundary edges.

    Args:
        vertices: (V, 2) float array of coordinates.
        triangles: (T, 3) int array of vertex indices, counterclockwise.
        boundary_edges: (E, 2) int array of vertex pairs lying on the boundary.
        boundary_labels: sequence of E label strings.
        triangle_region: optional sequence of T region tags (Fluid/Obstacle).
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_labels,
                 triangle_region=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_labels = tuple(str(s) for s in boundary_labels)
        if triangle_region is None:
            self.triangle_region = None
        else:
            self.triangle_region = tuple(str(s) for s in triangle_region)
        self._validate()
        self.vertices.flags.writeable = False
        self.triangles.flags.writeable = False
        self.boundary_edges.flags.writeable = False
        self._cache = {}

    # ---------------------------------------------------------------- basic
    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def signed_areas(self):
        return 0.5 * _doubled_areas(self.vertices[self.triangles])

    def edges(self):
        """All unique undirected edges as a sorted, read-only (n, 2) array."""
        if "edges" not in self._cache:
            self._cache["edges"] = _edge_table(self.triangles, self.num_vertices)[0]
            self._cache["edges"].flags.writeable = False
        return self._cache["edges"]

    def dissection_order(self):
        """Vertex indices in a fill-reducing order: geometric nested
        dissection of the edge graph.  A part splits at the median of its
        longer axis; the lower half's vertices next to the upper half (the
        separator) follow both halves, which split again down to 4 vertices.
        All parts of a level split at once; the vertex index breaks ties."""
        V, (a, b) = self.num_vertices, self.edges().T
        # each vertex's rank along x and along y, ties by vertex index
        rank = np.argsort(np.argsort(self.vertices.T, kind="stable"), axis=1)
        # the part label at each position, -1 once it is split no further
        order, part = np.arange(V), np.full(V, 0 if V > 4 else -1)
        while (part >= 0).any():
            pos = np.flatnonzero(part >= 0)
            v, lab = order[pos], part[pos]
            start = np.flatnonzero(np.append(True, lab[1:] != lab[:-1]))
            size = np.diff(np.append(start, len(v)))
            seg = np.repeat(np.arange(len(start)), size)
            xy = self.vertices[v]
            axis = (np.maximum.reduceat(xy, start)
                    - np.minimum.reduceat(xy, start)).argmax(1)
            v = v[np.argsort(seg * V + rank[axis[seg], v])]
            upper = np.arange(len(v)) >= start[seg] + size[seg] // 2
            side = np.full(V, -1)  # 2 seg, + 1 in the upper half
            side[v] = 2 * seg + upper
            cut = (side[a] // 2 == side[b] // 2) & (side[a] != side[b])
            key = side % 2
            key[np.where(key[a[cut]], b[cut], a[cut])] = 2  # separators
            group = 3 * seg + key[v]
            o = np.argsort(group, kind="stable")
            done = (key[v[o]] == 2) | (np.bincount(group)[group[o]] <= 4)
            order[pos], part[pos] = v[o], np.where(done, -1, group[o])
        return order

    @property
    def mean_edge_length(self):
        if "mean_edge" not in self._cache:
            e = self.edges()
            v = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
            self._cache["mean_edge"] = float(np.mean(np.hypot(v[:, 0], v[:, 1])))
        return self._cache["mean_edge"]

    def labels(self):
        """Sorted tuple of distinct boundary labels."""
        return tuple(sorted(set(self.boundary_labels)))

    def edges_with_label(self, label):
        idx = [i for i, s in enumerate(self.boundary_labels) if s == label]
        if not idx:
            raise UnknownLabelError(f"no boundary label {label!r}; the mesh "
                                    f"has {', '.join(self.labels())}")
        return self.boundary_edges[idx]

    def vertices_on(self, labels):
        """Sorted vertex indices incident to boundary edges with the given labels."""
        wanted = set(labels)
        sel = [i for i, s in enumerate(self.boundary_labels) if s in wanted]
        if not sel:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.boundary_edges[sel])

    def triangles_in_region(self, region):
        if self.triangle_region is None:
            raise EmptyRegionError("mesh carries no region tags")
        idx = np.array([i for i, r in enumerate(self.triangle_region) if r == region],
                       dtype=np.int64)
        if idx.size == 0:
            raise EmptyRegionError(f"no triangles tagged {region!r}")
        return idx

    # ----------------------------------------------------------- validation
    def _validate(self):
        v, t, be = self.vertices, self.triangles, self.boundary_edges
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshInvariantError("vertices must be (V, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshInvariantError("triangles must be (T, 3)")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshInvariantError("triangle index out of range")
        if len(self.boundary_labels) != len(be):
            raise MeshInvariantError("one label per boundary edge required")
        if self.triangle_region is not None and len(self.triangle_region) != len(t):
            raise MeshInvariantError("one region tag per triangle required")

        areas = self.signed_areas()
        if np.any(areas <= 0.0):
            raise MeshInvariantError("all triangles must have positive signed area")

        # duplicate vertices within tolerance: lexicographic neighbors suffice
        order = np.lexsort((v[:, 1], v[:, 0]))
        sv = v[order]
        if len(sv) > 1:
            gap = np.max(np.abs(np.diff(sv, axis=0)), axis=1)
            if np.any(gap < _DUPLICATE_TOL):
                raise MeshInvariantError("duplicate vertices within tolerance")

        if len(be) == 0:
            return
        if be.min() < 0 or be.max() >= len(v):
            raise MeshInvariantError("boundary edge index out of range")
        # each boundary edge belongs to exactly one triangle
        keys, counts = np.unique(_side_keys(t, len(v)), return_counts=True)
        bkeys = _edge_keys(be, len(v))
        pos = _lookup(keys, bkeys)
        bcount = np.where(pos >= 0, counts[pos], 0)
        bad = np.flatnonzero(bcount != 1)
        if bad.size:
            i = bad[0]
            raise MeshInvariantError(
                f"boundary edge {divmod(int(bkeys[i]), len(v))} belongs to "
                f"{int(bcount[i])} triangles, expected 1")

        # closed loops: every boundary vertex has exactly two incident boundary edges
        deg = np.bincount(be.ravel(), minlength=len(v))
        touched = np.unique(be.ravel())
        if np.any(deg[touched] != 2):
            raise MeshInvariantError("boundary edges do not form closed loops")

        # a loop mixes either outer labels or a single obstacle label
        for loop in self.boundary_loops():
            labels = {self.boundary_labels[i] for i in loop}
            obst = {s for s in labels if s.startswith(OBSTACLE)}
            if obst and (len(obst) > 1 or len(labels) > len(obst)):
                raise MeshInvariantError(f"inconsistent labels on one loop: {labels}")

    def boundary_loops(self):
        """Connected components of the boundary graph, as lists of edge indices."""
        if len(self.boundary_edges) == 0:
            return []
        return _edge_components(self.boundary_edges, self.num_vertices)


def _graph_components(num_nodes, edges):
    """Component label of every node of the graph with (E, 2) node pairs."""
    graph = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(num_nodes, num_nodes))
    return connected_components(graph, directed=False)[1]


def _edge_components(edges, num_vertices):
    """Edge sets joined through shared vertices, as sorted index lists.

    Components are ordered by their lowest edge index.
    """
    comp = _graph_components(num_vertices, edges)[edges[:, 0]]
    firsts = np.sort(np.unique(comp, return_index=True)[1])
    return [np.flatnonzero(comp == comp[i]).tolist() for i in firsts]


# =============================================================== edge table
def _edge_keys(pairs, nv):
    """Keys of the undirected edges in the (..., 2) array pairs."""
    e = np.asarray(pairs, dtype=np.int64)  # int32 a * nv wraps past nv 46,341
    a, b = e[..., 0], e[..., 1]
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _side_keys(triangles, nv):
    """Keys of sides 01, 12 and 20; entry s*T + t is side s of triangle t."""
    t = np.asarray(triangles).T
    return _edge_keys(np.stack([t, t[[1, 2, 0]]], axis=-1), nv).ravel()


def _edge_table(triangles, nv):
    """Sorted unique (n, 2) edges of the triangles, and their counts."""
    keys, counts = np.unique(_side_keys(triangles, nv), return_counts=True)
    return np.column_stack(np.divmod(keys, nv)), counts


def _lookup(keys, query):
    """Position of each query key in the sorted keys, -1 where absent."""
    pos = np.searchsorted(keys, query)  # len(keys) past the end
    return np.where(np.append(keys, -1)[pos] == query, pos, -1)


def _compact(points, triangles, known, known_labels):
    """The triangles over only the points they use: the vertices, the
    renumbered triangles, the boundary edges (sides of one triangle), the
    label of the known (E, 2) edge of points matching each (None where none
    does) and every point's new number (-1 where unused)."""
    used = np.unique(triangles)
    remap = np.full(len(points), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    triangles = remap[triangles]
    edges, counts = _edge_table(triangles, len(used))
    bdry = edges[counts == 1]
    known = remap[known]
    keep = np.flatnonzero(np.all(known >= 0, axis=1))
    kk = _edge_keys(known[keep], len(used))
    order = np.argsort(kk)
    pos = _lookup(kk[order], _edge_keys(bdry, len(used)))
    labels = [known_labels[keep[order[i]]] if i >= 0 else None for i in pos]
    return points[used], triangles, bdry, labels, remap


def _doubled_areas(p):
    """Twice the signed areas of the (T, 3, 2) triangle corners p."""
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _counterclockwise(points, simplices):
    """Counterclockwise copy of the simplices, and _doubled_areas as given."""
    cross = _doubled_areas(np.take(points, simplices, axis=0))
    simplices = simplices.copy()
    simplices[cross < 0] = simplices[cross < 0][:, ::-1]
    return simplices, cross


def hat_gradients(p):
    """Determinants (T,) and barycentric hat gradients (T, 3, 2).

    p holds the (T, 3, 2) triangle corners; the determinant is twice the
    signed area.
    """
    det = _doubled_areas(p)
    # hat k's gradient is the opposite edge p[k+1] - p[k+2] turned clockwise
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    return det, np.stack([e[..., 1], -e[..., 0]], axis=2) / det[:, None, None]


# ===================================================================== spec
class DomainSpec:
    """Geometric description of the domain to mesh.

    The flow cell's arc and each disk or ellipse obstacle are polygons of at
    least 64 segments, more where h_mesh needs them.

    Args:
        outer: "flow-cell" for the square-plus-right-cap domain, or a
            rectangle (x0, y0, x1, y1).
        h_mesh: target edge length.
        obstacles: sequence of ("disk", (cx, cy), r),
            ("ellipse", (cx, cy), (a, b)) or ("polygon", points).
    """

    def __init__(self, outer="flow-cell", h_mesh=0.05, obstacles=()):
        if not 0 < h_mesh < np.inf:
            raise GeometryError("target edge length must be positive and finite")
        self.outer = outer
        self.h_mesh = float(h_mesh)
        self.obstacles = tuple(obstacles)
        if outer != "flow-cell":
            x0, y0, x1, y1 = outer
            if not (x1 > x0 and y1 > y0):
                raise GeometryError("rectangle must have positive extents")
        reach = 1.0 if outer == "flow-cell" else float(np.abs(outer).max())
        for ob in self.obstacles:
            if ob[0] not in ("disk", "ellipse", "polygon"):
                raise GeometryError(f"unknown obstacle kind {ob[0]!r}")
            if not np.all(np.abs(np.hstack(ob[1:])) <= reach):
                raise GeometryError("obstacles must be given by finite "
                                    f"numbers from {-reach!r} to {reach!r}")
        for poly in self.obstacle_polygons():
            if np.any(self.outer_sdf(poly) > -_CLEARANCE):
                raise GeometryError(
                    "obstacles must lie strictly inside the outer boundary")

    def replace(self, **changes):
        """Validated copy with the given fields changed."""
        return DomainSpec(**{**vars(self), **changes})

    # outer boundary -----------------------------------------------------
    def outer_chains(self):
        """Labeled boundary chains, counterclockwise, sharing endpoints."""
        h, flow_cell = self.h_mesh, self.outer == "flow-cell"
        x0, y0, x1, y1 = (-0.5, -0.5, 0.5, 0.5) if flow_cell else self.outer
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        chains = [_subdivide(a, b, h) for a, b in zip(corners, corners[1:])]
        if flow_cell:  # the polygonized right arc replaces the Gamma3 side
            n_arc = max(_MIN_SEGMENTS, int(np.ceil(0.5 * np.pi / h)))
            t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_arc + 1)
            chains[1] = np.column_stack([0.5 + 0.5 * np.cos(t),
                                         0.5 * np.sin(t)])
            chains[1][[0, -1]] = corners[1:3]
        return list(zip(("Gamma2", "Gamma3", "Gamma4", "Gamma1"), chains))

    def outer_sdf(self, points):
        """Signed distance to the outer boundary, negative inside."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = p[:, 0], p[:, 1]
        if self.outer == "flow-cell":
            # the cap term reduces to |y| - 0.5 left of the arc center
            cap = np.hypot(np.maximum(x - 0.5, 0.0), y) - 0.5
            return np.maximum(cap, -(x + 0.5))
        x0, y0, x1, y1 = self.outer
        return np.maximum.reduce([x0 - x, x - x1, y0 - y, y - y1])

    # obstacles ----------------------------------------------------------
    def obstacle_polygons(self):
        """Counterclockwise closed polygons, one per obstacle, first point not repeated."""
        polys = []
        h = self.h_mesh
        for ob in self.obstacles:
            kind = ob[0]
            if kind == "disk":
                (cx, cy), r = ob[1], float(ob[2])
                if r <= 0:
                    raise GeometryError("disk radius must be positive")
                n = max(_MIN_SEGMENTS, int(np.ceil(2 * np.pi * r / h)))
                th = 2 * np.pi * np.arange(n) / n
                polys.append(np.column_stack([cx + r * np.cos(th),
                                              cy + r * np.sin(th)]))
            elif kind == "ellipse":
                (cx, cy), (a, b) = ob[1], ob[2]
                if a <= 0 or b <= 0:
                    raise GeometryError("ellipse semi-axes must be positive")
                per = np.pi * (3 * (a + b) - np.sqrt((3 * a + b) * (a + 3 * b)))
                n = max(_MIN_SEGMENTS, int(np.ceil(per / h)))
                th = 2 * np.pi * np.arange(n) / n
                polys.append(np.column_stack([cx + a * np.cos(th),
                                              cy + b * np.sin(th)]))
            else:
                pts = np.asarray(ob[1], dtype=float)
                if len(pts) < 3:
                    raise GeometryError("polygon obstacle needs at least 3 points")
                if _polygon_area(pts) < 0:
                    pts = pts[::-1]
                # sides split to h like the curves, so that no side's
                # diametral disk holds another fixed vertex
                polys.append(np.vstack([
                    _subdivide(a, b, h)[:-1]
                    for a, b in zip(pts, np.roll(pts, -1, axis=0))]))
        return polys


def _subdivide(p0, p1, h):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = max(1, int(np.ceil(np.hypot(*(p1 - p0)) / h)))
    s = np.linspace(0.0, 1.0, n + 1)[:, None]
    pts = (1 - s) * p0 + s * p1
    pts[0], pts[-1] = p0, p1
    return pts


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


_DISTANCE_CHUNK = 2048  # points per block of (points x segments) work


def polygon_signed_distance(points, poly):
    """Distance from points to a closed polygon, negative inside.

    Args:
        points: (n, 2) query points.
        poly: (m, 2) polygon vertices, first point not repeated.

    Points are taken in blocks of _DISTANCE_CHUNK, so the temporaries stay
    at (chunk x m); every point's value is the same as unblocked.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return np.concatenate([_signed_distance_block(p[i:i + _DISTANCE_CHUNK],
                                                  poly)
                           for i in range(0, max(len(p), 1),
                                          _DISTANCE_CHUNK)])


def _signed_distance_block(p, poly):
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ap = p[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("nij,ij->ni", ap, ab) / ab2, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.min(np.linalg.norm(p[:, None, :] - closest, axis=2), axis=1)
    # even-odd crossing test for the sign
    x, y = p[:, 0][:, None], p[:, 1][:, None]
    ya, yb = a[:, 1][None, :], b[:, 1][None, :]
    xa, xb = a[:, 0][None, :], b[:, 0][None, :]
    cond = (ya <= y) != (yb <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = xa + (y - ya) * (xb - xa) / (yb - ya)
    crossings = np.sum(cond & (x < xcross), axis=1)
    inside = crossings % 2 == 1
    return np.where(inside, -d, d)


# ================================================================ generator
def generate_mesh(spec: DomainSpec, conform_to_obstacles=False) -> Mesh:
    """Generate a triangulation of the domain described by spec.

    Boundary points are placed on the polygonized outer curve and, when
    conform_to_obstacles is set, on every obstacle curve; interior points are
    seeded on a hexagonal grid and relaxed by an edge-spring iteration before
    the final Delaunay pass.  The relaxation repairs its triangulation by
    edge flips; a repair is kept only where certified to be the unique
    Delaunay triangulation, which is qhull's, so the points move as with
    qhull.  The final pass stays on qhull: its simplex order is the mesh's
    triangle numbering.  Required boundary and interface edges are repaired by
    removing free points from their diametral disks.
    """
    ring_pts, required, ring_labels = _assemble_outer_ring(spec.outer_chains())
    nouter = len(ring_pts)

    all_polys = spec.obstacle_polygons()
    _check_obstacles(all_polys)

    fixed = [ring_pts]
    for poly in all_polys if conform_to_obstacles else []:
        base = sum(len(f) for f in fixed)
        m = len(poly)
        fixed.append(poly)
        required.extend((base + k, base + (k + 1) % m) for k in range(m))
    fixed_pts = np.vstack(fixed)
    nfix = len(fixed_pts)

    seeds = _hex_seeds(spec, fixed_pts)
    points = np.vstack([fixed_pts, seeds]) if len(seeds) else fixed_pts

    points = _relax(points, nfix, spec)

    required = np.array(required, dtype=np.int64)
    tri, points = _conforming_delaunay(points, nfix, required, spec)
    return _finalize(points, tri, required[:nouter], ring_labels,
                     required[nouter:] if conform_to_obstacles else None)


def _assemble_outer_ring(chains):
    ring, labels = [], []
    for label, pts in chains:
        ring.extend(pts[:-1].tolist())  # a chain's last point starts the next
        labels.extend([label] * (len(pts) - 1))
    n = len(ring)
    required = [(k, (k + 1) % n) for k in range(n)]
    return np.asarray(ring), required, labels


def _check_obstacles(polys):
    """Meshed obstacles must not overlap; level shapes may (their union)."""
    for i, poly in enumerate(polys):
        for j in range(i + 1, len(polys)):
            if np.any(polygon_signed_distance(polys[j], poly) < _CLEARANCE):
                raise GeometryError(f"obstacles {i + 1} and {j + 1} overlap")


def _hex_seeds(spec, fixed_pts):
    h = spec.h_mesh
    if spec.outer == "flow-cell":
        x0, y0, x1, y1 = -0.5, -0.5, 1.0, 0.5
    else:
        x0, y0, x1, y1 = spec.outer
    xs = np.arange(x0 + 0.5 * h, x1, h)
    ys = np.arange(y0 + 0.5 * h, y1, 0.5 * np.sqrt(3) * h)
    gx, gy = np.meshgrid(xs, ys)
    gx[1::2] += 0.5 * h
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = spec.outer_sdf(pts) < -0.5 * h
    pts = pts[keep]
    if len(pts) == 0:
        return pts
    tree = cKDTree(fixed_pts)
    d, _ = tree.query(pts)
    return pts[d >= 0.55 * h]


def _relax(points, nfix, spec, maxiter=90, fscale=1.2, deltat=0.2):
    h = spec.h_mesh
    if len(points) <= nfix:
        return points
    p = points.copy()
    pold = None
    tri, repair = None, False
    for _ in range(maxiter):
        if pold is None or np.max(np.hypot(*(p - pold).T)) > 0.1 * h:
            # flips reach the unique Delaunay triangulation, which is
            # qhull's; where that is not certain, qhull from here on
            tri = _flip_to_delaunay(p, tri, nfix) if repair else None
            repair = tri is not None or pold is None
            if tri is None:
                tri = _counterclockwise(p, Delaunay(p).simplices)[0]
            pold = p.copy()
            bars, _ = _edge_table(_interior(p, tri, spec), len(p))
        vec = p[bars[:, 0]] - p[bars[:, 1]]
        length = np.hypot(vec[:, 0], vec[:, 1])
        l0 = fscale * np.sqrt(np.sum(length ** 2) / len(bars))
        f = np.maximum(l0 - length, 0.0)
        fvec = (f / np.maximum(length, 1e-30))[:, None] * vec
        # np.add.at's order: fvec at bars[:, 0], then -fvec at bars[:, 1]
        force = np.column_stack([
            np.bincount(bars.T.ravel(), np.r_[fvec[:, c], -fvec[:, c]],
                        minlength=len(p)) for c in (0, 1)])
        force[:nfix] = 0.0
        p += deltat * force
        # pull escaped free points back inside
        d = spec.outer_sdf(p[nfix:])
        out = d > -1e-12
        if np.any(out):
            idx = nfix + np.nonzero(out)[0]
            p[idx] = _project_inside(p[idx], spec, -0.3 * h)
        move = deltat * np.max(np.hypot(force[nfix:, 0], force[nfix:, 1]))
        if move < 0.01 * h:
            break
    return p


def _project_inside(pts, spec, target):
    eps = 1e-7
    for _ in range(5):
        d = spec.outer_sdf(pts)
        bad = d > target
        if not np.any(bad):
            break
        q = pts[bad]
        d0 = spec.outer_sdf(q)
        gx = (spec.outer_sdf(q + [eps, 0.0]) - d0) / eps
        gy = (spec.outer_sdf(q + [0.0, eps]) - d0) / eps
        g2 = np.maximum(gx ** 2 + gy ** 2, 1e-30)
        shift = (d0 - target) / g2
        q = q - np.column_stack([shift * gx, shift * gy])
        pts = pts.copy()
        pts[bad] = q
    return pts


def _interior(p, s, spec):
    """The simplices s whose centroid lies inside the domain."""
    centroids = np.take(p, s, axis=0).mean(axis=1)
    return s[spec.outer_sdf(centroids) < -1e-3 * spec.h_mesh]


def _flip_to_delaunay(p, tri, nfix, rounds=10, margin=1e-9):
    """Delaunay triangulation of p by Lawson flips from tri, or None.

    tri is counterclockwise and was Delaunay before p[nfix:] moved.  Each
    round flips an independent set of the illegal edges: those with a vertex
    inside the circumcircle across them.  A result is the unique Delaunay
    triangulation, so qhull's: every point is a vertex, the hull joins
    unmoved points, every triangle is positive and every incircle test
    clears the relative margin (rounding is about 1e-15).  None where that
    fails or the rounds run out.
    """
    nv, T = len(p), len(tri)
    if np.bincount(tri.ravel(), minlength=nv).min() == 0:
        return None
    z, tri = p[:, 0] + 1j * p[:, 1], tri.copy()
    for _ in range(rounds):
        if np.any(_counterclockwise(p, tri)[1] <= 0):
            return None
        keys = _side_keys(tri, nv)
        order = np.argsort(keys)
        pair = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        hull = np.ones(3 * T, dtype=bool)
        hull[pair] = hull[pair + 1] = False
        if np.any(keys[order[hull]] % nv >= nfix):
            return None  # a hull vertex moved
        i, j = order[pair], order[pair + 1]
        # side i = s * T + t runs from flat[i] to flat[i + T]
        flat = np.tile(tri.T.ravel(), 2)
        a, b, c, d = flat[i], flat[i + T], flat[i + 2 * T], flat[j + 2 * T]
        # incircle determinant of (a, b, c) about d: positive when d is inside
        w = z[np.stack([a, b, c])] - z[d]
        lift = (w * w.conj()).real
        det = np.sum(lift * (w[[1, 2, 0]].conj() * w[[2, 0, 1]]).imag, axis=0)
        if np.any(np.abs(det) <= margin * lift.sum(axis=0) ** 2):
            return None
        bad = np.flatnonzero(det > 0)
        if bad.size == 0:
            return tri
        # an edge flips when it is the first illegal edge of both its triangles
        t1, t2, k = i[bad] % T, j[bad] % T, np.arange(bad.size)
        first = np.full(T, bad.size)
        np.minimum.at(first, t1, k)
        np.minimum.at(first, t2, k)
        go = (first[t1] == k) & (first[t2] == k)
        a, b, c, d = (v[bad[go]] for v in (a, b, c, d))
        tri[t1[go]] = np.column_stack([a, d, c])
        tri[t2[go]] = np.column_stack([d, b, c])
    return None


def _conforming_delaunay(points, nfix, required, spec, max_rounds=8):
    p = points
    for _ in range(max_rounds):
        simplices = _interior(p, Delaunay(p).simplices, spec)
        present = np.isin(_edge_keys(required, len(p)),
                          _side_keys(simplices, len(p)))
        missing = [tuple(e) for e in required[~present].tolist()]
        if not missing:
            return simplices, p
        # free points inside the diametral disk of a missing edge block it
        drop = np.zeros(len(p), dtype=bool)
        for a, b in missing:
            mid = 0.5 * (p[a] + p[b])
            rad = 0.5 * np.hypot(*(p[a] - p[b]))
            d = np.hypot(p[nfix:, 0] - mid[0], p[nfix:, 1] - mid[1])
            drop[nfix:] |= d < rad * (1.0 + 1e-9)
        if not np.any(drop):
            raise GenerationError(
                f"cannot recover required edges {missing[:4]}")
        p = p[~drop]
    raise GenerationError("conformity repair did not terminate")


def _finalize(points, simplices, outer_required, ring_labels, cut):
    """Mesh of a triangulation; obstacle edges cut its regions unless None."""
    simplices, cross = _counterclockwise(points, simplices)
    if np.any(np.abs(cross) < 1e-14):
        raise GenerationError("degenerate triangle produced")

    vertices, triangles, bdry, labels, remap = _compact(
        points, simplices, outer_required, ring_labels)
    if None in labels:
        raise GenerationError("unlabeled boundary edge produced")
    region = None if cut is None else _region_tags(triangles, len(vertices),
                                                   remap[cut])
    return Mesh(vertices, triangles, bdry, labels, region)


def _region_tags(triangles, nv, cut):
    """Fluid for triangles joined to a boundary edge without crossing cut."""
    T = len(triangles)
    edge, side_edge, counts = np.unique(
        _side_keys(triangles, nv), return_inverse=True, return_counts=True)
    open_side = ~np.isin(edge, _edge_keys(cut, nv))[side_edge]
    # nodes: the triangles, then the edges; a triangle links to its uncut sides
    links = np.column_stack([np.arange(3 * T) % T, T + side_edge])[open_side]
    comp = _graph_components(T + len(edge), links)
    fluid = np.isin(comp[:T], comp[T + np.flatnonzero(counts == 1)])
    return np.where(fluid, FLUID, OBSTACLE).tolist()


# ================================================================ submesh
def extract_submesh(mesh: Mesh, region: str) -> Mesh:
    """Extract the triangles with the given region tag as a standalone mesh.

    Obstacle holes of the extracted region become labeled boundary loops
    Obstacle1, Obstacle2, ... ordered by their lowest (x, y) vertex.  The
    returned mesh carries parent_vertex_ids and parent_triangle_ids arrays
    mapping back to the input mesh.
    """
    keep = mesh.triangles_in_region(region)
    vertices, triangles, bdry, labels, remap = _compact(
        mesh.vertices, mesh.triangles[keep], mesh.boundary_edges,
        mesh.boundary_labels)
    new_edges = [i for i, s in enumerate(labels) if s is None]

    # group fresh interface edges into loops and name them deterministically
    if new_edges:
        new_edges = np.array(new_edges)
        loops = [new_edges[comp] for comp in
                 _edge_components(bdry[new_edges], len(vertices))]

        def loop_key(comp):
            vs = np.unique(bdry[comp].ravel())
            pts = vertices[vs]
            k = np.lexsort((pts[:, 1], pts[:, 0]))[0]
            return (pts[k, 0], pts[k, 1])

        loops.sort(key=loop_key)
        for li, comp in enumerate(loops):
            for i in comp:
                labels[i] = f"{OBSTACLE}{li + 1}"

    sub = Mesh(vertices, triangles, bdry, labels,
               triangle_region=[region] * len(triangles))
    sub.parent_vertex_ids = np.flatnonzero(remap >= 0)
    sub.parent_triangle_ids = keep
    return sub


# ================================================================ normals
def outward_normals(mesh: Mesh, label: str):
    """Edges with a label and their outward normals, scaled by edge length.

    Triangles are counterclockwise, so the mesh lies left of a boundary edge
    exactly when its triangle runs through it in the stored direction.
    """
    edges = mesh.edges_with_label(label)
    t, nv = mesh.triangles, mesh.num_vertices
    directed = t * nv + np.roll(t, -1, axis=1)
    forward = np.isin(edges[:, 0] * nv + edges[:, 1], directed)
    tvec = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    normals = np.column_stack([tvec[:, 1], -tvec[:, 0]])
    normals[~forward] *= -1.0
    return edges, normals


# ==================================================================== I/O
def mesh_to_text(mesh: Mesh) -> str:
    """Serialize to the line-oriented text format (1-based indices)."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.boundary_edges)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    regions = mesh.triangle_region or ["-"] * mesh.num_triangles
    for (i, j, k), r in zip(mesh.triangles, regions):
        lines.append(f"{i + 1} {j + 1} {k + 1} {r}")
    for (i, j), s in zip(mesh.boundary_edges, mesh.boundary_labels):
        lines.append(f"{i + 1} {j + 1} {s}")
    return "\n".join(lines) + "\n"


def mesh_from_text(text: str) -> Mesh:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        nv, nt, ne = (int(s) for s in lines[0].split())
        verts = np.array([[float(s) for s in lines[1 + i].split()]
                          for i in range(nv)])
        tris, regions = [], []
        for i in range(nt):
            parts = lines[1 + nv + i].split()
            tris.append([int(parts[0]) - 1, int(parts[1]) - 1, int(parts[2]) - 1])
            regions.append(parts[3])
        edges, labels = [], []
        for i in range(ne):
            parts = lines[1 + nv + nt + i].split()
            edges.append([int(parts[0]) - 1, int(parts[1]) - 1])
            labels.append(parts[2])
    except (IndexError, ValueError) as exc:
        raise MeshInvariantError(f"malformed mesh text: {exc}") from exc
    region = None if all(r == "-" for r in regions) else regions
    return Mesh(verts, np.array(tris), np.array(edges), labels, region)
