"""Triangular meshes of the holdall domain and its body-fitted fluid subregion.

Meshes are plain triangulations with labeled boundary edges.  The outer
boundary labels are Gamma1 (left), Gamma2 (bottom), Gamma3 (right side,
polygonized arc for the flow cell), Gamma4 (top); internal obstacle loops
are labeled Obstacle1, Obstacle2, ...  Triangles of conforming meshes carry
a region tag (Fluid or Obstacle).
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
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edges(self):
        """All unique undirected edges as a sorted (n, 2) array."""
        e = np.vstack([self.triangles[:, [0, 1]],
                       self.triangles[:, [1, 2]],
                       self.triangles[:, [2, 0]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)

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
            raise UnknownLabelError(label)
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
        # each boundary edge belongs to exactly one triangle; an undirected
        # edge (a, b), a < b, is encoded as the integer a V + b
        all_e = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                        axis=1)
        keys, counts = np.unique(all_e[:, 0] * len(v) + all_e[:, 1],
                                 return_counts=True)
        bs = np.sort(be, axis=1)
        bkeys = bs[:, 0] * len(v) + bs[:, 1]
        pos = np.searchsorted(keys, bkeys)  # len(keys) when past the end
        found = np.append(keys, -1)[pos] == bkeys
        bcount = np.where(found, np.append(counts, 0)[pos], 0)
        bad = np.flatnonzero(bcount != 1)
        if bad.size:
            i = bad[0]
            key = (int(bs[i, 0]), int(bs[i, 1]))
            raise MeshInvariantError(f"boundary edge {key} belongs to "
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


def _edge_components(edges, num_vertices):
    """Edge sets joined through shared vertices, as sorted index lists.

    Components are ordered by their lowest edge index.
    """
    graph = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(num_vertices, num_vertices))
    _, vertex_comp = connected_components(graph, directed=False)
    comp = vertex_comp[edges[:, 0]]
    firsts = np.sort(np.unique(comp, return_index=True)[1])
    return [np.flatnonzero(comp == comp[i]).tolist() for i in firsts]


def hat_gradients(p):
    """Determinants (T,) and barycentric hat gradients (T, 3, 2).

    p holds the (T, 3, 2) triangle corners; the determinant is twice the
    signed area.
    """
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # hat k's gradient is the opposite edge p[k+1] - p[k+2] turned clockwise
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    return det, np.stack([e[..., 1], -e[..., 0]], axis=2) / det[:, None, None]


# ===================================================================== spec
class DomainSpec:
    """Geometric description of the domain to mesh.

    Args:
        outer: "flow-cell" for the square-plus-right-cap domain, or a
            rectangle (x0, y0, x1, y1).
        h_mesh: target edge length.
        arc_segments: minimum segment count for the polygonized right arc.
        circle_segments: minimum segment count per obstacle curve.
        obstacles: sequence of ("disk", (cx, cy), r),
            ("ellipse", (cx, cy), (a, b)) or ("polygon", points).
    """

    def __init__(self, outer="flow-cell", h_mesh=0.05, arc_segments=64,
                 circle_segments=64, obstacles=()):
        if h_mesh <= 0:
            raise GeometryError("target edge length must be positive")
        if arc_segments < 8 or circle_segments < 8:
            raise GeometryError("segment counts must be at least 8")
        self.outer = outer
        self.h_mesh = float(h_mesh)
        self.arc_segments = int(arc_segments)
        self.circle_segments = int(circle_segments)
        self.obstacles = tuple(obstacles)
        if outer != "flow-cell":
            x0, y0, x1, y1 = outer
            if not (x1 > x0 and y1 > y0):
                raise GeometryError("rectangle must have positive extents")
        for ob in self.obstacles:
            if ob[0] not in ("disk", "ellipse", "polygon"):
                raise GeometryError(f"unknown obstacle kind {ob[0]!r}")
        for poly in self.obstacle_polygons():
            if np.any(self.outer_sdf(poly) >= 0.0):
                raise GeometryError(
                    "obstacles must lie strictly inside the outer boundary")

    def with_mesh_size(self, h_mesh):
        """Copy of this spec with a different target edge length."""
        return DomainSpec(self.outer, h_mesh, self.arc_segments,
                          self.circle_segments, self.obstacles)

    # outer boundary -----------------------------------------------------
    def outer_chains(self):
        """Labeled boundary chains, counterclockwise, sharing endpoints."""
        h = self.h_mesh
        if self.outer == "flow-cell":
            sw, se, ne, nw = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))
            n_arc = max(self.arc_segments, int(np.ceil(0.5 * np.pi / h)))
            t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_arc + 1)
            arc = np.column_stack([0.5 + 0.5 * np.cos(t), 0.5 * np.sin(t)])
            arc[0] = se
            arc[-1] = ne
            return [
                ("Gamma2", _subdivide(sw, se, h)),
                ("Gamma3", arc),
                ("Gamma4", _subdivide(ne, nw, h)),
                ("Gamma1", _subdivide(nw, sw, h)),
            ]
        x0, y0, x1, y1 = self.outer
        sw, se, ne, nw = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        return [
            ("Gamma2", _subdivide(sw, se, h)),
            ("Gamma3", _subdivide(se, ne, h)),
            ("Gamma4", _subdivide(ne, nw, h)),
            ("Gamma1", _subdivide(nw, sw, h)),
        ]

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
                n = max(self.circle_segments, int(np.ceil(2 * np.pi * r / h)))
                th = 2 * np.pi * np.arange(n) / n
                polys.append(np.column_stack([cx + r * np.cos(th),
                                              cy + r * np.sin(th)]))
            elif kind == "ellipse":
                (cx, cy), (a, b) = ob[1], ob[2]
                if a <= 0 or b <= 0:
                    raise GeometryError("ellipse semi-axes must be positive")
                per = np.pi * (3 * (a + b) - np.sqrt((3 * a + b) * (a + 3 * b)))
                n = max(self.circle_segments, int(np.ceil(per / h)))
                th = 2 * np.pi * np.arange(n) / n
                polys.append(np.column_stack([cx + a * np.cos(th),
                                              cy + b * np.sin(th)]))
            else:
                pts = np.asarray(ob[1], dtype=float)
                if len(pts) < 3:
                    raise GeometryError("polygon obstacle needs at least 3 points")
                if _polygon_area(pts) < 0:
                    pts = pts[::-1]
                polys.append(pts)
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


def polygon_signed_distance(points, poly):
    """Distance from points to a closed polygon, negative inside.

    Args:
        points: (n, 2) query points.
        poly: (m, 2) polygon vertices, first point not repeated.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
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
    the final Delaunay pass.  Required boundary and interface edges are
    repaired by removing free points from their diametral disks.
    """
    h = spec.h_mesh
    chains = spec.outer_chains()

    ring_pts, required, labels_of = _assemble_outer_ring(chains)
    nouter = len(ring_pts)

    polys = spec.obstacle_polygons() if conform_to_obstacles else []
    all_polys = spec.obstacle_polygons()
    _check_obstacles(spec, all_polys)

    fixed = [ring_pts]
    for poly in polys:
        base = sum(len(f) for f in fixed)
        m = len(poly)
        fixed.append(poly)
        required.extend((base + k, base + (k + 1) % m) for k in range(m))
    fixed_pts = np.vstack(fixed)
    nfix = len(fixed_pts)

    seeds = _hex_seeds(spec, fixed_pts)
    points = np.vstack([fixed_pts, seeds]) if len(seeds) else fixed_pts

    points = _relax(points, nfix, spec)

    tri, points = _conforming_delaunay(points, nfix, required, spec)

    mesh = _finalize(points, tri, spec, required[:nouter], labels_of,
                     all_polys if conform_to_obstacles else None)
    return mesh


def _assemble_outer_ring(chains):
    ring = []
    labels_of = {}
    for label, pts in chains:
        start = len(ring)
        seg = pts[:-1]  # closing point of each chain is the next chain's start
        ring.extend(seg.tolist())
        for k in range(len(pts) - 1):
            labels_of[start + k] = label
    ring_pts = np.asarray(ring)
    n = len(ring_pts)
    required = [(k, (k + 1) % n) for k in range(n)]
    return ring_pts, required, labels_of


def _check_obstacles(spec, polys):
    for i, poly in enumerate(polys):
        d = spec.outer_sdf(poly)
        if np.any(d > -1e-9):
            raise GeometryError(f"obstacle {i + 1} intersects the outer boundary")
        for j, other in enumerate(polys):
            if j <= i:
                continue
            if np.any(polygon_signed_distance(other, poly) < 1e-9):
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
    bars = None
    for _ in range(maxiter):
        if pold is None or np.max(np.hypot(*(p - pold).T)) > 0.1 * h:
            pold = p.copy()
            tri = Delaunay(p)
            simplices = _interior_simplices(tri, p, spec)
            e = np.vstack([simplices[:, [0, 1]], simplices[:, [1, 2]],
                           simplices[:, [2, 0]]])
            e.sort(axis=1)
            bars = np.unique(e, axis=0)
        vec = p[bars[:, 0]] - p[bars[:, 1]]
        length = np.hypot(vec[:, 0], vec[:, 1])
        l0 = fscale * np.sqrt(np.sum(length ** 2) / len(bars))
        f = np.maximum(l0 - length, 0.0)
        fvec = (f / np.maximum(length, 1e-30))[:, None] * vec
        force = np.zeros_like(p)
        np.add.at(force, bars[:, 0], fvec)
        np.add.at(force, bars[:, 1], -fvec)
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


def _interior_simplices(tri, p, spec):
    cent = p[tri.simplices].mean(axis=1)
    keep = spec.outer_sdf(cent) < -1e-3 * spec.h_mesh
    return tri.simplices[keep]


def _conforming_delaunay(points, nfix, required, spec, max_rounds=8):
    p = points
    for _ in range(max_rounds):
        tri = Delaunay(p)
        simplices = _interior_simplices(tri, p, spec)
        present = set()
        e = np.vstack([simplices[:, [0, 1]], simplices[:, [1, 2]],
                       simplices[:, [2, 0]]])
        e.sort(axis=1)
        for a, b in np.unique(e, axis=0):
            present.add((int(a), int(b)))
        missing = [(a, b) for a, b in required
                   if (min(a, b), max(a, b)) not in present]
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


def _finalize(points, simplices, spec, outer_required, labels_of, polys):
    # orient counterclockwise
    p = points[simplices]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    flip = cross < 0
    simplices = simplices.copy()
    simplices[flip] = simplices[flip][:, ::-1]
    if np.any(np.abs(cross) < 1e-14):
        raise GenerationError("degenerate triangle produced")

    # drop unused points (repair may have culled none that are referenced)
    used = np.unique(simplices)
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = points[used]
    triangles = remap[simplices]

    label_lookup = {}
    for (a, b) in outer_required:
        na, nb = remap[a], remap[b]
        key = (int(min(na, nb)), int(max(na, nb)))
        label_lookup[key] = labels_of[a]

    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]])
    e.sort(axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    bdry = uniq[counts == 1]
    labels = []
    for a, b in bdry:
        key = (int(a), int(b))
        if key not in label_lookup:
            raise GenerationError("unlabeled boundary edge produced")
        labels.append(label_lookup[key])

    region = None
    if polys is not None:
        cent = vertices[triangles].mean(axis=1)
        inside = np.zeros(len(triangles), dtype=bool)
        for poly in polys:
            inside |= polygon_signed_distance(cent, poly) < 0.0
        region = [OBSTACLE if flag else FLUID for flag in inside]

    return Mesh(vertices, triangles, bdry, labels, region)


# ================================================================ submesh
def extract_submesh(mesh: Mesh, region: str) -> Mesh:
    """Extract the triangles with the given region tag as a standalone mesh.

    Obstacle holes of the extracted region become labeled boundary loops
    Obstacle1, Obstacle2, ... ordered by their lowest (x, y) vertex.  The
    returned mesh carries parent_vertex_ids and parent_triangle_ids arrays
    mapping back to the input mesh.
    """
    keep = mesh.triangles_in_region(region)
    tris = mesh.triangles[keep]
    used = np.unique(tris)
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = mesh.vertices[used]
    triangles = remap[tris]

    inherited = {}
    for (a, b), label in zip(mesh.boundary_edges, mesh.boundary_labels):
        na, nb = remap[a], remap[b]
        if na >= 0 and nb >= 0:
            inherited[(int(min(na, nb)), int(max(na, nb)))] = label

    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]])
    e.sort(axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    bdry = uniq[counts == 1]

    new_edges = []
    labels = [None] * len(bdry)
    for i, (a, b) in enumerate(bdry):
        key = (int(a), int(b))
        if key in inherited:
            labels[i] = inherited[key]
        else:
            new_edges.append(i)

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
    sub.parent_vertex_ids = used
    sub.parent_triangle_ids = keep
    return sub


# ================================================================== flux
def outward_normals(mesh: Mesh, label: str):
    """Edges with a label and their outward normals, scaled by edge length.

    Triangles are counterclockwise, so the mesh lies left of a boundary edge
    exactly when its triangle runs through it in the stored direction.
    """
    edges = mesh.edges_with_label(label)
    t, nv = mesh.triangles, mesh.num_vertices
    directed = np.concatenate([t[:, 0] * nv + t[:, 1], t[:, 1] * nv + t[:, 2],
                               t[:, 2] * nv + t[:, 0]])
    forward = np.isin(edges[:, 0] * nv + edges[:, 1], directed)
    tvec = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    normals = np.column_stack([tvec[:, 1], -tvec[:, 0]])
    normals[~forward] *= -1.0
    return edges, normals


def boundary_flux(mesh: Mesh, velocity, label: str) -> float:
    """Integral of velocity . outward normal over the edges with a label.

    The velocity may be a MixedState, a flat velocity DOF vector of length
    2(V + T), or a (V, 2) array of vertex values; bubble contributions vanish
    on edges, so only vertex traces enter the integral.
    """
    vals = _vertex_velocity(mesh, velocity)
    edges, normals = outward_normals(mesh, label)
    # trapezoid rule is exact for the linear trace
    return 0.5 * float(np.sum((vals[edges[:, 0]] + vals[edges[:, 1]])
                              * normals))


def _vertex_velocity(mesh, velocity):
    v, t = mesh.num_vertices, mesh.num_triangles
    if hasattr(velocity, "Y"):
        velocity = velocity.Y
    arr = np.asarray(velocity, dtype=float)
    if arr.ndim == 2 and arr.shape == (v, 2):
        return arr
    n1 = v + t
    if arr.ndim == 1 and arr.size == 2 * n1:
        return np.column_stack([arr[:v], arr[n1:n1 + v]])
    if arr.ndim == 1 and arr.size == 2 * v:
        return arr.reshape(v, 2)
    raise ValueError("velocity shape not understood for this mesh")


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


def write_mesh(mesh: Mesh, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(mesh_to_text(mesh))


def read_mesh(path) -> Mesh:
    with open(path, "r", encoding="ascii") as fh:
        return mesh_from_text(fh.read())
