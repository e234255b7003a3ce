"""Mixed P1+bubble / P1 finite elements: spaces, quadrature, assembly and
boundary integrals.

Velocity uses continuous P1 enriched with one cubic bubble (27 l1 l2 l3)
per triangle, pressure and level fields use plain P1.  Velocity DOFs are
component major: component c occupies [c*N1, (c+1)*N1), vertices first,
then one bubble per triangle.  All coefficient jumps are smoothed per
quadrature point from the P1-interpolated level field.

Quadrature-point data is component major and C-contiguous too: scalars
(T, nq), vectors (2, T, nq), gradients (2, 2, T, nq) with [d, c] = d u_c /
d x_d, so that coefficient products and component sums run over whole
(T, nq) blocks.  Only _velocity_at_quad batches element products (with one
transpose); element blocks and _velocity_rows keep the triangle axis last,
so every per-element sum runs over whole T-vectors: a quadrature sum is
one product with a table of the rule, and the basis gradients come from
hat_grads (3, 2, T), the bubble's as 27 sum_k fac_k grad lam_k (fac_k the
product of the other two barycentrics), met by moments against grad_coef.

The boundary value problem is the paper's: zero velocity on the clamped
walls CLAMPED, natural conditions on every other boundary edge.

Element geometry lives in one place: _geometry computes it once per mesh
and quadrature rule and keeps it in the mesh's cache, so every layout of a
mesh and compute_norm share it.  The kernels take the layout and read the
geometry from it (SpaceLayout.geometry).

The boundary flux, on mesh.outward_normals, is one trapezoid row of
per-vertex weights (_flux_row): boundary_flux takes its dot product with
the vertex velocities, and flux_row_vector is the row itself, the reference
solver's constraint row.
"""

import functools

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigurationError
from .levelset import (LevelField, check_width, heaviside_derivative,
                       heaviside_value)
from .mesh import OBSTACLE, hat_gradients, outward_normals

EXACT_REGION = "exact-region"

# the clamped walls: zero velocity there, natural conditions elsewhere
CLAMPED = ("Gamma2", "Gamma3", "Gamma4")

PENALIZED_B = "penalized"
PLAIN_B = "plain"


# ------------------------------------------------------------------ rules
def _rule_degree5():
    # symmetric 7-point rule, exact for polynomials of degree 5
    a = (6.0 - np.sqrt(15.0)) / 21.0
    b = (6.0 + np.sqrt(15.0)) / 21.0
    wa = (155.0 - np.sqrt(15.0)) / 1200.0
    wb = (155.0 + np.sqrt(15.0)) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3),
           (1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a),
           (1 - 2 * b, b, b), (b, 1 - 2 * b, b), (b, b, 1 - 2 * b)]
    wts = [9.0 / 40.0, wa, wa, wa, wb, wb, wb]
    return np.array(pts), np.array(wts)


def _rule_conical(n=4):
    # Gauss-Jacobi x Gauss-Legendre conical product, exact to degree 2n-1
    tj, wj = roots_jacobi(n, 1.0, 0.0)
    tl, wl = roots_legendre(n)
    xi = 0.5 * (tj + 1.0)
    eta = 0.5 * (tl + 1.0)
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            x = xi[i]
            y = eta[j] * (1.0 - xi[i])
            pts.append((1.0 - x - y, x, y))
            wts.append(0.25 * wj[i] * 0.5 * wl[j])
    # raw weights sum to the reference area 1/2; normalize to 1
    return np.array(pts), 2.0 * np.array(wts)


def triangle_rule(order):
    """Barycentric points and weights (normalized to sum 1) for a triangle rule."""
    if order <= 5:
        return _rule_degree5()
    return _rule_conical(4)


_EDGE_RULE = roots_legendre(3)  # 3-point Gauss, exact to degree 5 on edges


# ---------------------------------------------------------------- layout
class SpaceLayout:
    """DOF bookkeeping for the mixed velocity/pressure/level spaces.

    N1 scalar-velocity DOFs (vertices + bubbles), N2 pressure DOFs and N3
    level DOFs (vertices each); M = 2*N1 + N2 and N = M + N3.  The Dirichlet
    set holds both velocity components of every vertex on CLAMPED.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.V = mesh.num_vertices
        self.T = mesh.num_triangles
        self.N1 = self.V + self.T
        self.N2 = self.V
        self.N3 = self.V
        self.M = 2 * self.N1 + self.N2
        self.N = self.M + self.N3
        verts = self.dirichlet_vertices = mesh.vertices_on(CLAMPED)
        self.dirichlet_dofs = np.sort(np.concatenate([verts, verts + self.N1]))
        # local scalar-velocity DOFs per triangle: three vertices then the bubble
        self.cell_dofs = np.column_stack(
            [mesh.triangles, self.V + np.arange(self.T)]).astype(np.int64)
        # (T, a, c): the global DOF of velocity component c at local basis a
        self.component_dofs = self.cell_dofs[..., None] + np.array([0, self.N1])
        self._patterns = {}  # condensed saddle patterns, filled by ns_solver

    def geometry(self, order=5):
        """The mesh's element geometry for the rule of order (5 for every
        form, 7 for the norms), the dict that _geometry keeps on the mesh."""
        return _geometry(self.mesh, order)


def _geometry(mesh, order=5):
    """The P1+bubble element geometry of mesh for the degree-5 rule (order
    <= 5) or the conical one, computed once and kept in mesh._cache: the
    rule (lam, weights), area (T,), hat_grads (3, 2, T), basis vals (nq, 4),
    grad_coef (nq, 4) = [1, 27 fac], the basis gradients as grad_rows
    (T, nq * 2, 4) d_d N_a and the weights wa (T, nq)."""
    key = ("geometry", 5 if order <= 5 else 7)
    if key not in mesh._cache:
        mesh._cache[key] = _element_geometry(mesh, key[1])
    return mesh._cache[key]


def _element_geometry(mesh, order):
    lam, wts = triangle_rule(order)
    p = mesh.vertices[mesh.triangles]
    det, gl = hat_gradients(p)
    nq = len(lam)
    vals = np.column_stack([lam, 27.0 * lam[:, 0] * lam[:, 1] * lam[:, 2]])
    # bubble gradient varies over the triangle
    fac = lam[:, [1, 0, 0]] * lam[:, [2, 2, 1]]  # (nq, 3)
    rows = np.empty((len(p), nq, 2, 4))
    rows[..., :3] = gl.transpose(0, 2, 1)[:, None]
    rows[..., 3] = 27.0 * np.einsum("qk,tkd->tqd", fac, gl)
    area = 0.5 * det
    return {"lam": lam, "weights": wts, "area": area, "vals": vals,
            "hat_grads": np.ascontiguousarray(gl.transpose(1, 2, 0)),
            "grad_coef": np.column_stack([np.ones(nq), 27.0 * fac]),
            "grad_rows": rows.reshape(len(p), -1, 4),
            "wa": wts[None, :] * area[:, None]}


def build_spaces(mesh) -> SpaceLayout:
    """Build the mixed-space layout for a mesh."""
    return SpaceLayout(mesh)


# ----------------------------------------------------------------- config
class AssemblyConfig:
    """Physics and regularization parameters for form assembly.

    Args:
        nu: viscosity, positive.
        eps: penalization parameter, nonnegative.
        smoothing_width: positive width of the coefficient smoothing, or
            None for the mesh's mean edge length.
        divergence_form: "penalized" (level-weighted) or "plain" (whole domain).
        traction: callable x -> (..., 2) traction on the Neumann side, or None.
        traction_label: boundary label carrying the traction.
        body_force: callable x -> (..., 2), or None.

    Every form is integrated by the degree-5 rule, the lowest that is exact
    for the bubble terms.
    """

    def __init__(self, nu=1.0, eps=0.025, smoothing_width=None,
                 divergence_form=PENALIZED_B, traction=None,
                 traction_label="Gamma1", body_force=None):
        if nu <= 0:
            raise ConfigurationError("viscosity must be positive")
        if eps < 0:
            raise ConfigurationError("penalization parameter must be nonnegative")
        if divergence_form not in (PENALIZED_B, PLAIN_B):
            raise ConfigurationError(f"unknown divergence form {divergence_form!r}")
        self.nu = float(nu)
        self.eps = float(eps)
        self.smoothing_width = smoothing_width if smoothing_width is None \
            else check_width(smoothing_width)
        self.divergence_form = divergence_form
        self.traction = traction
        self.traction_label = traction_label
        self.body_force = body_force

    def replace(self, **changes):
        """Validated copy with the given fields changed."""
        return AssemblyConfig(**{**vars(self), **changes})


class CoeffData:
    """Smoothed coefficients per quadrature point, (T, nq) each, from the
    Heaviside values H (viscous term) and Ht (all others).

    Every coefficient is affine in H and Ht, so with their level derivatives
    dH, dHt in place of H, Ht and one = 0 the same formulas give the level
    derivatives dvisc, dmass, dconv, ddivc and dloadc.  level holds them
    (level.visc is dvisc, and so on), derived on first access from the level
    values gq and the smoothing width: reading values only never computes
    them.
    """

    def __init__(self, config, H, Ht, gq=None, width=None, one=1.0):
        eps = config.eps
        self.visc = config.nu * (one - H) + eps * Ht
        self.mass = eps * Ht
        self.conv = (one - Ht) + eps * Ht
        self.divc = np.full_like(Ht, one) \
            if config.divergence_form == PLAIN_B else self.conv
        self.loadc = one - Ht
        self._config, self._gq, self._width = config, gq, width

    @functools.cached_property
    def level(self):
        """The level derivatives as a CoeffData, or None without a level."""
        if self._gq is not None:
            gq, w = self._gq, self._width
            return CoeffData(self._config, *heaviside_derivative(
                np.stack([gq, gq + w]), w), one=0.0)


def evaluate_coefficients(layout: SpaceLayout, config: AssemblyConfig, g) -> CoeffData:
    """Evaluate all form coefficients at the assembly quadrature points.

    g may be a LevelField (smoothed coefficients and, on demand, their level
    derivatives), the string "exact-region" (sharp indicators from the mesh
    region tags), or None (no obstacle anywhere).
    """
    geom = layout.geometry()
    T, nq = layout.T, len(geom["weights"])

    gq = width = None
    if g is None:
        H = Ht = np.zeros((T, nq))
    elif isinstance(g, str):
        if g != EXACT_REGION:
            raise ConfigurationError(f"unknown coefficient mode {g!r}")
        if layout.mesh.triangle_region is None:
            raise ConfigurationError("exact-region mode needs a region-tagged mesh")
        chi = np.array(layout.mesh.triangle_region) == OBSTACLE
        H = Ht = np.repeat(chi[:, None], nq, axis=1).astype(float)
    elif isinstance(g, LevelField):
        if len(g) != layout.V:
            raise ConfigurationError("level field does not match the mesh")
        width = config.smoothing_width or layout.mesh.mean_edge_length
        gq = g.nodal_values[layout.mesh.triangles] @ geom["lam"].T
        # the shifted step is the standard one a width further on
        H, Ht = heaviside_value(np.stack([gq, gq + width]), width)
    else:
        raise ConfigurationError("g must be a LevelField, 'exact-region', or None")

    return CoeffData(config, H, Ht, gq, width)


# --------------------------------------------------------------- assembly
def _scatter(data, rows, cols, shape):
    """CSR matrix summing data at (rows, cols), both broadcast to data."""
    rows, cols = (np.broadcast_to(i, data.shape) for i in (rows, cols))
    m = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def _moments(w, a, b):
    """sum_q w[..., q] a[q, i] b[q, j] as (i, j, ...), triangle axis last:
    one product with the rule's table a (x) b."""
    table = (a[:, :, None] * b[:, None]).reshape(len(a), -1)
    return (table.T @ w.reshape(-1, len(a)).T).reshape(
        a.shape[1], b.shape[1], *w.shape[:-1])


def _gradient_moments(m, hg):
    """sum_q w d_c N_b as (..., c, b, T) from the moments m (..., 4, T) of
    w against grad_coef and the hat gradients hg (3, 2, T)."""
    out = np.empty(m.shape[:-2] + (2, 4, m.shape[-1]))
    out[..., :3, :] = m[..., None, None, 0, :] * hg.transpose(1, 0, 2)
    np.einsum("...kt,kct->...ct", m[..., 1:, :], hg, out=out[..., 3, :])
    return out


def _stokes_blocks(layout: SpaceLayout, coeffs: CoeffData):
    """Element blocks of assemble_bilinear, triangle axis last.

    Viscous plus mass block (a, b, T) of either velocity component, and the
    divergence rows -int divc (d_c N_a) lam_p as (p, c, a, T).
    """
    geom = layout.geometry()
    wa, vals, coef, hg = (geom[k] for k in ("wa", "vals", "grad_coef",
                                            "hat_grads"))
    # y[c, b, c', a] = int visc d_c N_b d_c' N_a
    y = _gradient_moments(_gradient_moments(_moments(
        wa * coeffs.visc, coef, coef), hg).transpose(1, 2, 0, 3), hg)
    b = _gradient_moments(_moments(-wa * coeffs.divc, geom["lam"], coef), hg)
    return _moments(wa * coeffs.mass, vals, vals) + y[0, :, 0] + y[1, :, 1], b


def assemble_bilinear(layout: SpaceLayout, config: AssemblyConfig, g,
                      coeffs: CoeffData = None):
    """Assemble the velocity operator A (2N1 x 2N1) and divergence B (N2 x 2N1).

    A carries the smoothed viscous term plus the penalization mass term and
    is symmetric; B carries the configured divergence form.  Boundary
    condition rows are left untouched.
    """
    if coeffs is None:
        coeffs = evaluate_coefficients(layout, config, g)
    kloc, bloc = (np.moveaxis(x, -1, 0)
                  for x in _stokes_blocks(layout, coeffs))
    dofs, N1 = layout.cell_dofs, layout.N1
    a_scalar = _scatter(kloc, dofs[:, :, None], dofs[:, None, :], (N1, N1))
    A = sp.kron(sp.eye(2, format="csr"), a_scalar, format="csr")
    B = _scatter(bloc, layout.mesh.triangles[:, :, None, None],
                 layout.component_dofs.swapaxes(1, 2)[:, None],
                 (layout.N2, 2 * N1))
    return A, B


def _velocity_at_quad(geom, dofs, Y):
    """Values (2, T, nq) and gradients (2, 2, T, nq), [d, c] = d u_c / d x_d,
    of Y at geom's points on the triangles of dofs, (T, a, c) like
    SpaceLayout.component_dofs: each one product with the local values
    (T, a, c), then one contiguous transpose (twice faster than
    interpolating component major directly)."""
    yl = Y[dofs]
    return (np.ascontiguousarray((geom["vals"] @ yl).transpose(2, 0, 1)),
            np.ascontiguousarray((geom["grad_rows"] @ yl).reshape(
                len(yl), -1, 2, 2).transpose(2, 3, 0, 1)))


def _convection_blocks(layout: SpaceLayout, coeffs: CoeffData, uq, gu):
    """Element blocks of assemble_trilinear at the velocity with values uq
    and gradients gu at the quadrature points, as _velocity_at_quad gives
    them, triangle axis last.

    C1 of either velocity component (a, b, T), a tested against b, and C2
    as (c, a, c', b, T), component c tested with basis a against c' with b.
    """
    geom = layout.geometry()
    vals, wc = geom["vals"], geom["wa"] * (0.5 * coeffs.conv)  # halves: exact
    # e1[a, b, c', c] = int conv (d u_c / d x_c') N_a N_b / 2
    e1 = _moments(wc * gu, vals, vals)
    # e2[c, a, c', b] = int conv u_c N_a d_c' N_b / 2
    e2 = _gradient_moments(_moments(wc * uq, vals, geom["grad_coef"])
                           .transpose(2, 0, 1, 3), geom["hat_grads"])
    # int conv (u . grad N_b) N_a, skew-symmetrized
    c1 = e2[0, :, 0] + e2[1, :, 1]
    c1 -= c1.swapaxes(0, 1)
    return c1, e1.transpose(3, 0, 2, 1, 4) - e2.transpose(0, 3, 2, 1, 4)


def assemble_trilinear(layout: SpaceLayout, config: AssemblyConfig, g, Y,
                       coeffs: CoeffData = None):
    """Assemble the skew-symmetrized convection matrices at velocity Y.

    Returns (C1, C2): w^T C1 v is the convection form with Y transported in
    the first slot and v in the second; C2 is its derivative companion with
    the basis function in the first slot.
    """
    if coeffs is None:
        coeffs = evaluate_coefficients(layout, config, g)
    dofs, N1 = layout.cell_dofs, layout.N1
    quad = _velocity_at_quad(layout.geometry(), layout.component_dofs, Y)
    c1, c2 = (np.moveaxis(x, -1, 0)
              for x in _convection_blocks(layout, coeffs, *quad))
    c1_scalar = _scatter(c1, dofs[:, :, None], dofs[:, None, :], (N1, N1))
    C1 = sp.kron(sp.eye(2, format="csr"), c1_scalar, format="csr")
    idx = layout.component_dofs.swapaxes(1, 2)
    C2 = _scatter(c2, idx[..., None, None], idx[:, None, None],
                  (2 * N1, 2 * N1))
    return C1, C2


def _flow_at_quad(layout: SpaceLayout, Y, P):
    """(uq, gu, pq, ugu, uu) at the quadrature points: velocity values
    (2, T, nq) and gradients (2, 2, T, nq), the P1 pressure (T, nq), and the
    coefficient-free (u.grad)u (2, T, nq) and u (x) u (2, 2, T, nq)."""
    geom = layout.geometry()
    uq, gu = _velocity_at_quad(geom, layout.component_dofs, Y)
    pq = P[layout.mesh.triangles] @ geom["lam"].T
    return (uq, gu, pq, np.einsum("dtq,dctq->ctq", uq, gu),
            uq[:, None] * uq)


def _velocity_rows(layout: SpaceLayout, val=None, grad=None):
    """sum_q wa (val_c N_a + grad_dc d_d N_a) for every velocity DOF (c, a),
    val (2, T, nq) and grad (2, 2, T, nq) component major; grad's moments
    m[j, d, c] against grad_coef meet the hat gradients, summed over d."""
    geom = layout.geometry()
    hg, nq = geom["hat_grads"], len(geom["weights"])
    loc = np.zeros((4, 2, layout.T))  # (a, c, T)
    if val is not None:
        loc += (geom["vals"].T @ (geom["wa"] * val).reshape(-1, nq).T
                ).reshape(loc.shape)
    if grad is not None:
        m = (geom["grad_coef"].T @ (geom["wa"] * grad).reshape(-1, nq).T
             ).reshape(4, 2, 2, -1)
        loc[:3] += m[0, 0] * hg[:, None, 0] + m[0, 1] * hg[:, None, 1]
        loc[3] += np.einsum("kdct,kdt->ct", m[1:], hg)
    return np.bincount(layout.component_dofs.transpose(1, 2, 0).ravel(),
                       loc.ravel(), minlength=2 * layout.N1)


def _hat_rows(layout: SpaceLayout, s):
    """sum_q wa s lam_j for every P1 DOF j."""
    geom = layout.geometry()
    loc = (geom["wa"] * s) @ geom["lam"]
    return np.bincount(layout.mesh.triangles.ravel(), loc.ravel(),
                       minlength=layout.V)


def _momentum_integrand(co: CoeffData, flow, fq):
    """Quadrature-point (val, grad) of the momentum rows at _flow_at_quad's
    flow, for _velocity_rows.

    Tested with N_a e_c they give visc grad u : grad N_a + mass u N_a
    + conv/2 ((u.grad)u N_a - (u.grad N_a) u) - divc p d_c N_a, minus
    loadc f N_a when body force values fq (2, T, nq) are given.  With the
    level derivatives in place of the coefficients they give the level
    derivative.
    """
    uq, gu, pq, ugu, uu = flow
    hc = 0.5 * co.conv
    val = co.mass * uq + hc * ugu
    if fq is not None:
        val -= co.loadc * fq
    grad = co.visc * gu - hc * uu
    grad[0, 0] -= co.divc * pq  # the pressure term, on the diagonal
    grad[1, 1] -= co.divc * pq
    return val, grad


def _flow_rows(layout: SpaceLayout, coeffs: CoeffData, flow, fq, load, Y):
    """(A Y + C1(Y) Y + B^T P - load, B Y) summed per element, no matrix,
    at _flow_at_quad's flow of velocity Y, the Dirichlet rows Y itself (the
    velocity is zero there).  The divergence row of hat j is
    -divc div u lam_j; any flux rows are left to the caller."""
    divu = flow[1][0, 0] + flow[1][1, 1]
    mom = _velocity_rows(layout, *_momentum_integrand(coeffs, flow, fq)) - load
    dirs = layout.dirichlet_dofs
    mom[dirs] = Y[dirs]
    return mom, _hat_rows(layout, -coeffs.divc * divu)


def _body_force_at_quad(layout: SpaceLayout, config: AssemblyConfig):
    """The body force (2, T, nq) at the quadrature points, or None."""
    if config.body_force is not None:
        xq = np.einsum("qk,tkd->tqd", layout.geometry()["lam"],
                       layout.mesh.vertices[layout.mesh.triangles])
        fq = config.body_force(xq)
        return np.ascontiguousarray(np.moveaxis(fq, -1, 0), dtype=float)


def assemble_load(layout: SpaceLayout, config: AssemblyConfig, g,
                  coeffs: CoeffData = None):
    """Assemble the load vector: smoothed body force plus Neumann traction.

    The traction part does not depend on g; without a body force neither
    g nor coeffs is used.
    """
    mesh, N1 = layout.mesh, layout.N1
    F = np.zeros(2 * N1)
    fq = _body_force_at_quad(layout, config)
    if fq is not None:
        if coeffs is None:
            coeffs = evaluate_coefficients(layout, config, g)
        F += _velocity_rows(layout, val=coeffs.loadc * fq)
    if config.traction is not None:
        edges = mesh.edges_with_label(config.traction_label)
        pa, pb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
        elen = np.hypot(*(pb - pa).T)
        s, ws = 0.5 * (_EDGE_RULE[0] + 1.0), 0.5 * _EDGE_RULE[1]
        # psi[k, c, e] at Gauss point k; each end gets its hat's share
        psi = np.stack([np.asarray(config.traction(pa + sk * (pb - pa)),
                                   dtype=float).T for sk in s])
        ends = np.stack([1.0 - s, s], axis=1)[:, :, None]
        data = ((ws[:, None] * elen)[:, None, :] * ends)[:, None] \
            * psi[:, :, None, :]  # (k, c, end, e)
        idx = np.arange(2)[:, None, None] * N1 + edges.T[None]
        F += np.bincount(np.broadcast_to(idx, data.shape).ravel(),
                         data.ravel(), minlength=len(F))
    return F


# ------------------------------------------------------------------ flux
def _vertex_velocity(mesh, velocity):
    """(V, 2) vertex values of a velocity in any form boundary_flux takes."""
    v, n1 = mesh.num_vertices, mesh.num_vertices + mesh.num_triangles
    arr = np.asarray(getattr(velocity, "Y", velocity), dtype=float)
    if arr.shape == (v, 2):
        return arr
    if arr.shape == (2 * n1,):
        return np.column_stack([arr[:v], arr[n1:n1 + v]])
    raise ConfigurationError("velocity shape not understood for this mesh")


def boundary_flux(mesh, velocity, label: str) -> float:
    """Integral of velocity . outward normal over the edges with a label: the
    flux row on the vertex values of a MixedState, a flat velocity DOF vector
    of length 2(V + T) or a (V, 2) array (bubbles vanish on edges)."""
    vals = _vertex_velocity(mesh, velocity).T.ravel()
    return float(_flux_row(mesh, label, mesh.num_vertices) @ vals)


def flux_row_vector(layout: SpaceLayout, label: str):
    """Row r with r @ Y = net outward flux of Y through the labeled loop."""
    return _flux_row(layout.mesh, label, layout.N1)


def _flux_row(mesh, label, n1):
    # trapezoid rule: each end of an edge carries half its scaled normal
    edges, normals = outward_normals(mesh, label)
    idx = np.arange(2)[:, None, None] * n1 + edges.T[None]
    half = np.broadcast_to(0.5 * normals.T[:, None, :], idx.shape)
    return np.bincount(idx.ravel(), half.ravel(), minlength=2 * n1)


# ------------------------------------------------------------------ norms
_NORM_KINDS = ("L2", "H1seminorm", "H1", "DivL2")


def compute_norm(mesh, field, kind="L2") -> float:
    """Integral norm of a discrete field over the whole mesh.

    field: flat velocity DOF vector of length 2(V+T), a (V, 2) vertex vector
    field, or a scalar P1 vector of length V.  The quadrature, exact for the
    piecewise-polynomial integrands, is the mesh's order-7 geometry (the one
    SpaceLayout.geometry(7) returns).
    """
    if kind not in _NORM_KINDS:
        raise ConfigurationError(f"unknown norm kind {kind!r}")
    V, T = mesh.num_vertices, mesh.num_triangles
    geom = _geometry(mesh, 7)
    wa = geom["wa"]

    arr = np.asarray(field, dtype=float)
    if arr.ndim == 2 and arr.shape == (V, 2):
        arr = np.concatenate([arr[:, 0], np.zeros(T), arr[:, 1], np.zeros(T)])
    if arr.ndim != 1:
        raise ConfigurationError("field shape not understood")
    if arr.size == V:  # a scalar P1 field: u_x, no bubbles
        if kind == "DivL2":
            raise ConfigurationError("DivL2 needs a vector field")
        arr = np.concatenate([arr, np.zeros(V + 2 * T)])
    if arr.size != 2 * (V + T):
        raise ConfigurationError("field length matches neither space")
    uq, gq = _velocity_at_quad(geom, np.column_stack(
        [mesh.triangles, V + np.arange(T)])[..., None] + np.array([0, V + T]),
        arr)
    if kind == "DivL2":
        return np.sqrt(float(np.sum(wa * (gq[0, 0] + gq[1, 1]) ** 2)))
    # a norm leaves out the part it does not use
    l2sq = float(np.sum(wa * uq ** 2)) if kind != "H1seminorm" else 0.0
    h1sq = float(np.sum(wa * gq ** 2)) if kind != "L2" else 0.0
    return np.sqrt(l2sq + h1sq)
