"""Mixed P1+bubble / P1 finite elements: spaces, quadrature, and assembly.

Velocity uses continuous P1 enriched with one cubic bubble (27 l1 l2 l3)
per triangle, pressure and level fields use plain P1.  Velocity DOFs are
component major: component c occupies [c*N1, (c+1)*N1), vertices first,
then one bubble per triangle.  All coefficient jumps are smoothed per
quadrature point from the P1-interpolated level field.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigurationError, EmptyRegionError
from .levelset import SHIFTED, STANDARD, LevelField, SmoothingParams, smoothed_heaviside
from .mesh import OBSTACLE, hat_gradients

EXACT_REGION = "exact-region"

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
    set holds both velocity components of every vertex on the clamped
    boundary labels.
    """

    def __init__(self, mesh, dirichlet_labels=("Gamma2", "Gamma3", "Gamma4")):
        self.mesh = mesh
        self.V = mesh.num_vertices
        self.T = mesh.num_triangles
        self.N1 = self.V + self.T
        self.N2 = self.V
        self.N3 = self.V
        self.M = 2 * self.N1 + self.N2
        self.N = self.M + self.N3
        self.dirichlet_labels = tuple(dirichlet_labels)
        present = set(mesh.boundary_labels)
        wanted = [s for s in self.dirichlet_labels if s in present]
        verts = mesh.vertices_on(wanted) if wanted else np.empty(0, dtype=np.int64)
        self.dirichlet_vertices = verts
        self.dirichlet_dofs = np.sort(np.concatenate([verts, verts + self.N1]))
        # local scalar-velocity DOFs per triangle: three vertices then the bubble
        self.cell_dofs = np.column_stack(
            [mesh.triangles, self.V + np.arange(self.T)]).astype(np.int64)
        self._geom = {}

    # geometry and basis caches, keyed by quadrature order
    def geometry(self, order):
        key = 5 if order <= 5 else 7
        if key in self._geom:
            return self._geom[key]
        mesh = self.mesh
        lam, wts = triangle_rule(key)
        p = mesh.vertices[mesh.triangles]
        area, gl, vals, grads = _element_geometry(p, lam)
        xq = np.einsum("qk,tkd->tqd", lam, p)  # physical quadrature points
        geom = {
            "lam": lam, "weights": wts, "area": area, "hat_grads": gl,
            "vals": vals, "grads": grads, "xq": xq,
        }
        self._geom[key] = geom
        return geom


def _element_geometry(p, lam):
    """Per-triangle data of the P1+bubble element at barycentric points lam.

    p holds the (T, 3, 2) triangle corners.  Returns the areas (T,), hat
    gradients (T, 3, 2), basis values (nq, 4) and basis gradients
    (T, nq, 4, 2); the bubble is the fourth basis function.
    """
    det, gl = hat_gradients(p)

    nq = len(lam)
    vals = np.empty((nq, 4))
    vals[:, :3] = lam
    vals[:, 3] = 27.0 * lam[:, 0] * lam[:, 1] * lam[:, 2]
    # bubble gradient varies over the triangle
    fac = np.stack([lam[:, 1] * lam[:, 2], lam[:, 0] * lam[:, 2],
                    lam[:, 0] * lam[:, 1]], axis=1)  # (nq,3)
    grads = np.empty((len(p), nq, 4, 2))
    grads[:, :, :3, :] = gl[:, None, :, :]
    grads[:, :, 3, :] = 27.0 * np.einsum("qk,tkd->tqd", fac, gl)
    return 0.5 * det, gl, vals, grads


def build_spaces(mesh, dirichlet_labels=("Gamma2", "Gamma3", "Gamma4")) -> SpaceLayout:
    """Build the mixed-space layout for a mesh."""
    return SpaceLayout(mesh, dirichlet_labels)


# ----------------------------------------------------------------- config
class AssemblyConfig:
    """Physics and regularization parameters for form assembly.

    Args:
        nu: viscosity, positive.
        eps: penalization parameter, nonnegative.
        smoothing: SmoothingParams giving the coefficient smoothing width.
        quadrature_order: must be at least 5 to integrate bubble terms.
        divergence_form: "penalized" (level-weighted) or "plain" (whole domain).
        traction: callable x -> (..., 2) traction on the Neumann side, or None.
        traction_label: boundary label carrying the traction.
        body_force: callable x -> (..., 2), or None.
        uniform_smoothing: use the shifted Heaviside in the viscous term too.
        pin_pressure: fix the first pressure DOF (all-Dirichlet runs only).
    """

    def __init__(self, nu=1.0, eps=0.025, smoothing=None, quadrature_order=5,
                 divergence_form=PENALIZED_B, traction=None,
                 traction_label="Gamma1", body_force=None,
                 uniform_smoothing=False, pin_pressure=False):
        if nu <= 0:
            raise ConfigurationError("viscosity must be positive")
        if eps < 0:
            raise ConfigurationError("penalization parameter must be nonnegative")
        if quadrature_order < 5:
            raise ConfigurationError(
                "quadrature order below 5 cannot integrate bubble terms")
        if divergence_form not in (PENALIZED_B, PLAIN_B):
            raise ConfigurationError(f"unknown divergence form {divergence_form!r}")
        if smoothing is not None and not isinstance(smoothing, SmoothingParams):
            raise ConfigurationError("smoothing must be SmoothingParams")
        self.nu = float(nu)
        self.eps = float(eps)
        self.smoothing = smoothing
        self.quadrature_order = int(quadrature_order)
        self.divergence_form = divergence_form
        self.traction = traction
        self.traction_label = traction_label
        self.body_force = body_force
        self.uniform_smoothing = bool(uniform_smoothing)
        self.pin_pressure = bool(pin_pressure)

    def replace(self, **changes):
        """Validated copy with the given fields changed."""
        return AssemblyConfig(**{**vars(self), **changes})

    def smoothing_for(self, mesh):
        if self.smoothing is not None:
            return self.smoothing
        return SmoothingParams(mesh.mean_edge_length)


class CoeffData:
    """Smoothed coefficients (and their level derivatives) per quadrature point."""

    def __init__(self, visc, mass, conv, divc, loadc,
                 dvisc=None, dmass=None, dconv=None, ddivc=None, dloadc=None):
        self.visc = visc
        self.mass = mass
        self.conv = conv
        self.divc = divc
        self.loadc = loadc
        self.dvisc = dvisc
        self.dmass = dmass
        self.dconv = dconv
        self.ddivc = ddivc
        self.dloadc = dloadc


def evaluate_coefficients(layout: SpaceLayout, config: AssemblyConfig, g) -> CoeffData:
    """Evaluate all form coefficients at the assembly quadrature points.

    g may be a LevelField (smoothed coefficients and their derivatives),
    the string "exact-region" (sharp indicators from the mesh region tags),
    or None (no obstacle anywhere).
    """
    geom = layout.geometry(config.quadrature_order)
    T, nq = layout.T, len(geom["weights"])
    nu, eps = config.nu, config.eps

    if g is None:
        H = Ht = np.zeros((T, nq))
        dH = dHt = None
    elif isinstance(g, str):
        if g != EXACT_REGION:
            raise ConfigurationError(f"unknown coefficient mode {g!r}")
        if layout.mesh.triangle_region is None:
            raise ConfigurationError("exact-region mode needs a region-tagged mesh")
        chi = np.array([1.0 if r == OBSTACLE else 0.0
                        for r in layout.mesh.triangle_region])
        H = Ht = np.repeat(chi[:, None], nq, axis=1)
        dH = dHt = None
    elif isinstance(g, LevelField):
        if len(g) != layout.V:
            raise ConfigurationError("level field does not match the mesh")
        smoothing = config.smoothing_for(layout.mesh)
        gq = np.einsum("qk,tk->tq", geom["lam"], g.nodal_values[layout.mesh.triangles])
        H, dH = smoothed_heaviside(gq, smoothing.with_kind(STANDARD))
        Ht, dHt = smoothed_heaviside(gq, smoothing.with_kind(SHIFTED))
        if config.uniform_smoothing:
            H, dH = Ht, dHt
    else:
        raise ConfigurationError("g must be a LevelField, 'exact-region', or None")

    visc = nu * (1.0 - H) + eps * Ht
    mass = eps * Ht
    conv = (1.0 - Ht) + eps * Ht
    loadc = 1.0 - Ht
    if config.divergence_form == PLAIN_B:
        divc = np.ones_like(visc)
    else:
        divc = (1.0 - Ht) + eps * Ht

    if dH is None:
        return CoeffData(visc, mass, conv, divc, loadc)
    dvisc = -nu * dH + eps * dHt
    dmass = eps * dHt
    dconv = (eps - 1.0) * dHt
    dloadc = -dHt
    ddivc = np.zeros_like(dHt) if config.divergence_form == PLAIN_B \
        else (eps - 1.0) * dHt
    return CoeffData(visc, mass, conv, divc, loadc,
                     dvisc, dmass, dconv, ddivc, dloadc)


# --------------------------------------------------------------- assembly
def _scatter(data, rows, cols, shape):
    """CSR matrix summing data at (rows, cols), both broadcast to data."""
    rows, cols = (np.broadcast_to(i, data.shape) for i in (rows, cols))
    m = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def assemble_bilinear(layout: SpaceLayout, config: AssemblyConfig, g,
                      coeffs: CoeffData = None):
    """Assemble the velocity operator A (2N1 x 2N1) and divergence B (N2 x 2N1).

    A carries the smoothed viscous term plus the penalization mass term and
    is symmetric; B carries the configured divergence form.  Boundary
    condition rows are left untouched.
    """
    if coeffs is None:
        coeffs = evaluate_coefficients(layout, config, g)
    geom = layout.geometry(config.quadrature_order)
    w, area = geom["weights"], geom["area"]
    vals, grads = geom["vals"], geom["grads"]
    dofs = layout.cell_dofs
    N1, N2 = layout.N1, layout.N2

    wa = w[None, :] * area[:, None]  # (T,nq)
    kloc = np.einsum("tq,tqad,tqbd->tab", wa * coeffs.visc, grads, grads)
    kloc += np.einsum("tq,qa,qb->tab", wa * coeffs.mass, vals, vals)
    a_scalar = _scatter(kloc, dofs[:, :, None], dofs[:, None, :], (N1, N1))
    A = sp.kron(sp.eye(2, format="csr"), a_scalar, format="csr")

    # b(w, q) = -int divc (div w) q ; rows pressure hats, cols velocity DOFs
    bloc = -np.einsum("tq,tqac,qp->tpca", wa * coeffs.divc, grads, geom["lam"])
    ccol = np.arange(2)[None, None, :, None] * N1 + dofs[:, None, None, :]
    B = _scatter(bloc, layout.mesh.triangles[:, :, None, None], ccol,
                 (N2, 2 * N1))
    return A, B


def _velocity_at_quad(layout, geom, Y):
    """Velocity values (T,nq,2) and gradients (T,nq,2,2) of a DOF vector."""
    N1 = layout.N1
    yl = np.stack([Y[:N1][layout.cell_dofs], Y[N1:][layout.cell_dofs]], axis=2)
    uq = geom["vals"] @ yl
    # gq[t,q,c,d] = d u_c / d x_d, from (T, q, d, a) @ (T, 1, a, c)
    gq = np.swapaxes(np.swapaxes(geom["grads"], 2, 3) @ yl[:, None], 2, 3)
    return uq, gq


def assemble_trilinear(layout: SpaceLayout, config: AssemblyConfig, g, Y,
                       coeffs: CoeffData = None):
    """Assemble the skew-symmetrized convection matrices at velocity Y.

    Returns (C1, C2): w^T C1 v is the convection form with Y transported in
    the first slot and v in the second; C2 is its derivative companion with
    the basis function in the first slot.
    """
    if coeffs is None:
        coeffs = evaluate_coefficients(layout, config, g)
    geom = layout.geometry(config.quadrature_order)
    w, area = geom["weights"], geom["area"]
    vals, grads = geom["vals"], geom["grads"]
    dofs = layout.cell_dofs
    N1 = layout.N1
    wa = w[None, :] * area[:, None] * coeffs.conv

    uq, gu = _velocity_at_quad(layout, geom, Y)

    # P[t,b,a] = int conv (u . grad Na) Nb ; component-diagonal part
    udotg = np.einsum("tqc,tqac->tqa", uq, grads)
    P = np.einsum("tq,tqa,qb->tba", wa, udotg, vals, optimize=True)
    loc1 = 0.5 * (P - P.transpose(0, 2, 1))
    c1_scalar = _scatter(loc1, dofs[:, :, None], dofs[:, None, :], (N1, N1))
    C1 = sp.kron(sp.eye(2, format="csr"), c1_scalar, format="csr")

    # E1[t,ci,b,cj,a] = int conv Na (d u_ci / d x_cj) Nb
    E1 = np.einsum("tq,tqij,qa,qb->tbiaj", wa, gu, vals, vals, optimize=True)
    # E2[t,ci,b,cj,a] = int conv Na (grad Nb)_cj u_ci
    E2 = np.einsum("tq,tqc,qa,tqbj->tbcaj", wa, uq, vals, grads, optimize=True)
    loc2 = 0.5 * (E1 - E2)  # (T, b, ci, a, cj)
    rowc = np.arange(2)[None, None, :, None, None] * N1 + dofs[:, :, None, None, None]
    colc = np.arange(2)[None, None, None, None, :] * N1 + dofs[:, None, None, :, None]
    C2 = _scatter(loc2, rowc, colc, (2 * N1, 2 * N1))
    return C1, C2


def convection_vector(layout: SpaceLayout, config: AssemblyConfig,
                      coeffs: CoeffData, Y):
    """C1(Y) @ Y of assemble_trilinear as a vector, without C1 or C2.

    Per quadrature point it is 0.5 conv ((u . grad) u_c Nb - (u . grad Nb) u_c).
    """
    geom = layout.geometry(config.quadrature_order)
    wa = geom["weights"][None, :] * geom["area"][:, None] * coeffs.conv
    uq, gu = _velocity_at_quad(layout, geom, Y)
    conv1 = np.einsum("tqd,tqcd->tqc", uq, gu)  # (u . grad) u
    udotg = np.einsum("tqd,tqad->tqa", uq, geom["grads"])  # u . grad Nb
    loc = 0.5 * (np.einsum("tq,tqc,qb->tcb", wa, conv1, geom["vals"])
                 - np.einsum("tq,tqb,tqc->tcb", wa, udotg, uq))
    idx = np.arange(2)[None, :, None] * layout.N1 + layout.cell_dofs[:, None, :]
    return np.bincount(idx.ravel(), loc.ravel(), minlength=2 * layout.N1)


def assemble_load(layout: SpaceLayout, config: AssemblyConfig, g,
                  coeffs: CoeffData = None):
    """Assemble the load vector: smoothed body force plus Neumann traction."""
    if coeffs is None:
        coeffs = evaluate_coefficients(layout, config, g)
    geom = layout.geometry(config.quadrature_order)
    w, area = geom["weights"], geom["area"]
    N1 = layout.N1
    F = np.zeros(2 * N1)

    if config.body_force is not None:
        fq = np.asarray(config.body_force(geom["xq"]), dtype=float)
        wa = w[None, :] * area[:, None] * coeffs.loadc
        floc = np.einsum("tq,tqc,qa->tca", wa, fq, geom["vals"])
        idx = (np.arange(2)[None, :, None] * N1
               + layout.cell_dofs[:, None, :])
        np.add.at(F, idx.ravel(), floc.ravel())

    if config.traction is not None:
        mesh = layout.mesh
        labels = set(s for s in mesh.boundary_labels)
        if config.traction_label in labels:
            edges = mesh.edges_with_label(config.traction_label)
            pa = mesh.vertices[edges[:, 0]]
            pb = mesh.vertices[edges[:, 1]]
            elen = np.hypot(*(pb - pa).T)
            tg, twg = _EDGE_RULE
            s = 0.5 * (tg + 1.0)
            ws = 0.5 * twg
            for k in range(len(s)):
                x = pa + s[k] * (pb - pa)
                psi = np.asarray(config.traction(x), dtype=float)
                coefa = ws[k] * elen * (1.0 - s[k])
                coefb = ws[k] * elen * s[k]
                for c in range(2):
                    np.add.at(F, c * N1 + edges[:, 0], coefa * psi[:, c])
                    np.add.at(F, c * N1 + edges[:, 1], coefb * psi[:, c])
    return F


# ------------------------------------------------------------------ norms
_NORM_KINDS = ("L2", "H1seminorm", "H1", "DivL2")


def compute_norm(mesh, field, region=None, kind="L2") -> float:
    """Integral norm of a discrete field over a triangle subset.

    field: flat velocity DOF vector of length 2(V+T), a (V, 2) vertex vector
    field, or a scalar P1 vector of length V.  region: None for the whole
    mesh, a region tag string, or an array of triangle indices.  The
    quadrature is exact for the piecewise-polynomial integrands.
    """
    if kind not in _NORM_KINDS:
        raise ConfigurationError(f"unknown norm kind {kind!r}")
    V, T = mesh.num_vertices, mesh.num_triangles

    if region is None:
        tri_idx = np.arange(T)
    elif isinstance(region, str):
        tri_idx = mesh.triangles_in_region(region)
    else:
        tri_idx = np.asarray(region, dtype=np.int64)
        if tri_idx.size == 0:
            raise EmptyRegionError("empty triangle subset")

    arr = np.asarray(field, dtype=float)
    if arr.ndim == 2 and arr.shape == (V, 2):
        arr = np.concatenate([arr[:, 0], np.zeros(T), arr[:, 1], np.zeros(T)])
    if arr.ndim != 1:
        raise ConfigurationError("field shape not understood")

    lam, w = triangle_rule(7)
    tris = mesh.triangles[tri_idx]
    area, gl, vals, grads = _element_geometry(mesh.vertices[tris], lam)
    wa = w[None, :] * area[:, None]
    l2sq = h1sq = 0.0  # a norm leaves out the part it does not use

    if arr.size == V:  # scalar P1 field
        if kind == "DivL2":
            raise ConfigurationError("DivL2 needs a vector field")
        fl = arr[tris]
        if kind in ("L2", "H1"):
            fq = np.einsum("qk,tk->tq", lam, fl)
            l2sq = float(np.sum(wa * fq ** 2))
        if kind in ("H1seminorm", "H1"):
            gq = np.einsum("tkd,tk->td", gl, fl)
            h1sq = float(np.sum(area * np.einsum("td,td->t", gq, gq)))
        return np.sqrt(l2sq + h1sq)

    if arr.size != 2 * (V + T):
        raise ConfigurationError("field length matches neither space")
    N1 = V + T
    cell_dofs = np.column_stack([tris, V + tri_idx])
    yl = np.stack([arr[:N1][cell_dofs], arr[N1:][cell_dofs]], axis=2)
    if kind in ("L2", "H1"):
        uq = np.einsum("qa,tac->tqc", vals, yl)
        l2sq = float(np.sum(wa * np.einsum("tqc,tqc->tq", uq, uq)))
    if kind in ("H1seminorm", "H1", "DivL2"):
        gq = np.einsum("tqad,tac->tqcd", grads, yl)
        if kind == "DivL2":
            div = gq[:, :, 0, 0] + gq[:, :, 1, 1]
            return np.sqrt(float(np.sum(wa * div ** 2)))
        h1sq = float(np.sum(wa * np.einsum("tqcd,tqcd->tq", gq, gq)))
    return np.sqrt(l2sq + h1sq)


def matrix_to_coordinate_text(matrix) -> str:
    """Serialize a sparse matrix as 'row col value' lines (0-based)."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order]
    return "\n".join(lines) + "\n"
