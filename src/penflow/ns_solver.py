"""Stationary Stokes and Navier-Stokes solvers on the mixed mini element.

Three entry points: a Stokes solve (linear), a Newton iteration for the
stationary Navier-Stokes system with smoothed obstacle penalization, and a
body-fitted reference solver that enforces zero net flux through each
obstacle boundary with one Lagrange multiplier per loop.  Dirichlet
velocity rows are imposed by row replacement; the Neumann side carries the
traction from the assembly config.  Every linear solve condenses the
per-triangle bubble unknowns out first (their block is 2x2 block-diagonal)
and factors only the vertex-velocity, pressure and multiplier system.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonconvergenceError, SolverError
from .fem import (AssemblyConfig, SpaceLayout, assemble_bilinear,
                  assemble_load, assemble_trilinear, build_spaces,
                  convection_vector, evaluate_coefficients)
from .mesh import outward_normals


class MixedState:
    """Velocity/pressure iterate on a SpaceLayout.

    Y is the flat velocity vector (length 2*N1, component major), P the
    pressure vector (length N2).
    """

    def __init__(self, layout: SpaceLayout, Y, P):
        self.layout = layout
        self.Y = np.asarray(Y, dtype=float)
        self.P = np.asarray(P, dtype=float)
        if self.Y.shape != (2 * layout.N1,):
            raise SolverError("velocity vector does not match the layout")
        if self.P.shape != (layout.N2,):
            raise SolverError("pressure vector does not match the layout")

    @property
    def velocity_vertices(self):
        """Vertex velocities as a (V, 2) array (bubble part dropped)."""
        N1, V = self.layout.N1, self.layout.V
        return np.column_stack([self.Y[:V], self.Y[N1:N1 + V]])

    def as_vector(self):
        return np.concatenate([self.Y, self.P])


class NewtonReport:
    """Convergence record of one Newton run."""

    def __init__(self, converged, iterations, residual_norms, message="",
                 runtime=0.0):
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.residual_norms = list(residual_norms)
        self.message = message
        self.runtime = float(runtime)

    @property
    def final_residual(self):
        return self.residual_norms[-1] if self.residual_norms else np.inf

    def __repr__(self):
        flag = "converged" if self.converged else "NOT converged"
        return (f"NewtonReport({flag} in {self.iterations} iterations, "
                f"final residual {self.final_residual:.3e})")


def _dirichlet_values(layout, dirichlet):
    verts = layout.dirichlet_vertices
    if dirichlet is None or len(verts) == 0:
        return np.zeros(2 * len(verts))
    vals = np.asarray(dirichlet(layout.mesh.vertices[verts]), dtype=float)
    return np.concatenate([vals[:, 0], vals[:, 1]])


def _replace_rows(K, rows):
    """Zero the given rows of K and put a unit diagonal there."""
    n = K.shape[0]
    mask = np.ones(n)
    mask[rows] = 0.0
    out = sp.diags(mask) @ K
    if len(rows):
        out = out + sp.coo_matrix(
            (np.ones(len(rows)), (rows, rows)), shape=K.shape)
    return out.tocsc()


class _System:
    """Shared assembly state for one solve: matrices, load, constraint rows."""

    def __init__(self, layout, config, g, flux_labels=()):
        self.layout = layout
        self.config = config
        self.g = g
        self.coeffs = evaluate_coefficients(layout, config, g)
        self.A, self.B = assemble_bilinear(layout, config, g, self.coeffs)
        self.F = assemble_load(layout, config, g, self.coeffs)
        self.dir_rows = layout.dirichlet_dofs
        self.flux_rows = [flux_row_vector(layout, lab) for lab in flux_labels]
        self.n_flux = len(self.flux_rows)
        # rows replaced by identity: Dirichlet velocities, plus one pressure
        # DOF when nothing else fixes the pressure level
        pin = [2 * layout.N1] if config.pin_pressure else []
        self.fixed_rows = np.concatenate(
            [layout.dirichlet_dofs, np.array(pin, dtype=np.int64)])

    def residual(self, Y, P, L, ydir):
        mom = self.A @ Y + self.B.T @ P - self.F
        mom += convection_vector(self.layout, self.config, self.coeffs, Y)
        for k, r in enumerate(self.flux_rows):
            mom += L[k] * r
        mom[self.dir_rows] = Y[self.dir_rows] - ydir
        parts = [mom, self.B @ Y]
        if self.n_flux:
            parts.append(np.array([r @ Y for r in self.flux_rows]))
        return np.concatenate(parts)

    def matrix(self, velocity_block):
        """Saddle matrix [[Avel, B^T, R^T], [B, 0, 0], [R, 0, 0]], rows fixed."""
        blocks = [[velocity_block, self.B.T], [self.B, None]]
        if self.n_flux:
            R = sp.csr_matrix(np.array(self.flux_rows))
            blocks[0].append(R.T)
            blocks[1].append(None)
            blocks.append([R, sp.csr_matrix((self.n_flux, self.layout.N2)),
                           None])
        return _replace_rows(sp.bmat(blocks, format="csr"), self.fixed_rows)

    def jacobian(self, Y):
        C1, C2 = assemble_trilinear(self.layout, self.config, self.g, Y,
                                    self.coeffs)
        return self.matrix(self.A + C1 + C2)

    def solve(self, K, rhs):
        """Solve K x = rhs for a saddle matrix, condensing the bubbles out.

        A bubble couples only to the other-component bubble of its triangle,
        so the bubble block is inverted per triangle in closed form; one
        sparse solve of the Schur complement gives the rest, then the bubbles.
        """
        lay = self.layout
        bub = lay.V + np.arange(lay.T)
        b = np.concatenate([bub, bub + lay.N1])
        r = np.setdiff1d(np.arange(len(rhs)), b)
        K = K.tocsr()
        Kb, Kr = K[b], K[r]
        Kbb, Kbr = Kb[:, b], Kb[:, r]
        # per triangle [[xx, xy], [yx, yy]]: the diagonal halves and offset T
        xx, yy = np.split(Kbb.diagonal(), 2)
        xy, yx = Kbb.diagonal(lay.T), Kbb.diagonal(-lay.T)
        det = xx * yy - xy * yx
        if not np.all(np.isfinite(det) & (det != 0.0)):
            raise SolverError("singular bubble block in the linear solve")
        inv = sp.bmat([[sp.diags(yy / det), sp.diags(-xy / det)],
                       [sp.diags(-yx / det), sp.diags(xx / det)]], "csr")
        KrbI = Kr[:, b] @ inv
        x = np.empty(len(rhs))
        x[r] = spla.spsolve(Kr[:, r] - KrbI @ Kbr, rhs[r] - KrbI @ rhs[b])
        x[b] = inv @ (rhs[b] - Kbr @ x[r])
        return x


def flux_row_vector(layout: SpaceLayout, label: str):
    """Row r with r @ Y = net outward flux of Y through the labeled loop."""
    edges, normals = outward_normals(layout.mesh, label)
    r = np.zeros(2 * layout.N1)
    # trapezoid rule: each end of an edge carries half its scaled normal
    for c in range(2):
        for end in range(2):
            np.add.at(r, c * layout.N1 + edges[:, end], 0.5 * normals[:, c])
    return r


def _linear_solve(sysm: _System, ydir):
    """Solve the Stokes-type saddle system of sysm."""
    lay = sysm.layout
    rhs = np.concatenate([sysm.F, np.zeros(lay.N2 + sysm.n_flux)])
    rhs[lay.dirichlet_dofs] = ydir
    sol = sysm.solve(sysm.matrix(sysm.A), rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values")
    m = 2 * lay.N1
    return sol[:m], sol[m:m + lay.N2], sol[m + lay.N2:]


def solve_stokes(layout: SpaceLayout, config: AssemblyConfig, g=None,
                 dirichlet=None, flux_labels=()) -> MixedState:
    """Solve the linear Stokes system (no convection) on the layout.

    Optional flux_labels add one zero-net-flux multiplier per boundary loop.
    Returns the MixedState; multipliers are discarded.
    """
    sysm = _System(layout, config, g, flux_labels)
    ydir = _dirichlet_values(layout, dirichlet)
    Y, P, _ = _linear_solve(sysm, ydir)
    return MixedState(layout, Y, P)


def _newton(sysm: _System, dirichlet, initial, tol, max_iter):
    lay = sysm.layout
    ydir = _dirichlet_values(lay, dirichlet)
    t0 = time.perf_counter()
    if tol is None:
        tol = 1e-10 * (1.0 + np.abs(sysm.F).max())
    if initial is None:
        Y, P, L = _linear_solve(sysm, ydir)
    else:
        Y, P = initial.Y.copy(), initial.P.copy()
        L = np.zeros(sysm.n_flux)

    res = sysm.residual(Y, P, L, ydir)
    norms = [float(np.abs(res).max())]
    message = ""
    converged = norms[-1] <= tol
    it = 0
    while not converged and it < max_iter:
        rhs = -res
        rhs[sysm.fixed_rows] = 0.0  # increments keep Dirichlet data
        delta = sysm.solve(sysm.jacobian(Y), rhs)
        if not np.all(np.isfinite(delta)):
            message = "linear solve produced non-finite Newton step"
            break
        dY = delta[:2 * lay.N1]
        dP = delta[2 * lay.N1:2 * lay.N1 + lay.N2]
        dL = delta[2 * lay.N1 + lay.N2:]

        # backtrack if the full step does not reduce the residual
        step = 1.0
        accepted = False
        for _ in range(9):
            Yn = Y + step * dY
            Pn = P + step * dP
            Ln = L + step * dL
            res_n = sysm.residual(Yn, Pn, Ln, ydir)
            nn = float(np.abs(res_n).max())
            if np.isfinite(nn) and (nn < norms[-1] or nn <= tol):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = "Newton step rejected by backtracking"
            break
        Y, P, L = Yn, Pn, Ln
        res = res_n
        norms.append(nn)
        it += 1
        converged = nn <= tol
    runtime = time.perf_counter() - t0
    if not converged and not message:
        message = f"residual {norms[-1]:.3e} above tolerance after {it} iterations"
    report = NewtonReport(converged, it, norms, message, runtime)
    return MixedState(lay, Y, P), L, report


def solve_navier_stokes(layout: SpaceLayout, config: AssemblyConfig, g=None,
                        dirichlet=None, initial=None, tol=None,
                        max_iter=20, raise_on_failure=False):
    """Newton iteration for the penalized stationary Navier-Stokes system.

    Starts from a Stokes solve unless an initial MixedState is given.
    Returns (MixedState, NewtonReport).  With raise_on_failure a
    non-converged run raises NonconvergenceError carrying the report.
    """
    sysm = _System(layout, config, g, flux_labels=())
    state, _, report = _newton(sysm, dirichlet, initial, tol, max_iter)
    if raise_on_failure and not report.converged:
        raise NonconvergenceError(report.message, report=report)
    return state, report


def solve_reference_flux_constrained(mesh, config: AssemblyConfig,
                                     dirichlet=None, tol=None, max_iter=20,
                                     dirichlet_labels=("Gamma2", "Gamma3",
                                                       "Gamma4"),
                                     raise_on_failure=False):
    """Reference Navier-Stokes solve on a body-fitted fluid mesh.

    Every boundary loop labeled Obstacle* keeps natural (do-nothing)
    conditions plus a zero-net-flux constraint enforced by one Lagrange
    multiplier.  Returns (MixedState, multipliers dict, NewtonReport).
    """
    layout = build_spaces(mesh, dirichlet_labels)
    labels = sorted(s for s in mesh.labels() if s.startswith("Obstacle"))
    sysm = _System(layout, config, None, flux_labels=labels)
    state, L, report = _newton(sysm, dirichlet, None, tol, max_iter)
    if raise_on_failure and not report.converged:
        raise NonconvergenceError(report.message, report=report)
    multipliers = {lab: float(val) for lab, val in zip(labels, L)}
    return state, multipliers, report


def residual_max_norm(layout: SpaceLayout, config: AssemblyConfig, g,
                      state: MixedState, dirichlet=None, flux_labels=(),
                      multipliers=None) -> float:
    """Re-evaluate the Newton residual max-norm at a state, independently."""
    sysm = _System(layout, config, g, flux_labels)
    ydir = _dirichlet_values(layout, dirichlet)
    L = np.zeros(sysm.n_flux)
    if multipliers:
        L = np.array([multipliers[lab] for lab in flux_labels], dtype=float)
    res = sysm.residual(state.Y, state.P, L, ydir)
    return float(np.abs(res).max())
