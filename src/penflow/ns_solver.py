"""Stationary Stokes and Navier-Stokes solvers on the mixed mini element.

Three entry points: a Stokes solve (linear), a Newton iteration for the
stationary Navier-Stokes system with smoothed obstacle penalization, and a
body-fitted reference solver that enforces zero net flux through each
obstacle boundary with one Lagrange multiplier per loop.  The boundary
value problem is fem's: Dirichlet velocity rows, on the clamped walls
fem.CLAMPED, are identity rows holding zero velocity; the Neumann side
carries the traction from the assembly config.  The Newton residual is
fem._flow_rows, the per-element kernel that also replaces the Dirichlet
rows and gives the descent constraint C(X) in topopt, plus the flux and
multiplier rows.

Linear solves never assemble the global matrix.  Each triangle's Jacobian
block, the velocity block on both components at its vertices and bubble
plus the divergence rows, adds the convection at the current velocity to
viscous, mass and divergence parts computed once per solve.  A bubble
couples only to its own triangle, so the 2x2 bubble block is eliminated in
closed form and the 9x9 complements on u_x, u_y and p at the vertices are
scattered with one bincount into a CSR pattern fixed per layout: vertex
pairs on the diagonal and along edges, identity rows for the Dirichlet
DOFs, the flux multipliers as a border.  The bubbles follow per element.
Every per-element array keeps the triangle axis last, as fem's kernels
give the blocks (their basis gradients from the hat gradients), so the
condensation sums whole T-vectors instead of batching small products.  The Newton step
reuses the velocity values at the quadrature points that the residual
computed at the accepted iterate.  fem.assemble_bilinear and
fem.assemble_trilinear scatter the same blocks into global matrices.

A Newton solve factors once.  SuperLU factors the first complement, scaled
to a unit diagonal, in symmetric mode, and the system keeps that factor.
Every later complement, whose Jacobian differs only in the convection, is
solved by GMRES preconditioned on the right with the kept factor, from
zero and without restarts; GMRES keeps the preconditioned basis, so its
solution costs no further triangular solve.  The solution is accepted only
when its own residual meets a normwise backward-error bound within
_KRYLOV_BUDGET iterations; otherwise the complement is factored after all
and that factor is kept instead.  The bound is _KRYLOV_TOL for the Stokes
start and direct solves.  A Newton step from residual r is inexact (R. S.
Dembo, S. C. Eisenstat and T. Steihaug, SIAM J. Numer. Anal. 19, 1982):
its forcing term _FORCING min(1, max(tol / ||r||, ||r|| / scale)), with
tol = 1e-10 scale the Newton tolerance and at least _KRYLOV_TOL, loosens
the first steps and the last (GMRES [0, 6, 8, 7] against [0, 13, 13, 13]
at the full bound on the sec31 cell at h=0.03).  Newton starts from a
Stokes solve, or warm from a given state with the multipliers at zero; a
warm start that does not converge falls back to Stokes on a fresh system.
Newton stops after _MAX_NEWTON steps.
The fill-reducing order is a property of the mesh, fixed when the
pattern is built: nested dissection of the vertex graph (A. George, SIAM
J. Numer. Anal. 10, 1973), each vertex's u_x, u_y and p side by side.  The
pattern is assembled in that order and every factor keeps it (NATURAL).
"""

import functools
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtrsv

from .errors import NonconvergenceError, SolverError
from .fem import (AssemblyConfig, SpaceLayout, _convection_blocks,
                  _flow_at_quad, _flow_rows, _stokes_blocks, _velocity_at_quad,
                  _vertex_velocity, assemble_load, build_spaces,
                  evaluate_coefficients, flux_row_vector)
# not used here; the benchmark's layer trace wraps them under these names
from .fem import assemble_bilinear, assemble_trilinear  # noqa: F401

# GMRES on the kept factor: its iteration budget, and the normwise
# backward error its solution of the equilibrated complement must meet
_KRYLOV_BUDGET = 30
_KRYLOV_TOL = 1e-15
# the inexact Newton forcing factor: at 1e-5 the eps=1e-6 solve on the coarse
# sec31 cell ends 5.8e-12 of its size away from the one that factors every
# step; at 1e-6, 3.3e-13
_FORCING = 1e-6
# the Newton iteration's step budget
_MAX_NEWTON = 20


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
        return _vertex_velocity(self.layout.mesh, self.Y)


class NewtonReport:
    """Convergence record of one Newton run.

    fill lists the L+U nonzeros of each factorization, the Stokes start's
    first when there is one.  krylov lists the GMRES iterations of each
    linear solve, the Stokes start's first, and 0 where the solve factored;
    a Newton step's GMRES stops at its forcing term's looser backward error,
    loosest on the first and last steps.  steps lists the length of each
    accepted Newton step: 1, or 0.5^k after k backtracks.  start is "stokes"
    or "warm" (from a given state); fallback holds a failed warm start's
    message (runtime counts it too).
    """

    def __init__(self, converged, iterations, residual_norms, message="",
                 runtime=0.0, fill=(), krylov=(), steps=(), start="stokes",
                 fallback=""):
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.residual_norms = list(residual_norms)
        self.message = message
        self.runtime = float(runtime)
        self.fill = list(fill)
        self.krylov = list(krylov)
        self.steps = list(steps)
        self.start, self.fallback = start, fallback

    @property
    def final_residual(self):
        return self.residual_norms[-1] if self.residual_norms else np.inf

    def __repr__(self):
        flag = "converged" if self.converged else "NOT converged"
        return (f"NewtonReport({flag} in {self.iterations} iterations, "
                f"final residual {self.final_residual:.3e})")


class _Pattern:
    """Fixed CSR pattern of the condensed matrix on u_x, u_y and p at the
    vertices (3V), then one multiplier per row of R (m, 2 N1).

    The order is the mesh's, fixed here: the vertices in Mesh.dissection_order,
    each with its u_x, u_y and p side by side, then the multipliers; order[k]
    is the saddle-vector index of row and column k.  Vertices couple in 3x3
    blocks on the diagonal and along edges, R's nonzeros border the matrix,
    and a Dirichlet row keeps only its diagonal, where its other entries
    land.
    slots (81, T) gives the data position of each entry of the (9, 9, T)
    element complements, border that of R's entries, dslot that of each
    vertex row's diagonal (not the multipliers'), loc (9, T) the element rows.
    """

    def __init__(self, layout, R):
        V, N1, e = layout.V, layout.N1, layout.mesh.edges()
        n, verts = 3 * V, layout.mesh.dissection_order()
        self.n = n + len(R)
        self.order = np.append((verts[:, None] + [0, N1, 2 * N1]).ravel(),
                               2 * N1 + V + np.arange(len(R)))
        new = np.empty(2 * N1 + V + len(R), dtype=np.int64)
        new[self.order] = np.arange(self.n)  # bubbles are not in the pattern
        self.dirichlet = new[layout.dirichlet_dofs]
        is_dirichlet = np.isin(np.arange(self.n), self.dirichlet)

        def keys(rows, cols):
            return rows * self.n + np.where(is_dirichlet[rows], rows, cols)

        pairs = np.sort(np.concatenate([e @ [V, 1], e @ [1, V],
                                        np.arange(V) * (V + 1)]))
        c = np.arange(3)[:, None, None]
        # block entry (c, c', k): component c at pair k's first vertex
        # against component c' at its second
        blocks = keys(new[pairs // V] + c,
                      new[pairs % V] + np.swapaxes(c, 0, 1)).ravel()
        bk, bj = np.nonzero(R)
        entries = np.concatenate([blocks, keys(new[bj], n + bk),
                                  keys(n + bk, new[bj])])
        # the stored entries, and the data position of each of entries
        uniq, slot = np.unique(entries, return_inverse=True)
        self.indptr = np.searchsorted(
            uniq // self.n, np.arange(self.n + 1)).astype(np.int32)
        self.indices = (uniq % self.n).astype(np.int32)
        self.dslot = np.searchsorted(uniq, np.arange(n) * (self.n + 1))
        self.border, self.values = slot[len(blocks):], np.tile(R[bk, bj], 2)
        tri = layout.mesh.triangles.T
        self.loc = (new[tri] + np.arange(3)[:, None, None]).reshape(9, -1)
        k = np.searchsorted(pairs, tri[:, None] * V + tri)  # (i, j, T)
        # int32 halves the largest array the pattern keeps
        self.slots = slot[np.arange(9).reshape(3, 1, 3, 1, 1) * len(pairs)
                          + k[:, None]].astype(np.int32).reshape(81, -1)


class _System:
    """Shared state for one solve: coefficients, load, constraint rows.

    Linear solves take element blocks (vel, b), triangle axis last: the
    velocity block (2, 4, 2, 4, T), component c with basis function i (the
    three vertices, then the bubble) against component c' with j, and the
    divergence rows (3, 2, 4, T), pressure p against component c with i.
    """

    def __init__(self, layout, config, g, flux_labels=()):
        self.layout, self.config, self.g = layout, config, g
        self.coeffs = evaluate_coefficients(layout, config, g)
        self.F = assemble_load(layout, config, g, self.coeffs)
        self.flux_labels = tuple(flux_labels)
        self.flux_rows = np.reshape(
            [flux_row_vector(layout, lab) for lab in flux_labels],
            (-1, 2 * layout.N1))
        self.n_flux = len(self.flux_rows)
        self.fill = []  # L+U nonzeros of each factor
        self.krylov = []  # GMRES iterations of each solve, 0 if it factored
        self._factor = None  # the last factor: (scale, SuperLU factor)

    def split(self, x):
        """Velocity, pressure and multiplier parts of a saddle-system vector."""
        m = 2 * self.layout.N1
        return np.split(x, [m, m + self.layout.N2])

    def residual(self, x):
        """The residual at x, and the velocity values and gradients at the
        quadrature points, which element_blocks takes for a step from x."""
        Y, P, L = self.split(x)
        flow = _flow_at_quad(self.layout, Y, P)
        mom, div = _flow_rows(self.layout, self.coeffs, flow, None, self.F, Y)
        mom += L @ self.flux_rows  # zero on the Dirichlet rows
        return np.concatenate([mom, div, self.flux_rows @ Y]), flow[:2]

    @functools.cached_property
    def _stokes(self):
        return _stokes_blocks(self.layout, self.coeffs)  # Y does not enter

    def element_blocks(self, Y=None, quad=None):
        """Element Jacobian blocks (vel, b) at velocity Y, or at its
        quadrature values quad from residual; the Stokes blocks when neither
        is given.  b is the same array on every call."""
        k, b = self._stokes
        if Y is not None:
            quad = _velocity_at_quad(self.layout.geometry(),
                                     self.layout.component_dofs, Y)
        if quad is None:  # k on either component
            return np.eye(2)[:, None, :, None, None] * k[:, None], b
        c1, vel = _convection_blocks(self.layout, self.coeffs, *quad)
        vel[[0, 1], :, [0, 1]] += k + c1
        return vel, b

    @property
    def _pattern(self):
        """The layout's condensed pattern for these fluxes."""
        key = self.flux_labels
        if key not in self.layout._patterns:
            self.layout._patterns[key] = _Pattern(self.layout, self.flux_rows)
        return self.layout._patterns[key]

    def condense(self, blocks):
        """The condensed saddle matrix of element blocks (vel, b), as CSR in
        the pattern's order, with each inverse bubble block (2, 2, T), its
        product with the bubble rows (2, 9, T) and the vertex rows' bubble
        columns (9, 2, T).

        The local vertex DOFs are u_x, u_y and p at the three vertices, in
        that order; the bubbles are basis 3 of either velocity component.
        """
        vel, b = blocks
        (xx, xy), (yx, yy) = vel[:, 3, :, 3]
        det = xx * yy - xy * yx
        if not np.all(np.isfinite(det) & (det != 0.0)):
            raise SolverError("singular bubble block in the linear solve")
        inv = np.array([[yy, -xy], [-yx, xx]]) / det
        rows = np.concatenate([vel[:, 3, :, :3].reshape(2, 6, -1),
                               b[:, :, 3].swapaxes(0, 1)], axis=1)
        vb = np.concatenate([vel[:, :3, :, 3].reshape(6, 2, -1), b[:, :, 3]])
        W = np.einsum("cdt,djt->cjt", inv, rows)
        comp = np.einsum("ict,cjt->ijt", -vb, W)
        # (C, i, C', j): u_x, u_y or p at vertex i against C' at j
        blk = comp.reshape(3, 3, 3, 3, -1)
        blk[:2, :, :2] += vel[:, :3, :, :3]
        blk[2, :, :2] += b[:, :, :3]
        blk[:2, :, 2] += b[:, :, :3].transpose(1, 2, 0, 3)
        pat = self._pattern
        data = np.bincount(pat.slots.ravel(), comp.ravel(),
                           minlength=len(pat.indices))
        data[pat.border] = pat.values
        data[pat.dslot[pat.dirichlet]] = 1.0
        return (sp.csr_matrix((data, pat.indices, pat.indptr),
                              shape=(pat.n, pat.n)), inv, W, vb)

    def solve(self, blocks, rhs, tol=_KRYLOV_TOL):
        """Solve the saddle system of element blocks (vel, b), Dirichlet rows
        identity: the condensed system, to GMRES backward error tol, then
        the bubbles per element."""
        V, N1, pat = self.layout.V, self.layout.N1, self._pattern
        S, inv, W, vb = self.condense(blocks)
        zb = np.einsum("cdt,dt->ct", inv, [rhs[V:N1], rhs[N1 + V:2 * N1]])
        corr = np.bincount(pat.loc.ravel(), np.einsum("ict,ct->it", vb, zb)
                           .ravel(), minlength=pat.n)
        corr[pat.dirichlet] = 0.0  # identity rows keep their right-hand side
        xr = self._solve_condensed(S, rhs[pat.order] - corr, tol)
        x = np.empty(len(rhs))
        x[pat.order] = xr
        x[V:N1], x[N1 + V:2 * N1] = zb - (W * xr[pat.loc]).sum(1)
        return x

    def _solve_condensed(self, S, b, tol):
        """Solve S x = b by GMRES on the kept factor, to backward error tol,
        when it converges within the budget, else by a new factor, which is
        kept."""
        if self._factor is not None and b.any():
            s, lu = self._factor
            # D S D y = D b, x = D y, scaled as the factored matrix was
            y, its = _gmres(lambda v: s * (S @ (s * v)),
                            lambda r: lu.solve(r, trans="T"), s * b,
                            (s * (abs(S) @ s)).max(), tol)
            if y is not None:
                self.krylov.append(its)
                return s * y
        self._factor = None  # never hold two factors
        # factor D S D, D = |diag S|^(-1/2) and 1 on a zero diagonal (the
        # multiplier rows): unscaled, the two zero-diagonal rows of a flux
        # reference system fail the diagonal pivot test and double the fill
        d = np.abs(S.data[self._pattern.dslot])
        s = np.ones(len(b))
        s[:len(d)] = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
        S.data *= np.repeat(s, np.diff(S.indptr)) * np.take(s, S.indices)
        # symmetric pattern, nonzero diagonal on velocity and pressure rows:
        # the pattern's own order, and diagonal pivots (1e-2 would pivot off
        # the diagonal and raise the fill 20-fold, 0.64M to 12.4M at
        # h=0.03).  The transpose of the CSR complement is CSC without a copy.
        try:
            lu = spla.splu(S.T, diag_pivot_thresh=1e-3, permc_spec="NATURAL",
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"singular saddle system: {exc}") from exc
        self.fill.append(lu.nnz)
        self.krylov.append(0)
        self._factor = s, lu
        return s * lu.solve(s * b, trans="T")


def _gmres(A, precondition, b, norm_A, tol):
    """Right-preconditioned GMRES for A(x) = b from zero, without restarts.

    Returns x and the iterations taken once the residual meets the normwise
    backward-error bound ||b - A x|| <= tol (norm_A ||x|| + ||b||), 2-norms
    of vectors; (None, _KRYLOV_BUDGET) when that does not happen within the
    budget.  Givens rotations keep the Hessenberg matrix upper triangular:
    the Arnoldi residual |g[j + 1]|, bounded with ||x|| of the first
    iterate, stops the iteration, and y comes by back-substitution (BLAS, no
    LAPACK).  The preconditioned basis Z is kept, so x = y Z costs no
    further preconditioner solve.  The residual of x itself decides, under
    both norms, and the iteration goes on where it misses: a singular system
    meets the bound at the huge x GMRES then returns, and an early x may be
    shorter than the first iterate.
    """
    m, beta = _KRYLOV_BUDGET, np.linalg.norm(b)
    Q = np.empty((m + 1, len(b)))  # the Krylov basis
    Z = np.empty((m, len(b)))  # its preconditioned images
    R = np.zeros((m, m))  # the Hessenberg matrix, rotated to triangular
    G = np.empty((m, 2, 2))  # the rotations
    g = np.zeros(m + 1)  # beta e_1, rotated
    Q[0], g[0] = b / beta, beta
    for j in range(m):
        Z[j] = precondition(Q[j])
        w = A(Z[j])
        h = R[:j + 1, j]
        for _ in range(2):  # classical Gram-Schmidt, repeated once
            c = Q[:j + 1] @ w
            w -= c @ Q[:j + 1]
            h += c
        norm_w = np.linalg.norm(w)
        for i in range(j):  # the earlier rotations, then one zeroing norm_w
            h[i:i + 2] = G[i] @ h[i:i + 2]
        r = np.hypot(h[j], norm_w)
        G[j] = np.array([[h[j], norm_w], [-norm_w, h[j]]]) / r
        h[j], g[j:j + 2] = r, G[j] @ g[j:j + 2]
        if j == 0:  # x = y Z[0] here, y = g[0] / r
            bound = tol * (norm_A * abs(g[0] / r) * np.linalg.norm(Z[0])
                           + beta)
        if abs(g[j + 1]) <= bound:
            x = dtrsv(R[:j + 1, :j + 1], g[:j + 1]) @ Z[:j + 1]
            if np.linalg.norm(b - A(x)) <= min(bound, tol * (
                    norm_A * np.linalg.norm(x) + beta)):
                return x, j + 1
        if norm_w == 0.0:
            break
        Q[j + 1] = w / norm_w
    return None, m


def _linear_solve(sysm: _System):
    """Solve the Stokes-type saddle system of sysm."""
    rhs = np.concatenate([sysm.F, np.zeros(sysm.layout.N2 + sysm.n_flux)])
    rhs[sysm.layout.dirichlet_dofs] = 0.0  # the walls' zero velocity
    sol = sysm.solve(sysm.element_blocks(), rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values")
    return sol


def solve_stokes(layout: SpaceLayout, config: AssemblyConfig, g=None,
                 flux_labels=()) -> MixedState:
    """Solve the linear Stokes system (no convection).

    Optional flux_labels add one zero-net-flux multiplier per boundary loop.
    Returns the MixedState; multipliers are discarded.
    """
    sysm = _System(layout, config, g, flux_labels)
    Y, P, _ = sysm.split(_linear_solve(sysm))
    return MixedState(layout, Y, P)


def _newton(sysm: _System, raise_on_failure=False, start=None, fallback="",
            t0=None):
    lay, dirs = sysm.layout, sysm.layout.dirichlet_dofs
    t0 = time.perf_counter() if t0 is None else t0
    # the load the residual keeps: a clamped wall's traction must not count
    scale = 1.0 + np.abs(np.delete(sysm.F, dirs)).max()
    tol = 1e-10 * scale
    if start is None:
        x = _linear_solve(sysm)
    else:  # the Stokes start's Dirichlet rows, and the multipliers at zero
        x = np.concatenate([MixedState(lay, start.Y, start.P).Y, start.P,
                            np.zeros(sysm.n_flux)])
        x[dirs] = 0.0

    res, quad = sysm.residual(x)
    norms, steps, message, it = [float(np.abs(res).max())], [], "", 0
    converged = norms[-1] <= tol
    while not converged and it < _MAX_NEWTON:
        rhs = -res
        rhs[dirs] = 0.0  # increments keep the zero Dirichlet values
        blocks = sysm.element_blocks(quad=quad)
        del quad  # not held through the factor, where memory peaks
        forcing = max(_KRYLOV_TOL, _FORCING * min(  # min(1.0, nan) is 1.0
            1.0, max(tol / norms[-1], norms[-1] / scale)))
        try:
            delta = sysm.solve(blocks, rhs, forcing)
        except SolverError as exc:  # a failed step ends the iteration
            message = str(exc)
            break
        del blocks
        if not np.all(np.isfinite(delta)):
            message = "linear solve produced non-finite Newton step"
            break

        # backtrack if the full step does not reduce the residual
        step, accepted = 1.0, False
        for _ in range(9):
            xn = x + step * delta
            res_n, quad = sysm.residual(xn)
            nn = float(np.abs(res_n).max())
            if np.isfinite(nn) and (nn < norms[-1] or nn <= tol):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = "Newton step rejected by backtracking"
            break
        x, res = xn, res_n
        norms.append(nn)
        steps.append(step)
        it += 1
        converged = nn <= tol
    if not converged and not message:
        message = f"residual {norms[-1]:.3e} above tolerance after {it} iterations"
    if start is not None and not converged:  # from Stokes, as with no start
        return _newton(_System(lay, sysm.config, sysm.g, sysm.flux_labels),
                       raise_on_failure, fallback=f"warm start: {message}",
                       t0=t0)
    report = NewtonReport(converged, it, norms, message,
                          time.perf_counter() - t0, sysm.fill, sysm.krylov,
                          steps, "stokes" if start is None else "warm",
                          fallback)
    if raise_on_failure and not converged:
        raise NonconvergenceError(message, report=report)
    Y, P, L = sysm.split(x)
    return MixedState(lay, Y, P), L, report


def solve_navier_stokes(layout: SpaceLayout, config: AssemblyConfig, g=None,
                        raise_on_failure=False, start=None):
    """Newton iteration for the penalized stationary Navier-Stokes system.

    Starts from start, a MixedState on the layout, when given and Newton
    converges from it, else from a Stokes solve; stops once the max-norm
    residual is at most 1e-10 (1 + max |F|), F the load off the Dirichlet
    rows, or after _MAX_NEWTON steps, or when a step fails.  Returns
    (MixedState, NewtonReport).  With raise_on_failure a non-converged run
    raises NonconvergenceError carrying the report.
    """
    state, _, report = _newton(_System(layout, config, g), raise_on_failure,
                               start)
    return state, report


def solve_reference_flux_constrained(mesh, config: AssemblyConfig,
                                     start=None):
    """Reference Navier-Stokes solve on a body-fitted fluid mesh.

    Every boundary loop labeled Obstacle* keeps natural (do-nothing)
    conditions plus a zero-net-flux constraint enforced by one Lagrange
    multiplier.  The Newton iteration is solve_navier_stokes's, and a
    non-converged run raises NonconvergenceError carrying the report; a
    start, a MixedState on a layout of mesh, starts the multipliers at zero.
    Returns (MixedState, multipliers dict, NewtonReport).
    """
    layout = build_spaces(mesh)
    labels = sorted(s for s in mesh.labels() if s.startswith("Obstacle"))
    sysm = _System(layout, config, None, flux_labels=labels)
    state, L, report = _newton(sysm, raise_on_failure=True, start=start)
    multipliers = {lab: float(val) for lab, val in zip(labels, L)}
    return state, multipliers, report


def residual_max_norm(layout: SpaceLayout, config: AssemblyConfig, g,
                      state: MixedState, flux_labels=(),
                      multipliers=None) -> float:
    """Re-evaluate the Newton residual max-norm at a state."""
    sysm = _System(layout, config, g, flux_labels)
    L = np.zeros(sysm.n_flux)
    if multipliers:
        L = np.array([multipliers[lab] for lab in flux_labels], dtype=float)
    res, _ = sysm.residual(np.concatenate([state.Y, state.P, L]))
    return float(np.abs(res).max())
