"""Level-set topology optimization of the penalized flow system.

The optimization unknown is the concatenated vector X = (Y, P, G):
velocity and pressure DOFs together with the nodal level field describing
the obstacle.  The flow equations enter as an equality constraint C(X) = 0.
optimize minimizes the quadratic-penalty functional
J_rho = J_h + (rho/2) C^T C by projected steepest descent with Armijo
backtracking.  Its values and gradients are matrix-free: C and the action
jac C^T C (including level-field sensitivities of every coefficient) are
summed per element from quadrature-point data, so no sparse matrix is
assembled after the Newton solve that initializes (Y, P) at the starting
geometry.  The assembled Jacobian serves only constraint_jacobian.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, SolverError
from .fem import (AssemblyConfig, SpaceLayout, _scatter, _velocity_at_quad,
                  assemble_bilinear, assemble_load, assemble_trilinear,
                  evaluate_coefficients)
from .levelset import LevelField, check_admissibility
from .ns_solver import _replace_rows, solve_navier_stokes

DISSIPATED_ENERGY = "dissipated-energy"
TRACKING = "tracking"


class OptVector:
    """Optimization unknown X = (Y, P, G) on a fixed layout."""

    def __init__(self, layout: SpaceLayout, Y, P, G):
        self.layout = layout
        self.Y = np.asarray(Y, dtype=float)
        self.P = np.asarray(P, dtype=float)
        self.G = np.asarray(G, dtype=float)
        if self.Y.shape != (2 * layout.N1,):
            raise ConfigurationError("Y does not match the layout")
        if self.P.shape != (layout.N2,):
            raise ConfigurationError("P does not match the layout")
        if self.G.shape != (layout.N3,):
            raise ConfigurationError("G does not match the layout")

    @classmethod
    def from_vector(cls, layout, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (layout.N,):
            raise ConfigurationError("vector length does not match the layout")
        m = 2 * layout.N1
        return cls(layout, x[:m], x[m:m + layout.N2], x[m + layout.N2:])

    def as_vector(self):
        return np.concatenate([self.Y, self.P, self.G])

    def copy(self):
        return OptVector(self.layout, self.Y.copy(), self.P.copy(),
                         self.G.copy())

    def level_field(self):
        return LevelField(self.G.copy())


class CostSpec:
    """Objective choice: dissipated energy, or tracking of a target velocity."""

    def __init__(self, kind=DISSIPATED_ENERGY, target=None):
        if kind not in (DISSIPATED_ENERGY, TRACKING):
            raise ConfigurationError(f"unknown cost kind {kind!r}")
        if kind == TRACKING:
            if target is None:
                raise ConfigurationError("tracking cost needs a target field")
            target = np.asarray(target, dtype=float)
        self.kind = kind
        self.target = target


class OptConfig:
    """Descent parameters for the penalty scheme.

    The initial step is auto-scaled by the sup-norm of the first projected
    gradient; the plateau rule stops after plateau_steps consecutive
    iterations with a relative J_rho change below plateau_tol.
    """

    def __init__(self, rho, initial_step=1.0, armijo_factor=0.5, armijo_c=1e-4,
                 max_backtracks=30, max_iter=200, snapshot_every=25,
                 plateau_tol=1e-3, plateau_steps=50,
                 freeze_boundary_level=True, step_growth=1.3):
        if rho < 0:
            raise ConfigurationError("penalty weight must be nonnegative")
        if initial_step <= 0:
            raise ConfigurationError("initial step must be positive")
        if not (0 < armijo_factor < 1):
            raise ConfigurationError("backtracking factor must be in (0, 1)")
        if not (0 < armijo_c < 1):
            raise ConfigurationError("Armijo constant must be in (0, 1)")
        self.rho = float(rho)
        self.initial_step = float(initial_step)
        self.armijo_factor = float(armijo_factor)
        self.armijo_c = float(armijo_c)
        self.max_backtracks = int(max_backtracks)
        self.max_iter = int(max_iter)
        self.snapshot_every = int(snapshot_every)
        self.plateau_tol = float(plateau_tol)
        self.plateau_steps = int(plateau_steps)
        self.freeze_boundary_level = bool(freeze_boundary_level)
        self.step_growth = float(step_growth)


class IterateRecord:
    """Per-iteration descent data."""

    def __init__(self, iteration, j_h, j_rho, constraint_inf, divergence_inf,
                 step, accepted, grad_norm2, backtracks):
        self.iteration = int(iteration)
        self.j_h = float(j_h)
        self.j_rho = float(j_rho)
        self.constraint_inf = float(constraint_inf)
        self.divergence_inf = float(divergence_inf)
        self.step = float(step)
        self.accepted = bool(accepted)
        self.grad_norm2 = float(grad_norm2)
        self.backtracks = int(backtracks)
        for v in (self.j_h, self.j_rho, self.constraint_inf,
                  self.divergence_inf, self.step, self.grad_norm2):
            if not np.isfinite(v):
                raise SolverError("non-finite iterate data")

    def as_dict(self):
        return {"iteration": self.iteration, "j_h": self.j_h,
                "j_rho": self.j_rho, "constraint_inf": self.constraint_inf,
                "divergence_inf": self.divergence_inf, "step": self.step,
                "accepted": self.accepted, "grad_norm2": self.grad_norm2,
                "backtracks": self.backtracks}


class Snapshot:
    """Geometry snapshot: level field plus diagnostics, never filtered."""

    def __init__(self, iteration, level, obstacle_components,
                 boundary_sign_ok, j_h):
        self.iteration = int(iteration)
        self.level = level
        self.obstacle_components = int(obstacle_components)
        self.boundary_sign_ok = bool(boundary_sign_ok)
        self.j_h = float(j_h)


def obstacle_component_count(mesh, G) -> int:
    """Number of connected pieces of the nonnegative level region."""
    pos = np.asarray(G) >= 0.0
    idx = np.nonzero(pos)[0]
    if idx.size == 0:
        return 0
    renum = -np.ones(mesh.num_vertices, dtype=np.int64)
    renum[idx] = np.arange(idx.size)
    edges = mesh.edges()
    keep = pos[edges[:, 0]] & pos[edges[:, 1]]
    e = renum[edges[keep]]
    graph = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                          shape=(idx.size, idx.size))
    n, _ = connected_components(graph, directed=False)
    return int(n)


# ------------------------------------------------------------- assembly
class _Forms:
    """Quadrature-point data shared by C, its adjoint action and the costs."""

    def __init__(self, X: OptVector, layout, config):
        self.layout = layout
        self.config = config
        self.Y = X.Y
        self.g = LevelField(X.G)
        self.coeffs = evaluate_coefficients(layout, config, self.g)
        geom = layout.geometry(config.quadrature_order)
        self.geom = geom
        self.wa = geom["weights"][None, :] * geom["area"][:, None]
        self.uq, self.gu = _velocity_at_quad(layout, geom, X.Y)
        self.pq = np.einsum("qk,tk->tq", geom["lam"],
                            X.P[layout.mesh.triangles])
        self.divu = self.gu[:, :, 0, 0] + self.gu[:, :, 1, 1]
        self.conv1 = np.einsum("tqd,tqcd->tqc", self.uq, self.gu)  # (u.grad)u

    def _velocity_rows(self, val=None, grad=None):
        """sum_q wa (val_c N_a + grad_cd d_d N_a) for every velocity DOF (c, a)."""
        lay, geom, wa = self.layout, self.geom, self.wa[..., None]
        # batched products (T, c, q) @ (q, a) and (T, c, qd) @ (T, qd, a)
        loc = np.zeros((lay.T, 2, 4))
        if val is not None:
            loc += np.swapaxes(wa * val, 1, 2) @ geom["vals"]
        if grad is not None:
            g = (wa[..., None] * grad).transpose(0, 2, 1, 3)
            loc += g.reshape(lay.T, 2, -1) @ geom["grads"].transpose(
                0, 1, 3, 2).reshape(lay.T, -1, 4)
        idx = np.arange(2)[None, :, None] * lay.N1 + lay.cell_dofs[:, None, :]
        return np.bincount(idx.ravel(), loc.ravel(), minlength=2 * lay.N1)

    def _hat_rows(self, s):
        """sum_q wa s lam_j for every P1 DOF j."""
        loc = (self.wa * s) @ self.geom["lam"]
        return np.bincount(self.layout.mesh.triangles.ravel(), loc.ravel(),
                           minlength=self.layout.V)

    def constraint(self):
        """C(X): momentum rows (Dirichlet rows replaced), then divergence rows.

        Momentum tested with N_a e_c is visc grad u : grad N_a + mass u N_a
        + conv/2 ((u.grad)u N_a - (u.grad N_a) u) - divc p d_c N_a - F.
        """
        lay, co, uq = self.layout, self.coeffs, self.uq
        val = co.mass[..., None] * uq + 0.5 * co.conv[..., None] * self.conv1
        grad = (co.visc[..., None, None] * self.gu
                - 0.5 * co.conv[..., None, None] * uq[..., :, None]
                * uq[..., None, :]
                - (co.divc * self.pq)[..., None, None] * np.eye(2))
        mom = self._velocity_rows(val, grad) - assemble_load(
            lay, self.config, self.g, co)
        dirs = lay.dirichlet_dofs
        mom[dirs] = self.Y[dirs]
        return np.concatenate([mom, self._hat_rows(-co.divc * self.divu)])

    def adjoint(self, c):
        """jac C^T c without assembling jac C.

        w is the momentum part of c with its Dirichlet rows zeroed, q the
        divergence part read as a P1 field; each block is the derivative of
        w . momentum + q . divergence in its unknown.
        """
        lay, co, geom = self.layout, self.coeffs, self.geom
        uq, gu = self.uq, self.gu
        dirs, m = lay.dirichlet_dofs, 2 * lay.N1
        w = c[:m].copy()
        w[dirs] = 0.0
        wq, gw = _velocity_at_quad(lay, geom, w)
        qq = np.einsum("qk,tk->tq", geom["lam"], c[m:][lay.mesh.triangles])
        divw = gw[:, :, 0, 0] + gw[:, :, 1, 1]
        ugw = np.einsum("tqd,tqcd->tqc", uq, gw)  # (u.grad)w

        val = co.mass[..., None] * wq + 0.5 * co.conv[..., None] * (
            np.einsum("tqic,tqi->tqc", gu, wq)
            - np.einsum("tqic,tqi->tqc", gw, uq) - ugw)
        grad = (co.visc[..., None, None] * gw
                + 0.5 * co.conv[..., None, None] * wq[..., :, None]
                * uq[..., None, :]
                - (co.divc * qq)[..., None, None] * np.eye(2))
        gy = self._velocity_rows(val, grad)
        gy[dirs] += c[dirs]

        s = (co.dvisc * np.einsum("tqcd,tqcd->tq", gu, gw)
             + co.dmass * np.sum(uq * wq, axis=2)
             + 0.5 * co.dconv * np.sum(self.conv1 * wq - ugw * uq, axis=2)
             - co.ddivc * (self.pq * divw + qq * self.divu))
        if self.config.body_force is not None:
            fq = np.asarray(self.config.body_force(geom["xq"]), dtype=float)
            s -= co.dloadc * np.einsum("tqc,tqc->tq", fq, wq)
        return np.concatenate([gy, self._hat_rows(-co.divc * divw),
                               self._hat_rows(s)])

    def level_jacobian_blocks(self):
        """(jac13, Bprime): level-field derivatives of momentum and divergence."""
        lay, geom, co = self.layout, self.geom, self.coeffs
        lam, vals, grads = geom["lam"], geom["vals"], geom["grads"]
        wa, uq, gu, pq = self.wa, self.uq, self.gu, self.pq

        # momentum block, local shape (T, comp, basis, hat)
        loc = np.einsum("tq,tqcd,tqad,qj->tcaj", wa * co.dvisc, gu, grads, lam)
        loc += np.einsum("tq,tqc,qa,qj->tcaj", wa * co.dmass, uq, vals, lam)
        loc += 0.5 * np.einsum("tq,tqc,qa,qj->tcaj", wa * co.dconv, self.conv1,
                               vals, lam)
        udotg = np.einsum("tqd,tqad->tqa", uq, grads)
        loc -= 0.5 * np.einsum("tq,tqa,tqc,qj->tcaj", wa * co.dconv, udotg,
                               uq, lam)
        loc -= np.einsum("tq,tqac,qj->tcaj", wa * co.ddivc * pq, grads, lam)
        if self.config.body_force is not None:
            fq = np.asarray(self.config.body_force(geom["xq"]), dtype=float)
            loc -= np.einsum("tq,tqc,qa,qj->tcaj", wa * co.dloadc, fq,
                             vals, lam)

        tri = lay.mesh.triangles
        rows = (np.arange(2)[None, :, None, None] * lay.N1
                + lay.cell_dofs[:, None, :, None])
        jac13 = _scatter(loc, rows, tri[:, None, None, :], (2 * lay.N1, lay.N3))

        locb = -np.einsum("tq,qp,qj->tpj", wa * co.ddivc * self.divu, lam, lam)
        bprime = _scatter(locb, tri[:, :, None], tri[:, None, :],
                          (lay.N2, lay.N3))
        return jac13, bprime

    def cost(self, spec: CostSpec):
        """(J_h, dJ/dY, dJ/dG) with the configured smoothed cutoff."""
        lay, loadc = self.layout, self.coeffs.loadc
        if spec.kind == DISSIPATED_ENERGY:
            e = 0.5 * (self.gu + np.swapaxes(self.gu, 2, 3))
            dens = np.einsum("tqcd,tqcd->tq", e, e)
            gradY = self._velocity_rows(grad=2.0 * loadc[..., None, None] * e)
        else:
            if spec.target.shape != (2 * lay.N1,):
                raise ConfigurationError("target field does not match layout")
            diff = self.uq - _velocity_at_quad(lay, self.geom, spec.target)[0]
            dens = np.einsum("tqc,tqc->tq", diff, diff)
            gradY = self._velocity_rows(val=2.0 * loadc[..., None] * diff)
        value = float(np.sum(self.wa * loadc * dens))
        return value, gradY, self._hat_rows(self.coeffs.dloadc * dens)


def constraint_residual(X: OptVector, layout, config) -> np.ndarray:
    """The flow-system residual C(X) of length M = 2N1 + N2.

    Momentum rows carry identity Dirichlet replacement (homogeneous data);
    divergence rows are B(G) Y with the configured divergence form.
    """
    return _Forms(X, layout, config).constraint()


def constraint_jacobian(X: OptVector, layout, config):
    """Full analytic Jacobian of C, sparse M x N.

    Velocity block A + C1 + C2, pressure block B^T, level block from the
    Heaviside chain rule through every coefficient.  Dirichlet rows are
    identity in their velocity column and zero elsewhere.  The descent
    never builds it; it applies its transpose with _Forms.adjoint.
    """
    forms = _Forms(X, layout, config)
    A, B = assemble_bilinear(layout, config, forms.g, forms.coeffs)
    C1, C2 = assemble_trilinear(layout, config, forms.g, X.Y, forms.coeffs)
    jac13, bprime = forms.level_jacobian_blocks()
    jac = sp.bmat([[A + C1 + C2, B.T, jac13], [B, None, bprime]],
                  format="csr")
    return _replace_rows(jac, layout.dirichlet_dofs)


def cost_and_gradient(X: OptVector, spec: CostSpec, layout, config):
    """J_h(X) and its gradient over all N components (pressure block zero)."""
    forms = _Forms(X, layout, config)
    value, gradY, gradG = forms.cost(spec)
    grad = np.concatenate([gradY, np.zeros(layout.N2), gradG])
    return value, grad


def _penalized_value(X: OptVector, spec, rho, layout, config):
    # value-only path for line-search trials: no Jacobian assembly
    forms = _Forms(X, layout, config)
    cost = forms.cost(spec)
    C = forms.constraint()
    return cost[0] + 0.5 * rho * float(C @ C), forms, cost, C


def _penalized_gradient(forms, cost, C, rho, layout):
    _, gradY, gradG = cost
    grad = np.concatenate([gradY, np.zeros(layout.N2), gradG])
    if rho > 0:
        grad = grad + rho * forms.adjoint(C)
    return grad


def penalized_value_and_gradient(X: OptVector, spec: CostSpec, rho,
                                 layout, config):
    """J_rho = J_h + (rho/2) C^T C and its gradient grad J_h + rho jac^T C."""
    if rho < 0:
        raise ConfigurationError("penalty weight must be nonnegative")
    value, forms, cost, C = _penalized_value(X, spec, rho, layout, config)
    return value, _penalized_gradient(forms, cost, C, rho, layout)


def _frozen_components(layout, opt):
    frozen = [layout.dirichlet_dofs]
    if opt.freeze_boundary_level:
        bverts = np.unique(layout.mesh.boundary_edges.ravel())
        frozen.append(2 * layout.N1 + layout.N2 + bverts)
    return np.concatenate(frozen)


def optimize(initial_G: LevelField, spec: CostSpec, opt: OptConfig,
             layout, config):
    """Projected steepest descent on J_rho from an admissible level field.

    (Y, P) are initialized by one Newton flow solve at the initial geometry
    and evolve by descent afterwards.  The descent direction is the
    negative gradient with clamped velocity components and outer-boundary
    level components zeroed, which preserves the Dirichlet data and the
    boundary sign condition exactly.  Returns (history, final X, snapshots).
    """
    mesh = layout.mesh
    report = check_admissibility(initial_G, mesh)
    if not report.boundary_sign_ok:
        raise ConfigurationError(
            "initial level field must be negative on the outer boundary")

    state, newton = solve_navier_stokes(layout, config, initial_G,
                                        raise_on_failure=True)
    X = OptVector(layout, state.Y.copy(), state.P.copy(),
                  initial_G.nodal_values.copy())

    frozen = _frozen_components(layout, opt)
    history = []
    snapshots = []

    def take_snapshot(it, j_h):
        G = X.G
        snapshots.append(Snapshot(
            it, LevelField(G.copy()), obstacle_component_count(mesh, G),
            bool(np.all(G[np.unique(mesh.boundary_edges.ravel())] < 0.0)),
            j_h))

    j_rho, forms0, cost0, C0 = _penalized_value(X, spec, opt.rho, layout,
                                                config)
    if not np.isfinite(j_rho):
        raise SolverError("non-finite penalized cost at the initial point")
    direction = -_penalized_gradient(forms0, cost0, C0, opt.rho, layout)
    direction[frozen] = 0.0
    gnorm_inf = np.abs(direction).max()
    if gnorm_inf == 0.0:
        gnorm_inf = 1.0
    step = opt.initial_step / gnorm_inf
    base_cap = 10.0 * step

    j_h0 = cost0[0]
    history.append(IterateRecord(0, j_h0, j_rho, float(np.abs(C0).max()),
                                 float(np.abs(C0[2 * layout.N1:]).max()),
                                 0.0, True, float(direction @ direction), 0))
    take_snapshot(0, j_h0)
    plateau_run = 0

    for it in range(1, opt.max_iter + 1):
        gn2 = float(direction @ direction)
        trial = step
        accepted = False
        backtracks = 0
        for _ in range(opt.max_backtracks + 1):
            Xn = OptVector.from_vector(layout,
                                       X.as_vector() + trial * direction)
            j_new, forms_n, cost_n, C_n = _penalized_value(
                Xn, spec, opt.rho, layout, config)
            if np.isfinite(j_new) and \
                    j_new <= j_rho - opt.armijo_c * trial * gn2:
                accepted = True
                break
            trial *= opt.armijo_factor
            backtracks += 1
        if accepted:
            X = Xn
            delta = abs(j_rho - j_new)
            div_inf = float(np.abs(C_n[2 * layout.N1:]).max())
            c_inf = float(np.abs(C_n).max())
            history.append(IterateRecord(it, cost_n[0], j_new, c_inf, div_inf,
                                         trial, True, gn2, backtracks))
            if backtracks == 0:
                step = min(trial * opt.step_growth, base_cap)
            else:
                step = trial
            j_rho = j_new
            direction = -_penalized_gradient(forms_n, cost_n, C_n,
                                             opt.rho, layout)
            direction[frozen] = 0.0
            if delta <= opt.plateau_tol * (1.0 + abs(j_rho)):
                plateau_run += 1
            else:
                plateau_run = 0
        else:
            # stall: keep the iterate (and the values recorded for it),
            # shrink the base step, move on
            step *= opt.armijo_factor
            last = history[-1]
            history.append(IterateRecord(it, last.j_h, j_rho,
                                         last.constraint_inf,
                                         last.divergence_inf, 0.0, False,
                                         gn2, backtracks))
            plateau_run += 1

        if opt.snapshot_every > 0 and it % opt.snapshot_every == 0:
            take_snapshot(it, history[-1].j_h)
        if plateau_run >= opt.plateau_steps:
            break

    if not snapshots or snapshots[-1].iteration != history[-1].iteration:
        take_snapshot(history[-1].iteration if history else 0,
                      history[-1].j_h if history else j_h0)
    return history, X, snapshots


def history_to_csv(history) -> str:
    """Serialize descent records as CSV (one row per iteration)."""
    cols = ["iteration", "j_h", "j_rho", "constraint_inf", "divergence_inf",
            "step", "accepted", "grad_norm2", "backtracks"]
    lines = [",".join(cols)]
    for r in history:
        d = r.as_dict()
        parts = []
        for c in cols:
            v = d[c]
            parts.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"
