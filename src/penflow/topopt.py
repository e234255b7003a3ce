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
geometry.  C is fem._flow_rows, Dirichlet rows included: the kernel that
gives the Newton residual in ns_solver, so the constraint is the penalized
state system Newton solves.  It shares its coefficient-free products with
the adjoint's level block.  Line-search trials compute values only; level
derivatives and gradients run at accepted points, and the load and a
tracking target are evaluated once per descent.  The assembled Jacobian
serves only constraint_jacobian.
"""

import numpy as np
import scipy.sparse as sp

from .artifacts import csv_text
from .errors import ConfigurationError, SolverError
from .fem import (PLAIN_B, SpaceLayout, _flow_at_quad, _flow_rows, _hat_rows,
                  _momentum_integrand, _scatter, _velocity_at_quad,
                  _velocity_rows, assemble_bilinear, assemble_load,
                  assemble_trilinear, evaluate_coefficients)
from .levelset import LevelField, check_admissibility
from .mesh import _graph_components
from .ns_solver import solve_navier_stokes

DISSIPATED_ENERGY = "dissipated-energy"
TRACKING = "tracking"
_HISTORY_COLUMNS = ("iteration j_h j_rho constraint_inf divergence_inf step "
                    "accepted grad_norm2 backtracks").split()


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


def tracking_cost(layout, config, target_level):
    """The tracking cost toward the flow past the obstacles of the pointwise
    level function target_level, solved on layout with config but the
    plain divergence form."""
    g = LevelField.interpolate(layout.mesh, target_level)
    state, _ = solve_navier_stokes(
        layout, config.replace(divergence_form=PLAIN_B), g)
    return CostSpec(TRACKING, target=state.Y)


class OptConfig:
    """Descent parameters for the penalty scheme.

    The descent stops after plateau_steps iterations in a row that do not
    lower J_rho: stalls, and accepted steps that leave it unchanged.  The
    line search is fixed: the first trial step is initial_step over the
    sup-norm of the first projected gradient, a trial step is accepted
    when J_rho falls by at least armijo_c times the step times the squared
    gradient norm, it shrinks by armijo_factor at most max_backtracks times,
    and an accepted step that needed no backtracking grows by step_growth.
    """

    initial_step = 1.0
    armijo_c = 1e-4
    armijo_factor = 0.5
    max_backtracks = 30
    step_growth = 1.3

    def __init__(self, rho, max_iter=200, snapshot_every=25, plateau_steps=50):
        if rho < 0:
            raise ConfigurationError("penalty weight must be nonnegative")
        self.rho = float(rho)
        self.max_iter = int(max_iter)
        self.snapshot_every = int(snapshot_every)
        self.plateau_steps = int(plateau_steps)


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
        return {c: getattr(self, c) for c in _HISTORY_COLUMNS}


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
    edges = mesh.edges()
    comp = _graph_components(mesh.num_vertices,
                             edges[pos[edges[:, 0]] & pos[edges[:, 1]]])
    return int(np.unique(comp[pos]).size)


# ------------------------------------------------------------- assembly
class _Forms:
    """Quadrature-point data of C, the costs and the one-pass gradient
    (adjoint); component major as in fem."""

    def __init__(self, X: OptVector, layout, config):
        self.layout = layout
        self.Y = X.Y
        self.g = LevelField(X.G)
        self.coeffs = evaluate_coefficients(layout, config, self.g)
        self.flow = _flow_at_quad(layout, X.Y, X.P)
        self.uq, self.gu, self.pq, self.ugu, _ = self.flow
        self.divu = self.gu[0, 0] + self.gu[1, 1]
        self._cost = None  # (side, integrand e) of the last cost

    def constraint(self, load):
        """C(X) from the Newton residual's kernel: momentum rows minus the
        load, Y on the Dirichlet rows, then the divergence rows."""
        return np.concatenate(_flow_rows(self.layout, self.coeffs, self.flow,
                                         load, self.Y))

    def adjoint(self, c):
        """jac C^T c without assembling jac C, plus the gradient of the last
        cost, if any, whose integrands join before the one projection.

        w is the momentum part of c with its Dirichlet rows zeroed, q the
        divergence part read as a P1 field; each block is the derivative of
        w . momentum + q . divergence in its unknown; the level block sums
        scalar products, C's (u.grad)u . w among them, by level derivatives.
        """
        lay, co, uq, gu = self.layout, self.coeffs, self.uq, self.gu
        geom, dirs, m = lay.geometry(), lay.dirichlet_dofs, 2 * lay.N1
        w = c[:m].copy()
        w[dirs] = 0.0
        wq, gw = _velocity_at_quad(geom, lay.component_dofs, w)
        qq = c[m:][lay.mesh.triangles] @ geom["lam"].T
        divw = gw[0, 0] + gw[1, 1]
        ugw = np.einsum("dtq,dctq->ctq", uq, gw)  # (u.grad)w

        # [c] sums d_c u_i w_i - d_c w_i u_i over i, then (u.grad)w
        val = co.mass * wq + 0.5 * co.conv * (
            np.einsum("citq,itq->ctq", gu, wq)
            - np.einsum("citq,itq->ctq", gw, uq) - ugw)
        grad = co.visc * gw + 0.5 * co.conv * (uq[:, None] * wq)
        grad[0, 0] -= co.divc * qq  # the pressure term, on the diagonal
        grad[1, 1] -= co.divc * qq

        # level block; u (x) u : grad w is u . (u.grad)w
        d, ugu = co.level, self.ugu
        s = (d.mass * (uq[0] * wq[0] + uq[1] * wq[1])
             + 0.5 * d.conv * (ugu[0] * wq[0] + ugu[1] * wq[1]
                               - uq[0] * ugw[0] - uq[1] * ugw[1])
             + d.visc * np.einsum("dctq,dctq->tq", gu, gw)
             - d.divc * (self.pq * divw + qq * self.divu))
        if self._cost:  # 2 loadc e on the side of e, level.loadc |e|^2
            kind, e = self._cost
            (val if kind == "val" else grad)[...] += 2.0 * co.loadc * e
            s += d.loadc * self._dens
        gy = _velocity_rows(lay, val, grad)
        gy[dirs] += c[dirs]
        return np.concatenate([gy, _hat_rows(lay, -co.divc * divw),
                               _hat_rows(lay, s)])

    def level_jacobian_blocks(self):
        """(jac13, Bprime): level-field derivatives of momentum and divergence."""
        lay, geom, dco = self.layout, self.layout.geometry(), self.coeffs.level
        wa, lam, vals = geom["wa"], geom["lam"], geom["vals"]

        # momentum block (T, basis, comp, hat) from the level derivatives
        val, grad = _momentum_integrand(dco, self.flow)
        loc = np.einsum("tq,ctq,qa,qj->tacj", wa, val, vals, lam)
        rows = geom["grad_rows"].reshape(lay.T, len(lam), 2, 4)
        loc += np.einsum("tq,dctq,tqda,qj->tacj", wa, grad, rows, lam)

        tri = lay.mesh.triangles
        jac13 = _scatter(loc, lay.component_dofs[..., None],
                         tri[:, None, None, :], (2 * lay.N1, lay.N3))

        locb = -np.einsum("tq,qp,qj->tpj", wa * dco.divc * self.divu, lam, lam)
        bprime = _scatter(locb, tri[:, :, None], tri[:, None, :],
                          (lay.N2, lay.N3))
        return jac13, bprime

    def cost(self, spec: CostSpec, target_q):
        """J_h with the configured smoothed cutoff, target_q the tracking
        target at the quadrature points; adjoint adds its gradient."""
        if spec.kind == DISSIPATED_ENERGY:
            self._cost = "grad", 0.5 * (self.gu + self.gu.swapaxes(0, 1))
        else:
            self._cost = "val", self.uq - target_q
        e = self._cost[1].reshape(-1, *self.uq.shape[1:])
        self._dens = np.einsum("ktq,ktq->tq", e, e)
        return float(np.sum(self.layout.geometry()["wa"] * self.coeffs.loadc
                            * self._dens))


def _target_at_quad(spec: CostSpec, layout, config):
    """The tracking target (2, T, nq) at the quadrature points, or None."""
    if spec.kind == TRACKING:
        if spec.target.shape != (2 * layout.N1,):
            raise ConfigurationError("target field does not match layout")
        return _velocity_at_quad(layout.geometry(), layout.component_dofs,
                                 spec.target)[0]


def constraint_residual(X: OptVector, layout, config) -> np.ndarray:
    """The flow-system residual C(X) of length M = 2N1 + N2.

    Momentum rows carry identity Dirichlet replacement (homogeneous data);
    divergence rows are B(G) Y with the configured divergence form.
    """
    return _Forms(X, layout, config).constraint(
        assemble_load(layout, config, None))


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
    keep = np.ones(jac.shape[0])
    keep[layout.dirichlet_dofs] = 0.0
    return (sp.diags(keep) @ jac
            + sp.diags(1.0 - keep, shape=jac.shape)).tocsc()


def cost_and_gradient(X: OptVector, spec: CostSpec, layout, config):
    """J_h(X) and its gradient over all N components: the adjoint at c = 0."""
    forms = _Forms(X, layout, config)
    value = forms.cost(spec, _target_at_quad(spec, layout, config))
    return value, forms.adjoint(np.zeros(layout.M))


def _penalized_value(X, spec, rho, layout, config, load, target_q):
    """(J_rho, J_h, forms, C) at X: the value alone, for line-search trials."""
    forms = _Forms(X, layout, config)
    j_h = forms.cost(spec, target_q)
    C = forms.constraint(load)
    return j_h + 0.5 * rho * float(C @ C), j_h, forms, C


def penalized_value_and_gradient(X: OptVector, spec: CostSpec, rho,
                                 layout, config):
    """J_rho = J_h + (rho/2) C^T C and its gradient grad J_h + rho jac^T C."""
    if rho < 0:
        raise ConfigurationError("penalty weight must be nonnegative")
    value, _, forms, C = _penalized_value(
        X, spec, rho, layout, config, assemble_load(layout, config, None),
        _target_at_quad(spec, layout, config))
    return value, forms.adjoint(rho * C)


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
    if not check_admissibility(initial_G, mesh):
        raise ConfigurationError(
            "initial level field must be negative on the outer boundary")

    state, _ = solve_navier_stokes(layout, config, initial_G)
    X = OptVector(layout, state.Y.copy(), state.P.copy(),
                  initial_G.nodal_values.copy())

    # the clamped velocity components and the boundary vertices' levels
    bverts = np.unique(mesh.boundary_edges.ravel())
    frozen = np.concatenate([layout.dirichlet_dofs,
                             2 * layout.N1 + layout.N2 + bverts])
    history = []
    snapshots = []

    def take_snapshot(it, j_h):
        level = LevelField(X.G.copy())
        snapshots.append(Snapshot(
            it, level, obstacle_component_count(mesh, X.G),
            check_admissibility(level, mesh), j_h))

    fixed = (assemble_load(layout, config, None),
             _target_at_quad(spec, layout, config))  # no step changes them
    j_rho, j_h0, forms0, C0 = _penalized_value(X, spec, opt.rho, layout,
                                               config, *fixed)
    if not np.isfinite(j_rho):
        raise SolverError("non-finite penalized cost at the initial point")
    direction = -forms0.adjoint(opt.rho * C0)
    direction[frozen] = 0.0
    step = opt.initial_step / (np.abs(direction).max() or 1.0)
    base_cap = 10.0 * step

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
            j_new, j_h, forms_n, C_n = _penalized_value(
                Xn, spec, opt.rho, layout, config, *fixed)
            if np.isfinite(j_new) and \
                    j_new <= j_rho - opt.armijo_c * trial * gn2:
                accepted = True
                break
            trial *= opt.armijo_factor
            backtracks += 1
        if accepted:
            X = Xn
            div_inf = float(np.abs(C_n[2 * layout.N1:]).max())
            c_inf = float(np.abs(C_n).max())
            history.append(IterateRecord(it, j_h, j_new, c_inf, div_inf,
                                         trial, True, gn2, backtracks))
            step = min(trial * opt.step_growth, base_cap) if backtracks == 0 \
                else trial
            plateau_run = plateau_run + 1 if j_new == j_rho else 0
            j_rho = j_new
            direction = -forms_n.adjoint(opt.rho * C_n)
            direction[frozen] = 0.0
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

    if snapshots[-1].iteration != history[-1].iteration:
        take_snapshot(history[-1].iteration, history[-1].j_h)
    return history, X, snapshots


def history_to_csv(history) -> str:
    """Serialize descent records as CSV (one row per iteration)."""
    return csv_text(_HISTORY_COLUMNS,
                    [list(r.as_dict().values()) for r in history])
