"""Accuracy studies: penalized vs body-fitted reference flow on one mesh.

Each data point solves both problems on the same obstacle-conforming mesh,
restricts the penalized solution to the fluid submesh (exact, no
interpolation), and records relative errors there.  Sweeps vary either the
penalization parameter on a fixed mesh or the mesh size at fixed
penalization.  What does not depend on the penalization is computed once
per mesh: the reference solve (it uses eps 0), its L2, H1-seminorm and
pressure norms and the full-mesh layout.  Newton starts warm where it can:
the reference from the mesh's first penalized flow restricted to the
fluid, each later point from the one before it.
"""

import numpy as np

from .artifacts import csv_text
from .errors import ConfigurationError, DegenerateInputError, PenflowError
from .fem import EXACT_REGION, AssemblyConfig, build_spaces, compute_norm
from .mesh import FLUID, DomainSpec, extract_submesh, generate_mesh
from .ns_solver import (MixedState, solve_navier_stokes,
                        solve_reference_flux_constrained)

EPSILON_SWEEP = "epsilon"
MESH_SWEEP = "mesh"


class ErrorRecord:
    """One sweep point: parameters, relative errors on the fluid region.

    report and reference_report keep the NewtonReport of the penalized and
    of the reference solve; neither is serialized.
    """

    def __init__(self, epsilon, mesh_size, l2_rel, h1_rel, div_norm_omega,
                 newton_iters, p_l2_rel, report=None,
                 reference_report=None):
        self.epsilon = float(epsilon)
        self.mesh_size = float(mesh_size)
        self.l2_rel = float(l2_rel)
        self.h1_rel = float(h1_rel)
        self.div_norm_omega = float(div_norm_omega)
        self.newton_iters = int(newton_iters)
        self.p_l2_rel = float(p_l2_rel)
        self.report, self.reference_report = report, reference_report
        for v in (self.l2_rel, self.h1_rel, self.div_norm_omega):
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError("error record values must be finite and >= 0")

    def as_dict(self):
        return {"epsilon": self.epsilon, "mesh_size": self.mesh_size,
                "l2_rel": self.l2_rel, "h1_rel": self.h1_rel,
                "div_norm_omega": self.div_norm_omega,
                "newton_iters": self.newton_iters, "p_l2_rel": self.p_l2_rel}

    def __repr__(self):
        return (f"ErrorRecord(eps={self.epsilon:g}, h={self.mesh_size:.4g}, "
                f"l2_rel={self.l2_rel:.4e}, h1_rel={self.h1_rel:.4e})")


def restrict_state(full_layout, sub_mesh, Y, P):
    """Restrict full-mesh velocity/pressure DOFs to an extracted submesh.

    Uses the parent ids attached by extract_submesh; exact for conforming
    submeshes.  Returns (Y_sub, P_sub).
    """
    pv = sub_mesh.parent_vertex_ids
    # per component: the parent vertices, then the parent triangles' bubbles
    idx = np.concatenate([pv, full_layout.V + sub_mesh.parent_triangle_ids])
    return np.concatenate([Y[idx], Y[full_layout.N1 + idx]]), P[pv]


class _MeshReference:
    """The eps-free part of every sweep point on one mesh: fluid submesh,
    layout, reference solve (eps 0), its report and norms; the last flow."""

    def __init__(self, mesh, config):
        self.mesh, self.sub = mesh, extract_submesh(mesh, FLUID)
        self.config, self.state = config, None
        self.layout = build_spaces(mesh)

    def solve_reference(self, Ys, Ps):
        """Solve the reference from the penalized flow Ys, Ps on the fluid."""
        self.ref, _, self.report = solve_reference_flux_constrained(
            self.sub, self.config.replace(eps=0.0),
            start=MixedState(build_spaces(self.sub), Ys, Ps))
        ref = self.ref
        self.norms = [compute_norm(self.sub, v, kind=k) for v, k in (
            (ref.Y, "L2"), (ref.Y, "H1seminorm"), (ref.P, "L2"))]
        if not self.norms[0] > 0.0:  # a mesh too coarse to carry a flow
            raise DegenerateInputError("the reference flow is zero on this mesh")


def _one_point(mr: _MeshReference, eps):
    state, report = solve_navier_stokes(
        mr.layout, mr.config.replace(eps=eps), EXACT_REGION, start=mr.state)
    Ys, Ps = restrict_state(mr.layout, mr.sub, state.Y, state.P)
    if mr.state is None:
        mr.solve_reference(Ys, Ps)
    mr.state = state
    sub, ref, (ref_l2, ref_h1, ref_p) = mr.sub, mr.ref, mr.norms
    dY = Ys - ref.Y
    l2_rel = compute_norm(sub, dY, kind="L2") / ref_l2
    h1_rel = compute_norm(sub, dY, kind="H1seminorm") / ref_h1
    div_omega = compute_norm(sub, Ys, kind="DivL2")
    p_rel = compute_norm(sub, Ps - ref.P, kind="L2") / ref_p if ref_p > 0 else 0.0
    return ErrorRecord(eps, mr.mesh.mean_edge_length, l2_rel, h1_rel,
                       div_omega, report.iterations, p_rel, report, mr.report)


def run_sweep(kind, values, domain_spec: DomainSpec, config: AssemblyConfig):
    """Run an accuracy sweep; one ErrorRecord per value, in input order.

    kind "epsilon": values are penalization parameters on one shared
    conforming mesh, whose reference is computed once, at the first point.
    kind "mesh": values are target mesh sizes, eps fixed from config.
    domain_spec names the obstacles that every conforming mesh carves; the
    penalized solve takes their sharp indicator ("exact-region"), the
    zero-width limit of the smoothing.  A PenflowError from a point's mesh
    or solves propagates as the same exception (a NonconvergenceError keeps
    its Newton report) with the point prefixed to its message, e.g.
    "sweep point h=0.05: ...".
    """
    if kind not in (EPSILON_SWEEP, MESH_SWEEP):
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    values = list(values)
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if not domain_spec.obstacles:
        raise ConfigurationError("sweep setup needs at least one obstacle")
    if kind == EPSILON_SWEEP:
        mesh = generate_mesh(domain_spec, conform_to_obstacles=True)
    records, mr = [], None
    for value in values:
        if kind == EPSILON_SWEEP:
            name, eps = "epsilon", float(value)
        else:
            name, eps, mr = "h", config.eps, None
        try:
            if kind == MESH_SWEEP:  # a mesh, and so a reference, per point
                spec = domain_spec.replace(h_mesh=float(value))
                mesh = generate_mesh(spec, conform_to_obstacles=True)
            mr = mr or _MeshReference(mesh, config)
            records.append(_one_point(mr, eps))
        except PenflowError as exc:
            exc.args = (f"sweep point {name}={value}: {exc}",) + exc.args[1:]
            raise
    return records


def regression_slope(points) -> float:
    """Least-squares slope of y on x for a list of (x, y) pairs."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise DegenerateInputError("need at least two (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    sxx = np.sum((x - x.mean()) ** 2)
    if sxx == 0.0:
        raise DegenerateInputError("all x values coincide")
    return float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)


def records_to_csv(records) -> str:
    """Serialize sweep records as a CSV table (header + one row each)."""
    cols = ["epsilon", "mesh_size", "l2_rel", "h1_rel", "div_norm_omega",
            "newton_iters", "p_l2_rel"]
    return csv_text(cols, [list(r.as_dict().values()) for r in records])
