"""Ready-to-run experiment bundles shared by the command line and tests.

Three named setups are exposed: a flow-cell benchmark with two fixed
disk obstacles ("sec31"), a dissipated-energy descent run ("test1"),
and a velocity-tracking descent run toward an ellipse-obstacle flow
("test2").  Mesh sizes default to desk scale; pass h_mesh to refine.
"""

import numpy as np

from .fem import AssemblyConfig, PLAIN_B, PENALIZED_B
from .levelset import domain_level_function
from .mesh import DomainSpec
from .topopt import (CostSpec, OptConfig, DISSIPATED_ENERGY, TRACKING,
                     tracking_cost)

# benchmark geometry: two disks parked in the flow cell
SEC31_OBSTACLES = (("disk", (0.5, 0.25), 0.15), ("disk", (0.75, 0.0), 0.15))
COARSE_MESH_SIZE = 0.04
REFERENCE_MESH_SIZE = 0.014

EPSILON_SWEEP_VALUES = (0.5, 0.1, 0.05, 0.025)
EPSILON_SWEEP_MESH_SIZE = 0.0175
MESH_SWEEP_SIZES = (0.08, 0.057, 0.04)

# the descent runs start from two disks; test2 tracks the flow past an
# ellipse
TEST1_CENTERS = ((-0.2, 0.2), (-0.2, -0.2))
TEST1_RADII = (0.1, 0.1)
TEST2_RADII = (0.15, 0.15)
TEST2_TARGET_SHAPES = (("ellipse", (-0.2, 0.0), (0.2, 0.4)),)


def shear_traction(x):
    """Boundary stress (100*x2, 0) applied on the inflow side."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    out[..., 0] = 100.0 * x[..., 1]
    return out


NAMED_TRACTIONS = {"shear": shear_traction}


def flow_cell_spec(h_mesh=COARSE_MESH_SIZE, obstacles=SEC31_OBSTACLES):
    return DomainSpec(outer="flow-cell", h_mesh=h_mesh, obstacles=obstacles)


def sec31_assembly(eps=0.025, **kwargs):
    kwargs.setdefault("nu", 1.0)
    kwargs.setdefault("traction", shear_traction)
    kwargs.setdefault("divergence_form", PLAIN_B)
    return AssemblyConfig(eps=eps, **kwargs)


def sec31_level():
    """Signed-distance level function of the two benchmark disks."""
    return domain_level_function(flow_cell_spec())


class FlowPreset:
    """Domain plus assembly settings for a single flow solve."""

    def __init__(self, domain_spec, config):
        self.domain_spec, self.config = domain_spec, config


class SweepPreset:
    """Inputs for one accuracy sweep: which knob moves and over what values."""

    def __init__(self, kind, values, domain_spec, config):
        self.kind = kind
        self.values = tuple(values)
        self.domain_spec = domain_spec
        self.config = config


class DescentPreset:
    """Everything a descent run needs; the cost may depend on the layout.

    The initial and target geometries are shapes, as [level] shapes and
    [cost] target_shapes give them.  The optimize command takes both level
    functions from here: signed distance for the initial one, the plain
    form for the target.
    """

    def __init__(self, domain_spec, config, level_shapes, cost_kind, opt,
                 target_shapes=()):
        self.domain_spec = domain_spec
        self.config = config
        self.level_shapes = level_shapes
        self.cost_kind = cost_kind
        self.opt = opt
        self.target_shapes = target_shapes
        self.initial_level = domain_level_function(
            domain_spec.replace(obstacles=level_shapes))
        self.target_level = domain_level_function(
            domain_spec.replace(obstacles=target_shapes),
            signed_distance=False) if target_shapes else None

    def build_cost(self, layout):
        if self.cost_kind == TRACKING:
            return tracking_cost(layout, self.config, self.target_level)
        return CostSpec(self.cost_kind)


def sec31_penalized(h_mesh=COARSE_MESH_SIZE, eps=0.025):
    return FlowPreset(flow_cell_spec(h_mesh), sec31_assembly(eps=eps))


def sec31_reference(h_mesh=REFERENCE_MESH_SIZE):
    return FlowPreset(flow_cell_spec(h_mesh), sec31_assembly(eps=0.0))


def epsilon_sweep(h_mesh=EPSILON_SWEEP_MESH_SIZE,
                  values=EPSILON_SWEEP_VALUES):
    return SweepPreset("epsilon", values, flow_cell_spec(h_mesh),
                       sec31_assembly())


def mesh_sweep(sizes=MESH_SWEEP_SIZES, eps=0.025):
    return SweepPreset("mesh", sizes, flow_cell_spec(sizes[0]),
                       sec31_assembly(eps=eps))


def _descent_problem(radii, cost_kind, h_mesh, max_iter, rho, snapshot_every,
                     target_shapes=()):
    config = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                            divergence_form=PENALIZED_B)
    shapes = tuple(("disk", c, r) for c, r in zip(TEST1_CENTERS, radii))
    opt = OptConfig(rho=rho, max_iter=max_iter, snapshot_every=snapshot_every)
    return DescentPreset(flow_cell_spec(h_mesh, obstacles=()), config, shapes,
                         cost_kind, opt, target_shapes)


def test1_problem(h_mesh=0.05, max_iter=200, rho=0.8, snapshot_every=25):
    return _descent_problem(TEST1_RADII, DISSIPATED_ENERGY, h_mesh, max_iter,
                            rho, snapshot_every)


def test2_problem(h_mesh=0.05, max_iter=500, rho=0.02, snapshot_every=100):
    return _descent_problem(TEST2_RADII, TRACKING, h_mesh, max_iter, rho,
                            snapshot_every, TEST2_TARGET_SHAPES)
