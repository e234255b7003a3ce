"""Ready-to-run experiment bundles shared by the command line and tests.

Three named setups are exposed: a flow-cell benchmark with two fixed
disk obstacles ("sec31"), a dissipated-energy descent run ("test1"),
and a velocity-tracking descent run toward an ellipse-obstacle flow
("test2").  Mesh sizes default to desk scale; pass h_mesh to refine.
"""

import numpy as np

from .errors import ConfigurationError
from .fem import AssemblyConfig, PLAIN_B, PENALIZED_B
from .levelset import LevelField, compose_disks, compose_ellipses
from .mesh import DomainSpec, generate_mesh
from .topopt import (CostSpec, OptConfig, DISSIPATED_ENERGY, TRACKING)
from .ns_solver import solve_navier_stokes

# benchmark geometry: two disks parked in the flow cell
SEC31_OBSTACLES = (("disk", (0.5, 0.25), 0.15), ("disk", (0.75, 0.0), 0.15))
COARSE_MESH_SIZE = 0.04
REFERENCE_MESH_SIZE = 0.014

EPSILON_SWEEP_VALUES = (0.5, 0.1, 0.05, 0.025)
EPSILON_SWEEP_MESH_SIZE = 0.0175
MESH_SWEEP_SIZES = (0.08, 0.057, 0.04)

TEST1_CENTERS = ((-0.2, 0.2), (-0.2, -0.2))
TEST1_RADII = (0.1, 0.1)
TEST2_CENTERS = ((-0.2, 0.2), (-0.2, -0.2))
TEST2_RADII = (0.15, 0.15)
TEST2_ELLIPSE_CENTER = (-0.2, 0.0)
TEST2_ELLIPSE_AXES = (0.2, 0.4)


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
    centers = [c for _, c, _ in SEC31_OBSTACLES]
    radii = [r for _, _, r in SEC31_OBSTACLES]
    return compose_disks(centers, radii, signed_distance=True)


class FlowPreset:
    """Mesh recipe plus assembly settings for a single flow solve."""

    def __init__(self, domain_spec, config, conforming=False):
        self.domain_spec = domain_spec
        self.config = config
        self.conforming = conforming

    def build_mesh(self):
        return generate_mesh(self.domain_spec,
                             conform_to_obstacles=self.conforming)


class SweepPreset:
    """Inputs for one accuracy sweep: which knob moves and over what values."""

    def __init__(self, kind, values, domain_spec, config):
        self.kind = kind
        self.values = tuple(values)
        self.domain_spec = domain_spec
        self.config = config


class DescentPreset:
    """Everything a descent run needs; the cost may depend on the layout."""

    def __init__(self, domain_spec, config, initial_level, cost_kind,
                 opt, make_target=None):
        self.domain_spec = domain_spec
        self.config = config
        self.initial_level = initial_level
        self.cost_kind = cost_kind
        self.opt = opt
        self.make_target = make_target

    def build_cost(self, layout):
        if self.cost_kind == TRACKING:
            if self.make_target is None:
                raise ConfigurationError("tracking preset lacks a target recipe")
            return CostSpec(TRACKING, target=self.make_target(layout))
        return CostSpec(self.cost_kind)


def sec31_penalized(h_mesh=COARSE_MESH_SIZE, eps=0.025):
    return FlowPreset(flow_cell_spec(h_mesh), sec31_assembly(eps=eps))


def sec31_reference(h_mesh=REFERENCE_MESH_SIZE):
    return FlowPreset(flow_cell_spec(h_mesh), sec31_assembly(eps=0.0),
                      conforming=True)


def epsilon_sweep(h_mesh=EPSILON_SWEEP_MESH_SIZE,
                  values=EPSILON_SWEEP_VALUES):
    return SweepPreset("epsilon", values, flow_cell_spec(h_mesh),
                       sec31_assembly())


def mesh_sweep(sizes=MESH_SWEEP_SIZES, eps=0.025):
    return SweepPreset("mesh", sizes, flow_cell_spec(sizes[0]),
                       sec31_assembly(eps=eps))


def test1_problem(h_mesh=0.05, max_iter=200, rho=0.8, snapshot_every=25):
    config = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                            divergence_form=PENALIZED_B)
    initial = compose_disks(TEST1_CENTERS, TEST1_RADII, signed_distance=True)
    opt = OptConfig(rho=rho, max_iter=max_iter, snapshot_every=snapshot_every,
                    plateau_tol=0.0)
    return DescentPreset(flow_cell_spec(h_mesh, obstacles=()), config,
                         initial, DISSIPATED_ENERGY, opt)


def test2_target_level():
    return compose_ellipses([TEST2_ELLIPSE_CENTER], [TEST2_ELLIPSE_AXES])


def _test2_target(layout):
    # target flow solved with the plain divergence form, as in the benchmark
    g = LevelField.interpolate(layout.mesh, test2_target_level())
    config = sec31_assembly(eps=0.01)
    state, _ = solve_navier_stokes(layout, config, g, raise_on_failure=True)
    return state.Y


def test2_problem(h_mesh=0.05, max_iter=500, rho=0.02, snapshot_every=100):
    config = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                            divergence_form=PENALIZED_B)
    initial = compose_disks(TEST2_CENTERS, TEST2_RADII, signed_distance=True)
    opt = OptConfig(rho=rho, max_iter=max_iter, snapshot_every=snapshot_every,
                    plateau_tol=0.0)
    return DescentPreset(flow_cell_spec(h_mesh, obstacles=()), config,
                         initial, TRACKING, opt, make_target=_test2_target)
