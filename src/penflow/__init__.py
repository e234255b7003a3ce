"""Finite-element tools for penalized flow around obstacles.

Stationary Navier-Stokes flow is posed on a fixed domain; obstacles
enter through a level function whose smoothed indicator scales the
viscous, inertial and divergence terms by a small penalization.  The
package bundles a mini-element mixed discretization, a body-fitted
reference solver with per-obstacle flux constraints, accuracy sweeps
in the penalization and mesh size, and a steepest-descent driver that
reshapes the obstacles by moving the level function.
"""

from .errors import (ConfigurationError, DegenerateInputError,
                     EmptyRegionError, GenerationError, GeometryError,
                     MeshInvariantError, NonconvergenceError, PenflowError,
                     SolverError, UnknownLabelError)
from .mesh import (DomainSpec, Mesh, extract_submesh, generate_mesh,
                   mesh_from_text, mesh_to_text, polygon_signed_distance)
from .levelset import (LevelField, check_admissibility, compose_disks,
                       compose_ellipses, domain_level_function,
                       smoothed_heaviside)
from .fem import (AssemblyConfig, EXACT_REGION, PENALIZED_B, PLAIN_B,
                  SpaceLayout, assemble_bilinear, assemble_load,
                  assemble_trilinear, boundary_flux, build_spaces,
                  compute_norm, evaluate_coefficients, triangle_rule)
from .ns_solver import (MixedState, NewtonReport, residual_max_norm,
                        solve_navier_stokes,
                        solve_reference_flux_constrained, solve_stokes)
from .error_study import (EPSILON_SWEEP, MESH_SWEEP, ErrorRecord,
                          records_to_csv, regression_slope, restrict_state,
                          run_sweep)
from .topopt import (CostSpec, DISSIPATED_ENERGY, IterateRecord, OptConfig,
                     OptVector, Snapshot, TRACKING, constraint_jacobian,
                     constraint_residual, cost_and_gradient, history_to_csv,
                     obstacle_component_count, optimize,
                     penalized_value_and_gradient, tracking_cost)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
