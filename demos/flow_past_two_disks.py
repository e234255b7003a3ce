"""Flow past two disks, solved twice.

The same physical problem is solved on a fixed mesh with the obstacles
penalized through a smoothed level function, and on a body-fitted mesh
where the holes are real and each obstacle boundary carries a zero-flux
constraint.  The script prints the quantities worth comparing and drops
VTK files you can open in ParaView.
"""

import os

import numpy as np

from penflow import (LevelField, boundary_flux, build_spaces, compute_norm,
                     extract_submesh, generate_mesh,
                     solve_navier_stokes, solve_reference_flux_constrained)
from penflow.artifacts import write_vtk
from penflow.presets import sec31_assembly, sec31_level, flow_cell_spec

OUT = os.path.join(os.path.dirname(__file__), "out-flow")
H_PENALIZED = 0.04
H_REFERENCE = 0.02
EPS = 0.025


def velocity_at_vertices(layout, Y):
    V, N1 = layout.V, layout.N1
    return np.stack([Y[:V], Y[N1:N1 + V]], axis=1)


os.makedirs(OUT, exist_ok=True)

# penalized solve: the mesh never sees the obstacles
spec = flow_cell_spec(H_PENALIZED)
mesh = generate_mesh(spec)
layout = build_spaces(mesh)
g = LevelField.interpolate(mesh, sec31_level())
config = sec31_assembly(eps=EPS)
state, report = solve_navier_stokes(layout, config, g, raise_on_failure=True)
print(f"penalized mesh: {mesh.num_vertices} vertices, "
      f"{mesh.num_triangles} triangles")
print(f"  Newton: {report.iterations} iterations, "
      f"residual {report.final_residual:.2e}")
print(f"  ||div y||_D = {compute_norm(mesh, state.Y, kind='DivL2'):.6f}")
write_vtk(os.path.join(OUT, "penalized.vtk"), mesh,
          {"pressure": state.P, "level": g.nodal_values},
          {"velocity": velocity_at_vertices(layout, state.Y)})

# reference solve: fitted mesh, flux constraints via multipliers
full = generate_mesh(flow_cell_spec(H_REFERENCE), conform_to_obstacles=True)
fluid = extract_submesh(full, "Fluid")
ref_config = sec31_assembly(eps=0.0)
ref, multipliers, ref_report = solve_reference_flux_constrained(
    fluid, ref_config)
print(f"reference mesh: {fluid.num_vertices} vertices, "
      f"{fluid.num_triangles} triangles (fluid part)")
print(f"  Newton: {ref_report.iterations} iterations, "
      f"residual {ref_report.final_residual:.2e}")
vel = velocity_at_vertices(ref.layout, ref.Y)
for label in sorted(fluid.labels()):
    print(f"  flux through {label}: {boundary_flux(fluid, vel, label): .3e}")
for label, value in sorted(multipliers.items()):
    print(f"  multiplier on {label}: {value: .6f}")
print(f"  ||div y||_omega = {compute_norm(fluid, ref.Y, kind='DivL2'):.6f}")
write_vtk(os.path.join(OUT, "reference.vtk"), fluid,
          {"pressure": ref.P}, {"velocity": vel})

print(f"wrote {OUT}/penalized.vtk and {OUT}/reference.vtk")
