"""Memory grows linearly with the mesh: a gate on dense temporaries.

Every stage of a run, from meshing to the artifact text, runs on the sec31
flow cell at h 0.04 and at h 0.02, about 4x the triangles.  Its peak traced
memory per triangle may grow by at most _GROWTH between the two: a
points-by-segments or points-by-boundary-vertices temporary grows as T/h,
and so doubles it.  tracemalloc sees numpy's buffers and Python objects,
not the buffers that qhull or SuperLU allocate themselves; time is not
gated, since wall times on a shared host are too noisy for tier-1.
"""

import tracemalloc

import numpy as np

from penflow import build_spaces, compute_norm, extract_submesh, generate_mesh
from penflow.artifacts import vtk_text
from penflow.levelset import LevelField
from penflow.mesh import mesh_to_text
from penflow.ns_solver import MixedState, _System
from penflow.presets import flow_cell_spec, sec31_assembly, sec31_level

_SIZES = (0.04, 0.02)
_GROWTH = 1.25  # measured 0.95-1.0


def _peak(run):
    """run()'s result and the peak bytes it held above what was held."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = run()
    return out, tracemalloc.get_traced_memory()[1] - before


def _peaks_per_triangle(h):
    """Per stage, the peak traced bytes per triangle of its mesh."""
    spec = flow_cell_spec(h_mesh=h)
    peaks = {}

    def stage(name, run, mesh=None):
        out, peak = _peak(run)
        peaks[name] = peak / (mesh or out).num_triangles
        return out

    mesh = stage("mesh", lambda: generate_mesh(spec))
    full = stage("conforming mesh",
                 lambda: generate_mesh(spec, conform_to_obstacles=True))
    stage("submesh", lambda: extract_submesh(full, "Fluid"), full)

    def spaces():
        layout = build_spaces(mesh)
        layout.geometry()  # kept on the mesh for every later stage
        return layout

    layout = stage("spaces", spaces, mesh)
    g = stage("level", lambda: LevelField.interpolate(mesh, sec31_level()),
              mesh)
    sysm = _System(layout, sec31_assembly(), g)
    stage("pattern", lambda: sysm._pattern, mesh)
    blocks = sysm.element_blocks()
    stage("condense", lambda: sysm.condense(blocks), mesh)
    del blocks
    rng = np.random.default_rng(0)
    x = rng.standard_normal(layout.M)
    stage("residual", lambda: sysm.residual(x), mesh)
    state = MixedState(layout, x[:2 * layout.N1], x[2 * layout.N1:])
    stage("norm", lambda: compute_norm(mesh, state.Y, "H1"), mesh)
    stage("vtk text", lambda: vtk_text(
        mesh, {"pressure": state.P}, {"velocity": state.velocity_vertices}),
        mesh)
    stage("mesh text", lambda: mesh_to_text(mesh), mesh)
    return peaks


def test_peak_memory_per_triangle_stays_flat():
    tracemalloc.start()
    try:
        small, large = (_peaks_per_triangle(h) for h in _SIZES)
    finally:
        tracemalloc.stop()
    ratios = {name: large[name] / small[name] for name in small}
    detail = ", ".join(f"{name} {small[name]:.0f} -> {large[name]:.0f} B "
                       f"({ratios[name]:.2f}x)" for name in small)
    assert max(ratios.values()) <= _GROWTH, detail
