"""How fast the penalized flow approaches the fitted-mesh reference.

Two sweeps against the flux-constrained reference solution: shrink the
penalization parameter on one fixed conforming mesh, then shrink the
mesh at fixed penalization.  Errors are relative L2/H1 norms of the
velocity over the fluid region; slopes come from a log-log fit.

Scales here are chosen for a coffee-break runtime.  Push h down if you
want tighter rates.
"""

import os

import numpy as np

from penflow import regression_slope, run_sweep
from penflow.artifacts import svg_loglog, write_csv
from penflow.presets import flow_cell_spec, sec31_assembly

OUT = os.path.join(os.path.dirname(__file__), "out-sweeps")
os.makedirs(OUT, exist_ok=True)


def show(records, xattr):
    print(f"  {'value':>8} {'L2 rel':>10} {'H1 rel':>10} {'div norm':>10}")
    for r in records:
        print(f"  {getattr(r, xattr):8.4f} {r.l2_rel:10.6f} "
              f"{r.h1_rel:10.6f} {r.div_norm_omega:10.6f}")


def fitted(records, xattr, yattr):
    """Least-squares slope and intercept of the log-log points."""
    pts = np.log10([(getattr(r, xattr), getattr(r, yattr)) for r in records])
    slope = regression_slope(pts)
    return {"slope": slope, "intercept": float(np.mean(pts[:, 1])
                                               - slope * np.mean(pts[:, 0]))}


# epsilon sweep on one shared conforming mesh
eps_values = (0.5, 0.1, 0.05, 0.025)
records = run_sweep("epsilon", eps_values, flow_cell_spec(0.03),
                    sec31_assembly())
print("epsilon sweep, h = 0.03:")
show(records, "epsilon")
fit_eps = fitted(records, "epsilon", "l2_rel")
print(f"  L2 slope vs epsilon: {fit_eps['slope']:.3f}")

write_csv(os.path.join(OUT, "epsilon.csv"),
          ["epsilon", "l2_rel", "h1_rel"],
          [(r.epsilon, r.l2_rel, r.h1_rel) for r in records])
svg_loglog(os.path.join(OUT, "epsilon.svg"),
           [{"label": "L2 error", **fit_eps,
             "x": [r.epsilon for r in records],
             "y": [r.l2_rel for r in records]}],
           xlabel="epsilon", ylabel="relative error",
           title="penalization error")

# mesh sweep at fixed epsilon
sizes = (0.08, 0.057, 0.04)
records = run_sweep("mesh", sizes, flow_cell_spec(sizes[0]),
                    sec31_assembly(eps=0.025))
print("mesh sweep, eps = 0.025:")
show(records, "mesh_size")
fit_l2 = fitted(records, "mesh_size", "l2_rel")
fit_h1 = fitted(records, "mesh_size", "h1_rel")
print(f"  slopes vs h: L2 {fit_l2['slope']:.3f}, H1 {fit_h1['slope']:.3f}")

svg_loglog(os.path.join(OUT, "mesh.svg"),
           [{"label": "L2 error", **fit_l2,
             "x": [r.mesh_size for r in records],
             "y": [r.l2_rel for r in records]},
            {"label": "H1 error", **fit_h1,
             "x": [r.mesh_size for r in records],
             "y": [r.h1_rel for r in records]}],
           xlabel="h", ylabel="relative error", title="mesh refinement")

print(f"wrote plots and tables under {OUT}/")
