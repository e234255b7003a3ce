"""Top-level acceptance checks for the whole pipeline.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible under pytest -s or -rA), and enforces the stated tolerance and
runtime budget.  The heavy criteria run on reduced but honest scales:
meshes and iteration counts are chosen so every inequality is checked
with real margins, not vacuously.
"""

import time

import numpy as np
import pytest

from penflow import (AssemblyConfig, CostSpec, DISSIPATED_ENERGY, DomainSpec,
                     LevelField, OptVector, PENALIZED_B, TRACKING,
                     assemble_bilinear,
                     assemble_load, assemble_trilinear, boundary_flux,
                     build_spaces, compose_disks, compute_norm,
                     constraint_jacobian, constraint_residual,
                     extract_submesh, generate_mesh, optimize,
                     penalized_value_and_gradient, regression_slope,
                     run_sweep, smoothed_heaviside,
                     solve_navier_stokes, solve_reference_flux_constrained)
from penflow.presets import (epsilon_sweep, mesh_sweep, sec31_assembly,
                             sec31_level, sec31_reference, shear_traction)
from penflow.presets import test1_problem as two_disk_problem
from penflow.presets import test2_problem as tracking_problem


def _criterion(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label}: {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


@pytest.fixture(scope="module")
def coarse_setting(flow_cell_coarse, flow_cell_coarse_layout):
    g = LevelField.interpolate(flow_cell_coarse, sec31_level())
    return flow_cell_coarse_layout, sec31_assembly(), g


# 1 ------------------------------------------------------------------
def test_criterion_1_form_algebra(coarse_setting, rng):
    lay, cfg, g = coarse_setting
    t0 = time.perf_counter()
    assert lay.mesh.num_triangles >= 1500
    A, _ = assemble_bilinear(lay, cfg, g)
    sym = abs(A - A.T).max() / abs(A).max()
    worst_ww = worst_pair = 0.0
    for _ in range(10):
        u = rng.standard_normal(2 * lay.N1)
        v = rng.standard_normal(2 * lay.N1)
        w = rng.standard_normal(2 * lay.N1)
        C1, _ = assemble_trilinear(lay, cfg, g, u)
        mag = abs(C1)
        scale_ww = np.abs(w) @ (mag @ np.abs(w))
        worst_ww = max(worst_ww, abs(w @ (C1 @ w)) / scale_ww)
        scale_vw = np.abs(w) @ (mag @ np.abs(v)) + np.abs(v) @ (mag @ np.abs(w))
        worst_pair = max(worst_pair,
                         abs(w @ (C1 @ v) + v @ (C1 @ w)) / scale_vw)
    dt = time.perf_counter() - t0
    ok = worst_ww <= 1e-12 and worst_pair <= 1e-12 and sym <= 1e-12 and dt < 10
    _criterion(1, "form algebra",
               ok, f"c(u,w,w) {worst_ww:.1e}, pair {worst_pair:.1e}, "
                   f"A asym {sym:.1e}, {dt:.1f}s")


# 2 ------------------------------------------------------------------
def test_criterion_2_heaviside_knots():
    h = 0.25

    def std(r):
        return smoothed_heaviside(r, h)

    def sh(r):  # the shifted step: the standard one a width further on
        return smoothed_heaviside(r + h, h)

    checks = []
    v, d = std(np.array([0.0, h / 2, h]))
    checks += [v[0] == 0.0, v[1] == 0.5, v[2] == 1.0, d[0] == 0.0,
               d[2] == 0.0]
    v, d = sh(np.array([-h, -h / 2, 0.0]))
    checks += [v[0] == 0.0, v[1] == 0.5, v[2] == 1.0, d[0] == 0.0,
               d[2] == 0.0]
    r = np.linspace(-2 * h, 2 * h, 1000)
    for step in (std, sh):
        vals, ders = step(r)
        checks += [bool(np.all(np.diff(vals) >= 0)), bool(np.all(ders >= 0))]
    ok = all(checks)
    _criterion(2, "smoothed step knots",
               ok, f"{sum(checks)}/{len(checks)} identities exact")


# 3 ------------------------------------------------------------------
def test_criterion_3_newton_iteration_budget(coarse_setting):
    lay, cfg, g = coarse_setting
    t0 = time.perf_counter()
    F = assemble_load(lay, cfg, g)
    bound = 1e-10 * (1.0 + np.abs(F).max())
    state, report = solve_navier_stokes(lay, cfg, g)
    dt = time.perf_counter() - t0
    ok = report.iterations <= 5 and report.final_residual <= bound and dt < 60
    _criterion(3, "Newton budget",
               ok, f"{report.iterations} iters, residual "
                   f"{report.final_residual:.2e} <= {bound:.2e}, {dt:.1f}s")


# 4 ------------------------------------------------------------------
def test_criterion_4_reference_fluxes_and_divergence():
    preset = sec31_reference()
    full = generate_mesh(preset.domain_spec, conform_to_obstacles=True)
    fluid = extract_submesh(full, "Fluid")
    state, multipliers, report = solve_reference_flux_constrained(
        fluid, preset.config)
    lay = state.layout
    vel = np.stack([state.Y[:lay.V], state.Y[lay.N1:lay.N1 + lay.V]], axis=1)
    labels = [lab for lab in fluid.labels() if lab.startswith("Obstacle")]
    labels.append("Gamma1")
    fluxes = {lab: boundary_flux(fluid, vel, lab) for lab in labels}
    worst = max(abs(v) for v in fluxes.values())
    div = compute_norm(fluid, state.Y, kind="DivL2")
    ok = worst <= 1e-8 and 0.05 <= div <= 0.3
    _criterion(4, "flux constraints",
               ok, f"max |flux| {worst:.2e} over {sorted(fluxes)}, "
                   f"div norm {div:.4f} in [0.05, 0.3]")


# 5 ------------------------------------------------------------------
def test_criterion_5_epsilon_convergence():
    preset = epsilon_sweep()
    t0 = time.perf_counter()
    records = run_sweep(preset.kind, preset.values, preset.domain_spec,
                        preset.config)
    dt = time.perf_counter() - t0
    assert records[0].mesh_size <= 0.02  # >= 1e4 triangles at this size
    errs = [r.l2_rel for r in records]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    slope = regression_slope([(np.log10(r.epsilon), np.log10(r.l2_rel))
                              for r in records])
    ok = decreasing and 0.49 <= slope <= 1.10 and dt < 900
    _criterion(5, "epsilon convergence",
               ok, f"L2 slope {slope:.3f} in [0.49, 1.10], errors "
                   + " > ".join(f"{e:.4f}" for e in errs) + f", {dt:.0f}s")


# 6 ------------------------------------------------------------------
def test_criterion_6_mesh_convergence():
    preset = mesh_sweep()
    t0 = time.perf_counter()
    records = run_sweep(preset.kind, preset.values, preset.domain_spec,
                        preset.config)
    dt = time.perf_counter() - t0
    pts_l2 = [(np.log10(r.mesh_size), np.log10(r.l2_rel)) for r in records]
    pts_h1 = [(np.log10(r.mesh_size), np.log10(r.h1_rel)) for r in records]
    slope_l2 = regression_slope(pts_l2)
    slope_h1 = regression_slope(pts_h1)
    ok = 1.5 <= slope_l2 <= 2.3 and 0.6 <= slope_h1 <= 1.3 and dt < 1200
    _criterion(6, "mesh convergence",
               ok, f"L2 slope {slope_l2:.3f} in [1.5, 2.3], H1 slope "
                   f"{slope_h1:.3f} in [0.6, 1.3], {dt:.0f}s")


# 7 ------------------------------------------------------------------
def _tiny_setting():
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.34))
    lay = build_spaces(mesh)
    assert lay.N <= 200
    cfg = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                         divergence_form=PENALIZED_B)
    return lay, cfg


def _random_point(lay, rng):
    mesh = lay.mesh
    g0 = compose_disks([(0.5, 0.5)], [0.25], signed_distance=True)
    G = g0(mesh.vertices) + 0.05 * rng.standard_normal(lay.N3)
    boundary = np.unique(mesh.boundary_edges.ravel())
    G[boundary] = -np.abs(G[boundary]) - 0.05
    Y = 0.3 * rng.standard_normal(2 * lay.N1)
    P = 0.3 * rng.standard_normal(lay.N2)
    return OptVector(lay, Y, P, G)


def test_criterion_7_derivative_oracles(rng):
    lay, cfg = _tiny_setting()
    t0 = time.perf_counter()
    target = rng.standard_normal(2 * lay.N1)
    costs = (CostSpec(DISSIPATED_ENERGY), CostSpec(TRACKING, target=target))
    worst = 0.0
    for _ in range(5):
        X = _random_point(lay, rng)
        x0 = X.as_vector()
        J = constraint_jacobian(X, lay, cfg).toarray()
        cols = []
        for i in range(len(x0)):
            step = 1e-6 * (1.0 + abs(x0[i]))
            xp, xm = x0.copy(), x0.copy()
            xp[i] += step
            xm[i] -= step
            rp = constraint_residual(OptVector.from_vector(lay, xp), lay, cfg)
            rm = constraint_residual(OptVector.from_vector(lay, xm), lay, cfg)
            cols.append((rp - rm) / (2.0 * step))
        fd_jac = np.array(cols).T
        worst = max(worst,
                    np.abs(J - fd_jac).max() / max(1.0, np.abs(fd_jac).max()))
        for spec in costs:
            for rho in (0.0, 0.8):
                _, grad = penalized_value_and_gradient(X, spec, rho, lay, cfg)
                fd = np.empty_like(x0)
                for i in range(len(x0)):
                    step = 1e-6 * (1.0 + abs(x0[i]))
                    xp, xm = x0.copy(), x0.copy()
                    xp[i] += step
                    xm[i] -= step
                    vp, _ = penalized_value_and_gradient(
                        OptVector.from_vector(lay, xp), spec, rho, lay, cfg)
                    vm, _ = penalized_value_and_gradient(
                        OptVector.from_vector(lay, xm), spec, rho, lay, cfg)
                    fd[i] = (vp - vm) / (2.0 * step)
                worst = max(worst,
                            np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 300
    _criterion(7, "derivative oracles",
               ok, f"max relative error {worst:.2e} <= 1e-5 over 5 points, "
                   f"2 costs, rho in {{0, 0.8}}, {dt:.0f}s")


# helpers shared by the descent criteria -----------------------------
def _run_descent(preset):
    mesh = generate_mesh(preset.domain_spec)
    lay = build_spaces(mesh)
    g0 = LevelField.interpolate(mesh, preset.initial_level)
    cost = preset.build_cost(lay)
    return optimize(g0, cost, preset.opt, lay, preset.config)


def _armijo_violations(history, armijo_c):
    bad = 0
    for prev, rec in zip(history, history[1:]):
        if not rec.accepted:
            continue
        bound = prev.j_rho - armijo_c * rec.step * rec.grad_norm2
        if rec.j_rho > bound + 1e-12 * (1.0 + abs(prev.j_rho)):
            bad += 1
    return bad


# 8 ------------------------------------------------------------------
def test_criterion_8_two_disk_descent():
    preset = two_disk_problem()
    t0 = time.perf_counter()
    history, final, snapshots = _run_descent(preset)
    dt = time.perf_counter() - t0
    first, last = history[0], history[-1]
    decrease = 1.0 - last.j_h / first.j_h
    violations = _armijo_violations(history, preset.opt.armijo_c)
    ok = (last.iteration == 200 and decrease >= 0.20 and violations == 0
          and dt < 1800)
    _criterion(8, "two-disk energy descent",
               ok, f"J_h {first.j_h:.3f} -> {last.j_h:.3f} "
                   f"({100 * decrease:.1f}% >= 20%), "
                   f"{violations} Armijo violations, {dt:.0f}s")


# 9 ------------------------------------------------------------------
def test_criterion_9_tracking_descent():
    preset = tracking_problem()
    t0 = time.perf_counter()
    history, final, snapshots = _run_descent(preset)
    dt = time.perf_counter() - t0
    first, last = history[0], history[-1]
    decrease = 1.0 - last.j_h / first.j_h
    ok = decrease >= 0.50 and dt < 2700
    _criterion(9, "tracking descent",
               ok, f"J_h {first.j_h:.4f} -> {last.j_h:.4f} "
                   f"({100 * decrease:.1f}% >= 50%) in {last.iteration} "
                   f"iterations, {dt:.0f}s")


# 10 -----------------------------------------------------------------
def test_criterion_10_penalty_scaling():
    finals = []
    for rho in (10.0, 100.0, 1000.0):
        preset = two_disk_problem(h_mesh=0.07, max_iter=100, rho=rho)
        history, _, _ = _run_descent(preset)
        finals.append(history[-1].constraint_inf)
    ok = all(a >= b for a, b in zip(finals, finals[1:]))
    _criterion(10, "penalty scaling",
               ok, "final |C|_inf " + " >= ".join(f"{v:.2e}" for v in finals)
                   + " across rho = 10, 100, 1000")
