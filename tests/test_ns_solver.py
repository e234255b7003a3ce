import numpy as np
import pytest
import scipy.sparse.linalg as spla

from penflow import (AssemblyConfig, DomainSpec, LevelField,
                     NonconvergenceError, PLAIN_B, SolverError, build_spaces,
                     boundary_flux, compose_disks, compute_norm,
                     generate_mesh, residual_max_norm, solve_navier_stokes,
                     solve_reference_flux_constrained, solve_stokes)
from penflow.fem import (_velocity_at_quad, assemble_trilinear,
                         convection_vector)
from penflow.ns_solver import _System
from penflow.presets import sec31_assembly, sec31_level, shear_traction


@pytest.fixture(scope="module")
def small_flow():
    """Benchmark-like flow cell at very coarse resolution with one disk."""
    mesh = generate_mesh(DomainSpec(outer="flow-cell", h_mesh=0.09,
                                    obstacles=(("disk", (0.5, 0.25), 0.15),)))
    lay = build_spaces(mesh)
    g = LevelField.interpolate(
        mesh, compose_disks([(0.5, 0.25)], [0.15], signed_distance=True))
    cfg = AssemblyConfig(nu=1.0, eps=0.025, traction=shear_traction,
                         divergence_form=PLAIN_B)
    return mesh, lay, g, cfg


def test_newton_converges_quickly_from_stokes_start(small_flow):
    _, lay, g, cfg = small_flow
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    assert report.converged
    assert report.iterations <= 5
    norms = report.residual_norms
    assert norms[-1] <= 1e-10 * (1.0 + norms[0])
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_reported_residual_matches_independent_evaluation(small_flow):
    _, lay, g, cfg = small_flow
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    check = residual_max_norm(lay, cfg, g, state)
    assert check == report.final_residual


def test_wall_velocity_is_exactly_zero(small_flow):
    _, lay, g, cfg = small_flow
    state, _ = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    wall = lay.dirichlet_vertices
    assert np.all(state.Y[wall] == 0.0)
    assert np.all(state.Y[lay.N1 + wall] == 0.0)
    assert np.abs(state.Y).max() > 1.0  # and the flow itself is not trivial


def test_outer_fluxes_balance_exactly(small_flow):
    mesh, lay, g, cfg = small_flow
    state, _ = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    vel = state.velocity_vertices
    total = sum(boundary_flux(mesh, vel, lab) for lab in mesh.labels())
    # the plain divergence form makes the discrete net flux vanish
    assert abs(total) < 1e-10


def test_large_viscosity_approaches_stokes_flow(small_flow):
    _, lay, g, _ = small_flow
    cfg = AssemblyConfig(nu=200.0, eps=0.025, traction=shear_traction,
                         divergence_form=PLAIN_B)
    stokes = solve_stokes(lay, cfg, g)
    ns, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    rel = np.linalg.norm(ns.Y - stokes.Y) / np.linalg.norm(stokes.Y)
    assert rel < 1e-4
    assert report.iterations <= 3


def test_nonconvergence_reports_and_raises(small_flow):
    _, lay, g, cfg = small_flow
    state, report = solve_navier_stokes(lay, cfg, g, max_iter=1)
    assert not report.converged
    assert report.message
    with pytest.raises(NonconvergenceError) as err:
        solve_navier_stokes(lay, cfg, g, max_iter=1, raise_on_failure=True)
    assert err.value.report.iterations == 1


def test_reference_solver_annihilates_obstacle_flux(square_disk_conforming):
    _, fluid = square_disk_conforming

    def pull(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = 10.0 * x[..., 1]
        return out

    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=pull,
                         divergence_form=PLAIN_B)
    state, multipliers, report = solve_reference_flux_constrained(
        fluid, cfg, raise_on_failure=True)
    assert report.converged
    assert set(multipliers) == {"Obstacle1"}
    vel = state.velocity_vertices
    assert abs(boundary_flux(fluid, vel, "Obstacle1")) < 1e-12
    assert abs(boundary_flux(fluid, vel, "Gamma1")) < 1e-10
    # walls carry exact zeros, so the hole and inflow fluxes already balance
    assert compute_norm(fluid, state.Y, kind="L2") > 0.01


def test_reference_residual_includes_multiplier_rows(square_disk_conforming):
    _, fluid = square_disk_conforming

    def pull(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = 10.0 * x[..., 1]
        return out

    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=pull,
                         divergence_form=PLAIN_B)
    lay = build_spaces(fluid)
    state, multipliers, report = solve_reference_flux_constrained(
        fluid, cfg, raise_on_failure=True)
    res = residual_max_norm(lay, cfg, None, state,
                            flux_labels=("Obstacle1",),
                            multipliers=multipliers)
    assert res <= 1e-10


def test_driven_cavity_with_pinned_pressure():
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.2))
    lay = build_spaces(mesh, dirichlet_labels=("Gamma1", "Gamma2", "Gamma3",
                                               "Gamma4"))

    def lid(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = np.where(x[..., 1] > 1.0 - 1e-12, 1.0, 0.0)
        return out

    cfg = AssemblyConfig(nu=1.0, eps=0.0, pin_pressure=True)
    state, report = solve_navier_stokes(lay, cfg, None, dirichlet=lid,
                                        raise_on_failure=True)
    assert report.converged
    top = np.unique(mesh.edges_with_label("Gamma4"))
    assert np.allclose(state.Y[top], 1.0)
    assert np.isfinite(state.P).all()
    # interior swirl driven by the moving lid
    assert compute_norm(mesh, state.Y, kind="L2") > 0.05


def _lid(x):
    x = np.asarray(x)
    out = np.zeros(x.shape)
    out[..., 0] = np.where(x[..., 1] > 1.0 - 1e-12, 1.0, 0.0)
    return out


@pytest.fixture(scope="module")
def sec31_newton(flow_cell_coarse_layout):
    """The sec31 penalized system and its Jacobian at the Stokes velocity."""
    lay = flow_cell_coarse_layout
    g = LevelField.interpolate(lay.mesh, sec31_level())
    cfg = sec31_assembly()
    sysm = _System(lay, cfg, g)
    Y = solve_stokes(lay, cfg, g).Y
    return sysm, Y, sysm.jacobian(Y)


def _reference_system(square_disk_conforming):
    _, fluid = square_disk_conforming
    cfg = AssemblyConfig(nu=1.0, eps=0.0, divergence_form=PLAIN_B)
    sysm = _System(build_spaces(fluid), cfg, None, flux_labels=("Obstacle1",))
    return sysm, sysm.matrix(sysm.A)


def _cavity_system():
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.2))
    lay = build_spaces(mesh, dirichlet_labels=("Gamma1", "Gamma2", "Gamma3",
                                               "Gamma4"))
    cfg = AssemblyConfig(nu=1.0, eps=0.0, pin_pressure=True)
    sysm = _System(lay, cfg, None)
    Y = solve_navier_stokes(lay, cfg, None, dirichlet=_lid)[0].Y
    return sysm, sysm.jacobian(Y)


@pytest.mark.parametrize("case", ["sec31-jacobian", "flux-reference",
                                  "pinned-cavity"])
def test_condensed_solve_matches_full_spsolve(case, sec31_newton,
                                              square_disk_conforming, rng):
    if case == "sec31-jacobian":
        sysm, _, K = sec31_newton
    elif case == "flux-reference":
        sysm, K = _reference_system(square_disk_conforming)
    else:
        sysm, K = _cavity_system()
    rhs = rng.standard_normal(K.shape[0])
    want = spla.spsolve(K, rhs)
    got = sysm.solve(K, rhs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_bubble_block_stays_per_triangle(sec31_newton):
    sysm, _, K = sec31_newton
    lay = sysm.layout
    bub = lay.V + np.arange(lay.T)
    b = np.concatenate([bub, bub + lay.N1])
    # the condensation inverts only the 2x2 block of each triangle
    assert K.tocsr()[b][:, b].nnz <= 4 * lay.T


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_bubble_block_raises_solver_error(sec31_newton, bad):
    sysm, _, K = sec31_newton
    K = K.tolil()
    k = sysm.layout.V + 7  # x bubble of triangle 7
    K[k, :] = 0.0
    K[k, k] = bad
    with pytest.raises(SolverError, match="bubble"):
        sysm.solve(K.tocsc(), np.ones(K.shape[0]))


def test_convection_vector_matches_matrix_product(sec31_newton):
    sysm, Y, _ = sec31_newton
    lay, cfg, g, co = sysm.layout, sysm.config, sysm.g, sysm.coeffs
    C1, _ = assemble_trilinear(lay, cfg, g, Y, co)
    got = convection_vector(lay, cfg, co, Y)
    # bound each entry by the sum of its quadrature terms' magnitudes
    geom = lay.geometry(cfg.quadrature_order)
    wa = geom["weights"][None, :] * geom["area"][:, None] * np.abs(co.conv)
    uq, gu = _velocity_at_quad(lay, geom, Y)
    ugu = np.abs(np.einsum("tqd,tqcd->tqc", uq, gu))
    ugn = np.abs(np.einsum("tqd,tqad->tqa", uq, geom["grads"]))
    loc = (np.einsum("tq,tqc,qb->tcb", wa, ugu, np.abs(geom["vals"]))
           + np.einsum("tq,tqb,tqc->tcb", wa, ugn, np.abs(uq)))
    idx = np.arange(2)[None, :, None] * lay.N1 + lay.cell_dofs[:, None, :]
    scale = np.bincount(idx.ravel(), loc.ravel(), minlength=2 * lay.N1)
    assert np.all(np.abs(got - C1 @ Y) <= 1e-13 * scale)
