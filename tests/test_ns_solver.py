import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from penflow import (AssemblyConfig, DomainSpec, LevelField,
                     NonconvergenceError, PLAIN_B, SolverError, build_spaces,
                     boundary_flux, compose_disks, compute_norm,
                     extract_submesh, generate_mesh, residual_max_norm,
                     solve_navier_stokes, solve_reference_flux_constrained,
                     solve_stokes)
from penflow import ns_solver
from penflow.fem import assemble_bilinear, assemble_trilinear
from penflow.error_study import restrict_state
from penflow.ns_solver import MixedState, _System
from penflow.presets import (flow_cell_spec, sec31_assembly, sec31_level,
                             sec31_reference, shear_traction)


def _pull(x):
    x = np.asarray(x)
    out = np.zeros(x.shape)
    out[..., 0] = 10.0 * x[..., 1]
    return out


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


def test_nonconvergence_reports_and_raises(small_flow, monkeypatch):
    _, lay, g, cfg = small_flow
    monkeypatch.setattr(ns_solver, "_MAX_NEWTON", 1)
    state, report = solve_navier_stokes(lay, cfg, g)
    assert not report.converged
    assert report.message
    with pytest.raises(NonconvergenceError) as err:
        solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    assert err.value.report.iterations == 1
    # the reference solver always raises, with its report
    preset = sec31_reference(0.1)
    fluid = extract_submesh(
        generate_mesh(preset.domain_spec, conform_to_obstacles=True), "Fluid")
    with pytest.raises(NonconvergenceError) as err:
        solve_reference_flux_constrained(fluid, preset.config)
    assert str(err.value) == ("residual 3.206e-03 above tolerance after 1 "
                              "iterations")
    assert err.value.report.iterations == 1


def test_cold_start_whose_step_fails_reports_nonconvergence(monkeypatch):
    # the first Newton step's linear solve fails after the Stokes start's
    mesh = generate_mesh(flow_cell_spec(0.1))
    lay = build_spaces(mesh)
    g = LevelField.interpolate(mesh, sec31_level())
    cfg = sec31_assembly()
    solve, calls = _System.solve, []

    def solve_once(self, *args):
        calls.append(1)
        if len(calls) == 2:
            raise SolverError("singular bubble block in the linear solve")
        return solve(self, *args)

    monkeypatch.setattr(_System, "solve", solve_once)
    with pytest.raises(NonconvergenceError) as err:
        solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    report = err.value.report
    assert (report.iterations, report.start, report.krylov) == (0, "stokes",
                                                                [0])
    calls.clear()
    state, report = solve_navier_stokes(lay, cfg, g)
    assert not report.converged
    assert report.message == "singular bubble block in the linear solve"


def test_warm_start_at_the_solution_takes_no_stokes_solve(small_flow):
    _, lay, g, cfg = small_flow
    cold, _ = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True,
                                        start=cold)
    assert report.start == "warm" and report.fallback == ""
    assert report.iterations <= 1
    # one linear solve per Newton step, none for a Stokes start
    assert len(report.krylov) == report.iterations
    assert np.abs(state.Y - cold.Y).max() <= 1e-12 * np.abs(cold.Y).max()


def test_warm_start_that_fails_falls_back_to_stokes(small_flow):
    _, lay, g, cfg = small_flow
    cold, cold_report = solve_navier_stokes(lay, cfg, g,
                                            raise_on_failure=True)
    far = MixedState(lay, 1e3 * cold.Y, 1e3 * cold.P)
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True,
                                        start=far)
    assert report.start == "stokes"
    assert report.fallback.startswith("warm start: ")
    # the fallback is the Stokes-started solve, bit for bit
    assert np.array_equal(state.Y, cold.Y) and np.array_equal(state.P, cold.P)
    for key in ("iterations", "residual_norms", "fill", "krylov", "steps"):
        assert getattr(report, key) == getattr(cold_report, key)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_warm_start_whose_step_fails_falls_back_to_stokes():
    # a NaN velocity start makes the first Newton step's linear solve raise
    # (an inf start would warn first); the solve goes on from Stokes
    mesh = generate_mesh(flow_cell_spec(0.1))
    lay = build_spaces(mesh)
    g = LevelField.interpolate(mesh, sec31_level())
    cfg = sec31_assembly()
    cold, cold_report = solve_navier_stokes(lay, cfg, g,
                                            raise_on_failure=True)
    start = MixedState(lay, np.full_like(cold.Y, np.nan), cold.P)
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True,
                                        start=start)
    assert report.start == "stokes"
    assert report.fallback == ("warm start: singular bubble block in the "
                               "linear solve")
    assert report.converged and report.iterations == 3
    assert np.array_equal(state.Y, cold.Y) and np.array_equal(state.P, cold.P)
    assert (report.krylov, report.fill) == (cold_report.krylov,
                                            cold_report.fill)


def test_warm_start_from_another_eps_matches_the_cold_solve(small_flow):
    _, lay, g, cfg = small_flow
    near, _ = solve_navier_stokes(lay, cfg.replace(eps=0.1), g,
                                  raise_on_failure=True)
    cold, cold_report = solve_navier_stokes(lay, cfg, g,
                                            raise_on_failure=True)
    state, report = solve_navier_stokes(lay, cfg, g, raise_on_failure=True,
                                        start=near)
    assert report.start == "warm" and report.fallback == ""
    assert report.iterations < cold_report.iterations
    assert report.final_residual <= 1e-10 * (1.0 + np.abs(
        _System(lay, cfg, g).F).max())
    for got, want in ((state.Y, cold.Y), (state.P, cold.P)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_warm_start_of_a_mismatched_state_raises(small_flow,
                                                 square_disk_conforming):
    _, lay, g, cfg = small_flow
    other = solve_stokes(build_spaces(square_disk_conforming[1]), cfg)
    with pytest.raises(SolverError, match="does not match the layout"):
        solve_navier_stokes(lay, cfg, g, start=other)


def test_reference_solver_annihilates_obstacle_flux(square_disk_conforming):
    _, fluid = square_disk_conforming

    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=_pull,
                         divergence_form=PLAIN_B)
    state, multipliers, report = solve_reference_flux_constrained(fluid, cfg)
    assert report.converged
    assert set(multipliers) == {"Obstacle1"}
    vel = state.velocity_vertices
    assert abs(boundary_flux(fluid, vel, "Obstacle1")) < 1e-12
    assert abs(boundary_flux(fluid, vel, "Gamma1")) < 1e-10
    # walls carry exact zeros, so the hole and inflow fluxes already balance
    assert compute_norm(fluid, state.Y, kind="L2") > 0.01


def test_reference_residual_includes_multiplier_rows(square_disk_conforming):
    _, fluid = square_disk_conforming

    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=_pull,
                         divergence_form=PLAIN_B)
    lay = build_spaces(fluid)
    state, multipliers, report = solve_reference_flux_constrained(fluid, cfg)
    res = residual_max_norm(lay, cfg, None, state,
                            flux_labels=("Obstacle1",),
                            multipliers=multipliers)
    assert res <= 1e-10


def test_reference_warm_start_matches_the_cold_solve(square_disk_conforming):
    full, fluid = square_disk_conforming
    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=_pull,
                         divergence_form=PLAIN_B)
    cold, cold_mult, cold_report = solve_reference_flux_constrained(fluid, cfg)
    # the penalized flow on the full mesh, restricted to the fluid
    lay = build_spaces(full)
    g = LevelField.interpolate(full, compose_disks([(0.5, 0.5)], [0.2],
                                                   signed_distance=True))
    pen, _ = solve_navier_stokes(lay, cfg.replace(eps=0.025), g,
                                 raise_on_failure=True)
    start = MixedState(build_spaces(fluid), *restrict_state(
        lay, fluid, pen.Y, pen.P))
    state, mult, report = solve_reference_flux_constrained(
        fluid, cfg, start=start)
    assert report.start == "warm" and report.fallback == ""
    # fewer linear solves: no Stokes start, and no more Newton steps
    assert len(report.krylov) < len(cold_report.krylov)
    for got, want in ((state.Y, cold.Y), (state.P, cold.P)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    scale = max(abs(v) for v in cold_mult.values())
    assert all(abs(mult[k] - v) <= 1e-10 * scale
               for k, v in cold_mult.items())


def _saddle_matrix(sysm, Y):
    """The full saddle matrix from the public assemblers, rows replaced.

    [[A + C1(Y) + C2(Y), B^T, R^T], [B, 0, 0], [R, 0, 0]] (no C for Y None)
    with every Dirichlet row an identity row.
    """
    lay = sysm.layout
    A, B = assemble_bilinear(lay, sysm.config, sysm.g, sysm.coeffs)
    if Y is not None:
        C1, C2 = assemble_trilinear(lay, sysm.config, sysm.g, Y, sysm.coeffs)
        A = A + C1 + C2
    blocks = [[A, B.T], [B, None]]
    if sysm.n_flux:
        R = sp.csr_matrix(sysm.flux_rows)
        blocks[0].append(R.T)
        blocks[1].append(None)
        blocks.append([R, sp.csr_matrix((sysm.n_flux, lay.N2)), None])
    K = sp.bmat(blocks, format="csr")
    keep = np.ones(K.shape[0])
    keep[sysm.layout.dirichlet_dofs] = 0.0
    return (sp.diags(keep) @ K + sp.diags(1.0 - keep)).tocsr()


def _schur_complement(sysm, K):
    """Kr[:, r] - Kr[:, b] Kbb^-1 Kbr for the bubble DOFs b of K and the
    others r in the condensed pattern's order.

    Kbb couples the x and y bubble of each triangle only, offset T.
    """
    T, V, N1 = sysm.layout.T, sysm.layout.V, sysm.layout.N1
    b = np.concatenate([V + np.arange(T), N1 + V + np.arange(T)])
    r = sysm._pattern.order
    Kb, Kr = K[b], K[r]
    Kbb = Kb[:, b]
    xx, yy = np.split(Kbb.diagonal(), 2)
    blocks = np.stack([xx, Kbb.diagonal(T), Kbb.diagonal(-T), yy], axis=1)
    inv = np.linalg.inv(blocks.reshape(-1, 2, 2)).reshape(-1, 4).T
    inv = sp.bmat([[sp.diags(inv[0]), sp.diags(inv[1])],
                   [sp.diags(inv[2]), sp.diags(inv[3])]], format="csr")
    return (Kr[:, r] - Kr[:, b] @ inv @ Kb[:, r]).tocsr()


@pytest.fixture(scope="module")
def sec31_newton(flow_cell_coarse_layout):
    """The sec31 penalized system and the Stokes velocity."""
    lay = flow_cell_coarse_layout
    g = LevelField.interpolate(lay.mesh, sec31_level())
    cfg = sec31_assembly()
    return _System(lay, cfg, g), solve_stokes(lay, cfg, g).Y


def _reference_system(square_disk_conforming):
    """The flux-constrained reference system and its Stokes velocity."""
    _, fluid = square_disk_conforming
    cfg = AssemblyConfig(nu=1.0, eps=0.0, traction=_pull,
                         divergence_form=PLAIN_B)
    lay = build_spaces(fluid)
    return (_System(lay, cfg, None, flux_labels=("Obstacle1",)),
            solve_stokes(lay, cfg, None, flux_labels=("Obstacle1",)).Y)


def _small_eps_system(layout, eps):
    """The sec31 system at a converged Newton state with a small eps."""
    g = LevelField.interpolate(layout.mesh, sec31_level())
    cfg = sec31_assembly(eps=eps)
    state, _ = solve_navier_stokes(layout, cfg, g, raise_on_failure=True)
    return _System(layout, cfg, g), state.Y


def _case_system(case, sec31_newton, layout, square_disk_conforming):
    if case == "sec31-jacobian":
        return sec31_newton
    if case == "flux-reference":
        return _reference_system(square_disk_conforming)
    return _small_eps_system(layout, float(case[4:]))


@pytest.mark.parametrize("case", ["sec31-jacobian", "flux-reference",
                                  "eps=1e-3", "eps=1e-6"])
def test_condensed_solve_matches_full_spsolve(case, sec31_newton,
                                              flow_cell_coarse_layout,
                                              square_disk_conforming, rng):
    sysm, Y = _case_system(case, sec31_newton, flow_cell_coarse_layout,
                           square_disk_conforming)
    if case == "flux-reference":
        Y = None  # the Stokes matrix of the reference solve's start
    K = _saddle_matrix(sysm, Y)
    rhs = rng.standard_normal(K.shape[0])
    # small eps makes K ill-conditioned; elsewhere compare forward too
    want = None if case.startswith("eps=") else spla.spsolve(K, rhs)
    # the first solve factors, the second solves by GMRES on that factor
    sysm._factor = None
    for krylov in (False, True):
        got = sysm.solve(sysm.element_blocks(Y), rhs)
        assert (sysm.krylov[-1] > 0) is krylov
        # normwise backward error, which does not grow with cond(K)
        scale = abs(K).sum(axis=1).max() * np.abs(got).max() \
            + np.abs(rhs).max()
        assert np.abs(K @ got - rhs).max() <= 1e-14 * scale
        if want is not None:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["sec31-jacobian", "flux-reference"])
def test_condensed_matrix_matches_schur_complement(case, sec31_newton,
                                                   flow_cell_coarse_layout,
                                                   square_disk_conforming):
    sysm, Y = _case_system(case, sec31_newton, flow_cell_coarse_layout,
                           square_disk_conforming)
    want = _schur_complement(sysm, _saddle_matrix(sysm, Y))
    got = sysm.condense(sysm.element_blocks(Y))[0]
    assert got.shape == want.shape
    assert abs(got - want).max() <= 1e-12 * abs(want).max()
    # the fixed pattern is the complement's: same ordering and fill
    assert got.nnz == want.nnz


def test_bubble_block_stays_per_triangle(sec31_newton):
    sysm, Y = sec31_newton
    lay = sysm.layout
    bub = lay.V + np.arange(lay.T)
    b = np.concatenate([bub, bub + lay.N1])
    # the condensation inverts only the 2x2 block of each triangle
    assert _saddle_matrix(sysm, Y)[b][:, b].nnz <= 4 * lay.T


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_bubble_block_raises_solver_error(sec31_newton, bad):
    sysm, Y = sec31_newton
    vel, b = sysm.element_blocks(Y)
    b = b.copy()  # element_blocks shares b between calls
    # the x-bubble row of triangle 7 (b also holds its column)
    vel[0, 3, ..., 7] = 0.0
    b[:, 0, 3, 7] = 0.0
    vel[0, 3, 0, 3, 7] = bad
    with pytest.raises(SolverError, match="bubble"):
        sysm.solve((vel, b), np.ones(len(Y) + sysm.layout.N2))


def test_singular_saddle_system_raises_solver_error(sec31_newton):
    sysm, Y = sec31_newton
    lay = sysm.layout
    free = np.setdiff1d(np.arange(lay.V), lay.dirichlet_vertices)
    vel, b = sysm.element_blocks(Y)
    b = b.copy()  # element_blocks shares b between calls
    # a vertex x-velocity row, zero in every triangle (b also holds its
    # column): GMRES on a kept factor cannot meet its bound, and the factor
    # is singular
    t, a = np.nonzero(lay.mesh.triangles == free[0])
    vel[0, a, ..., t] = 0.0
    b[:, 0, a, t] = 0.0
    with pytest.raises(SolverError, match="singular saddle system"):
        sysm.solve((vel, b), np.ones(len(Y) + lay.N2))


def test_newton_report_records_factor_fill(sec31_newton):
    sysm, _ = sec31_newton
    _, report = solve_navier_stokes(sysm.layout, sysm.config, sysm.g,
                                    raise_on_failure=True)
    # one linear solve for the Stokes start, then one per Newton step; the
    # Stokes start factors, every step solves by GMRES on that factor
    assert len(report.krylov) == report.iterations + 1
    assert report.krylov.count(0) == len(report.fill) == 1
    assert report.krylov[0] == 0
    # L+U nonzeros of the condensed complement's factor, as when each solve
    # factored
    assert report.fill == [335_591]
    # the Newton path on this cell: three full steps, and the GMRES
    # iterations of each on the Stokes factor
    assert report.iterations == 3 and report.steps == [1.0, 1.0, 1.0]
    assert report.krylov == [0, 6, 8, 8]


def test_pattern_is_ordered_once(flow_cell_coarse, monkeypatch):
    lay = build_spaces(flow_cell_coarse)  # a layout with no pattern yet
    g = LevelField.interpolate(lay.mesh, sec31_level())
    pat = _System(lay, sec31_assembly(), g)._pattern
    built = {k: v.copy() for k, v in vars(pat).items()
             if isinstance(v, np.ndarray)}
    specs, factor = [], spla.splu

    def splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return factor(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(ns_solver.spla, "splu", splu)
    for _ in range(2):
        _, report = solve_navier_stokes(lay, sec31_assembly(), g,
                                        raise_on_failure=True)
        # one factor per Newton solve, in the pattern's own order
        assert report.fill == [335_591]
        assert len(report.krylov) == report.iterations + 1
    assert specs == ["NATURAL", "NATURAL"]
    # the solves use the pattern as it was built and never change it
    assert list(lay._patterns.values()) == [pat]
    for k, v in built.items():
        assert np.array_equal(getattr(pat, k), v), k


def test_pattern_order_is_a_nested_dissection_of_the_mesh(
        square_disk_conforming):
    _, fluid = square_disk_conforming
    lay = build_spaces(fluid)
    sysm = _System(lay, AssemblyConfig(nu=1.0, eps=0.0), None,
                   flux_labels=("Obstacle1",))
    pat, V, N1 = sysm._pattern, lay.V, lay.N1
    order = pat.order
    # a permutation of the saddle vector's DOFs without the bubbles
    keep = np.setdiff1d(np.arange(2 * N1 + lay.N2 + 1),
                        np.r_[V:N1, N1 + V:2 * N1])
    assert np.array_equal(np.sort(order), keep)
    # u_x, u_y and p of each vertex adjacent, the multiplier last
    verts = order[:3 * V:3]
    assert np.array_equal(order[:3 * V].reshape(V, 3),
                          verts[:, None] + [0, N1, 2 * N1])
    assert order[-1] == 2 * N1 + V
    # the same order for a second build of the same mesh
    again = ns_solver._Pattern(lay, sysm.flux_rows)
    assert np.array_equal(again.order, order)
    assert np.array_equal(again.indices, pat.indices)
    # the first split: the upper half at the median of the longer axis,
    # after the rest of the lower half, then the separator
    xy = fluid.vertices
    axis = np.ptp(xy, axis=0).argmax()
    upper = np.lexsort((np.arange(V), xy[:, axis]))[V // 2:]
    a, b = fluid.edges().T
    is_upper = np.isin(np.arange(V), upper)
    cut = is_upper[a] != is_upper[b]
    sep = np.unique(np.where(is_upper[a[cut]], b[cut], a[cut]))
    s = len(sep)
    assert 0 < s < V // 4
    assert np.array_equal(np.sort(verts[-s:]), sep)
    assert np.array_equal(np.sort(verts[V // 2 - s:V - s]), np.sort(upper))
    # without the separator, no mesh edge joins the two halves
    half = np.full(V, -1)
    half[verts[:V // 2 - s]], half[upper] = 0, 1
    assert not np.any((half[a] >= 0) & (half[b] >= 0) & (half[a] != half[b]))


def test_equilibrated_reference_factor_keeps_fill_low():
    preset = sec31_reference()
    fluid = extract_submesh(
        generate_mesh(preset.domain_spec, conform_to_obstacles=True), "Fluid")
    lay = build_spaces(fluid)
    labels = sorted(s for s in fluid.labels() if s.startswith("Obstacle"))
    sysm = _System(lay, preset.config, None, flux_labels=labels)
    sysm.solve(sysm.element_blocks(),
               np.ones(2 * lay.N1 + lay.N2 + len(labels)))
    # the two zero-diagonal multiplier rows fail the diagonal pivot test
    # unless the complement is scaled: 8,180,537 unscaled, 3,907,536 scaled
    assert sysm.fill[0] <= 4_200_000


@pytest.mark.parametrize("case", ["sec31-jacobian", "flux-reference"])
def test_newton_residual_matches_assembled_forms(case, sec31_newton,
                                                 square_disk_conforming, rng):
    if case == "sec31-jacobian":
        sysm = sec31_newton[0]
    else:
        sysm = _reference_system(square_disk_conforming)[0]
    lay = sysm.layout
    dirs = lay.dirichlet_dofs
    Y = rng.standard_normal(2 * lay.N1)
    P = rng.standard_normal(lay.N2)
    L = rng.standard_normal(sysm.n_flux)
    A, B = assemble_bilinear(lay, sysm.config, sysm.g, sysm.coeffs)
    C1, _ = assemble_trilinear(lay, sysm.config, sysm.g, Y, sysm.coeffs)
    mom = A @ Y + C1 @ Y + B.T @ P - sysm.F
    mom += sum(L[k] * r for k, r in enumerate(sysm.flux_rows))
    mom[dirs] = Y[dirs]
    want = np.concatenate([mom, B @ Y, [r @ Y for r in sysm.flux_rows]])
    got, _ = sysm.residual(np.concatenate([Y, P, L]))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _newton_system(case, layout, square_disk_conforming):
    """A fresh system of each kind _newton solves."""
    if case == "flux-reference":
        return _reference_system(square_disk_conforming)[0]
    eps = 0.025 if case == "sec31" else float(case[4:])
    g = LevelField.interpolate(layout.mesh, sec31_level())
    return _System(layout, sec31_assembly(eps=eps), g)


@pytest.mark.parametrize("case", ["sec31", "flux-reference", "eps=1e-6"])
def test_krylov_newton_matches_factoring_every_step(
        case, flow_cell_coarse_layout, square_disk_conforming, monkeypatch):
    runs, full = {}, ns_solver._KRYLOV_BUDGET
    # a budget of 0 factors every linear solve; 1 is too small to converge,
    # even at the looser bound of a late Newton step, so every solve falls
    # back to a factor
    for budget in (full, 0, 1):
        monkeypatch.setattr(ns_solver, "_KRYLOV_BUDGET", budget)
        sysm = _newton_system(case, flow_cell_coarse_layout,
                              square_disk_conforming)
        state, L, report = ns_solver._newton(sysm)
        assert report.converged
        runs[budget] = np.concatenate([state.Y, state.P, L]), report
    x0, factored = runs.pop(0)
    assert factored.krylov == [0] * (factored.iterations + 1)
    for budget, (x, report) in runs.items():
        assert report.iterations == factored.iterations
        assert len(report.krylov) == report.iterations + 1
        assert report.krylov.count(0) == len(report.fill)
        # each factor has the fill of the factor of the same solve
        assert report.fill == [f for f, k in zip(factored.fill, report.krylov)
                               if k == 0]
        assert np.abs(x - x0).max() <= 1e-12 * np.abs(x0).max()
    # one factor per Newton solve, unless the budget forbids GMRES
    assert len(runs[1][1].fill) == factored.iterations + 1
    assert len(runs[full][1].fill) == 1


@pytest.mark.parametrize("case", ["sec31", "eps=1e-6"])
def test_forcing_term_loosens_the_first_step_and_keeps_the_newton_path(
        case, flow_cell_coarse_layout, monkeypatch):
    runs = {}
    for forcing in (ns_solver._FORCING, 0.0):  # 0: every step to _KRYLOV_TOL
        monkeypatch.setattr(ns_solver, "_FORCING", forcing)
        sysm = _newton_system(case, flow_cell_coarse_layout, None)
        runs[forcing] = ns_solver._newton(sysm)[2]
    report, full = runs.values()
    assert report.converged and full.converged
    assert report.iterations == full.iterations >= 3
    assert report.steps == full.steps == [1.0] * report.iterations
    # the Stokes start factors; the first Newton step, far from the
    # solution, stops GMRES earlier than the full bound does
    assert report.krylov[0] == full.krylov[0] == 0
    assert report.krylov[1] < full.krylov[1]


def test_gmres_meets_the_bound_it_is_given(monkeypatch):
    # a small well-conditioned sparse system, preconditioned by the factor
    # of a nearby one, as GMRES on a kept factor sees it
    rng = np.random.default_rng(3)
    A0 = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(200, 200),
                  format="csc")
    E = sp.random(200, 200, density=0.02, random_state=rng, format="csc")
    A = (A0 + 0.3 * E).tocsr()
    precondition = spla.splu(A0).solve
    b = rng.standard_normal(200)
    norm_A = np.linalg.norm(A.toarray(), 2)
    its = []
    for tol in (1e-15, 1e-12, 1e-8, 1e-4):
        x, k = ns_solver._gmres(lambda v: A @ v, precondition, b, norm_A, tol)
        assert x is not None
        res = np.linalg.norm(b - A @ x)
        assert res <= tol * (norm_A * np.linalg.norm(x) + np.linalg.norm(b))
        its.append(k)
    # a looser bound never takes more iterations
    assert its == sorted(its, reverse=True)
    assert its[1] < its[0] and its[-1] < its[1]
    # an exhausted budget returns no solution
    monkeypatch.setattr(ns_solver, "_KRYLOV_BUDGET", its[0] - 1)
    x, k = ns_solver._gmres(lambda v: A @ v, precondition, b, norm_A, 1e-15)
    assert x is None and k == its[0] - 1


def test_gmres_goes_on_when_its_solution_misses_the_bound():
    # a nonnormal system whose second iterate is shorter than the first: at
    # this bound, the second iterate's residual meets the bound taken with
    # the first iterate's norm but not the one taken with its own
    A = np.array([[1.0, -1.0, 3.0], [-1.0, 4.0, -1.0], [1.0, -1.0, 1.0]])
    b = np.array([1.0, 0.0, 0.0])
    norm_A = np.linalg.norm(A, 2)
    x1 = (b @ A @ b) / np.sum((A @ b) ** 2) * b
    Q = np.linalg.qr(np.column_stack([b, A @ b]))[0]
    x2 = Q @ np.linalg.lstsq(A @ Q, b, rcond=None)[0]
    r2 = np.linalg.norm(b - A @ x2)
    tol = 1.005 * r2 / (norm_A * np.linalg.norm(x1) + 1.0)
    assert np.linalg.norm(b - A @ x1) > 1.01 * r2
    assert r2 > 1.5 * tol * (norm_A * np.linalg.norm(x2) + 1.0)
    x, k = ns_solver._gmres(lambda v: A @ v, lambda r: r, b, norm_A, tol)
    assert k == 3
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-14


@pytest.mark.parametrize("case", ["sec31-jacobian", "eps=1e-6"])
def test_krylov_solve_on_the_stokes_factor_matches_full_spsolve(
        case, sec31_newton, flow_cell_coarse_layout, square_disk_conforming,
        rng):
    sysm, Y = _case_system(case, sec31_newton, flow_cell_coarse_layout,
                           square_disk_conforming)
    K = _saddle_matrix(sysm, Y)
    rhs = rng.standard_normal(K.shape[0])
    sysm.solve(sysm.element_blocks(), rhs)  # keeps the Stokes factor
    got = sysm.solve(sysm.element_blocks(Y), rhs)
    assert sysm.krylov[-2] == 0 < sysm.krylov[-1]
    # the bounds of test_condensed_solve_matches_full_spsolve
    scale = abs(K).sum(axis=1).max() * np.abs(got).max() + np.abs(rhs).max()
    assert np.abs(K @ got - rhs).max() <= 1e-14 * scale
    if not case.startswith("eps="):
        want = spla.spsolve(K, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
