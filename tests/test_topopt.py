import numpy as np
import pytest

import penflow.topopt
from penflow import (AssemblyConfig, ConfigurationError, CostSpec,
                     DISSIPATED_ENERGY, DomainSpec, IterateRecord, LevelField,
                     OptConfig, OptVector, PENALIZED_B, PLAIN_B, TRACKING,
                     build_spaces, compose_disks, constraint_jacobian,
                     constraint_residual, cost_and_gradient, generate_mesh,
                     history_to_csv, obstacle_component_count, optimize,
                     penalized_value_and_gradient, solve_navier_stokes,
                     SolverError)
from penflow import presets
from penflow.fem import (assemble_bilinear, assemble_load,
                         assemble_trilinear)
from penflow.presets import shear_traction


def _body(x):
    x = np.asarray(x)
    return np.stack([np.full(x.shape[:-1], 0.3),
                     np.full(x.shape[:-1], -0.2)], axis=-1)


def _pull(x):
    x = np.asarray(x)
    out = np.zeros(x.shape)
    out[..., 0] = 1.0
    return out


@pytest.fixture(scope="module")
def fd_setting():
    """A mesh small enough that dense central differences stay cheap."""
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.34))
    lay = build_spaces(mesh)
    cfg = AssemblyConfig(nu=1.0, eps=0.01, body_force=_body, traction=_pull,
                         divergence_form=PENALIZED_B)
    total_dofs = lay.N
    assert total_dofs <= 200
    return lay, cfg


def _random_admissible(lay, cfg, rng, level=None):
    mesh = lay.mesh
    g0 = level or compose_disks([(0.5, 0.5)], [0.25], signed_distance=True)
    G = g0(mesh.vertices) + 0.05 * rng.standard_normal(lay.N3)
    boundary = np.unique(mesh.boundary_edges.ravel())
    G[boundary] = -np.abs(G[boundary]) - 0.05
    Y = 0.3 * rng.standard_normal(2 * lay.N1)
    P = 0.3 * rng.standard_normal(lay.N2)
    return OptVector(lay, Y, P, G)


def _central_difference_jacobian(X, lay, cfg, step=1e-6):
    x0 = X.as_vector()
    cols = []
    for i in range(len(x0)):
        h = step * (1.0 + abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        rp = constraint_residual(OptVector.from_vector(lay, xp), lay, cfg)
        rm = constraint_residual(OptVector.from_vector(lay, xm), lay, cfg)
        cols.append((rp - rm) / (2.0 * h))
    return np.array(cols).T


def test_constraint_jacobian_matches_central_differences(fd_setting, rng):
    lay, cfg = fd_setting
    for _ in range(2):
        X = _random_admissible(lay, cfg, rng)
        J = constraint_jacobian(X, lay, cfg).toarray()
        F = _central_difference_jacobian(X, lay, cfg)
        scale = max(np.abs(F).max(), 1.0)
        assert np.abs(J - F).max() / scale < 1e-6


@pytest.mark.parametrize("kind", [DISSIPATED_ENERGY, TRACKING])
@pytest.mark.parametrize("rho", [0.0, 0.8])
def test_penalized_gradient_matches_central_differences(fd_setting, rng,
                                                        kind, rho):
    lay, cfg = fd_setting
    if kind == TRACKING:
        target = 0.1 * rng.standard_normal(2 * lay.N1)
        spec = CostSpec(TRACKING, target=target)
    else:
        spec = CostSpec(DISSIPATED_ENERGY)
    X = _random_admissible(lay, cfg, rng)
    value, grad = penalized_value_and_gradient(X, spec, rho, lay, cfg)
    x0 = X.as_vector()
    idx = rng.choice(len(x0), size=25, replace=False)
    for i in idx:
        h = 1e-6 * (1.0 + abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        vp, _ = penalized_value_and_gradient(
            OptVector.from_vector(lay, xp), spec, rho, lay, cfg)
        vm, _ = penalized_value_and_gradient(
            OptVector.from_vector(lay, xm), spec, rho, lay, cfg)
        fd = (vp - vm) / (2.0 * h)
        assert abs(fd - grad[i]) < 1e-5 * max(1.0, abs(fd))


@pytest.fixture(scope="module", params=["penalized", "plain", "test1"])
def equivalence_setting(request, fd_setting):
    """(layout, config, level) on which the matrix-free paths are checked."""
    lay, cfg = fd_setting
    if request.param == "penalized":
        return lay, cfg, None
    if request.param == "plain":
        return lay, cfg.replace(divergence_form=PLAIN_B), None
    problem = presets.test1_problem(h_mesh=0.08)
    lay = build_spaces(generate_mesh(problem.domain_spec))
    return lay, problem.config, problem.initial_level


def _assembled_constraint(X, lay, cfg):
    g = X.level_field()
    A, B = assemble_bilinear(lay, cfg, g)
    C1, _ = assemble_trilinear(lay, cfg, g, X.Y)
    mom = A @ X.Y + C1 @ X.Y + B.T @ X.P - assemble_load(lay, cfg, g)
    mom[lay.dirichlet_dofs] = X.Y[lay.dirichlet_dofs]
    return np.concatenate([mom, B @ X.Y])


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_matrix_free_constraint_matches_assembled_forms(equivalence_setting,
                                                        rng):
    lay, cfg, level = equivalence_setting
    X = _random_admissible(lay, cfg, rng, level)
    C = constraint_residual(X, lay, cfg)
    assert _relative_gap(C, _assembled_constraint(X, lay, cfg)) < 1e-12


def test_adjoint_matches_assembled_jacobian_transpose(equivalence_setting,
                                                      rng):
    lay, cfg, level = equivalence_setting
    X = _random_admissible(lay, cfg, rng, level)
    J = constraint_jacobian(X, lay, cfg)
    c = rng.standard_normal(lay.M)
    adjoint = penflow.topopt._Forms(X, lay, cfg).adjoint(c)
    assert _relative_gap(adjoint, J.T @ c) < 1e-12
    # the penalized gradient carries rho jac^T C on top of grad J_h
    spec, rho = CostSpec(DISSIPATED_ENERGY), 0.8
    _, plain = penalized_value_and_gradient(X, spec, 0.0, lay, cfg)
    _, penalized = penalized_value_and_gradient(X, spec, rho, lay, cfg)
    want = rho * (J.T @ constraint_residual(X, lay, cfg))
    assert _relative_gap(penalized - plain, want) < 1e-12


def test_descent_values_assemble_no_matrix(fd_setting, rng, monkeypatch):
    lay, cfg = fd_setting
    X = _random_admissible(lay, cfg, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("the descent must not assemble a matrix")

    for name in ("assemble_bilinear", "assemble_trilinear"):
        monkeypatch.setattr(penflow.topopt, name, forbidden)
    assert np.all(np.isfinite(constraint_residual(X, lay, cfg)))
    value, grad = penalized_value_and_gradient(X, CostSpec(DISSIPATED_ENERGY),
                                               0.8, lay, cfg)
    assert np.isfinite(value) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("kind", [DISSIPATED_ENERGY, TRACKING])
def test_cost_gradient_in_velocity_matches_central_differences(fd_setting,
                                                               rng, kind):
    """J_h is quadratic in Y, so central differences are exact up to
    rounding and pin the velocity block of the cost gradient tightly."""
    lay, cfg = fd_setting
    spec = CostSpec(kind, target=0.1 * rng.standard_normal(2 * lay.N1)
                    if kind == TRACKING else None)
    X = _random_admissible(lay, cfg, rng)
    _, grad = cost_and_gradient(X, spec, lay, cfg)
    x0, h = X.as_vector(), 1e-2
    fd = np.empty(2 * lay.N1)
    for i in range(len(fd)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (cost_and_gradient(OptVector.from_vector(lay, xp), spec,
                                   lay, cfg)[0]
                 - cost_and_gradient(OptVector.from_vector(lay, xm), spec,
                                     lay, cfg)[0]) / (2.0 * h)
    assert np.abs(fd - grad[:2 * lay.N1]).max() <= 1e-9 * np.abs(fd).max()


def test_dissipated_energy_of_linear_shear_is_exact(fd_setting):
    lay, cfg = fd_setting
    mesh = lay.mesh
    # y = (x2, 0): e(y) has two off-diagonal entries 1/2, so e:e = 1/2
    Y = np.zeros(2 * lay.N1)
    Y[:lay.V] = mesh.vertices[:, 1]
    X = OptVector(lay, Y, np.zeros(lay.N2), -np.ones(lay.N3))
    value, _ = cost_and_gradient(X, CostSpec(DISSIPATED_ENERGY), lay, cfg)
    assert np.isclose(value, 0.5, atol=1e-12)


def test_tracking_cost_vanishes_on_target(fd_setting, rng):
    lay, cfg = fd_setting
    target = rng.standard_normal(2 * lay.N1)
    X = OptVector(lay, target.copy(), np.zeros(lay.N2), -np.ones(lay.N3))
    value, grad = cost_and_gradient(X, CostSpec(TRACKING, target=target),
                                    lay, cfg)
    assert value == 0.0
    assert np.allclose(grad[:2 * lay.N1], 0.0)


def test_solved_flow_has_tiny_constraint_residual(fd_setting):
    lay, cfg = fd_setting
    g = LevelField.interpolate(lay.mesh,
                               compose_disks([(0.5, 0.5)], [0.25],
                                             signed_distance=True))
    state, _ = solve_navier_stokes(lay, cfg, g, raise_on_failure=True)
    X = OptVector(lay, state.Y, state.P, g.nodal_values)
    C = constraint_residual(X, lay, cfg)
    assert np.abs(C).max() < 1e-10


def test_opt_vector_round_trip(fd_setting, rng):
    lay, cfg = fd_setting
    X = _random_admissible(lay, cfg, rng)
    back = OptVector.from_vector(lay, X.as_vector())
    assert np.array_equal(back.Y, X.Y)
    assert np.array_equal(back.P, X.P)
    assert np.array_equal(back.G, X.G)
    assert isinstance(X.level_field(), LevelField)


def test_component_count_tracks_sign_patches(unit_square_mesh):
    m = unit_square_mesh
    # opposite corners of the square are never joined by a single edge
    lo = int(np.argmin(np.hypot(m.vertices[:, 0], m.vertices[:, 1])))
    hi = int(np.argmin(np.hypot(m.vertices[:, 0] - 1, m.vertices[:, 1] - 1)))
    two = np.full(m.num_vertices, -1.0)
    two[[lo, hi]] = 1.0
    assert obstacle_component_count(m, two) == 2
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    one = 0.3 - np.hypot(x - 0.5, y - 0.5)
    assert obstacle_component_count(m, one) == 1
    assert obstacle_component_count(m, np.full(m.num_vertices, -1.0)) == 0
    # positive vertices sharing an edge merge into one patch
    e0 = m.edges()[0]
    merged = np.full(m.num_vertices, -1.0)
    merged[e0] = 1.0
    assert obstacle_component_count(m, merged) == 1


def test_iterate_record_validation_and_csv():
    rec = IterateRecord(3, 1.5, 1.6, 0.1, 0.05, 0.01, True, 2.0, 1)
    text = history_to_csv([rec])
    head, row = text.strip().splitlines()
    assert head.split(",")[:3] == ["iteration", "j_h", "j_rho"]
    assert float(row.split(",")[1]) == 1.5
    with pytest.raises(SolverError):
        IterateRecord(0, float("inf"), 1.0, 0.1, 0.1, 0.1, True, 1.0, 0)


def test_descent_decreases_cost_and_respects_frozen_sets():
    mesh = generate_mesh(DomainSpec(outer="flow-cell", h_mesh=0.09))
    lay = build_spaces(mesh)
    cfg = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                         divergence_form=PENALIZED_B)
    g0 = LevelField.interpolate(
        mesh, compose_disks([(-0.2, 0.2), (-0.2, -0.2)], [0.1, 0.1],
                            signed_distance=True))
    opt = OptConfig(rho=0.8, max_iter=12, snapshot_every=6, plateau_tol=0.0)
    history, X, snapshots = optimize(g0, CostSpec(DISSIPATED_ENERGY), opt,
                                     lay, cfg)
    assert history[0].iteration == 0
    assert history[0].constraint_inf < 1e-9
    assert history[-1].j_h < history[0].j_h
    jr = [r.j_rho for r in history]
    assert all(b <= a + 1e-12 for a, b in zip(jr, jr[1:]))
    # Armijo certificate reconstructable from consecutive records
    for prev, rec in zip(history, history[1:]):
        if rec.accepted:
            bound = prev.j_rho - 1e-4 * rec.step * rec.grad_norm2
            assert rec.j_rho <= bound + 1e-12 * (1 + abs(prev.j_rho))
    wall = lay.dirichlet_vertices
    assert np.all(X.Y[wall] == 0.0)
    assert np.all(X.Y[lay.N1 + wall] == 0.0)
    boundary = np.unique(mesh.boundary_edges.ravel())
    assert np.array_equal(X.G[boundary], g0.nodal_values[boundary])
    assert [s.iteration for s in snapshots] == [0, 6, 12]
    assert all(s.boundary_sign_ok for s in snapshots)


@pytest.mark.parametrize("kind", [DISSIPATED_ENERGY, TRACKING])
def test_descent_builds_gradients_only_at_accepted_steps(kind, rng,
                                                         monkeypatch):
    """Line-search trials evaluate the value alone; the level derivatives
    of the coefficients, the cost gradient and the adjoint run once per
    accepted point, the target and the body force are evaluated once per
    descent, and the Newton start never derives level derivatives."""
    counts = dict.fromkeys(["values", "gradients", "rows", "target", "level",
                            "body"], 0)

    def body(x):
        counts["body"] += 1
        return 0.1 * _body(x)

    mesh = generate_mesh(DomainSpec(outer="flow-cell", h_mesh=0.09))
    lay = build_spaces(mesh)
    cfg = AssemblyConfig(nu=1.0, eps=0.01, traction=shear_traction,
                         body_force=body, divergence_form=PENALIZED_B)
    g0 = LevelField.interpolate(
        mesh, compose_disks([(-0.2, 0.2), (-0.2, -0.2)], [0.1, 0.1],
                            signed_distance=True))
    target = 0.1 * rng.standard_normal(2 * lay.N1)
    spec = CostSpec(kind, target=target if kind == TRACKING else None)

    def count(owner, name, key, when=lambda *a: True):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += bool(when(*args))
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(penflow.topopt, "evaluate_coefficients", "values")
    count(penflow.topopt._Forms, "cost_gradient", "gradients")
    count(penflow.fem.CoeffData.level, "func", "level")
    for module in (penflow.fem, penflow.topopt):
        count(module, "_velocity_rows", "rows")
        count(module, "_velocity_at_quad", "target",
              lambda *a: np.array_equal(a[-1], target))
    newton = penflow.topopt.solve_navier_stokes

    def newton_start(*args, **kwargs):
        result = newton(*args, **kwargs)
        assert counts["level"] == 0
        # its residuals use _velocity_rows too, its load the body force
        counts["rows"] = counts["body"] = 0
        return result
    monkeypatch.setattr(penflow.topopt, "solve_navier_stokes", newton_start)
    opt = OptConfig(rho=0.8, max_iter=8, plateau_tol=0.0, initial_step=4.0)
    history, _, _ = optimize(g0, spec, opt, lay, cfg)
    steps = history[1:]
    accepted = sum(r.accepted for r in steps)
    assert sum(r.backtracks for r in steps) > 0 and accepted > 0
    assert counts["values"] == 1 + sum(r.backtracks + r.accepted
                                       for r in steps)
    assert counts["gradients"] == 1 + accepted
    assert counts["rows"] == counts["values"] + 2 * counts["gradients"]
    assert counts["target"] == (kind == TRACKING)
    assert counts["level"] == 1 + accepted
    assert counts["body"] == 1


@pytest.fixture(scope="module")
def test1_coarse():
    """(layout, config, initial level field) of test1 at h 0.1."""
    problem = presets.test1_problem(h_mesh=0.1)
    lay = build_spaces(generate_mesh(problem.domain_spec))
    return lay, problem.config, LevelField.interpolate(
        lay.mesh, problem.initial_level)


def test_descent_that_finds_no_descent_step_stalls_in_place(test1_coarse):
    # a first trial of 1e10 times the gradient's sup-norm step overshoots
    # so far that 30 halvings never satisfy Armijo
    lay, cfg, g0 = test1_coarse
    opt = OptConfig(rho=0.8, max_iter=3, initial_step=1e10)
    history, X, snapshots = optimize(g0, CostSpec(DISSIPATED_ENERGY), opt,
                                     lay, cfg)
    first = history[0]
    assert [r.iteration for r in history] == [0, 1, 2, 3]
    for rec in history[1:]:
        assert not rec.accepted
        assert rec.backtracks == opt.max_backtracks + 1
        assert rec.step == 0.0
        # the stalled iterate keeps the values recorded for the start
        assert (rec.j_rho, rec.j_h, rec.constraint_inf,
                rec.divergence_inf) == (first.j_rho, first.j_h,
                                        first.constraint_inf,
                                        first.divergence_inf)
    start, _ = solve_navier_stokes(lay, cfg, g0, raise_on_failure=True)
    assert np.array_equal(X.Y, start.Y) and np.array_equal(X.P, start.P)
    assert np.array_equal(X.G, g0.nodal_values)
    assert [s.iteration for s in snapshots] == [0, 3]
    # each stall halves the base step, so a fourth iteration's halvings
    # reach one step further than the third's, far enough to descend
    opt = OptConfig(rho=0.8, max_iter=4, initial_step=1e10)
    history, _, _ = optimize(g0, CostSpec(DISSIPATED_ENERGY), opt, lay, cfg)
    assert history[4].accepted and history[4].backtracks == 30


def test_descent_stops_on_a_plateau(test1_coarse):
    # every accepted step changes J_rho by far less than 1 + |J_rho|
    lay, cfg, g0 = test1_coarse
    opt = OptConfig(rho=0.8, max_iter=10, plateau_tol=1.0, plateau_steps=3)
    history, _, snapshots = optimize(g0, CostSpec(DISSIPATED_ENERGY), opt,
                                     lay, cfg)
    assert [r.iteration for r in history] == [0, 1, 2, 3]
    assert all(r.accepted for r in history)
    assert [s.iteration for s in snapshots] == [0, 3]


def test_descent_rejects_inadmissible_start(unit_square_mesh):
    lay = build_spaces(unit_square_mesh)
    cfg = AssemblyConfig(nu=1.0, eps=0.01, traction=_pull)
    bad = LevelField(np.ones(lay.N3))
    with pytest.raises(ConfigurationError):
        optimize(bad, CostSpec(DISSIPATED_ENERGY), OptConfig(rho=1.0),
                 lay, cfg)


def test_cost_spec_requires_target_for_tracking():
    with pytest.raises(ConfigurationError):
        CostSpec(TRACKING)
    with pytest.raises(ConfigurationError):
        CostSpec("entropy")
