import math

import numpy as np
import pytest

from penflow import (AssemblyConfig, ConfigurationError, DomainSpec,
                     EXACT_REGION, LevelField, PENALIZED_B, PLAIN_B,
                     assemble_bilinear, assemble_load, assemble_trilinear,
                     build_spaces, compose_disks, compute_norm,
                     evaluate_coefficients, generate_mesh, smoothed_heaviside,
                     triangle_rule)
from penflow import fem


def exact_barycentric_integral(p, q, r, area):
    """Closed form of the integral of lam0^p lam1^q lam2^r on a triangle."""
    num = math.factorial(p) * math.factorial(q) * math.factorial(r)
    return num * 2.0 * area / math.factorial(p + q + r + 2)


@pytest.mark.parametrize("order,degree", [(5, 5), (7, 7)])
def test_triangle_rule_integrates_barycentric_monomials(order, degree):
    lam, wts = triangle_rule(order)
    assert np.isclose(wts.sum(), 1.0, atol=1e-14)
    area = 1.0  # weights are normalized, so compare on a unit-area triangle
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            for r in range(degree + 1 - p - q):
                if p + q + r > degree:
                    continue
                got = area * np.sum(
                    wts * lam[:, 0] ** p * lam[:, 1] ** q * lam[:, 2] ** r)
                want = exact_barycentric_integral(p, q, r, area)
                assert abs(got - want) < 1e-15, (p, q, r)


def test_space_layout_counts(unit_square_mesh):
    lay = build_spaces(unit_square_mesh)
    V, T = unit_square_mesh.num_vertices, unit_square_mesh.num_triangles
    assert lay.V == V and lay.T == T
    assert lay.N1 == V + T
    assert lay.N2 == V and lay.N3 == V
    assert lay.M == 2 * lay.N1 + V
    assert lay.N == lay.M + V
    assert lay.cell_dofs.shape == (T, 4)
    assert np.array_equal(lay.cell_dofs[:, 3], V + np.arange(T))
    # Dirichlet velocity components cover both components of each wall vertex
    assert lay.dirichlet_dofs.size == 2 * lay.dirichlet_vertices.size


def test_pressure_is_pinned_only_when_every_boundary_edge_is_clamped(
        unit_square_mesh, square_disk_conforming):
    walls = ("Gamma1", "Gamma2", "Gamma3", "Gamma4")
    _, fluid = square_disk_conforming
    # the default layout leaves the Gamma1 side natural
    assert not build_spaces(unit_square_mesh).pin_pressure
    assert build_spaces(unit_square_mesh, walls).pin_pressure
    # the obstacle loop of a conforming fluid mesh stays natural
    assert "Obstacle1" in fluid.labels()
    assert not build_spaces(fluid, walls).pin_pressure


# ------------------------------------------------------------------
# independent dense evaluation of the mini-element forms
def _basis_at(lam_q, grads_t):
    """Values and gradients of the 4 cell basis functions at one point."""
    l1, l2, l3 = lam_q
    vals = np.array([l1, l2, l3, 27.0 * l1 * l2 * l3])
    g = np.zeros((4, 2))
    g[:3] = grads_t
    g[3] = 27.0 * (l2 * l3 * grads_t[0] + l1 * l3 * grads_t[1]
                   + l1 * l2 * grads_t[2])
    return vals, g


def _dense_forms(mesh, lay, coeffs, order=5):
    """Per-quadrature-point loop over triangles, no vectorized shortcuts."""
    lam, wts = triangle_rule(order)
    pts = mesh.vertices[mesh.triangles]
    out = []
    for t in range(mesh.num_triangles):
        p0, p1, p2 = pts[t]
        J = np.array([p1 - p0, p2 - p0]).T
        area = 0.5 * abs(np.linalg.det(J))
        Jinv = np.linalg.inv(J)
        grads_t = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ Jinv
        for q in range(len(wts)):
            vals, grads = _basis_at(lam[q], grads_t)
            out.append((t, q, wts[q] * area, vals, grads))
    return out


def _velocity_at(lay, Y, t, vals, grads):
    dofs = lay.cell_dofs[t]
    u = np.array([vals @ Y[dofs], vals @ Y[lay.N1 + dofs]])
    gu = np.array([grads.T @ Y[dofs], grads.T @ Y[lay.N1 + dofs]])
    return u, gu  # gu[c, d] = d u_c / d x_d


def _convection_value(mesh, lay, coeffs, u_vec, v_vec, w_vec):
    total = 0.0
    for t, q, wa, vals, grads in _dense_forms(mesh, lay, coeffs):
        cw = coeffs.conv[t, q]
        u, _ = _velocity_at(lay, u_vec, t, vals, grads)
        v, gv = _velocity_at(lay, v_vec, t, vals, grads)
        w, _ = _velocity_at(lay, w_vec, t, vals, grads)
        total += wa * cw * float((gv @ u) @ w)
    return total


def _viscous_mass_value(mesh, lay, coeffs, u_vec, v_vec):
    total = 0.0
    for t, q, wa, vals, grads in _dense_forms(mesh, lay, coeffs):
        u, gu = _velocity_at(lay, u_vec, t, vals, grads)
        v, gv = _velocity_at(lay, v_vec, t, vals, grads)
        total += wa * (coeffs.visc[t, q] * np.sum(gu * gv)
                       + coeffs.mass[t, q] * u @ v)
    return total


def _divergence_value(mesh, lay, coeffs, v_vec, p_vec):
    total = 0.0
    for t, q, wa, vals, grads in _dense_forms(mesh, lay, coeffs):
        _, gv = _velocity_at(lay, v_vec, t, vals, grads)
        pr = vals[:3] @ p_vec[mesh.triangles[t]]
        total += -wa * coeffs.divc[t, q] * (gv[0, 0] + gv[1, 1]) * pr
    return total


@pytest.fixture(scope="module")
def small_assembly():
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    lay = build_spaces(mesh)
    g = LevelField.interpolate(mesh, compose_disks([(0.5, 0.5)], [0.25],
                                                   signed_distance=True))
    cfg = AssemblyConfig(nu=0.7, eps=0.05, divergence_form=PENALIZED_B)
    coeffs = evaluate_coefficients(lay, cfg, g)
    return mesh, lay, cfg, g, coeffs


def test_viscous_block_matches_dense_oracle(small_assembly, rng):
    mesh, lay, cfg, g, coeffs = small_assembly
    A, B = assemble_bilinear(lay, cfg, g, coeffs)
    for _ in range(3):
        u = rng.standard_normal(2 * lay.N1)
        v = rng.standard_normal(2 * lay.N1)
        want = _viscous_mass_value(mesh, lay, coeffs, u, v)
        got = float(u @ (A @ v))
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_viscous_block_is_symmetric(small_assembly):
    _, lay, cfg, g, coeffs = small_assembly
    A, _ = assemble_bilinear(lay, cfg, g, coeffs)
    gap = abs(A - A.T).max()
    assert gap < 1e-12 * max(1.0, abs(A).max())


def test_divergence_block_matches_dense_oracle(small_assembly, rng):
    mesh, lay, cfg, g, coeffs = small_assembly
    _, B = assemble_bilinear(lay, cfg, g, coeffs)
    for _ in range(3):
        v = rng.standard_normal(2 * lay.N1)
        p = rng.standard_normal(lay.N2)
        want = _divergence_value(mesh, lay, coeffs, v, p)
        got = float(p @ (B @ v))
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_convection_matches_skew_symmetrized_oracle(small_assembly, rng):
    mesh, lay, cfg, g, coeffs = small_assembly
    for _ in range(3):
        u = rng.standard_normal(2 * lay.N1)
        v = rng.standard_normal(2 * lay.N1)
        w = rng.standard_normal(2 * lay.N1)
        C1, _ = assemble_trilinear(lay, cfg, g, u, coeffs)
        want = 0.5 * (_convection_value(mesh, lay, coeffs, u, v, w)
                      - _convection_value(mesh, lay, coeffs, u, w, v))
        got = float(w @ (C1 @ v))
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_convection_derivative_block_is_the_linearization(small_assembly,
                                                           rng):
    # C1(Y) Y is bilinear in (Y, Y), so its derivative along v is
    # C1(Y) v + C1(v) Y, and C2(Y) is the second part
    _, lay, cfg, g, coeffs = small_assembly
    for _ in range(3):
        u = rng.standard_normal(2 * lay.N1)
        v = rng.standard_normal(2 * lay.N1)
        _, C2 = assemble_trilinear(lay, cfg, g, u, coeffs)
        want = assemble_trilinear(lay, cfg, g, v, coeffs)[0] @ u
        got = C2 @ v
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_convection_form_annihilates_equal_arguments(small_assembly, rng):
    _, lay, cfg, g, coeffs = small_assembly
    scale = 0.0
    worst = 0.0
    for _ in range(10):
        u = rng.standard_normal(2 * lay.N1)
        w = rng.standard_normal(2 * lay.N1)
        C1, _ = assemble_trilinear(lay, cfg, g, u, coeffs)
        dense = abs(C1).max() * np.abs(w).max() ** 2
        worst = max(worst, abs(float(w @ (C1 @ w))) / max(dense, 1e-30))
    assert worst < 1e-12


def test_load_vector_matches_dense_oracle(rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    lay = build_spaces(mesh)

    def body(x):
        x = np.asarray(x)
        return np.stack([1.0 + x[..., 0], x[..., 1] ** 2], axis=-1)

    cfg = AssemblyConfig(nu=1.0, eps=0.1, body_force=body)
    coeffs = evaluate_coefficients(lay, cfg, None)
    F = assemble_load(lay, cfg, None, coeffs)
    for _ in range(3):
        w_vec = rng.standard_normal(2 * lay.N1)
        want = 0.0
        for t, q, wa, vals, grads in _dense_forms(mesh, lay, coeffs):
            pts = mesh.vertices[mesh.triangles[t]]
            xq = vals[:3] @ pts
            w, _ = _velocity_at(lay, w_vec, t, vals, grads)
            want += wa * coeffs.loadc[t, q] * (body(xq) @ w)
        got = float(F @ w_vec)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_traction_load_on_side_has_exact_total(unit_square_mesh):
    lay = build_spaces(unit_square_mesh)

    def pull(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = 1.0
        return out

    cfg = AssemblyConfig(nu=1.0, eps=0.1, traction=pull,
                         traction_label="Gamma1")
    F = assemble_load(lay, cfg, None)
    comp1 = F[:lay.N1]
    # the side has unit length, so the total applied force is 1
    assert np.isclose(comp1.sum(), 1.0, atol=1e-12)
    side = np.unique(unit_square_mesh.edges_with_label("Gamma1"))
    inside = np.setdiff1d(np.arange(lay.V), side)
    assert np.allclose(comp1[inside], 0.0, atol=1e-15)
    assert np.allclose(F[lay.N1:], 0.0, atol=1e-15)


def test_exact_region_coefficients_are_sharp(square_disk_conforming):
    full, _ = square_disk_conforming
    lay = build_spaces(full)
    cfg = AssemblyConfig(nu=2.0, eps=0.03, divergence_form=PENALIZED_B)
    co = evaluate_coefficients(lay, cfg, EXACT_REGION)
    hole = full.triangles_in_region("Obstacle")
    fluid = full.triangles_in_region("Fluid")
    assert np.allclose(co.visc[hole], 0.03) and np.allclose(co.visc[fluid], 2.0)
    assert np.allclose(co.mass[hole], 0.03) and np.allclose(co.mass[fluid], 0.0)
    assert np.allclose(co.conv[hole], 0.03) and np.allclose(co.conv[fluid], 1.0)
    assert np.allclose(co.divc[hole], 0.03) and np.allclose(co.divc[fluid], 1.0)
    assert np.allclose(co.loadc[hole], 0.0) and np.allclose(co.loadc[fluid], 1.0)
    plain = evaluate_coefficients(lay, AssemblyConfig(nu=2.0, eps=0.03,
                                                      divergence_form=PLAIN_B),
                                  EXACT_REGION)
    assert np.allclose(plain.divc, 1.0)


def test_smoothed_coefficients_match_pointwise_formula(small_assembly):
    mesh, lay, cfg, g, coeffs = small_assembly
    geom = lay.geometry()
    w = mesh.mean_edge_length  # the default width
    gq = np.einsum("qj,tj->tq", geom["lam"], g.nodal_values[mesh.triangles])
    H, _ = smoothed_heaviside(gq, w)
    Hs, _ = smoothed_heaviside(gq + w, w)
    assert np.allclose(coeffs.visc, cfg.nu * (1.0 - H) + cfg.eps * Hs,
                       atol=1e-15)
    assert np.allclose(coeffs.mass, cfg.eps * Hs, atol=1e-15)
    assert np.allclose(coeffs.conv, (1.0 - Hs) + cfg.eps * Hs, atol=1e-15)
    assert np.allclose(coeffs.loadc, 1.0 - Hs, atol=1e-15)
    assert np.allclose(coeffs.divc, (1.0 - Hs) + cfg.eps * Hs, atol=1e-15)


def test_level_derivatives_are_derived_only_on_first_access(small_assembly,
                                                             monkeypatch):
    mesh, lay, cfg, g, _ = small_assembly
    calls = []
    derivative = fem.heaviside_derivative
    monkeypatch.setattr(fem, "heaviside_derivative",
                        lambda *a: calls.append(a) or derivative(*a))
    co = evaluate_coefficients(lay, cfg, g)
    names = ("visc", "mass", "conv", "divc", "loadc")
    assert all(getattr(co, k).shape == (lay.T, 7) for k in names)
    assert not calls  # the values alone
    # on first access, the formulas at smoothed_heaviside's derivatives,
    # bit for bit, from one call on both steps' arguments, and at the next
    # the same object
    level = co.level
    assert len(calls) == 1 and co.level is level
    w = mesh.mean_edge_length  # the default width
    gq = g.nodal_values[mesh.triangles] @ lay.geometry()["lam"].T
    want = fem.CoeffData(cfg, smoothed_heaviside(gq, w)[1],
                         smoothed_heaviside(gq + w, w)[1], one=0.0)
    assert all(np.array_equal(getattr(level, k), getattr(want, k))
               for k in names)
    assert evaluate_coefficients(lay, cfg, None).level is None


def test_norms_of_linear_fields_are_exact(unit_square_mesh):
    m = unit_square_mesh
    V = m.num_vertices
    T = m.num_triangles
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    u1, u2 = 1.0 + 2.0 * x, 3.0 * y
    flat = np.concatenate([u1, np.zeros(T), u2, np.zeros(T)])
    # integral of (1+2x)^2 + (3y)^2 over the unit square
    l2sq = 13.0 / 3.0 + 3.0
    assert np.isclose(compute_norm(m, flat, kind="L2") ** 2, l2sq, atol=1e-12)
    assert np.isclose(compute_norm(m, flat, kind="H1seminorm") ** 2, 13.0,
                      atol=1e-12)
    assert np.isclose(compute_norm(m, flat, kind="DivL2") ** 2, 25.0,
                      atol=1e-12)
    h1 = compute_norm(m, flat, kind="H1")
    assert np.isclose(h1 ** 2, l2sq + 13.0, atol=1e-12)
    # the (V, 2) and scalar entry points agree with the flat one
    pair = np.stack([u1, u2], axis=1)
    assert np.isclose(compute_norm(m, pair, kind="L2") ** 2, l2sq, atol=1e-12)
    assert np.isclose(compute_norm(m, x, kind="L2") ** 2, 1.0 / 3.0,
                      atol=1e-12)


def test_norm_restricted_to_region(square_disk_conforming):
    full, _ = square_disk_conforming
    ones = np.ones(full.num_vertices)
    hole_area = compute_norm(full, ones, region="Obstacle", kind="L2") ** 2
    assert abs(hole_area - np.pi * 0.04) < 2e-3


@pytest.mark.parametrize("kind", ["L2", "H1seminorm", "H1", "DivL2"])
@pytest.mark.parametrize("region", ["all", "Obstacle", "every-third"])
def test_velocity_norms_match_einsum_interpolation(kind, region, rng,
                                                   square_disk_conforming):
    full, _ = square_disk_conforming
    V, T = full.num_vertices, full.num_triangles
    tri_idx = {"all": np.arange(T), "every-third": np.arange(0, T, 3),
               "Obstacle": full.triangles_in_region("Obstacle")}[region]
    Y = rng.standard_normal(2 * (V + T))
    got = compute_norm(full, Y, {"all": None, "Obstacle": "Obstacle"}.get(
        region, tri_idx), kind)
    # the plain einsum interpolation the batched products replaced
    lay = build_spaces(full)
    geom = lay.geometry(7)
    wa = geom["weights"][None, :] * geom["area"][tri_idx, None]
    cells = lay.cell_dofs[tri_idx]
    yl = np.stack([Y[:V + T][cells], Y[V + T:][cells]], axis=2)
    uq = np.einsum("qa,tac->tqc", geom["vals"], yl)
    # basis gradients from the hat gradients, as _basis_at gives them
    gl, (l1, l2, l3) = geom["hat_grads"][..., tri_idx], geom["lam"].T
    grads = np.empty((len(tri_idx), len(l1), 4, 2))
    grads[:, :, :3] = gl.transpose(2, 0, 1)[:, None]
    grads[:, :, 3] = 27.0 * np.einsum("kq,kdt->tqd",
                                      [l2 * l3, l1 * l3, l1 * l2], gl)
    gq = np.einsum("tqad,tac->tqcd", grads, yl)
    div = gq[:, :, 0, 0] + gq[:, :, 1, 1]
    l2sq = np.sum(wa * np.einsum("tqc,tqc->tq", uq, uq))
    h1sq = np.sum(wa * np.einsum("tqcd,tqcd->tq", gq, gq))
    want = {"L2": l2sq, "H1seminorm": h1sq, "H1": l2sq + h1sq,
            "DivL2": np.sum(wa * div ** 2)}[kind] ** 0.5
    assert abs(got - want) <= 1e-14 * want


def _pointwise_velocity(mesh, Y, tri_idx, lam):
    """Values (2, T, nq) and gradients [d, c, t, q] = d u_c / d x_d of Y,
    one quadrature point at a time from each triangle's barycentric map."""
    V, T = mesh.num_vertices, mesh.num_triangles
    vals = np.zeros((2, len(tri_idx), len(lam)))
    grads = np.zeros((2, 2, len(tri_idx), len(lam)))
    for i, t in enumerate(tri_idx):
        tri = mesh.triangles[t]
        # row k of inv maps (1, x, y) to lam_k
        inv = np.linalg.inv(np.vstack([np.ones(3), mesh.vertices[tri].T]))
        dlam = inv[:, 1:]  # (3, 2) barycentric gradients
        dofs = list(tri) + [V + t]
        for q, (l0, l1, l2) in enumerate(lam):
            basis = [l0, l1, l2, 27.0 * l0 * l1 * l2]
            dbasis = list(dlam) + [27.0 * (dlam[0] * l1 * l2 + l0 * dlam[1]
                                           * l2 + l0 * l1 * dlam[2])]
            for a in range(4):
                for c in range(2):
                    y = Y[c * (V + T) + dofs[a]]
                    vals[c, i, q] += basis[a] * y
                    grads[:, c, i, q] += dbasis[a] * y
    return vals, grads


@pytest.mark.parametrize("order", [5, 7])
def test_velocity_at_quad_matches_pointwise_loop(order, rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    lay = build_spaces(mesh)
    Y = rng.standard_normal(2 * lay.N1)
    geom = lay.geometry(order)
    got = fem._velocity_at_quad(geom, lay.component_dofs, Y)
    want = _pointwise_velocity(mesh, Y, range(lay.T), geom["lam"])
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.flags.c_contiguous
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


@pytest.mark.parametrize("parts", ["val", "grad", "both"])
def test_velocity_rows_match_pointwise_loop(parts, rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    lay = build_spaces(mesh)
    V, T = lay.V, lay.T
    lam, w = triangle_rule(5)
    val = rng.standard_normal((2, T, len(lam))) if parts != "grad" else None
    grad = rng.standard_normal((2, 2, T, len(lam))) \
        if parts != "val" else None
    got = fem._velocity_rows(lay, val, grad)
    # sum_q wa (val_c N_a + grad_dc d_d N_a), one point and basis at a time
    want = np.zeros(2 * lay.N1)
    for t, tri in enumerate(mesh.triangles):
        inv = np.linalg.inv(np.vstack([np.ones(3), mesh.vertices[tri].T]))
        dlam = inv[:, 1:]  # (3, 2) barycentric gradients
        area = 0.5 / abs(np.linalg.det(inv))
        dofs = list(tri) + [V + t]
        for q, (l0, l1, l2) in enumerate(lam):
            basis = [l0, l1, l2, 27.0 * l0 * l1 * l2]
            dbasis = list(dlam) + [27.0 * (dlam[0] * l1 * l2 + l0 * dlam[1]
                                           * l2 + l0 * l1 * dlam[2])]
            for a in range(4):
                for c in range(2):
                    row = 0.0
                    if val is not None:
                        row += val[c, t, q] * basis[a]
                    if grad is not None:
                        row += grad[:, c, t, q] @ dbasis[a]
                    want[c * lay.N1 + dofs[a]] += w[q] * area * row
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_flow_at_quad_products_match_pointwise_loop(rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    lay = build_spaces(mesh)
    Y = rng.standard_normal(2 * lay.N1)
    geom = lay.geometry(5)
    _, _, _, ugu, uu = fem._flow_at_quad(lay, Y, np.zeros(lay.N2))
    u, g = _pointwise_velocity(mesh, Y, range(lay.T), geom["lam"])
    # (u.grad)u_c = sum_d u_d d_d u_c, and (u (x) u)_dc = u_d u_c
    for got, want in ((ugu, u[0] * g[0] + u[1] * g[1]),
                      (uu, u[:, None] * u[None, :])):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("region", [None, "every-other"])
def test_compute_norm_matches_pointwise_loop(region, rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    V, T = mesh.num_vertices, mesh.num_triangles
    tri_idx = np.arange(T) if region is None else np.arange(0, T, 2)
    Y = rng.standard_normal(2 * (V + T))
    lam, w = triangle_rule(7)
    uq, gq = _pointwise_velocity(mesh, Y, tri_idx, lam)
    p = mesh.vertices[mesh.triangles[tri_idx]]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    wa = w * 0.5 * np.abs(d1[:, :1] * d2[:, 1:] - d1[:, 1:] * d2[:, :1])
    l2sq = np.sum(wa * uq ** 2)
    h1sq = np.sum(wa * gq ** 2)
    div = gq[0, 0] + gq[1, 1]
    want = {"L2": l2sq, "H1seminorm": h1sq, "H1": l2sq + h1sq,
            "DivL2": np.sum(wa * div ** 2)}
    for kind, value in want.items():
        got = compute_norm(mesh, Y, None if region is None else tri_idx, kind)
        assert abs(got - value ** 0.5) <= 1e-14 * value ** 0.5


def _count_geometry(monkeypatch):
    """The rule order of every _element_geometry call from now on."""
    calls = []
    geometry = fem._element_geometry
    monkeypatch.setattr(fem, "_element_geometry",
                        lambda mesh, order: calls.append(order)
                        or geometry(mesh, order))
    return calls


def test_whole_mesh_norm_geometry_is_computed_once(monkeypatch, rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.3))
    V, T = mesh.num_vertices, mesh.num_triangles
    fields = [rng.standard_normal(2 * (V + T)), rng.standard_normal(V)]
    kinds = [("L2", "H1seminorm", "H1", "DivL2"), ("L2", "H1seminorm", "H1")]
    calls = _count_geometry(monkeypatch)
    # every triangle as an index array: the rows of the whole-mesh geometry
    want = [compute_norm(mesh, f, np.arange(T), k)
            for f, ks in zip(fields, kinds) for k in ks]
    for _ in range(2):
        got = [compute_norm(mesh, f, None, k)
               for f, ks in zip(fields, kinds) for k in ks]
        assert got == want  # bitwise
    assert calls == [7]


def test_layouts_and_norms_share_one_geometry(monkeypatch, rng):
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.2,
                                    obstacles=(("disk", (0.5, 0.5), 0.2),)),
                         conform_to_obstacles=True)
    calls = _count_geometry(monkeypatch)
    lay = build_spaces(mesh)
    other = build_spaces(mesh, dirichlet_labels=("Gamma1", "Gamma2"))
    assert lay.geometry(5) is other.geometry(5) is lay.geometry()
    Y = rng.standard_normal(2 * lay.N1)
    whole = compute_norm(mesh, Y, kind="H1")
    hole = compute_norm(mesh, Y, region="Obstacle", kind="H1")
    geom = lay.geometry(7)
    assert geom is other.geometry(7) is fem._geometry(mesh, 7)
    # the norms read that dict: the same sums from its arrays
    uq, gq = fem._velocity_at_quad(geom, lay.component_dofs, Y)
    assert whole == np.sqrt(float(np.sum(geom["wa"] * uq ** 2))
                            + float(np.sum(geom["wa"] * gq ** 2)))
    assert 0.0 < hole < whole
    assert sorted(calls) == [5, 7]


def test_load_matches_per_edge_scatter(flow_cell_coarse_layout):
    lay = flow_cell_coarse_layout
    mesh = lay.mesh
    g = LevelField.interpolate(mesh, compose_disks([(0.5, 0.25)], [0.15]))

    def force(x):
        return np.stack([np.sin(3.0 * x[..., 0]), x[..., 1] ** 2], axis=-1)

    cfg = AssemblyConfig(traction=force, body_force=force)
    # reference: the body force per element, the traction per edge and point
    geom = lay.geometry()
    co = evaluate_coefficients(lay, cfg, g)
    wa = geom["weights"][None, :] * geom["area"][:, None] * co.loadc
    xq = np.einsum("qk,tkd->tqd", geom["lam"], mesh.vertices[mesh.triangles])
    floc = np.einsum("tq,tqc,qa->tca", wa, force(xq), geom["vals"])
    want = np.zeros(2 * lay.N1)
    idx = np.arange(2)[None, :, None] * lay.N1 + lay.cell_dofs[:, None, :]
    np.add.at(want, idx.ravel(), floc.ravel())
    edges = mesh.edges_with_label(cfg.traction_label)
    pa, pb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    elen = np.hypot(*(pb - pa).T)
    t, tw = np.polynomial.legendre.leggauss(3)
    for s, ws in zip(0.5 * (t + 1.0), 0.5 * tw):
        psi = force(pa + s * (pb - pa))
        for c in range(2):
            np.add.at(want, c * lay.N1 + edges[:, 0],
                      ws * elen * (1.0 - s) * psi[:, c])
            np.add.at(want, c * lay.N1 + edges[:, 1],
                      ws * elen * s * psi[:, c])
    got = assemble_load(lay, cfg, g)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_assembly_config_validation():
    with pytest.raises(ConfigurationError):
        AssemblyConfig(nu=0.0)
    with pytest.raises(ConfigurationError):
        AssemblyConfig(eps=-1.0)
    with pytest.raises(ConfigurationError):
        AssemblyConfig(divergence_form="magic")
