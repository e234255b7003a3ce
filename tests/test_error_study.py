import math

import numpy as np
import pytest

from penflow import (AssemblyConfig, ConfigurationError, DegenerateInputError,
                     DomainSpec, EPSILON_SWEEP, ErrorRecord, MESH_SWEEP,
                     PLAIN_B, build_spaces, records_to_csv,
                     regression_slope, restrict_state, run_sweep)
from penflow import error_study


def _pull(x):
    x = np.asarray(x)
    out = np.zeros(x.shape)
    out[..., 0] = 10.0 * x[..., 1]
    return out


@pytest.fixture(scope="module")
def sweep_inputs():
    """The domain spec and assembly config every sweep here runs on."""
    spec = DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.09,
                      obstacles=(("disk", (0.5, 0.5), 0.2),))
    cfg = AssemblyConfig(nu=1.0, eps=0.1, traction=_pull,
                         divergence_form=PLAIN_B)
    return spec, cfg


def test_regression_slope_recovers_exact_line():
    pts = [(x, 2.0 * x + 1.0) for x in (0.0, 0.7, 1.3, 2.0)]
    assert np.isclose(regression_slope(pts), 2.0, atol=1e-12)


def test_regression_slope_matches_polyfit(rng):
    x = rng.uniform(-3, 3, size=40)
    y = 0.8 * x - 0.3 + 0.05 * rng.standard_normal(40)
    want = np.polyfit(x, y, 1)[0]
    assert np.isclose(regression_slope(list(zip(x, y))), want, atol=1e-12)


def test_regression_slope_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        regression_slope([(1.0, 2.0)])
    with pytest.raises(DegenerateInputError):
        regression_slope([(1.0, 2.0), (1.0, 5.0)])


def test_error_record_validates_and_serializes():
    rec = ErrorRecord(0.1, 0.05, 0.02, 0.07, 0.11, 3, 0.01)
    d = rec.as_dict()
    assert d["epsilon"] == 0.1 and d["newton_iters"] == 3
    with pytest.raises(ConfigurationError):
        ErrorRecord(0.1, 0.05, float("nan"), 0.07, 0.11, 3, 0.01)
    with pytest.raises(ConfigurationError):
        ErrorRecord(0.1, 0.05, -1.0, 0.07, 0.11, 3, 0.01)


def test_records_csv_parses_back():
    recs = [ErrorRecord(0.5, 0.1, 0.2, 0.3, 0.15, 2, 0.05),
            ErrorRecord(0.1, 0.1, 0.04, 0.12, 0.16, 3, 0.02)]
    text = records_to_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:4] == ["epsilon", "mesh_size", "l2_rel",
                                      "h1_rel"]
    row = lines[1].split(",")
    assert float(row[0]) == 0.5 and float(row[2]) == 0.2


def test_restrict_state_picks_parent_values(square_disk_conforming):
    full, fluid = square_disk_conforming
    lay = build_spaces(full)
    Y = np.arange(2 * lay.N1, dtype=float)
    P = np.arange(lay.N2, dtype=float) + 1000.0
    Ys, Ps = restrict_state(lay, fluid, Y, P)
    sub_lay_n1 = fluid.num_vertices + fluid.num_triangles
    assert Ys.shape == (2 * sub_lay_n1,)
    # vertex entries carry over by parent id, in both components
    assert np.array_equal(Ys[:fluid.num_vertices],
                          Y[fluid.parent_vertex_ids])
    assert np.array_equal(
        Ys[sub_lay_n1:sub_lay_n1 + fluid.num_vertices],
        Y[lay.N1 + fluid.parent_vertex_ids])
    assert np.array_equal(Ps, P[fluid.parent_vertex_ids])


def test_epsilon_sweep_errors_shrink(sweep_inputs):
    records = run_sweep(EPSILON_SWEEP, (0.5, 0.1, 0.02), *sweep_inputs)
    l2 = [r.l2_rel for r in records]
    assert all(b < a for a, b in zip(l2, l2[1:]))
    assert all(r.mesh_size == records[0].mesh_size for r in records)
    assert all(r.div_norm_omega > 0 for r in records)
    pts = [(math.log10(r.epsilon), math.log10(r.l2_rel)) for r in records]
    assert regression_slope(pts) > 0.3


def test_epsilon_sweep_solves_the_reference_once(sweep_inputs, monkeypatch):
    calls = []
    solve = error_study.solve_reference_flux_constrained

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(error_study, "solve_reference_flux_constrained",
                        counted)
    records = run_sweep(EPSILON_SWEEP, (0.5, 0.1, 0.02), *sweep_inputs)
    assert len(records) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("kind, values", [(EPSILON_SWEEP, (0.5, 0.1)),
                                          (MESH_SWEEP, (0.14, 0.1))])
def test_sweep_records_keep_both_newton_reports(kind, values, sweep_inputs,
                                                monkeypatch):
    reports = {"penalized": [], "reference": []}

    def keep(name, solve, at):
        def kept(*args, **kwargs):
            out = solve(*args, **kwargs)
            reports[name].append(out[at])
            return out
        return kept

    for name, fn, at in (("penalized", "solve_navier_stokes", 1),
                         ("reference", "solve_reference_flux_constrained", 2)):
        monkeypatch.setattr(error_study, fn,
                            keep(name, getattr(error_study, fn), at))
    records = run_sweep(kind, values, *sweep_inputs)
    for i, rec in enumerate(records):
        assert rec.report is reports["penalized"][i] and rec.report.converged
        assert rec.as_dict()["newton_iters"] == rec.report.iterations
        # a mesh's first point starts from Stokes, a later epsilon point
        # from the point before it; neither falls back
        warm = kind == EPSILON_SWEEP and i > 0
        assert rec.report.start == ("warm" if warm else "stokes")
        assert rec.report.fallback == ""
        # one linear solve for a Stokes start and one per Newton step; the
        # first solve factors, and GMRES on that factor solves the rest
        assert len(rec.report.krylov) == rec.newton_iters + (not warm)
        assert rec.report.krylov.count(0) == len(rec.report.fill) == 1
        # an epsilon sweep shares one reference solve, a mesh sweep has one
        # per mesh; it starts from the mesh's first penalized flow
        ref = reports["reference"][0 if kind == EPSILON_SWEEP else i]
        assert rec.reference_report is ref and ref.converged
        assert ref.start == "warm" and ref.fallback == ""
        assert len(ref.krylov) == ref.iterations
        # a fresh layout's first factor serves the reference solve too
        assert len(ref.fill) == 1
        assert "report" not in rec.as_dict()


def test_mesh_sweep_errors_shrink(sweep_inputs):
    records = run_sweep(MESH_SWEEP, (0.14, 0.07), *sweep_inputs)
    assert records[1].l2_rel < records[0].l2_rel
    assert records[1].mesh_size < records[0].mesh_size
    assert all(r.epsilon == 0.1 for r in records)


def test_sweep_kind_is_validated(sweep_inputs):
    with pytest.raises(ConfigurationError):
        run_sweep("spice", (0.5, 0.1), *sweep_inputs)


@pytest.fixture
def no_meshing(monkeypatch):
    """Make any mesh the sweep asks for fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("the sweep meshed before checking its inputs")
    monkeypatch.setattr(error_study, "generate_mesh", fail)


def test_run_sweep_rejects_unknown_coefficient_mode(sweep_inputs, no_meshing):
    with pytest.raises(ConfigurationError, match="coefficient mode"):
        run_sweep(EPSILON_SWEEP, (0.5, 0.1), *sweep_inputs,
                  coefficient_mode="nearest")


@pytest.mark.parametrize("kind", [EPSILON_SWEEP, MESH_SWEEP])
def test_run_sweep_rejects_a_spec_without_obstacles(kind, sweep_inputs,
                                                    no_meshing):
    spec, cfg = sweep_inputs
    with pytest.raises(ConfigurationError, match="at least one obstacle"):
        run_sweep(kind, (0.5, 0.1), spec.replace(obstacles=()), cfg)
