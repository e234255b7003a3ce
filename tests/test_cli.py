"""End-to-end checks of the command line interface.

Every solve here runs on deliberately coarse meshes so the whole module
stays in the few-seconds range.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import penflow.cli as cli
import penflow.error_study as error_study
from penflow import presets
from penflow.artifacts import MANIFEST_NAME, svg_loglog, verify_manifest
from penflow.cli import (_parse_monomials, _parse_shapes, _polynomial_field,
                         main, preset_sections)
from penflow.errors import (ConfigurationError, GenerationError,
                            NonconvergenceError)
from penflow.fem import assemble_load, build_spaces
from penflow.levelset import LevelField, domain_level_function
from penflow.mesh import generate_mesh
from penflow.ns_solver import NewtonReport, residual_max_norm
from penflow.topopt import optimize


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_tree(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in os.listdir(out_dir)}


BOX_FLOW = """
[mesh]
outer = 0 0 1 1
h_mesh = 0.2

[level]
shapes = disk 0.5 0.5 0.2

[physics]
traction = shear

[regularization]
eps = 0.05
"""


# --------------------------------------------------------------- parsers
def test_parse_shapes_accepts_all_kinds():
    got = _parse_shapes(
        "disk 0.5 0.25 0.15; ellipse -0.2 0 0.2 0.4 ;"
        "polygon 0 0 1 0 0.5 1", "[level] shapes")
    assert got == (("disk", (0.5, 0.25), 0.15),
                   ("ellipse", (-0.2, 0.0), (0.2, 0.4)),
                   ("polygon", ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0))))


@pytest.mark.parametrize("bad", [
    "disk 0.5 0.25",              # wrong arity
    "square 0 0 1",               # unknown kind
    "disk a b c",                 # non-numeric
    "polygon 0 0 1 0",            # fewer than three points
])
def test_parse_shapes_rejects_malformed(bad):
    with pytest.raises(ConfigurationError):
        _parse_shapes(bad, "[level] shapes")


def test_parse_monomials_and_polynomial_field():
    terms = _parse_monomials("100 0 1; -2 1 0", "t")
    assert terms == [(100.0, 0, 1), (-2.0, 1, 0)]
    field = _polynomial_field("100 0 1", "3 0 0", "t")
    out = field(np.array([[0.5, 0.2], [0.0, 1.0]]))
    assert np.allclose(out, [[20.0, 3.0], [100.0, 3.0]])
    assert _polynomial_field(None, None, "t") is None
    with pytest.raises(ConfigurationError):
        _parse_monomials("1 2", "t")
    with pytest.raises(ConfigurationError):
        _parse_monomials("1 -1 0", "t")


# --------------------------------------------------------------- presets
# the factory in presets that each (command, preset) pair's sections mirror
_PRESET_FACTORIES = {
    ("solve-penalized", "sec31"): presets.sec31_penalized,
    ("solve-reference", "sec31"): presets.sec31_reference,
    ("error-study", "sec31"): presets.epsilon_sweep,
    **{(command, "test1"): presets.test1_problem
       for command in ("solve-penalized", "solve-reference", "optimize")},
    **{(command, "test2"): presets.test2_problem
       for command in ("solve-penalized", "solve-reference", "optimize")},
}


@pytest.mark.parametrize("command, name", sorted(_PRESET_FACTORIES))
def test_preset_sections_round_trip_to_presets(command, name):
    rc = cli.RunConfig(command, preset_sections(command, name), "out")
    want = _PRESET_FACTORIES[command, name]()
    assert rc.domain_spec.h_mesh == want.domain_spec.h_mesh
    # nu, eps, divergence form, the traction callable and every other field
    assert vars(rc.assembly) == vars(want.config)
    assert rc.conforming == (command == "solve-reference")
    # the preset's obstacles; with none, a body-fitted command meshes the
    # level shapes, which the level function below checks
    obstacles = want.domain_spec.obstacles
    if command == "solve-reference" and not obstacles:
        obstacles = rc.level_shapes
    assert rc.domain_spec.obstacles == obstacles
    if name == "sec31":
        level = presets.sec31_level()
    else:
        level = want.initial_level
    x = np.random.default_rng(0).uniform(-0.5, 0.5, (64, 2))
    assert np.array_equal(rc.level_function()(x), level(x))
    if command == "error-study":
        assert (rc.study_kind, rc.study_values) == (want.kind, want.values)
    if command == "optimize":
        assert rc.cost_kind == want.cost_kind
        # rho, max_iter, snapshot_every and the library's plateau_steps
        assert vars(rc.opt) == vars(want.opt)
    if (command, name) == ("optimize", "test2"):
        target = domain_level_function(rc.domain_spec.replace(
            obstacles=rc.target_shapes), signed_distance=False)
        assert np.array_equal(target(x), presets.test2_problem().target_level(x))


@pytest.mark.parametrize("command, name, message", [
    ("optimize", "sec31", "[descent] rho is required"),
    ("error-study", "test1", "[study] values is required"),
    ("error-study", "test2", "[study] values is required"),
])
def test_preset_pairs_without_a_factory_do_not_parse(command, name, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        cli.RunConfig(command, preset_sections(command, name), "out")


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigurationError):
        preset_sections("solve-penalized", "bogus")


# --------------------------------------------------------- failure paths
def test_no_inputs_exits_2(capsys):
    assert main(["solve-penalized"]) == 2
    assert "no inputs" in capsys.readouterr().err


def test_missing_config_file_exits_4(tmp_path, capsys):
    rc = main(["solve-penalized", "--config", str(tmp_path / "nope.ini")])
    assert rc == 4
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[mesh]\nh_mes = 0.1\n")
    assert main(["solve-penalized", "--config", cfg]) == 2
    assert "h_mes" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[meshes]\nh_mesh = 0.1\n")
    assert main(["solve-penalized", "--config", cfg]) == 2
    assert "meshes" in capsys.readouterr().err


def test_bad_value_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[mesh]\nh_mesh = -0.1\n")
    assert main(["solve-penalized", "--config", cfg]) == 2
    assert "h_mesh" in capsys.readouterr().err


# a config every command accepts; each rule row below breaks one key of it
_VALID = {
    "mesh": {"outer": "0 0 1 1", "h_mesh": "0.2",
             "obstacles": "disk 0.5 0.5 0.2"},
    "level": {"shapes": "disk 0.5 0.5 0.2"},
    "physics": {"traction": "shear"},
    "study": {"values": "0.1 0.05"},
    "descent": {"rho": "0.5", "max_iter": "1"},
}

# (command, {(section, key): value, or None to drop the key}, prefix):
# one row per ConfigurationError a config can raise before any solve
_RULES = [
    ("solve-penalized", {("mesh", "outer"): "0 0 1"}, "[mesh] outer"),
    ("solve-penalized", {("mesh", "outer"): "0 0 1 x"}, "[mesh] outer"),
    ("solve-penalized", {("mesh", "outer"): "1 0 0 1"}, "[mesh]"),
    ("solve-penalized", {("mesh", "h_mesh"): "0"}, "[mesh] h_mesh"),
    ("solve-penalized", {("mesh", "h_mesh"): "abc"}, "[mesh] h_mesh"),
    ("solve-penalized", {("mesh", "h_mesh"): "inf"}, "[mesh] h_mesh"),
    ("solve-penalized", {("mesh", "obstacles"): "disk 0.5 0.5"},
     "[mesh] obstacles"),
    ("solve-penalized", {("mesh", "obstacles"): "disk 0.5 0.5 nan"},
     "[mesh] obstacles"),
    ("solve-penalized", {("mesh", "obstacles"): "disk 0.5 0.5 inf"},
     "[mesh] obstacles"),
    ("solve-penalized", {("mesh", "obstacles"): "ellipse 0.5 0.5 nan 0.1"},
     "[mesh] obstacles"),
    ("solve-penalized",
     {("mesh", "obstacles"): "polygon 0.4 0.4 0.6 0.4 0.5 nan"},
     "[mesh] obstacles"),
    ("solve-penalized", {("mesh", "obstacles"): "disk 0.5 0.5 1e12"},
     "[mesh] obstacles"),
    ("solve-reference", {("mesh", "obstacles"): "disk nan 0.5 0.1"},
     "[mesh] obstacles"),
    ("solve-penalized", {("mesh", "conforming"): "maybe"},
     "[mesh] conforming"),
    ("solve-penalized", {("level", "shapes"): "ellipse 0 0 1"},
     "[level] shapes"),
    ("solve-penalized", {("level", "shapes"): "disk 0.5 0.5 -0.1"},
     "[level] shapes"),
    ("optimize", {("level", "shapes"): "disk nan 0.5 0.1"}, "[level] shapes"),
    ("solve-reference", {("mesh", "obstacles"): None,
                         ("level", "shapes"): None}, "solve-reference"),
    ("solve-penalized", {("physics", "nu"): "0"}, "[physics] nu"),
    ("solve-penalized", {("physics", "traction_x"): "1 0 0"}, "[physics]"),
    ("solve-penalized", {("physics", "traction"): "swirl"},
     "[physics] traction"),
    ("solve-penalized", {("physics", "traction"): None,
                         ("physics", "traction_x"): "1 2"},
     "[physics] traction_x"),
    ("solve-penalized", {("physics", "body_force_y"): "1 -1 0"},
     "[physics] body_force_y"),
    ("solve-penalized", {("physics", "body_force_x"): "inf 1 1"},
     "[physics] body_force_x"),
    ("solve-penalized", {("physics", "body_force_y"): "nan 0 0"},
     "[physics] body_force_y"),
    ("solve-penalized", {("regularization", "eps"): "-0.1"},
     "[regularization] eps"),
    ("solve-penalized", {("regularization", "smoothing_width"): "0"},
     "[regularization] smoothing_width"),
    ("solve-penalized", {("regularization", "smoothing_width"): "1e-300"},
     "[regularization] smoothing_width"),
    ("solve-penalized", {("regularization", "divergence_form"): "weak"},
     "[regularization] divergence_form"),
    ("error-study", {("study", "kind"): "time"}, "[study] kind"),
    ("error-study", {("study", "values"): None}, "[study] values"),
    ("error-study", {("study", "values"): "0.1 -0.05"}, "[study] values"),
    ("error-study", {("study", "values"): "0.1"}, "[study]"),
    ("error-study", {("study", "values"): "0.5 0.5"}, "[study] values"),
    ("error-study", {("study", "values"): "0.1 0.1000000001"},
     "[study] values"),
    ("error-study", {("study", "coefficient_mode"): "sharp"},
     "[study] coefficient_mode"),
    ("optimize", {("level", "shapes"): None}, "optimize"),
    ("optimize", {("cost", "kind"): "lift"}, "[cost] kind"),
    ("optimize", {("cost", "kind"): "tracking"}, "[cost] target_shapes"),
    ("optimize", {("cost", "target_shapes"): "ring 0 0 1"},
     "[cost] target_shapes"),
    ("optimize", {("cost", "kind"): "tracking",
                  ("cost", "target_shapes"): "disk 0.5 0.5 -0.1"},
     "[cost] target_shapes"),
    ("optimize", {("cost", "kind"): "tracking",
                  ("cost", "target_shapes"): "ellipse nan 0.5 0.2 0.4"},
     "[cost] target_shapes"),
    ("optimize", {("descent", "rho"): None}, "[descent] rho"),
    ("optimize", {("descent", "rho"): "-1"}, "[descent] rho"),
    ("optimize", {("descent", "max_iter"): "1.5"}, "[descent] max_iter"),
    ("optimize", {("descent", "snapshot_every"): "-1"},
     "[descent] snapshot_every"),
    ("optimize", {("descent", "plateau_steps"): "0"},
     "[descent] plateau_steps"),
    # the segment minimum, the signed-distance level, the first step and
    # the plateau rule are fixed: a config that sets one, to any value, is
    # refused like a typo
    ("solve-penalized", {("mesh", "arc_segments"): "4"},
     "unknown key 'arc_segments' in section [mesh]"),
    ("solve-penalized", {("mesh", "arc_segments"): "513"},
     "unknown key 'arc_segments' in section [mesh]"),
    ("solve-penalized", {("mesh", "circle_segments"): "8.5"},
     "unknown key 'circle_segments' in section [mesh]"),
    ("solve-penalized", {("mesh", "circle_segments"): "513"},
     "unknown key 'circle_segments' in section [mesh]"),
    ("solve-penalized", {("level", "signed_distance"): "2"},
     "unknown key 'signed_distance' in section [level]"),
    ("optimize", {("descent", "initial_step"): "0"},
     "unknown key 'initial_step' in section [descent]"),
    ("optimize", {("descent", "plateau_tol"): "-1"},
     "unknown key 'plateau_tol' in section [descent]"),
]


def _render(sections):
    return "".join(f"[{sec}]\n" + "".join(f"{key} = {value}\n"
                                          for key, value in items.items())
                   for sec, items in sections.items())


def _rule_id(row):
    command, changes, _ = row
    return command + ":" + ",".join(f"{sec}.{key}={value}"
                                    for (sec, key), value in changes.items())


@pytest.mark.parametrize("command, changes, prefix", _RULES,
                         ids=[_rule_id(row) for row in _RULES])
def test_config_rule_exits_2_with_one_prefix(command, changes, prefix,
                                             tmp_path, capsys):
    sections = {sec: dict(items) for sec, items in _VALID.items()}
    for (sec, key), value in changes.items():
        items = sections.setdefault(sec, {})
        items.pop(key, None)
        if value is not None:
            items[key] = value
    cfg = _write(tmp_path, "run.ini", _render(sections))
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"penflow: config error: {prefix}")
    assert err.count(prefix) == 1
    assert not (tmp_path / "out").exists()  # no artifact


# ------------------------------------------------ config property test
# per key, (valid texts, broken texts): the boundary values 0, negative,
# NaN, inf, huge, repeated and nearly repeated fall on either side.  Sizes
# are bounded so that every solve stays small: mesh sizes from 0.1, 0.15,
# 0.2 and 5, and at most 2 descent iterations; 1e12 stands for "huge",
# since 1e300 overflows inside a solve (a solver failure).  An empty text
# unsets a key a preset gives.
_SHAPES = (["disk 0.25 0.25 0.1", "disk 0.5 0.25 0.15; disk 0.75 0 0.15",
            "disk -0.2 0.2 0.1; disk -0.2 -0.2 0.1", "ellipse 0.25 0.25 0.1 0.15",
            "polygon 0.3 -0.25 0.6 -0.25 0.6 0.25 0.45 0.05 0.3 0.25",
            "polygon 0.3 0.25 0.45 0.05 0.6 0.25 0.6 -0.25 0.3 -0.25",
            "disk 0.25 0.25 0.1; disk 0.25 0.25 0.1",
            "disk 0.25 0.25 0.1; disk 0.25 0.25 0.1000000001", ""],
           ["disk 0.5 0.25 nan", "disk nan 0.25 0.1", "disk 0.5 0.25 inf",
            "ellipse 0.5 0.25 nan 0.1", "polygon 0.4 0.2 0.6 0.2 0.5 nan",
            "disk 0 0 1e12", "disk 0 0 0", "disk 0 0 -0.1", "ellipse 0 0 0.1",
            "ring 0 0 1", "disk a b c"])
_MONOMIALS = (["1 0 0", "100 0 1", "1 0 0; -2 1 0", "1e12 0 0",
               "1 1000000000000 0", ""],
              ["inf 0 0", "nan 0 0", "1 -1 0", "1 0.5 0", "1 2", "x 0 0"])
_TEXTS = {
    ("mesh", "outer"): (["flow-cell", "0 0 1 1", "-1 -1 1 1"],
                        ["1 0 0 1", "0 0 1", "0 0 nan 1", "0 0 1 x"]),
    ("mesh", "h_mesh"): (["0.1", "0.15", "0.2"],
                         ["5", "0", "-0.1", "nan", "inf", "x"]),
    ("mesh", "conforming"): (["true", "false"], ["maybe"]),
    ("mesh", "obstacles"): _SHAPES,
    ("physics", "nu"): (["1", "0.5", "0.01", "1e12"],
                        ["0", "-1", "nan", "inf", "-inf", "x"]),
    ("physics", "traction"): (["shear", ""], ["swirl", "shear"]),
    ("physics", "traction_x"): _MONOMIALS,
    ("physics", "traction_y"): _MONOMIALS,
    ("physics", "traction_label"): (["Gamma1", "Gamma3"], ["Nope"]),
    ("physics", "body_force_x"): _MONOMIALS,
    ("physics", "body_force_y"): _MONOMIALS,
    ("regularization", "eps"): (["0", "0.01", "0.5", "1e12"],
                                ["-1", "nan", "inf", "x"]),
    ("regularization", "smoothing_width"): (
        ["0.05", "1", "1e12", "1e-100"],
        ["0", "-1", "nan", "inf", "1e-300", "x"]),
    ("regularization", "divergence_form"): (["plain", "penalized"],
                                            ["weak"]),
    ("level", "shapes"): _SHAPES,
    ("study", "kind"): (["epsilon", "mesh"], ["time"]),
    # epsilon values, or mesh sizes when [study] kind is mesh
    ("study", "values"): (["0.2 0.1", "0.5 0.15", "1e12 0.1"],
                          ["5 0.2", "0.1 0.1", "0.1 0.1000000001", "0.1",
                           "0 0.1", "-0.1 0.2", "nan 0.1", "inf 0.2",
                           "x 0.1"]),
    ("study", "coefficient_mode"): (["exact-region", "smoothed"], ["sharp"]),
    ("cost", "kind"): (["dissipated-energy", "tracking"], ["lift"]),
    ("cost", "target_shapes"): _SHAPES,
    ("descent", "rho"): (["0", "0.5", "1", "1e12"], ["-1", "nan", "inf", "x"]),
    ("descent", "max_iter"): (["1", "2"], ["0", "-1", "1.5", "1e12", "x"]),
    ("descent", "snapshot_every"): (["0", "1", "2"], ["-1", "x"]),
    ("descent", "plateau_steps"): (["1", "3", "1000000000000"], ["0", "x"]),
}
# keys every draw sets, so that no preset size (h_mesh 0.014, 500
# iterations, an epsilon sweep read as mesh sizes) makes a slow run
_ALWAYS = [("mesh", "h_mesh"), ("descent", "max_iter"), ("study", "values")]


@st.composite
def _configs(draw):
    """Sections that set some keys to valid texts, and in half the draws
    break one or two keys."""
    broken = draw(st.one_of(st.just([]), st.lists(
        st.sampled_from(list(_TEXTS)), min_size=1, max_size=2)))
    sections = {}
    for (sec, key), (valid, bad) in _TEXTS.items():
        if (sec, key) in broken or (sec, key) in _ALWAYS or \
                draw(st.integers(0, 2)) == 0:
            sections.setdefault(sec, {})[key] = draw(st.sampled_from(
                bad if (sec, key) in broken else valid))
    physics = sections.get("physics", {})
    if ("physics", "traction") not in broken and (
            physics.get("traction_x") or physics.get("traction_y")):
        physics["traction"] = ""  # a named traction would clash
    return sections


def _pinned(command, preset, sec, key, value):
    """An example that ended in a traceback or a solver failure."""
    return example(command=command, preset=preset, sections={
        "mesh": {"h_mesh": "0.1"}, "descent": {"max_iter": "1"},
        sec: {key: value}})


def test_property_table_covers_every_config_key():
    assert set(_TEXTS) == set(cli._KEYS) - {("output", "dir")}


@contextlib.contextmanager
def _kept_flows():
    """Wrap the solvers of solve-penalized, solve-reference and error-study;
    yields a list that gets each returned flow as (layout, config, g, state,
    flux_labels, multipliers)."""
    flows = []

    def penalized(solve):
        def run(layout, config, g, **kwargs):
            state, report = solve(layout, config, g, **kwargs)
            flows.append((layout, config, g, state, (), None))
            return state, report
        return run

    def reference(solve):
        def run(mesh, config, **kwargs):
            state, multipliers, report = solve(mesh, config, **kwargs)
            flows.append((state.layout, config, None, state,
                          sorted(multipliers), multipliers))
            return state, multipliers, report
        return run

    with pytest.MonkeyPatch.context() as mp:
        for module in (cli, error_study):
            mp.setattr(module, "solve_navier_stokes",
                       penalized(module.solve_navier_stokes))
            mp.setattr(module, "solve_reference_flux_constrained",
                       reference(module.solve_reference_flux_constrained))
        yield flows


@_pinned("solve-penalized", "sec31", "mesh", "obstacles", "disk 0.5 0.25 nan")
@_pinned("solve-penalized", "sec31", "mesh", "obstacles",
         "polygon 0.4 0.2 0.6 0.2 0.5 nan")
@_pinned("solve-penalized", "sec31", "mesh", "obstacles", "disk 0.5 0.25 inf")
@_pinned("solve-reference", "sec31", "mesh", "obstacles", "disk nan 0.25 0.1")
@_pinned("optimize", "test1", "level", "shapes", "disk nan 0.25 0.1")
@_pinned("optimize", "test2", "cost", "target_shapes",
         "ellipse nan 0 0.2 0.4")
@_pinned("solve-penalized", "sec31", "physics", "body_force_x", "inf 1 1")
@_pinned("solve-penalized", "sec31", "regularization", "smoothing_width",
         "1e-300")
# zero errors, which no log-log plot shows, once left records.csv behind
@example(command="error-study", preset=None, sections={
    "mesh": {"h_mesh": "0.1", "obstacles": "disk 0.25 0.25 0.1"},
    "physics": {"traction_y": "1e12 0 0", "traction_label": "Gamma3",
                "body_force_x": "1 0 0", "body_force_y": "1 0 0"},
    "study": {"values": "0.2 0.1"}})
@given(command=st.sampled_from(cli.COMMANDS),
       preset=st.sampled_from((None,) + cli.PRESET_NAMES),
       sections=_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_config_exits_with_a_documented_code(command, preset, sections):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(_render(sections))
        argv = [command, "--config", cfg, "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), _kept_flows() as flows:
            code = main(argv + (["--preset", preset] if preset else []))
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            assert verify_manifest(out)[0]
            # each written flow, re-evaluated with its multipliers, meets the
            # Newton tolerance of the free rows
            for layout, config, g, state, labels, multipliers in flows:
                load = np.delete(assemble_load(layout, config, g),
                                 layout.dirichlet_dofs)
                assert residual_max_norm(
                    layout, config, g, state, labels, multipliers
                ) <= 1e-10 * (1.0 + np.abs(load).max())
        if code == 2:
            assert err.getvalue().startswith("penflow: config error: ")
            assert not os.path.exists(out)


def test_descent_error_is_prefixed_once(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", _render(
        {**_VALID, "descent": {"rho": "0.5", "max_iter": "1.5"}}))
    assert main(["optimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "penflow: config error: [descent] max_iter must be an integer, "
        "got '1.5'\n")


def test_every_key_is_checked_whatever_the_command(tmp_path, capsys):
    # solve-penalized reads no [descent] key, but a bad one is still a typo
    cfg = _write(tmp_path, "run.ini", _render(
        {**_VALID, "descent": {"max_iter": "1.5"}}))
    assert main(["solve-penalized", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "[descent] max_iter" in capsys.readouterr().err


def test_unknown_traction_label_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini",
                 BOX_FLOW.replace("traction = shear",
                                  "traction = shear\ntraction_label = Nope"))
    assert main(["solve-penalized", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Nope" in err and "Gamma1" in err


def test_unknown_traction_label_in_a_sweep_names_its_key(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BOX_FLOW.replace(
        "traction = shear", "traction = shear\ntraction_label = Nope")
        + "[study]\nvalues = 0.1 0.05\n")
    out = tmp_path / "out"
    assert main(["error-study", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "penflow: config error: [physics] traction_label: sweep point "
        "epsilon=0.1: no boundary label 'Nope'")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("solve-penalized", "mesh"), ("solve-reference", "mesh"),
    ("error-study", "mesh"), ("solve-reference", "level"),
    ("error-study", "level")])
def test_overlapping_obstacles_name_their_key(command, key, tmp_path,
                                              capsys):
    # solve-reference and error-study mesh the [level] shapes when [mesh]
    # gives no obstacles
    disks = "disk 0.4 0.5 0.15; disk 0.6 0.5 0.15"
    text = BOX_FLOW.replace("shapes = disk 0.5 0.5 0.2",
                            f"shapes = {disks}" if key == "level" else "")
    if key == "mesh":
        text = text.replace("h_mesh = 0.2",
                            f"h_mesh = 0.2\nobstacles = {disks}")
    cfg = _write(tmp_path, "run.ini", text + "[study]\nvalues = 0.1 0.05\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    name = "[mesh] obstacles" if key == "mesh" else "[level] shapes"
    assert capsys.readouterr().err == (
        f"penflow: config error: {name}: obstacles 1 and 2 overlap\n")
    assert not out.exists()


def test_traction_on_a_clamped_wall_exits_0_only_converged(tmp_path,
                                                         monkeypatch, capsys):
    # the load on Gamma3's Dirichlet rows never enters the residual, so it
    # must not loosen the Newton tolerance: exit 0 only with a converged flow
    solves = []

    def keep(layout, config, g, **kwargs):
        state, report = solve(layout, config, g, **kwargs)
        solves.append((layout, config, g, state))
        return state, report

    solve = cli.solve_navier_stokes
    monkeypatch.setattr(cli, "solve_navier_stokes", keep)
    cfg = _write(tmp_path, "run.ini", "[mesh]\nh_mesh = 0.1\n"
                 "[level]\nshapes = disk 0.5 0.25 0.15\n"
                 "[physics]\nnu = 0.01\ntraction_label = Gamma3\n"
                 "traction_y = 1e12 0 0\nbody_force_x = 10 0 0\n")
    code = main(["solve-penalized", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if code == 3:
        assert json.loads(err[err.index("{"):])["converged"] is False
        return
    assert code == 0, err
    # the written flow, re-evaluated, meets the tolerance of the free rows
    (layout, config, g, state), = solves
    load = assemble_load(layout, config, g)
    tol = 1e-10 * (1.0 + np.abs(np.delete(load, layout.dirichlet_dofs)).max())
    assert residual_max_norm(layout, config, g, state) <= tol


@pytest.mark.parametrize("command, target", [
    ("solve-penalized", "cli.solve_navier_stokes"),
    ("solve-reference", "cli.solve_reference_flux_constrained"),
    ("error-study", "error_study.solve_navier_stokes"),
    ("error-study", "error_study.solve_reference_flux_constrained"),
])
def test_nonconvergence_exits_3_with_report(command, target, tmp_path,
                                            monkeypatch, capsys):
    report = NewtonReport(False, 7, [1.0, 3.5], "diverged",
                          fill=[300_396, 303_874], krylov=[0, 13, 0, 12],
                          steps=[0.25, 1.0])

    def explode(*args, **kwargs):
        raise NonconvergenceError("no convergence", report)

    monkeypatch.setattr(f"penflow.{target}", explode)
    text = BOX_FLOW.replace("h_mesh = 0.2", "h_mesh = 0.2\n"
                            "obstacles = disk 0.5 0.5 0.2")
    cfg = _write(tmp_path, "run.ini", text + "[study]\nvalues = 0.1 0.05\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    # a sweep names the failing point
    assert ("sweep point epsilon=0.1" in err) == (command == "error-study")
    blob = json.loads(err[err.index("{"):])
    assert blob["converged"] is False
    assert blob["iterations"] == 7
    assert blob["residual_norms"] == [1.0, 3.5]
    assert blob["fill"] == [300_396, 303_874]
    assert blob["krylov"] == [0, 13, 0, 12]
    assert blob["steps"] == [0.25, 1.0]
    assert blob["runtime"] == report.runtime
    # how the failing solve started, and no warm start that fell back
    assert blob["start"] == "stokes" and blob["fallback"] == ""


def test_unmeshable_size_names_its_key(tmp_path, capsys):
    # the mesher, not the parser, rejects a size this coarse for the flow
    # cell
    cfg = _write(tmp_path, "run.ini", "[mesh]\nh_mesh = 5\n")
    out = tmp_path / "out"
    assert main(["solve-penalized", "--preset", "sec31", "--config", cfg,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("penflow: config error: [mesh] h_mesh: cannot "
                          "recover required edges")
    assert not (out / MANIFEST_NAME).exists()


def test_unmeshable_sweep_size_names_the_sweep_values(tmp_path, monkeypatch,
                                                      capsys):
    # a mesh sweep's sizes come from [study] values, not [mesh] h_mesh
    def fail(*args, **kwargs):
        raise GenerationError("cannot recover required edges [(0, 1)]")

    monkeypatch.setattr("penflow.mesh._conforming_delaunay", fail)
    cfg = _write(tmp_path, "run.ini", "[study]\nkind = mesh\n"
                 "values = 0.2 0.1\n")
    assert main(["error-study", "--preset", "sec31", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "penflow: config error: [study] values: sweep point h=0.2: cannot "
        "recover required edges")


def test_zero_reference_flow_names_the_sweep_values(tmp_path, capsys):
    # the conforming cell at h 5 meshes, but carries no reference flow, so
    # no relative error exists (and a 0/0 warning fails the test under the
    # suite's filters); the h 0.5 point is never solved
    cfg = _write(tmp_path, "run.ini", "[study]\nkind = mesh\n"
                 "values = 5 0.5\n")
    assert main(["error-study", "--preset", "sec31", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "penflow: config error: [study] values: sweep point h=5.0: the "
        "reference flow is zero")


@pytest.mark.parametrize("argv, text", [
    # fails at the sweep's first point, after the config is parsed
    (["error-study", "--preset", "sec31"],
     "[study]\nkind = mesh\nvalues = 5 0.5\n"),
    # the disk clears the wall by 5e-10, less than the 1e-9 the mesher needs
    (["solve-penalized"], "[mesh]\nouter = 0 0 1 1\nh_mesh = 0.2\n"
     "obstacles = disk 0.5 0.5 0.4999999995\n"),
], ids=["sweep-point", "wall-margin"])
def test_config_error_leaves_no_output_directory(argv, text, tmp_path):
    cfg = _write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# outcome of each failure class: (exit code, text on stderr)
_FAILURES = {
    # a GeometryError while the config is parsed ...
    "obstacle-touches-boundary": (2, "strictly inside the outer boundary"),
    # ... also where the obstacle clears the wall by less than 1e-9 ...
    "obstacle-in-wall-margin": (
        2, "[mesh] obstacles must lie strictly inside the outer boundary"),
    # ... and one from the mesh generator
    "obstacles-overlap": (2, "obstacles 1 and 2 overlap"),
    "generation-error": (2, "cannot recover required edges"),
    "undecodable-config": (2, "cannot parse"),
    "unwritable-out": (4, "I/O error"),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("failure", list(_FAILURES))
def test_failure_maps_to_exit_code(failure, command, tmp_path, monkeypatch,
                                   capsys):
    obstacles = {"obstacle-touches-boundary": "disk 0.85 0.5 0.2",
                 "obstacle-in-wall-margin": "disk 0.5 0.5 0.4999999995",
                 "obstacles-overlap": "disk 0.4 0.5 0.15; disk 0.6 0.5 0.15"}
    text = BOX_FLOW.replace(
        "h_mesh = 0.2", "h_mesh = 0.2\nobstacles = "
        + obstacles.get(failure, "disk 0.5 0.5 0.2"))
    text += "[study]\nvalues = 0.1 0.05\n[descent]\nrho = 0.5\nmax_iter = 1\n"
    cfg = _write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    if failure == "generation-error":
        def fail(*args, **kwargs):
            raise GenerationError("cannot recover required edges [(0, 1)]")
        monkeypatch.setattr("penflow.mesh._conforming_delaunay", fail)
    elif failure == "undecodable-config":
        (tmp_path / "run.ini").write_bytes(text.encode() + b"# \xff\n")
    elif failure == "unwritable-out":
        out.write_text("a file, not a directory")
        out = out / "sub"
    code, message = _FAILURES[failure]
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("penflow: ") and message in err


# ------------------------------------------------------------- solves
def test_solve_penalized_writes_verified_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BOX_FLOW)
    out = tmp_path / "out"
    assert main(["solve-penalized", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for name in ("fields.vtk", "mesh.txt", "diagnostics.csv", MANIFEST_NAME):
        assert (out / name).is_file()
        assert name in stdout
    ok, mismatches = verify_manifest(out)
    assert ok, mismatches
    vtk = (out / "fields.vtk").read_text()
    assert vtk.startswith("# vtk DataFile Version 2.0")
    assert "VECTORS velocity double" in vtk
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "quantity,value"
    quantities = {line.split(",")[0] for line in diag[1:]}
    assert {"flux_Gamma1", "divergence_l2", "newton_iterations"} <= quantities


def test_identical_config_gives_bit_identical_artifacts(tmp_path):
    cfg = _write(tmp_path, "run.ini", BOX_FLOW)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve-penalized", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve-penalized", "--config", cfg, "--out", str(out2)]) == 0
    assert _read_tree(out1) == _read_tree(out2)


def test_manifest_detects_tampering(tmp_path):
    cfg = _write(tmp_path, "run.ini", BOX_FLOW)
    out = tmp_path / "out"
    assert main(["solve-penalized", "--config", cfg, "--out", str(out)]) == 0
    target = out / "diagnostics.csv"
    target.write_text(target.read_text() + "tail,1.0\n")
    ok, mismatches = verify_manifest(out)
    assert not ok
    assert any("diagnostics.csv" in entry for entry in mismatches)


def test_solve_reference_reports_multipliers(tmp_path):
    cfg = _write(tmp_path, "run.ini", """
[mesh]
outer = 0 0 1 1
h_mesh = 0.18
obstacles = disk 0.5 0.5 0.2

[physics]
traction = shear
""")
    out = tmp_path / "out"
    assert main(["solve-reference", "--config", cfg, "--out", str(out)]) == 0
    diag = (out / "diagnostics.csv").read_text().splitlines()
    quantities = [line.split(",")[0] for line in diag[1:]]
    assert any(q.startswith("multiplier_Obstacle") for q in quantities)
    assert any(q.startswith("flux_Obstacle") for q in quantities)
    ok, mismatches = verify_manifest(out)
    assert ok, mismatches


BOX_STUDY = """
[mesh]
outer = 0 0 1 1
h_mesh = 0.2
obstacles = disk 0.5 0.5 0.2

[physics]
traction = shear

[study]
kind = epsilon
values = 0.5 0.25
"""


def test_error_study_writes_records_and_plot(tmp_path):
    cfg = _write(tmp_path, "run.ini", BOX_STUDY)
    out = tmp_path / "out"
    assert main(["error-study", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert len(lines) == 3
    svg = (out / "convergence.svg").read_text()
    assert "<svg" in svg.splitlines()[1]
    assert "slope" in svg
    ok, mismatches = verify_manifest(out)
    assert ok, mismatches


def test_loglog_plot_leaves_out_the_points_the_fit_drops(tmp_path):
    # a zero error has no logarithm; the plot draws the rest, as
    # _run_error_study fits the rest
    path = str(tmp_path / "plot.svg")
    svg_loglog(path, [{"label": "relative L2 error", "x": [0.4, 0.2, 0.1],
                       "y": [0.0, 0.02, 0.01], "slope": 1.0,
                       "intercept": -1.3}], "h", "error", "study")
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.count("<circle") == 2 and svg.count("<path") == 1
    assert "(slope 1.000)" in svg
    # with nothing positive, an empty frame
    svg_loglog(path, [{"label": "zero", "x": [0.4], "y": [0.0]}], "h",
               "error", "study")
    svg = (tmp_path / "plot.svg").read_text()
    assert "<circle" not in svg and "<path" not in svg


def test_error_study_with_smoothed_coefficients(tmp_path):
    records = {}
    for mode in ("exact-region", "smoothed"):
        cfg = _write(tmp_path, f"{mode}.ini",
                     BOX_STUDY + f"coefficient_mode = {mode}\n")
        out = tmp_path / mode
        assert main(["error-study", "--config", cfg, "--out", str(out)]) == 0
        ok, mismatches = verify_manifest(out)
        assert ok, mismatches
        records[mode] = (out / "records.csv").read_text().splitlines()
    assert len(records["smoothed"]) == 3
    # the same header and sweep points, other errors
    assert records["smoothed"][0] == records["exact-region"][0]
    assert records["smoothed"] != records["exact-region"]


def test_error_study_meshes_the_level_shapes_without_obstacles(tmp_path,
                                                              capsys):
    # BOX_FLOW has [level] shapes and no [mesh] obstacles, as solve-reference
    # accepts it
    cfg = _write(tmp_path, "run.ini", BOX_FLOW + "[study]\nvalues = 0.5 0.25\n")
    out = tmp_path / "out"
    assert main(["error-study", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "records.csv").read_text().splitlines()) == 3
    # with neither, the message names the missing key
    cfg = _write(tmp_path, "none.ini", BOX_FLOW.replace(
        "shapes = disk 0.5 0.5 0.2", "") + "[study]\nvalues = 0.5 0.25\n")
    assert main(["error-study", "--config", cfg, "--out", str(out)]) == 2
    assert "[mesh] obstacles" in capsys.readouterr().err


def test_optimize_writes_history_and_snapshots(tmp_path):
    cfg = _write(tmp_path, "run.ini", """
[mesh]
outer = flow-cell
h_mesh = 0.15

[level]
shapes = disk -0.2 0.2 0.1

[physics]
traction = shear

[regularization]
eps = 0.01

[descent]
rho = 0.5
max_iter = 3
snapshot_every = 2
""")
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].split(",")[:3] == ["iteration", "j_h", "j_rho"]
    assert 2 <= len(history) - 1 <= 4
    assert (out / "level_00000.csv").is_file()
    assert (out / "level_00000.vtk").is_file()
    assert (out / "state.vtk").is_file()
    summary = dict(line.split(",") for line in
                   (out / "summary.csv").read_text().splitlines()[1:])
    assert float(summary["j_h_final"]) <= float(summary["j_h_initial"])
    ok, mismatches = verify_manifest(out)
    assert ok, mismatches


def test_preset_merged_with_config_overrides(tmp_path):
    cfg = _write(tmp_path, "quick.ini", """
[mesh]
h_mesh = 0.12

[descent]
max_iter = 2
snapshot_every = 1
""")
    out = tmp_path / "out"
    rc = main(["optimize", "--preset", "test1", "--config", cfg,
               "--out", str(out)])
    assert rc == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) - 1 <= 3


def test_optimize_tracking_preset_matches_the_library(tmp_path):
    cfg = _write(tmp_path, "quick.ini", "[mesh]\nh_mesh = 0.1\n"
                 "[descent]\nmax_iter = 2\n")
    out = tmp_path / "out"
    assert main(["optimize", "--preset", "test2", "--config", cfg,
                 "--out", str(out)]) == 0
    ok, mismatches = verify_manifest(out)
    assert ok, mismatches
    history = (out / "history.csv").read_text().splitlines()
    j_h = float(dict(zip(history[0].split(","), history[1].split(",")))["j_h"])
    # the preset's own target and cost, through the library
    problem = presets.test2_problem(h_mesh=0.1, max_iter=1)
    layout = build_spaces(generate_mesh(problem.domain_spec))
    g0 = LevelField.interpolate(layout.mesh, problem.initial_level)
    want = optimize(g0, problem.build_cost(layout), problem.opt, layout,
                    problem.config)[0][0].j_h
    assert abs(j_h - want) <= 1e-12 * abs(want)


def test_output_dir_can_come_from_config(tmp_path):
    out = tmp_path / "from-config"
    cfg = _write(tmp_path, "run.ini",
                 BOX_FLOW + f"\n[output]\ndir = {out}\n")
    assert main(["solve-penalized", "--config", cfg]) == 0
    assert (out / MANIFEST_NAME).is_file()
