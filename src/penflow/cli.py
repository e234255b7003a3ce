"""Command-line front door: config parsing, four subcommands, artifacts.

Commands: solve-penalized (smoothed-obstacle flow on the full domain),
solve-reference (body-fitted flow with per-obstacle flux constraints),
error-study (accuracy sweeps with fitted convergence slopes), optimize
(penalty-of-constraints steepest descent on the obstacle level field).

Configs are INI-style ``key = value`` files; vector data such as the
boundary stress is given per component as monomial triples ``coef p q``
meaning coef * x1^p * x2^q, joined with ';'.  Exit codes: 0 success,
2 configuration problem, 3 solver failure, 4 I/O failure.
"""

import argparse
import configparser
import json
import math
import os
import re
import sys

import numpy as np

from . import presets
from .artifacts import (MANIFEST_NAME, atomic_write_text, level_csv_text,
                        svg_loglog, write_csv, write_manifest, write_vtk)
from .errors import (ConfigurationError, DegenerateInputError, GenerationError,
                     GeometryError, NonconvergenceError, PenflowError,
                     SolverError, UnknownLabelError)
from .error_study import (EPSILON_SWEEP, MESH_SWEEP, records_to_csv,
                          regression_slope, run_sweep)
from .fem import (AssemblyConfig, EXACT_REGION, PENALIZED_B, PLAIN_B,
                  boundary_flux, build_spaces, compute_norm)
from .levelset import LevelField, check_width, domain_level_function
from .mesh import DomainSpec, extract_submesh, generate_mesh, mesh_to_text
from .ns_solver import (MixedState, solve_navier_stokes,
                        solve_reference_flux_constrained)
from .topopt import (OptConfig, DISSIPATED_ENERGY, TRACKING, history_to_csv,
                     optimize)

COMMANDS = ("solve-reference", "solve-penalized", "error-study", "optimize")
PRESET_NAMES = ("sec31", "test1", "test2")
DEFAULT_OUT = "penflow-out"


def _shapes_text(shapes):
    """Shape tuples as the text _parse_shapes reads back."""
    return "; ".join(" ".join([kind] + [repr(float(v)) for p in params
                                        for v in np.ravel(p)])
                     for kind, *params in shapes)


def preset_sections(command, name):
    """Section/key defaults a named preset contributes for a command, read
    from the factories in presets."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(f"unknown preset {name!r}; "
                                 f"choose from {', '.join(PRESET_NAMES)}")
    problem = {"test1": presets.test1_problem, "test2": presets.test2_problem,
               "sec31": {"solve-reference": presets.sec31_reference,
                         "error-study": presets.epsilon_sweep}.get(
                             command, presets.sec31_penalized)}[name]()
    spec, cfg = problem.domain_spec, problem.config
    # sec31 meshes the disks it is penalized by; a descent starts from its
    # level shapes on the empty cell
    shapes = _shapes_text(spec.obstacles or problem.level_shapes)
    sections = {
        "mesh": {"outer": "flow-cell", "h_mesh": repr(spec.h_mesh)},
        "physics": {"nu": repr(cfg.nu), "traction": "shear"},
        "regularization": {"eps": repr(cfg.eps),
                           "divergence_form": cfg.divergence_form},
        "level": {"shapes": shapes},
    }
    if spec.obstacles:
        sections["mesh"]["obstacles"] = shapes
        sections["study"] = {"kind": EPSILON_SWEEP, "values": " ".join(
            repr(v) for v in presets.EPSILON_SWEEP_VALUES)}
        return sections
    sections["cost"] = {"kind": problem.cost_kind,
                        "target_shapes": _shapes_text(problem.target_shapes)}
    sections["descent"] = {key: repr(getattr(problem.opt, key)) for key in
                           ("rho", "max_iter", "snapshot_every")}
    return sections


def _read_config_file(path):
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, "r") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


# value parsers: each takes a key's text and its "[section] key" name,
# which starts every message it raises
def _number(convert, minimum=None, exclusive=False):
    """Parser of finite numbers convert(text) >= minimum (> if exclusive)."""
    def parse(text, field):
        try:
            value = convert(text)
        except ValueError:
            what = "an integer" if convert is int else "a number"
            raise ConfigurationError(f"{field} must be {what}, got {text!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"{field} must be finite")
        if minimum is not None and (value <= minimum if exclusive
                                    else value < minimum):
            raise ConfigurationError(
                f"{field} must be {'>' if exclusive else '>='} {minimum}")
        return value
    return parse


_POSITIVE = _number(float, 0.0, exclusive=True)
_NONNEGATIVE = _number(float, 0.0)
_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
          **dict.fromkeys(("false", "no", "off", "0"), False)}


def _as_bool(text, field):
    if text.lower() not in _BOOLS:
        raise ConfigurationError(f"{field} must be true or false, got {text!r}")
    return _BOOLS[text.lower()]


def _one_of(*choices):
    """Parser of one of the given names."""
    def parse(text, field):
        if text not in choices:
            raise ConfigurationError(f"{field} must be "
                                     f"{' or '.join(map(repr, choices))}, "
                                     f"got {text!r}")
        return text
    return parse


def _as_text(text, field):
    return text


def _parse_outer(text, field):
    if text == "flow-cell":
        return text
    parts = text.split()
    if len(parts) != 4:
        raise ConfigurationError(f"{field} must be 'flow-cell' or 'x0 y0 x1 y1'")
    return tuple(_number(float)(p, field) for p in parts)


# sweep values closer than this fraction of the larger one give no slope
_SWEEP_MARGIN = 0.01


def _parse_sweep_values(text, field):
    values = tuple(_POSITIVE(v, field) for v in text.split())
    if len(values) < 2:
        raise ConfigurationError(f"{field} needs at least two values")
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= _SWEEP_MARGIN * b:
            raise ConfigurationError(f"{field} {a!r} and {b!r} lie within "
                                     f"{_SWEEP_MARGIN:.0%} of each other")
    return values


def _entries(text):
    """The non-blank ';'- or newline-separated entries of text, stripped."""
    return [e.strip() for e in re.split(r"[;\n]", text) if e.strip()]


def _parse_shapes(text, field):
    shapes = []
    for entry in _entries(text):
        parts = entry.split()
        kind, nums = parts[0].lower(), parts[1:]
        try:
            vals = [float(p) for p in nums]
        except ValueError:
            raise ConfigurationError(f"{field}: bad number in {entry!r}")
        if kind == "disk" and len(vals) == 3:
            shapes.append(("disk", (vals[0], vals[1]), vals[2]))
        elif kind == "ellipse" and len(vals) == 4:
            shapes.append(("ellipse", (vals[0], vals[1]), (vals[2], vals[3])))
        elif kind == "polygon" and len(vals) >= 6 and len(vals) % 2 == 0:
            pts = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
            shapes.append(("polygon", pts))
        else:
            raise ConfigurationError(
                f"{field}: expected 'disk cx cy r', 'ellipse cx cy a b' or "
                f"'polygon x1 y1 x2 y2 ...', got {entry!r}")
    return tuple(shapes)


def _parse_monomials(text, field):
    terms = []
    for entry in _entries(text):
        parts = entry.split()
        if len(parts) != 3:
            raise ConfigurationError(
                f"{field}: each monomial is 'coef p q', got {entry!r}")
        try:
            coef = float(parts[0])
            p, q = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigurationError(f"{field}: bad monomial {entry!r}")
        if p < 0 or q < 0:
            raise ConfigurationError(f"{field}: exponents must be >= 0")
        if not math.isfinite(coef):
            raise ConfigurationError(f"{field}: coefficients must be finite")
        terms.append((coef, p, q))
    return terms


def _polynomial_field(tx, ty, field):
    """Vector field callable from per-component monomial tables, or None."""
    terms_x = _parse_monomials(tx, f"{field}_x") if tx else []
    terms_y = _parse_monomials(ty, f"{field}_y") if ty else []
    if not terms_x and not terms_y:
        return None

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for comp, terms in ((0, terms_x), (1, terms_y)):
            for coef, p, q in terms:
                out[..., comp] += coef * x[..., 0] ** p * x[..., 1] ** q
        return out

    return evaluate


# Every key a config may set, with its parser and its default; any other
# key is a typo.  A key with no value and no default here is left out, so
# the constructor it feeds (DomainSpec, AssemblyConfig, OptConfig) applies
# its own default.  The monomial tables stay text: _polynomial_field reads
# each x/y pair into one vector field.
_KEYS = {
    ("mesh", "outer"): (_parse_outer, None),
    ("mesh", "h_mesh"): (_POSITIVE, None),
    ("mesh", "conforming"): (_as_bool, False),
    ("mesh", "obstacles"): (_parse_shapes, None),
    ("physics", "nu"): (_POSITIVE, None),
    ("physics", "traction"): (_one_of(*presets.NAMED_TRACTIONS), None),
    ("physics", "traction_x"): (_as_text, None),
    ("physics", "traction_y"): (_as_text, None),
    ("physics", "traction_label"): (_as_text, None),
    ("physics", "body_force_x"): (_as_text, None),
    ("physics", "body_force_y"): (_as_text, None),
    ("regularization", "eps"): (_NONNEGATIVE, None),
    ("regularization", "smoothing_width"): (
        lambda text, field: check_width(_POSITIVE(text, field), field), None),
    ("regularization", "divergence_form"): (_one_of(PLAIN_B, PENALIZED_B),
                                            None),
    ("level", "shapes"): (_parse_shapes, ()),
    ("study", "kind"): (_one_of(EPSILON_SWEEP, MESH_SWEEP), EPSILON_SWEEP),
    ("study", "values"): (_parse_sweep_values, None),
    ("study", "coefficient_mode"): (_one_of(EXACT_REGION, "smoothed"),
                                    EXACT_REGION),
    ("cost", "kind"): (_one_of(DISSIPATED_ENERGY, TRACKING), DISSIPATED_ENERGY),
    ("cost", "target_shapes"): (_parse_shapes, ()),
    ("descent", "rho"): (_NONNEGATIVE, None),
    ("descent", "max_iter"): (_number(int, 1), None),
    ("descent", "snapshot_every"): (_number(int, 0), None),
    ("descent", "plateau_steps"): (_number(int, 1), None),
    ("output", "dir"): (_as_text, DEFAULT_OUT),
}
_SECTIONS = {sec for sec, _ in _KEYS}


def _read_values(sections):
    """Per section, each key's parsed config text, else its table default."""
    for sec, items in sections.items():
        if sec not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{sec}]")
        for key in items:
            if (sec, key) not in _KEYS:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{sec}]")
    values = {sec: {} for sec in _SECTIONS}
    for (sec, key), (parse, default) in _KEYS.items():
        text = (sections.get(sec, {}).get(key) or "").strip()
        if text:
            values[sec][key] = parse(text, f"[{sec}] {key}")
        elif default is not None:
            values[sec][key] = default
    return values


class RunConfig:
    """Validated inputs for one command run."""

    def __init__(self, command, sections, out_dir=None):
        values = _read_values(sections)
        mesh, physics = values["mesh"], values["physics"]
        reg, study = values["regularization"], values["study"]
        self.out_dir = out_dir or values["output"]["dir"]
        self.conforming = mesh.pop("conforming") or command == "solve-reference"
        self.level_shapes = values["level"]["shapes"]
        self.obstacles_key = "[mesh] obstacles"  # the shapes a mesh carves
        try:
            self.domain_spec = DomainSpec(**mesh)
        except GeometryError as exc:
            raise ConfigurationError(f"[mesh] {exc}") from exc
        for sec, key in (("level", "shapes"), ("cost", "target_shapes")):
            try:  # the probe that checks the shapes where they are used
                self.level_function(values[sec][key])
            except GeometryError as exc:
                raise ConfigurationError(f"[{sec}] {key}: {exc}") from exc
        if command in ("solve-reference", "error-study") and \
                not self.domain_spec.obstacles:
            if not self.level_shapes:
                raise ConfigurationError(
                    f"{command} needs [mesh] obstacles "
                    "(or [level] shapes) to carve the fluid region")
            # fall back to the level geometry so the holes get meshed
            self.domain_spec = self.domain_spec.replace(
                obstacles=self.level_shapes)
            self.obstacles_key = "[level] shapes"

        named = physics.pop("traction", None)
        tx, ty = (physics.pop(f"traction_{c}", None) for c in "xy")
        if named and (tx or ty):
            raise ConfigurationError(
                "[physics] give either traction (named) or traction_x/_y, "
                "not both")
        physics["traction"] = (presets.NAMED_TRACTIONS[named] if named else
                               _polynomial_field(tx, ty, "[physics] traction"))
        physics["body_force"] = _polynomial_field(
            physics.pop("body_force_x", None),
            physics.pop("body_force_y", None), "[physics] body_force")
        # descent runs need the library's level-dependent divergence form;
        # the rest compare against the incompressible reference, so plain
        if command != "optimize":
            reg.setdefault("divergence_form", PLAIN_B)
        self.assembly = AssemblyConfig(**physics, **reg)

        if study["kind"] == MESH_SWEEP:
            study.setdefault("values", presets.MESH_SWEEP_SIZES)
        self.study_kind = study["kind"]
        self.study_values = study.get("values")
        self.coefficient_mode = study["coefficient_mode"]
        if command == "error-study" and self.study_values is None:
            raise ConfigurationError("[study] values is required")

        self.cost_kind = values["cost"]["kind"]
        self.target_shapes = values["cost"]["target_shapes"]
        if command == "optimize":
            if not self.level_shapes:
                raise ConfigurationError(
                    "optimize needs [level] shapes for the initial geometry")
            if self.cost_kind == TRACKING and not self.target_shapes:
                raise ConfigurationError(
                    "[cost] target_shapes is required for tracking")
            if "rho" not in values["descent"]:
                raise ConfigurationError("[descent] rho is required")
            self.opt = OptConfig(**values["descent"])

    @classmethod
    def from_args(cls, args):
        sections = {}
        if args.preset:
            sections = preset_sections(args.command, args.preset)
        if args.config:
            for sec, items in _read_config_file(args.config).items():
                sections.setdefault(sec, {}).update(items)
        if not sections:
            raise ConfigurationError("no inputs: pass --preset and/or --config")
        return cls(args.command, sections, args.out)

    def level_function(self, shapes=None):
        shapes = self.level_shapes if shapes is None else shapes
        if not shapes:
            return None
        return domain_level_function(self.domain_spec.replace(
            obstacles=shapes))


def _flow_artifacts(rc, mesh, state, report, extra_rows, level_values=None):
    scalars = {"pressure": state.P}
    if level_values is not None:
        scalars["level"] = level_values
    vel = state.velocity_vertices
    write_vtk(os.path.join(rc.out_dir, "fields.vtk"), mesh, scalars,
              {"velocity": vel}, title="penflow flow fields")
    atomic_write_text(os.path.join(rc.out_dir, "mesh.txt"),
                      mesh_to_text(mesh))

    rows = [(f"flux_{label}", boundary_flux(mesh, vel, label))
            for label in mesh.labels()]
    rows += [("divergence_l2", compute_norm(mesh, state.Y, kind="DivL2")),
             ("newton_iterations", report.iterations),
             ("newton_residual", report.final_residual)] + extra_rows
    write_csv(os.path.join(rc.out_dir, "diagnostics.csv"),
              ["quantity", "value"], rows)
    return ["fields.vtk", "mesh.txt", "diagnostics.csv"]


def _run_solve_penalized(rc):
    mesh = generate_mesh(rc.domain_spec, conform_to_obstacles=rc.conforming)
    layout = build_spaces(mesh)
    level_fn = rc.level_function()
    g = None if level_fn is None else LevelField.interpolate(mesh, level_fn)
    state, report = solve_navier_stokes(layout, rc.assembly, g,
                                        raise_on_failure=True)
    return _flow_artifacts(rc, mesh, state, report, [],
                           None if g is None else g.nodal_values)


def _run_solve_reference(rc):
    full = generate_mesh(rc.domain_spec, conform_to_obstacles=True)
    fluid = extract_submesh(full, "Fluid")
    state, multipliers, report = solve_reference_flux_constrained(
        fluid, rc.assembly, raise_on_failure=True)
    extra = [(f"multiplier_{label}", value)
             for label, value in sorted(multipliers.items())]
    return _flow_artifacts(rc, fluid, state, report, extra)


def _run_error_study(rc):
    records = run_sweep(rc.study_kind, rc.study_values, rc.domain_spec,
                        rc.assembly, rc.coefficient_mode)
    x_field, xlabel = (("epsilon", "epsilon") if rc.study_kind == EPSILON_SWEEP
                       else ("mesh_size", "mesh size"))
    xs = [getattr(r, x_field) for r in records]
    series = []
    for field, label in (("l2_rel", "relative L2 error"),
                         ("h1_rel", "relative H1 error")):
        ys = [getattr(r, field) for r in records]
        pts = [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys)
               if y > 0]
        slope = intercept = None
        if len(pts) >= 2:
            slope = regression_slope(pts)
            mx = sum(p[0] for p in pts) / len(pts)
            my = sum(p[1] for p in pts) / len(pts)
            intercept = my - slope * mx
        series.append({"label": label, "x": xs, "y": ys,
                       "slope": slope, "intercept": intercept})
    svg_loglog(os.path.join(rc.out_dir, "convergence.svg"), series,
               xlabel, "relative error", "convergence study")
    atomic_write_text(os.path.join(rc.out_dir, "records.csv"),
                      records_to_csv(records))
    return ["records.csv", "convergence.svg"]


def _run_optimize(rc):
    mesh = generate_mesh(rc.domain_spec, conform_to_obstacles=False)
    layout = build_spaces(mesh)
    preset = presets.DescentPreset(rc.domain_spec, rc.assembly,
                                   rc.level_shapes, rc.cost_kind, rc.opt,
                                   rc.target_shapes)
    initial = LevelField.interpolate(mesh, preset.initial_level)
    history, final, snapshots = optimize(initial, preset.build_cost(layout),
                                         rc.opt, layout, rc.assembly)
    names = ["history.csv", "state.vtk", "summary.csv"]
    atomic_write_text(os.path.join(rc.out_dir, "history.csv"),
                      history_to_csv(history))
    for snap in snapshots:
        stem = f"level_{snap.iteration:05d}"
        atomic_write_text(os.path.join(rc.out_dir, stem + ".csv"),
                          level_csv_text(mesh, snap.level.nodal_values))
        write_vtk(os.path.join(rc.out_dir, stem + ".vtk"), mesh,
                  {"level": snap.level.nodal_values},
                  title="penflow level snapshot")
        names.extend([stem + ".csv", stem + ".vtk"])
    write_vtk(os.path.join(rc.out_dir, "state.vtk"), mesh,
              {"pressure": final.P, "level": final.G},
              {"velocity": MixedState(layout, final.Y,
                                      final.P).velocity_vertices},
              title="penflow final state")
    first, last = history[0], history[-1]
    decrease = 1.0 - last.j_h / first.j_h if first.j_h != 0 else 0.0
    write_csv(os.path.join(rc.out_dir, "summary.csv"),
              ["quantity", "value"],
              [("iterations", last.iteration),
               ("j_h_initial", first.j_h),
               ("j_h_final", last.j_h),
               ("j_h_decrease_fraction", decrease),
               ("constraint_inf_initial", first.constraint_inf),
               ("constraint_inf_final", last.constraint_inf),
               ("obstacle_components_final", snapshots[-1].obstacle_components),
               ("boundary_sign_ok", snapshots[-1].boundary_sign_ok)])
    return names


_RUNNERS = {
    "solve-penalized": _run_solve_penalized,
    "solve-reference": _run_solve_reference,
    "error-study": _run_error_study,
    "optimize": _run_optimize,
}


def run(command, rc: RunConfig) -> list:
    """Execute one command; returns the artifact names written."""
    if command not in _RUNNERS:
        raise ConfigurationError(f"unknown command {command!r}")
    try:
        names = _RUNNERS[command](rc)
    except (GenerationError, DegenerateInputError) as exc:  # the mesh size
        key = "[study] values" if command == "error-study" and \
            rc.study_kind == MESH_SWEEP else "[mesh] h_mesh"
        raise ConfigurationError(f"{key}: {exc}") from exc
    except GeometryError as exc:  # meshed obstacles that overlap
        raise ConfigurationError(f"{rc.obstacles_key}: {exc}") from exc
    except UnknownLabelError as exc:  # the one label a config names
        raise ConfigurationError(f"[physics] traction_label: {exc}") from exc
    write_manifest(rc.out_dir, names)
    return names + [MANIFEST_NAME]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="penflow",
        description="Penalized Navier-Stokes flow and obstacle design tools")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", metavar="PATH",
                       help="INI-style run configuration")
        p.add_argument("--out", metavar="DIR",
                       help="artifact directory (default from config)")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="named experiment defaults")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = RunConfig.from_args(args)
        names = run(args.command, rc)
    except SolverError as exc:
        print(f"penflow: solver failed: {exc}", file=sys.stderr)
        if isinstance(exc, NonconvergenceError):
            print(json.dumps(vars(exc.report), indent=2), file=sys.stderr)
        return 3
    except PenflowError as exc:
        print(f"penflow: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"penflow: I/O error: {exc}", file=sys.stderr)
        return 4
    for name in names:
        print(os.path.join(rc.out_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
