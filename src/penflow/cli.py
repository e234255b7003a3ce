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
import copy
import json
import math
import os
import re
import sys

import numpy as np

from . import presets
from .artifacts import (MANIFEST_NAME, atomic_write_text, level_csv_text,
                        svg_loglog, write_csv, write_manifest, write_vtk)
from .errors import (ConfigurationError, GeometryError, GenerationError,
                     NonconvergenceError, PenflowError, SolverError,
                     UnknownLabelError)
from .error_study import (EPSILON_SWEEP, MESH_SWEEP, SweepBase,
                          records_to_csv, regression_slope, run_sweep)
from .fem import (AssemblyConfig, EXACT_REGION, PENALIZED_B, PLAIN_B,
                  build_spaces, compute_norm)
from .levelset import LevelField, SmoothingParams, domain_level_function
from .mesh import (DomainSpec, boundary_flux, extract_submesh,
                   generate_mesh, mesh_to_text)
from .ns_solver import solve_navier_stokes, solve_reference_flux_constrained
from .topopt import (CostSpec, OptConfig, DISSIPATED_ENERGY, TRACKING,
                     history_to_csv, optimize)

COMMANDS = ("solve-reference", "solve-penalized", "error-study", "optimize")
PRESET_NAMES = ("sec31", "test1", "test2")
DEFAULT_OUT = "penflow-out"

_SMOOTHED = "smoothed"

# every key a config file may set, per section; anything else is a typo
_SCHEMA = {
    "mesh": {"outer", "h_mesh", "conforming", "obstacles",
             "arc_segments", "circle_segments"},
    "physics": {"nu", "traction", "traction_x", "traction_y",
                "traction_label", "body_force_x", "body_force_y"},
    "regularization": {"eps", "smoothing_width", "divergence_form"},
    "level": {"shapes", "signed_distance"},
    "study": {"kind", "values", "coefficient_mode"},
    "cost": {"kind", "target_shapes"},
    "descent": {"rho", "max_iter", "initial_step", "snapshot_every",
                "plateau_tol", "plateau_steps"},
    "output": {"dir"},
}

_SEC31_DISKS = "disk 0.5 0.25 0.15; disk 0.75 0.0 0.15"

_SEC31_SECTIONS = {
    "mesh": {"outer": "flow-cell", "h_mesh": repr(presets.COARSE_MESH_SIZE),
             "obstacles": _SEC31_DISKS},
    "physics": {"nu": "1.0", "traction": "shear"},
    "regularization": {"eps": "0.025", "divergence_form": "plain"},
    "level": {"shapes": _SEC31_DISKS, "signed_distance": "true"},
    "study": {"kind": "epsilon",
              "values": " ".join(repr(v) for v in
                                 presets.EPSILON_SWEEP_VALUES)},
}


def _descent_sections(name):
    """Sections of the test1/test2 descent presets, read from presets."""
    if name == "test1":
        problem = presets.test1_problem()
        disks = zip(presets.TEST1_CENTERS, presets.TEST1_RADII)
        cost = {"kind": DISSIPATED_ENERGY}
    else:
        problem = presets.test2_problem()
        disks = zip(presets.TEST2_CENTERS, presets.TEST2_RADII)
        ellipse = presets.TEST2_ELLIPSE_CENTER + presets.TEST2_ELLIPSE_AXES
        cost = {"kind": TRACKING, "target_shapes":
                " ".join(["ellipse"] + [repr(v) for v in ellipse])}
    cfg, opt = problem.config, problem.opt
    return {
        "mesh": {"outer": "flow-cell",
                 "h_mesh": repr(problem.domain_spec.h_mesh)},
        "physics": {"nu": repr(cfg.nu), "traction": "shear"},
        "regularization": {"eps": repr(cfg.eps),
                           "divergence_form": cfg.divergence_form},
        "level": {"shapes": "; ".join(f"disk {x!r} {y!r} {r!r}"
                                      for (x, y), r in disks),
                  "signed_distance": "true"},
        "cost": cost,
        "descent": {"rho": repr(opt.rho), "max_iter": str(opt.max_iter),
                    "snapshot_every": str(opt.snapshot_every),
                    "plateau_tol": repr(opt.plateau_tol)},
    }


def preset_sections(command, name):
    """Section/key defaults a named preset contributes for a command."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(f"unknown preset {name!r}; "
                                 f"choose from {', '.join(PRESET_NAMES)}")
    if name != "sec31":
        return _descent_sections(name)
    base = copy.deepcopy(_SEC31_SECTIONS)
    if command == "solve-reference":
        base["mesh"]["h_mesh"] = repr(presets.REFERENCE_MESH_SIZE)
        base["mesh"]["conforming"] = "true"
        base["regularization"]["eps"] = "0.0"
    elif command == "error-study":
        base["mesh"]["h_mesh"] = repr(presets.EPSILON_SWEEP_MESH_SIZE)
    return base


def _read_config_file(path):
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    with open(path, "r") as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    sections = {}
    for sec in parser.sections():
        sections[sec] = dict(parser.items(sec))
    return sections


def _merge_sections(base, overlay):
    merged = copy.deepcopy(base)
    for sec, items in overlay.items():
        merged.setdefault(sec, {}).update(items)
    return merged


def _check_schema(sections):
    for sec, items in sections.items():
        if sec not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{sec}]")
        for key in items:
            if key not in _SCHEMA[sec]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{sec}]")


def _get(sections, sec, key, default=None):
    value = sections.get(sec, {}).get(key)
    if value is None or value.strip() == "":
        return default
    return value.strip()


def _as_float(field, text, minimum=None, exclusive=False):
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{field} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{field} must be finite")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ConfigurationError(f"{field} must be > {minimum}")
        if not exclusive and value < minimum:
            raise ConfigurationError(f"{field} must be >= {minimum}")
    return value


def _as_int(field, text, minimum=None):
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(f"{field} must be an integer, got {text!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{field} must be >= {minimum}")
    return value


def _as_bool(field, text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"{field} must be true or false, got {text!r}")


def _parse_shapes(text, field):
    shapes = []
    for entry in re.split(r"[;\n]", text):
        entry = entry.strip()
        if not entry:
            continue
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
    for entry in re.split(r"[;\n]", text):
        entry = entry.strip()
        if not entry:
            continue
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


class RunConfig:
    """Validated inputs for one command run."""

    def __init__(self, command, sections, out_dir):
        _check_schema(sections)
        self.command = command
        self.sections = sections
        self.out_dir = out_dir

        outer_text = _get(sections, "mesh", "outer", "flow-cell")
        if outer_text == "flow-cell":
            outer = "flow-cell"
        else:
            parts = outer_text.split()
            if len(parts) != 4:
                raise ConfigurationError(
                    "[mesh] outer must be 'flow-cell' or 'x0 y0 x1 y1'")
            outer = tuple(_as_float("[mesh] outer", p) for p in parts)
        h_mesh = _as_float("[mesh] h_mesh",
                           _get(sections, "mesh", "h_mesh", "0.05"),
                           0.0, exclusive=True)
        obstacles = _parse_shapes(_get(sections, "mesh", "obstacles", ""),
                                  "[mesh] obstacles")
        spec_kwargs = {}
        for key in ("arc_segments", "circle_segments"):
            raw = _get(sections, "mesh", key)
            if raw is not None:
                spec_kwargs[key] = _as_int(f"[mesh] {key}", raw, 8)
        self.conforming = _as_bool("[mesh] conforming",
                                   _get(sections, "mesh", "conforming",
                                        "false"))
        self.level_shapes = _parse_shapes(_get(sections, "level", "shapes",
                                               ""), "[level] shapes")
        self.signed_distance = _as_bool(
            "[level] signed_distance",
            _get(sections, "level", "signed_distance", "true"))
        if command == "solve-reference":
            self.conforming = True
            if not obstacles:
                # fall back to the level geometry so the holes get meshed
                obstacles = self.level_shapes
            if not obstacles:
                raise ConfigurationError(
                    "solve-reference needs [mesh] obstacles "
                    "(or [level] shapes) to carve the fluid region")
        try:
            self.domain_spec = DomainSpec(outer=outer, h_mesh=h_mesh,
                                          obstacles=obstacles, **spec_kwargs)
        except (GeometryError, ConfigurationError) as exc:
            raise ConfigurationError(f"[mesh] {exc}") from exc

        nu = _as_float("[physics] nu", _get(sections, "physics", "nu", "1.0"),
                       0.0, exclusive=True)
        traction = None
        named = _get(sections, "physics", "traction")
        tx = _get(sections, "physics", "traction_x")
        ty = _get(sections, "physics", "traction_y")
        if named is not None and (tx is not None or ty is not None):
            raise ConfigurationError(
                "[physics] give either traction (named) or traction_x/_y, "
                "not both")
        if named is not None:
            if named not in presets.NAMED_TRACTIONS:
                raise ConfigurationError(
                    f"[physics] traction: unknown name {named!r}; "
                    f"known: {', '.join(sorted(presets.NAMED_TRACTIONS))}")
            traction = presets.NAMED_TRACTIONS[named]
        else:
            traction = _polynomial_field(tx, ty, "[physics] traction")
        body = _polynomial_field(_get(sections, "physics", "body_force_x"),
                                 _get(sections, "physics", "body_force_y"),
                                 "[physics] body_force")
        eps = _as_float("[regularization] eps",
                        _get(sections, "regularization", "eps", "0.025"), 0.0)
        width_text = _get(sections, "regularization", "smoothing_width")
        smoothing = None
        if width_text is not None:
            smoothing = SmoothingParams(
                _as_float("[regularization] smoothing_width", width_text,
                          0.0, exclusive=True))
        # descent runs need the level-dependent divergence form; everything
        # else compares against the incompressible reference, so plain
        default_form = PENALIZED_B if command == "optimize" else PLAIN_B
        form_text = _get(sections, "regularization", "divergence_form",
                         default_form)
        if form_text not in (PLAIN_B, PENALIZED_B):
            raise ConfigurationError(
                f"[regularization] divergence_form must be {PLAIN_B!r} "
                f"or {PENALIZED_B!r}")
        kwargs = dict(nu=nu, eps=eps, smoothing=smoothing,
                      divergence_form=form_text, body_force=body,
                      traction=traction)
        label = _get(sections, "physics", "traction_label")
        if label is not None:
            kwargs["traction_label"] = label
        try:
            self.assembly = AssemblyConfig(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[physics/regularization] {exc}") from exc

        self.study_kind = None
        if command == "error-study":
            kind = _get(sections, "study", "kind", EPSILON_SWEEP)
            if kind not in (EPSILON_SWEEP, MESH_SWEEP):
                raise ConfigurationError(
                    f"[study] kind must be {EPSILON_SWEEP!r} or "
                    f"{MESH_SWEEP!r}")
            values_text = _get(sections, "study", "values")
            if values_text is None:
                if kind == MESH_SWEEP:
                    values_text = " ".join(repr(v) for v in
                                           presets.MESH_SWEEP_SIZES)
                else:
                    raise ConfigurationError("[study] values is required")
            values = tuple(_as_float("[study] values", v, 0.0,
                                     exclusive=True)
                           for v in values_text.split())
            if len(values) < 2:
                raise ConfigurationError("[study] needs at least two values")
            mode = _get(sections, "study", "coefficient_mode", EXACT_REGION)
            if mode not in (EXACT_REGION, _SMOOTHED):
                raise ConfigurationError(
                    f"[study] coefficient_mode must be {EXACT_REGION!r} "
                    f"or '{_SMOOTHED}'")
            self.study_kind = kind
            self.study_values = values
            self.coefficient_mode = mode

        self.cost_kind = None
        if command == "optimize":
            if not self.level_shapes:
                raise ConfigurationError(
                    "optimize needs [level] shapes for the initial geometry")
            kind = _get(sections, "cost", "kind", DISSIPATED_ENERGY)
            if kind not in (DISSIPATED_ENERGY, TRACKING):
                raise ConfigurationError(
                    f"[cost] kind must be {DISSIPATED_ENERGY!r} or "
                    f"{TRACKING!r}")
            self.cost_kind = kind
            self.target_shapes = _parse_shapes(
                _get(sections, "cost", "target_shapes", ""),
                "[cost] target_shapes")
            if kind == TRACKING and not self.target_shapes:
                raise ConfigurationError(
                    "[cost] target_shapes is required for tracking")
            rho_text = _get(sections, "descent", "rho")
            if rho_text is None:
                raise ConfigurationError("[descent] rho is required")
            try:
                self.opt = OptConfig(
                    rho=_as_float("[descent] rho", rho_text, 0.0),
                    initial_step=_as_float(
                        "[descent] initial_step",
                        _get(sections, "descent", "initial_step", "1.0"),
                        0.0, exclusive=True),
                    max_iter=_as_int("[descent] max_iter",
                                     _get(sections, "descent", "max_iter",
                                          "200"), 1),
                    snapshot_every=_as_int(
                        "[descent] snapshot_every",
                        _get(sections, "descent", "snapshot_every", "25"), 0),
                    plateau_tol=_as_float(
                        "[descent] plateau_tol",
                        _get(sections, "descent", "plateau_tol", "0.0"), 0.0),
                    plateau_steps=_as_int(
                        "[descent] plateau_steps",
                        _get(sections, "descent", "plateau_steps", "50"), 1))
            except ConfigurationError as exc:
                raise ConfigurationError(f"[descent] {exc}") from exc

    @classmethod
    def from_args(cls, args):
        sections = {}
        if args.preset:
            sections = preset_sections(args.command, args.preset)
        if args.config:
            sections = _merge_sections(sections,
                                       _read_config_file(args.config))
        if not sections:
            raise ConfigurationError(
                "no inputs: pass --preset and/or --config")
        out_dir = args.out or _get(sections, "output", "dir", DEFAULT_OUT)
        return cls(args.command, sections, out_dir)

    def level_function(self, shapes=None, signed_distance=None):
        shapes = self.level_shapes if shapes is None else shapes
        if not shapes:
            return None
        if signed_distance is None:
            signed_distance = self.signed_distance
        probe = DomainSpec(outer=self.domain_spec.outer,
                           h_mesh=self.domain_spec.h_mesh, obstacles=shapes)
        return domain_level_function(probe, signed_distance=signed_distance)


def _velocity_vertex_field(layout, Y):
    V, N1 = layout.V, layout.N1
    return np.stack([Y[:V], Y[N1:N1 + V]], axis=1)


def _flow_artifacts(rc, mesh, layout, state, report, extra_rows,
                    level_values=None):
    names = []
    scalars = {"pressure": state.P}
    if level_values is not None:
        scalars["level"] = level_values
    write_vtk(os.path.join(rc.out_dir, "fields.vtk"), mesh, scalars,
              {"velocity": _velocity_vertex_field(layout, state.Y)},
              title="penflow flow fields")
    names.append("fields.vtk")

    atomic_write_text(os.path.join(rc.out_dir, "mesh.txt"),
                      mesh_to_text(mesh))
    names.append("mesh.txt")

    vel = _velocity_vertex_field(layout, state.Y)
    rows = [(f"flux_{label}", boundary_flux(mesh, vel, label))
            for label in mesh.labels()]
    rows.append(("divergence_l2", compute_norm(mesh, state.Y, kind="DivL2")))
    rows.append(("newton_iterations", report.iterations))
    rows.append(("newton_residual", report.final_residual))
    rows.extend(extra_rows)
    write_csv(os.path.join(rc.out_dir, "diagnostics.csv"),
              ["quantity", "value"], rows)
    names.append("diagnostics.csv")
    return names


def _run_solve_penalized(rc):
    mesh = generate_mesh(rc.domain_spec, conform_to_obstacles=rc.conforming)
    layout = build_spaces(mesh)
    level_fn = rc.level_function()
    g = None
    level_values = None
    if level_fn is not None:
        g = LevelField.interpolate(mesh, level_fn)
        level_values = g.nodal_values
    state, report = solve_navier_stokes(layout, rc.assembly, g,
                                        raise_on_failure=True)
    return _flow_artifacts(rc, mesh, layout, state, report, [],
                           level_values)


def _run_solve_reference(rc):
    full = generate_mesh(rc.domain_spec, conform_to_obstacles=True)
    fluid = extract_submesh(full, "Fluid")
    state, multipliers, report = solve_reference_flux_constrained(
        fluid, rc.assembly, raise_on_failure=True)
    extra = [(f"multiplier_{label}", value)
             for label, value in sorted(multipliers.items())]
    return _flow_artifacts(rc, fluid, state.layout, state, report, extra)


def _run_error_study(rc):
    base = SweepBase(rc.domain_spec, rc.assembly,
                     coefficient_mode=rc.coefficient_mode)
    records = run_sweep(rc.study_kind, rc.study_values, base)
    names = ["records.csv", "convergence.svg"]
    atomic_write_text(os.path.join(rc.out_dir, "records.csv"),
                      records_to_csv(records))
    if rc.study_kind == EPSILON_SWEEP:
        xs = [r.epsilon for r in records]
        xlabel = "epsilon"
    else:
        xs = [r.mesh_size for r in records]
        xlabel = "mesh size"
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
    return names


def _run_optimize(rc):
    mesh = generate_mesh(rc.domain_spec, conform_to_obstacles=False)
    layout = build_spaces(mesh)
    initial = LevelField.interpolate(mesh, rc.level_function())
    if rc.cost_kind == TRACKING:
        target_fn = rc.level_function(rc.target_shapes, signed_distance=False)
        g_target = LevelField.interpolate(mesh, target_fn)
        target_cfg = rc.assembly.replace(divergence_form=PLAIN_B)
        target_state, _ = solve_navier_stokes(layout, target_cfg, g_target,
                                              raise_on_failure=True)
        cost = CostSpec(TRACKING, target=target_state.Y)
    else:
        cost = CostSpec(DISSIPATED_ENERGY)

    history, final, snapshots = optimize(initial, cost, rc.opt, layout,
                                         rc.assembly)
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
              {"velocity": _velocity_vertex_field(layout, final.Y)},
              title="penflow final state")
    first, last = history[0], history[-1]
    decrease = 0.0
    if first.j_h != 0:
        decrease = 1.0 - last.j_h / first.j_h
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
    os.makedirs(rc.out_dir, exist_ok=True)
    names = _RUNNERS[command](rc)
    write_manifest(rc.out_dir, names)
    return names + [MANIFEST_NAME]


def _serialize_newton_report(report):
    return json.dumps({
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_norms": list(map(float, report.residual_norms)),
        "message": report.message,
    }, indent=2)


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
        p.add_argument("--seed", type=int, default=0,
                       help="reserved; no randomness is used")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = RunConfig.from_args(args)
    except FileNotFoundError as exc:
        print(f"penflow: cannot read config: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"penflow: I/O error: {exc}", file=sys.stderr)
        return 4
    except (ConfigurationError, GeometryError) as exc:
        print(f"penflow: config error: {exc}", file=sys.stderr)
        return 2

    try:
        names = run(args.command, rc)
    except NonconvergenceError as exc:
        print(f"penflow: solver failed: {exc}", file=sys.stderr)
        print(_serialize_newton_report(exc.report), file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"penflow: solver failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, GeometryError, GenerationError,
            UnknownLabelError) as exc:
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
