"""Deterministic artifact emission: VTK fields, CSV tables, SVG plots, manifest.

Every writer goes through a temp-file-and-rename step so a crash never
leaves a half-written artifact, and all numeric formatting uses repr of
the Python float, so identical inputs produce byte-identical files.
"""

import hashlib
import math
import os
import tempfile

import numpy as np

from .errors import ConfigurationError

MANIFEST_NAME = "manifest.csv"

_PALETTE = ("#1f6feb", "#d73a49", "#2da44e", "#8250df")


def _fmt(x) -> str:
    return repr(float(x))


def atomic_write_text(path, text: str):
    """Write text via a sibling temp file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    """CSV with a header row, '.' decimals and ',' separators."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ConfigurationError("CSV row width does not match header")
        cells = []
        for v in row:
            cell = _fmt(v) if isinstance(v, (float, np.floating)) else str(v)
            if "," in cell or "\n" in cell:
                raise ConfigurationError("CSV cells must not contain ',' "
                                         "or newlines")
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    atomic_write_text(path, csv_text(header, rows))


def vtk_text(mesh, point_scalars=None, point_vectors=None,
             title="penflow fields") -> str:
    """Legacy ASCII VTK (version 2.0) unstructured grid with point data.

    Scalars come first, then vectors, each group in name order; planar
    data is padded with a zero third component.
    """
    point_scalars = dict(point_scalars or {})
    point_vectors = dict(point_vectors or {})
    V = mesh.num_vertices
    out = ["# vtk DataFile Version 2.0", title, "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {V} double"]
    for x, y in mesh.vertices:
        out.append(f"{_fmt(x)} {_fmt(y)} 0.0")
    T = mesh.num_triangles
    out.append(f"CELLS {T} {4 * T}")
    for a, b, c in mesh.triangles:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {T}")
    out.extend(["5"] * T)
    if point_scalars or point_vectors:
        out.append(f"POINT_DATA {V}")
    for name in sorted(point_scalars):
        data = np.asarray(point_scalars[name], dtype=float)
        if data.shape != (V,):
            raise ConfigurationError(f"scalar field {name!r} must have one "
                                     "value per vertex")
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_fmt(v) for v in data)
    for name in sorted(point_vectors):
        data = np.asarray(point_vectors[name], dtype=float)
        if data.shape != (V, 2):
            raise ConfigurationError(f"vector field {name!r} must have two "
                                     "components per vertex")
        out.append(f"VECTORS {name} double")
        out.extend(f"{_fmt(vx)} {_fmt(vy)} 0.0" for vx, vy in data)
    return "\n".join(out) + "\n"


def write_vtk(path, mesh, point_scalars=None, point_vectors=None,
              title="penflow fields"):
    atomic_write_text(path, vtk_text(mesh, point_scalars, point_vectors,
                                     title))


def level_csv_text(mesh, values) -> str:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.num_vertices,):
        raise ConfigurationError("level values must have one entry per vertex")
    return csv_text(["vertex", "x1", "x2", "g"],
                    [(i, x, y, g) for i, ((x, y), g)
                     in enumerate(zip(mesh.vertices, values))])


def _log_ticks(lo, hi):
    # decade ticks covering [lo, hi] in log10 space
    first = math.floor(lo)
    last = math.ceil(hi)
    return [t for t in range(first, last + 1) if lo - 1e-9 <= t <= hi + 1e-9] \
        or [first, last]


def svg_loglog(path, series, xlabel, ylabel, title):
    """Log-log scatter/line plot with optional fitted lines, plain SVG.

    `series` is a sequence of dicts with keys "label", "x", "y" and
    optionally "slope" and "intercept", a fitted power law
    log10(y) = slope*log10(x) + intercept to draw dashed and annotate.
    """
    W, H = 640, 480
    ml, mr, mt, mb = 78, 24, 36, 58
    pw, ph = W - ml - mr, H - mt - mb

    xs_all, ys_all = [], []
    for s in series:
        xs_all.extend(float(v) for v in s["x"])
        ys_all.extend(float(v) for v in s["y"])
    if not xs_all or min(xs_all) <= 0 or min(ys_all) <= 0:
        raise ConfigurationError("log-log plot needs positive data")

    def padded(lo, hi):
        pad = 0.5 if hi - lo < 1e-12 else 0.08 * (hi - lo)
        return lo - pad, hi + pad

    lx0, lx1 = padded(math.log10(min(xs_all)), math.log10(max(xs_all)))
    ly0, ly1 = padded(math.log10(min(ys_all)), math.log10(max(ys_all)))

    def px(lx):
        return ml + (lx - lx0) / (lx1 - lx0) * pw

    def py(ly):
        return mt + (ly1 - ly) / (ly1 - ly0) * ph

    e = ['<?xml version="1.0" encoding="UTF-8"?>',
         f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
         f'height="{H}" viewBox="0 0 {W} {H}">',
         f'<rect width="{W}" height="{H}" fill="white"/>',
         f'<text x="{W/2:.1f}" y="22" text-anchor="middle" '
         f'font-family="sans-serif" font-size="15">{title}</text>']
    # frame
    e.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
             'fill="none" stroke="#444" stroke-width="1"/>')
    for t in _log_ticks(lx0, lx1):
        x = px(t)
        e.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" '
                 f'y2="{mt + ph}" stroke="#ddd" stroke-width="1"/>')
        e.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">1e{t}</text>')
    for t in _log_ticks(ly0, ly1):
        y = py(t)
        e.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" '
                 f'y2="{y:.2f}" stroke="#ddd" stroke-width="1"/>')
        e.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="12">1e{t}</text>')
    e.append(f'<text x="{ml + pw / 2:.1f}" y="{H - 12}" '
             'text-anchor="middle" font-family="sans-serif" '
             f'font-size="13">{xlabel}</text>')
    e.append(f'<text x="20" y="{mt + ph / 2:.1f}" text-anchor="middle" '
             f'transform="rotate(-90 20 {mt + ph / 2:.1f})" '
             f'font-family="sans-serif" font-size="13">{ylabel}</text>')

    legend_y = mt + 16
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = sorted(zip((math.log10(float(v)) for v in s["x"]),
                         (math.log10(float(v)) for v in s["y"])))
        path_d = " ".join(f"{'M' if i == 0 else 'L'}{px(a):.2f},{py(b):.2f}"
                          for i, (a, b) in enumerate(pts))
        e.append(f'<path d="{path_d}" fill="none" stroke="{color}" '
                 'stroke-width="1.6"/>')
        for a, b in pts:
            e.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3.2" '
                     f'fill="{color}"/>')
        label = s["label"]
        if s.get("slope") is not None:
            slope, inter = float(s["slope"]), float(s["intercept"])
            fa, fb = pts[0][0], pts[-1][0]
            e.append(f'<line x1="{px(fa):.2f}" y1="{py(slope * fa + inter):.2f}" '
                     f'x2="{px(fb):.2f}" y2="{py(slope * fb + inter):.2f}" '
                     f'stroke="{color}" stroke-width="1.2" '
                     'stroke-dasharray="6 4"/>')
            label = f"{label} (slope {slope:.3f})"
        e.append(f'<text x="{ml + pw - 8}" y="{legend_y}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="12" '
                 f'fill="{color}">{label}</text>')
        legend_y += 16
    e.append("</svg>")
    atomic_write_text(path, "\n".join(e) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, names):
    """Record name, content hash and size of each artifact in a manifest."""
    rows = []
    for name in sorted(names):
        full = os.path.join(out_dir, name)
        rows.append((name, _sha256(full), os.path.getsize(full)))
    lines = ["path,sha256,bytes"]
    lines.extend(f"{n},{h},{s}" for n, h, s in rows)
    atomic_write_text(os.path.join(out_dir, MANIFEST_NAME),
                      "\n".join(lines) + "\n")


def verify_manifest(out_dir):
    """Re-hash artifacts against the manifest; returns (ok, mismatches)."""
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    mismatches = []
    with open(manifest, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "path,sha256,bytes":
        return False, ["malformed manifest header"]
    for line in lines[1:]:
        name, digest, size = line.rsplit(",", 2)
        full = os.path.join(out_dir, name)
        if not os.path.exists(full):
            mismatches.append(f"{name}: missing")
        elif _sha256(full) != digest or os.path.getsize(full) != int(size):
            mismatches.append(f"{name}: content changed")
    return not mismatches, mismatches
