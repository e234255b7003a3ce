"""Level functions describing obstacle geometry and their C1 smoothed steps.

The fluid region is where the level function g is negative; obstacles are
its positive region.  Coefficient jumps across the zero set are smoothed by
a piecewise-cubic regularized Heaviside that ramps on (0, width), and by
the same step moved by one width, which ramps on (-width, 0).  A level
field is admissible when it is negative on the whole outer boundary
(check_admissibility).
"""

import numpy as np

from .errors import ConfigurationError


def smoothed_heaviside(r, width):
    """Value and exact derivative of the regularized Heaviside at r.

    Vectorized over r: 0 for r <= 0, 1 for r >= width, and
    (-2r + 3w) r^2 / w^3 between.  The shifted step, which ramps on
    (-width, 0), is this one at r + width.

    Returns:
        (value, derivative) arrays (or scalars for scalar input).
    """
    val, der = heaviside_value(r, width), heaviside_derivative(r, width)
    if np.isscalar(r):
        return float(val), float(der)
    return val, der


def check_width(width, name="smoothing width"):
    """width, unless it is not positive or its cube underflows."""
    if not width > 0:
        raise ConfigurationError(f"{name} must be positive")
    if min(width, 1.0) ** 3 < np.finfo(float).tiny:
        raise ConfigurationError(f"{name} is so small that its cube underflows")
    return width


def _ramp(r, width):
    """r clipped to the ramp [0, width]."""
    return np.clip(np.asarray(r, dtype=float), 0.0, check_width(width))


def heaviside_value(r, width):
    """The value of smoothed_heaviside alone, as an array."""
    s, w = _ramp(r, width), width
    return np.where(s == w, 1.0, (-2.0 * s + 3.0 * w) * s ** 2 / w ** 3)


def heaviside_derivative(r, width):
    """The derivative of smoothed_heaviside alone, as an array."""
    s, w = _ramp(r, width), width
    return np.where((s > 0.0) & (s < w), 6.0 * s * (w - s) / w ** 3, 0.0)


class LevelField:
    """Nodal P1 representation of a level function on a mesh."""

    def __init__(self, nodal_values):
        self.nodal_values = np.ascontiguousarray(nodal_values, dtype=float)
        if self.nodal_values.ndim != 1:
            raise ConfigurationError("nodal values must be a flat vector")
        if not np.all(np.isfinite(self.nodal_values)):
            raise ConfigurationError("nodal values must be finite")

    @classmethod
    def interpolate(cls, mesh, g):
        """Nodal interpolation of a pointwise evaluator g(x) onto mesh vertices."""
        return cls(np.asarray(g(mesh.vertices), dtype=float))

    def __len__(self):
        return len(self.nodal_values)


def compose_disks(centers, radii, signed_distance=False):
    """Pointwise level function of a union of disks, positive inside.

    Default is the quadratic form g(x) = max_i( -|x - c_i|^2 + r_i^2 );
    with signed_distance the exact distance max_i( r_i - |x - c_i| ), whose
    gradient has unit length so smoothing widths act as geometric widths.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if len(centers) == 0:
        raise ConfigurationError("need at least one disk; use g < 0 for no obstacle")
    if len(centers) != len(radii):
        raise ConfigurationError("need one radius per center")
    if np.any(radii <= 0):
        raise ConfigurationError("disk radii must be positive")

    def g(x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x[..., None, :] - centers) ** 2, axis=-1)
        if signed_distance:
            return np.max(radii - np.sqrt(d2), axis=-1)
        return np.max(radii ** 2 - d2, axis=-1)

    return g


def compose_ellipses(centers, semi_axes):
    """Pointwise level function of a union of axis-aligned ellipses.

    g(x) = max_i( 1 - ((x1-c1)/a)^2 - ((x2-c2)/b)^2 ), positive inside.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    semi_axes = np.atleast_2d(np.asarray(semi_axes, dtype=float))
    if len(centers) == 0:
        raise ConfigurationError("need at least one ellipse")
    if semi_axes.shape != centers.shape or np.any(semi_axes <= 0):
        raise ConfigurationError("need positive (a, b) per center")

    def g(x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None, :] - centers) / semi_axes
        return np.max(1.0 - np.sum(u ** 2, axis=-1), axis=-1)

    return g


def domain_level_function(spec, signed_distance=True):
    """Level function of a DomainSpec's obstacle set, positive inside.

    Disks use the exact signed distance by default; ellipses fall back to
    the normalized quadratic form; polygons use the exact distance to the
    polygon.  Raises if the spec has no obstacles.
    """
    from .mesh import polygon_signed_distance

    if not spec.obstacles:
        raise ConfigurationError("domain spec has no obstacles")
    parts = []
    for ob in spec.obstacles:
        if ob[0] == "disk":
            parts.append(compose_disks([ob[1]], [ob[2]],
                                       signed_distance=signed_distance))
        elif ob[0] == "ellipse":
            parts.append(compose_ellipses([ob[1]], [ob[2]]))
        else:
            poly = np.asarray(ob[1], dtype=float)
            parts.append(lambda x, poly=poly: -polygon_signed_distance(x, poly))

    def g(x):
        return np.max(np.stack([p(x) for p in parts], axis=-1), axis=-1)

    return g


def check_admissibility(g: LevelField, mesh) -> bool:
    """Whether a nodal level field is admissible on a mesh: negative at
    every outer-boundary vertex, so no obstacle touches the outer boundary."""
    vals = g.nodal_values
    if len(vals) != mesh.num_vertices:
        raise ConfigurationError("level field size does not match mesh")
    return bool(np.all(vals[np.unique(mesh.boundary_edges.ravel())] < 0.0))
