"""Polygonal space curves: sampling of toroidal helices and planar loops,
arc length and discrete curvature measurements.

Conventions: all lengths are in tube-diameter units (a unit-thickness rope has
radius 1, so two curve centerlines may not approach closer than 2). Curves are
(n, 3) float arrays; closed curves do not repeat the first vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PolyCurve",
    "sample_toroidal_helix",
    "sample_cylindrical_helix",
    "sample_planar_curve",
    "rotation_about_axis",
]


# Largest coordinate magnitude: fourth powers of vertex differences, which
# the curvature and distance kernels form, stay finite below it.
_MAX_COORDINATE = 1e75


def _segments(v: np.ndarray, closed: bool) -> tuple:
    """(dirs, lens): the segment directions (end minus start) and lengths
    of curves of one vertex count and closedness, vertices v (..., n, 3);
    a closed curve's last segment returns to its first vertex."""
    ends = (np.concatenate((v[..., 1:, :], v[..., :1, :]), axis=-2) if closed
            else v[..., 1:, :])
    dirs = ends - (v if closed else v[..., :-1, :])
    return dirs, np.linalg.norm(dirs, axis=-1)


def _checked(v: np.ndarray, closed: bool) -> None:
    """Raise ValueError unless the curves with vertices v (..., n, 3) have
    finite coordinates of at most _MAX_COORDINATE and distinct consecutive
    vertices."""
    if not (np.abs(v) <= _MAX_COORDINATE).all():
        raise ValueError(
            "vertices must be finite, with coordinates at most "
            f"{_MAX_COORDINATE:g} in magnitude"
        )
    if _segments(v, closed)[1].min() <= 0.0:
        raise ValueError("consecutive vertices must be distinct")


@dataclass
class PolyCurve:
    """A polygonal curve in R^3, closed by default."""

    vertices: np.ndarray
    closed: bool = True

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {v.shape}")
        minimum = 3 if self.closed else 2
        if v.shape[0] < minimum:
            raise ValueError(f"need at least {minimum} vertices, got {v.shape[0]}")
        _checked(v, self.closed)
        self.vertices = v

    @classmethod
    def _of_stack(cls, vertices: np.ndarray, closed: bool = True) -> list:
        """The curves of a stack of m vertex arrays (m, n, 3), checked as
        one: each curve's vertices are a view of its row."""
        _checked(vertices, closed)
        curves = []
        for v in vertices:
            curve = object.__new__(cls)
            curve.vertices, curve.closed = v, closed
            curves.append(curve)
        return curves

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_segments(self) -> int:
        return self.n_vertices if self.closed else self.n_vertices - 1

    def segment_starts(self) -> np.ndarray:
        return self.vertices if self.closed else self.vertices[:-1]

    def segment_ends(self) -> np.ndarray:
        if self.closed:
            return np.concatenate((self.vertices[1:], self.vertices[:1]))
        return self.vertices[1:]

    def segment_lengths(self) -> np.ndarray:
        return _segments(self.vertices, self.closed)[1]

    def length(self) -> float:
        return float(self.segment_lengths().sum())

    def transformed(self, rotation=None, translation=None) -> "PolyCurve":
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=float)
        return PolyCurve(v, self.closed)


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Rotation matrix for a right-handed rotation by `angle` about `axis`.
    Axes (m, 3) or angles (m,) give the m matrices (m, 3, 3), each with the
    bits of a call of its own: the axes are normalized by one dot product
    each, as np.linalg.norm takes a vector's, and every entry is the same
    elementwise formula."""
    u = np.asarray(axis, dtype=float)
    u = u / np.sqrt(np.matmul(u[..., None, :], u[..., :, None])[..., 0])
    c = np.cos(angle)[..., None, None]
    s = np.sin(angle)[..., None, None]
    ux, uy, uz = np.moveaxis(u, -1, 0)
    zero = np.zeros_like(ux)
    cross = np.stack([np.stack(row, axis=-1) for row in
                      ((zero, -uz, uy), (uz, zero, -ux), (-uy, ux, zero))], axis=-2)
    outer = u[..., :, None] * u[..., None, :]
    return c * np.eye(3) + s * cross + (1.0 - c) * outer


def sample_toroidal_helix(
    major_radius: float,
    minor_radius: float,
    p: int = 1,
    n_shell: int = 1,
    shell_index: int = 0,
    phase: float = 0.0,
    n_points: int = 1000,
) -> PolyCurve:
    """Closed helix winding p times around a torus tube while circling its axis once.

    The curve is
        x = (R0 + r cos(p t)) cos(t + f),
        y = (R0 + r cos(p t)) sin(t + f),
        z = r sin(p t),
    with f = 2*pi*shell_index/(n_shell*p) + phase, so the n_shell helices of
    a shell are rigid rotations of one another, evenly staggered around the
    tube (at any longitude, helix j's tube angle is 2*pi*j/n_shell behind
    helix 0's).  minor_radius 0 degenerates to the circle of radius R0 in
    the xy plane.
    """
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    if minor_radius < 0:
        raise ValueError("minor_radius must be >= 0")
    if major_radius <= minor_radius:
        raise ValueError(
            f"major_radius ({major_radius}) must exceed minor_radius "
            f"({minor_radius}); the torus is self-intersecting otherwise"
        )
    if n_shell < 1 or not (0 <= shell_index < n_shell):
        raise ValueError("need 0 <= shell_index < n_shell")
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    f = 2.0 * np.pi * shell_index / (n_shell * p) + phase
    radial = major_radius + minor_radius * np.cos(p * t)
    xyz = np.column_stack(
        (radial * np.cos(t + f), radial * np.sin(t + f), minor_radius * np.sin(p * t))
    )
    return PolyCurve(xyz, closed=True)


def sample_cylindrical_helix(
    radius: float,
    height: float,
    turns: float = 1.0,
    phase: float = 0.0,
    n_points: int = 1000,
) -> PolyCurve:
    """Open helix on a cylinder: one strand rising `height` over `turns` turns."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    t = np.linspace(0.0, 2.0 * np.pi * turns, n_points)
    xyz = np.column_stack(
        (
            radius * np.cos(t + phase),
            radius * np.sin(t + phase),
            height * t / (2.0 * np.pi * turns),
        )
    )
    return PolyCurve(xyz, closed=False)


def _gibbous_xy(theta, gamma: float, delta: float):
    """Planar one-lobed oval: x = gamma*(cos t + delta*cos 2t), y = sin t.

    Convex for |delta| < 1/4; delta = 0 gives an ellipse of half-axes
    (gamma, 1) and gamma = 1, delta = 0 the unit circle.
    """
    return gamma * (np.cos(theta) + delta * np.cos(2.0 * theta)), np.sin(theta)


def _rounded_square_xy(scale: float, flat_fraction: float, n_points: int):
    """Square of half-width `scale` with corners rounded at radius
    (1 - flat_fraction) * scale, sampled uniformly by arc length."""
    s = float(scale)
    f = float(flat_fraction)
    c = (1.0 - f) * s  # corner radius
    flat = 2.0 * f * s  # straight run per side
    quarter = 0.5 * np.pi * c
    perimeter = 4.0 * (flat + quarter)
    u = (np.arange(n_points) + 0.5) / n_points * perimeter
    side = np.floor(u / (flat + quarter)).astype(int)  # 0..3
    along = u - side * (flat + quarter)
    # Local frame per side k: start at the beginning of side k's flat run.
    pts = np.empty((n_points, 2))
    on_flat = along < flat
    # side 0: flat runs along +y on the x = s edge from y = -f*s
    a = np.where(on_flat, along, flat)
    arc = np.clip(along - flat, 0.0, quarter)
    ang = arc / c if c > 0 else np.zeros_like(arc)
    # flat part then corner arc (center at (s - c, f*s) for side 0)
    x0 = np.where(on_flat, s, (s - c) + c * np.cos(ang))
    y0 = np.where(on_flat, -f * s + a, f * s + c * np.sin(ang))
    # rotate by 90 deg per side index
    for k in range(4):
        m = side == k
        if not m.any():
            continue
        ck, sk = np.cos(0.5 * np.pi * k), np.sin(0.5 * np.pi * k)
        pts[m, 0] = ck * x0[m] - sk * y0[m]
        pts[m, 1] = sk * x0[m] + ck * y0[m]
    return pts[:, 0], pts[:, 1]


def sample_planar_curve(
    shape: str,
    shape_params: dict | None = None,
    placement: dict | None = None,
    n_points: int = 1000,
) -> PolyCurve:
    """Sample a planar loop and place it in space.

    Shapes: "circle" (radius), "gibbous" (gamma, delta), "rounded_square"
    (scale, flat_fraction).  The base curve lies in the xz plane, centred at
    the origin, its plane containing the z axis.  Placement applies, in order:
    rotate about z by `azimuth`, translate by `displacement` along the rotated
    radial direction, then tilt by `inclination` about that radial direction
    with the curve centre fixed (`_placed`, of one loop).
    """
    base = _planar_shape(shape, shape_params, n_points)
    pl = dict(placement or {})
    azimuth = float(pl.pop("azimuth", 0.0))
    displacement = float(pl.pop("displacement", 0.0))
    inclination = float(pl.pop("inclination", 0.0))
    if pl:
        raise ValueError(f"unknown placement keys: {sorted(pl)}")
    return PolyCurve(_placed(base, np.array([azimuth]), displacement,
                             inclination)[0])


def _planar_shape(shape: str, shape_params: dict | None, n_points: int):
    """The (n, 3) base curve of a planar loop (see sample_planar_curve), in
    the xz plane and centred at the origin."""
    if n_points < 3:
        raise ValueError("n_points must be >= 3")
    sp = dict(shape_params or {})
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    if shape == "circle":
        radius = float(sp.pop("radius", 1.0))
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        u, v = radius * np.cos(theta), radius * np.sin(theta)
    elif shape == "gibbous":
        gamma = float(sp.pop("gamma", 1.0))
        delta = float(sp.pop("delta", 0.0))
        if gamma <= 0:
            raise ValueError("gibbous gamma must be positive")
        if abs(delta) >= 0.25:
            raise ValueError(
                f"gibbous delta must satisfy |delta| < 1/4 for convexity, got {delta}"
            )
        u, v = _gibbous_xy(theta, gamma, delta)
    elif shape == "rounded_square":
        scale = float(sp.pop("scale", 1.0))
        flat = float(sp.pop("flat_fraction", 0.5))
        if scale <= 0:
            raise ValueError("rounded_square scale must be positive")
        if not (0.0 <= flat < 1.0):
            raise ValueError("flat_fraction must lie in [0, 1)")
        u, v = _rounded_square_xy(scale, flat, n_points)
    else:
        raise ValueError(f"unknown planar shape {shape!r}")
    if sp:
        raise ValueError(f"unused shape_params for {shape!r}: {sorted(sp)}")
    return np.column_stack((u, np.zeros_like(u), v))


def _placed(base: np.ndarray, azimuths: np.ndarray, displacement: float,
            inclination: float) -> np.ndarray:
    """The base curve (n, 3) placed at each of m azimuths, (m, n, 3): turned
    about z by its azimuth (a loop at azimuth 0 is not turned), moved by
    `displacement` along its radial direction, then tilted by `inclination`
    about that direction with its centre fixed (not at all for inclination
    0).  Each step is one batched matmul over the loops, so every loop has
    the bits of a placement of its own."""
    xyz = np.empty((azimuths.size,) + base.shape)
    turned = azimuths != 0.0
    xyz[~turned] = base
    if turned.any():
        rot = rotation_about_axis((0.0, 0.0, 1.0), azimuths[turned])
        xyz[turned] = np.matmul(base, rot.transpose(0, 2, 1))
    radial = np.column_stack((np.cos(azimuths), np.sin(azimuths),
                              np.zeros(azimuths.size)))
    center = (displacement * radial)[:, None]
    xyz += center
    if inclination != 0.0:
        rot = rotation_about_axis(radial, inclination)
        xyz = center + np.matmul(xyz - center, rot.transpose(0, 2, 1))
    return xyz


def min_curvature_radius(curve: PolyCurve) -> float:
    """Minimal three-point circumradius of a polygonal curve.

    The circumradius through consecutive vertex triples is the discrete
    curvature radius; collinear triples contribute +inf.
    """
    v = curve.vertices[None]
    return float(min_curvature_radii(v, curve.closed,
                                     *_segments(v, curve.closed))[0])


def min_curvature_radii(vertices: np.ndarray, closed: bool, dirs: np.ndarray,
                        lens: np.ndarray) -> np.ndarray:
    """min_curvature_radius of each of m curves with one vertex count and
    closedness, from their vertices (m, n, 3) and their segment directions
    and lengths (`_segments`), in one pass: the sides ab and bc of the
    triangle at each vertex triple are two consecutive segments."""
    m, n = vertices.shape[:2]
    if closed:
        a = vertices
        c = np.concatenate((vertices[:, 2:], vertices[:, :2]), axis=1)
        ba, ab, bc = dirs, lens, np.roll(lens, -1, axis=1)
    else:
        if n < 3:
            return np.full(m, np.inf)
        a, c = vertices[:, :-2], vertices[:, 2:]
        ba, ab, bc = dirs[:, :-1], lens[:, :-1], lens[:, 1:]
    return _circumradii(a, ba, c, ab, bc).reshape(m, -1).min(axis=1)


def _circumradii(a, ba, c, ab, bc):
    """Circumradius of each triangle (a_i, b_i, c_i), given the side
    b_i - a_i and the side lengths |ab| and |bc|; +inf where collinear."""
    ca = np.linalg.norm(a - c, axis=-1)
    cross = np.cross(ba, c - a)
    area2 = np.linalg.norm(cross, axis=-1)  # 2 * triangle area
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = ab * bc * ca / (2.0 * area2)
    radii[area2 <= 1e-14 * (ab * bc)] = np.inf
    return radii


class _Stack(NamedTuple):
    """Curves of one vertex count and closedness, stacked: their indices in
    a link, vertices (m, n, 3), closedness, and segment directions (m, s, 3)
    and lengths (m, s) (`_segments`), the one segment table that a link's
    measurement reads."""

    idx: np.ndarray
    vertices: np.ndarray
    closed: bool
    dirs: np.ndarray
    lens: np.ndarray


def _stacks(curves) -> list:
    """The curves as _Stacks, one per vertex count and closedness, in the
    order of their first curves."""
    shapes = {}
    for i, c in enumerate(curves):
        shapes.setdefault((c.n_vertices, c.closed), []).append(i)
    stacks = []
    for (_, closed), idx in shapes.items():
        v = np.stack([curves[i].vertices for i in idx])
        stacks.append(_Stack(np.array(idx), v, closed, *_segments(v, closed)))
    return stacks
