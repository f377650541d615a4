"""Thickness, ropelength, and summary metrics of polygonal link configurations.

A configuration of unit-thickness tubes is embedded when every pair of
distinct components stays at least one tube diameter (2 units) apart, every
component keeps that same clearance from itself away from local neighbours,
and no centreline bends tighter than the tube radius (1 unit).  A torus
link must also have the linking pattern its construction promises.  The
normalized ropelength rescales the total centreline length by the worst
violation, so it is invariant under uniform scaling and rigid motions.
`verify` is the one place that decides whether measured metrics describe such
an embedding.

A link is measured modulo the symmetry its coordinates prove, whether it was
built or read from a file (no field declares one), in one distance search
over one segment table: the self pairs of each class of congruent
components (`_symmetry`'s classes) are searched on its first member only,
and the inter-component pairs are those that touch a representative of an
orbit of the link's rotation group about z.  Every distance minimum is then
within 2 eps of the whole link's (eps = 1e-12 of the link's extent), and
verify judges such a link's clearance with that margin.  Curvature radii
are measured on every component, in one batch per vertex count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curves import PolyCurve, _stacks, min_curvature_radii
# Not called here; kept because perfbench/tracing.py wraps these attributes.
from .curves import min_curvature_radius  # noqa: F401
from .distances import _SegmentSoup, _certified_min
from .distances import mutual_min_distance  # noqa: F401
from .linking import linking_matrix

__all__ = [
    "LinkConfiguration",
    "LinkMetrics",
    "measure_link",
    "measure_thickness",
    "verify",
]

# A scale-free link is touching when its clearance is below this fraction of
# its total length.  Loops that cross each other measure ~1e-32 apart rather
# than 0, and anything this thin would normalize to a length above 1e9.
_TOUCH_FRACTION = 1e-9

# A symmetry is accepted when it moves every vertex within this fraction of
# the link's extent (eps) of its image; rotated copies of built links agree
# to a few 1e-15 of it.
_SYMMETRY_EPS = 1e-12

# Default of verify's `linking`: no linking numbers were computed.
_UNMEASURED = object()


@dataclass
class LinkConfiguration:
    """A multi-component polygonal link plus whatever is known about it.

    Nothing here declares a symmetry: measure_link finds the one its
    coordinates prove (`_symmetry`), for built links and files alike.
    """

    components: list
    crossing_number: int | None = None
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.components = list(self.components)
        if not self.components:
            raise ValueError("configuration needs at least one component")
        for c in self.components:
            if not isinstance(c, PolyCurve):
                raise TypeError("components must be PolyCurve instances")

    @property
    def n_components(self) -> int:
        return len(self.components)

    def total_length(self) -> float:
        return float(sum(c.length() for c in self.components))


@dataclass
class LinkMetrics:
    """Summary measurements of a link configuration.  The inter-component
    and self minima are None when only the overall minimum was measured
    (measure_thickness).  `margin` is how far the distance minima may lie
    above the whole link's when it was measured modulo a symmetry (2 eps),
    else 0; verify subtracts it from the clearance, and it is not
    reported."""

    total_length: float
    min_inter_distance: float | None
    min_self_distance: float | None
    min_overall_distance: float
    min_curvature_radius: float
    thickness: float
    normalized_length: float
    crossing_number: int | None = None
    length_per_crossing: float | None = None
    alpha: float | None = None
    margin: float = 0.0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__
                if k != "margin"}


class _Symmetry(NamedTuple):
    """What a link's coordinates prove about its symmetry (see _symmetry)."""

    classes: np.ndarray  # each component's class representative
    reps: np.ndarray | None  # per segment: represents its orbit; None: no group
    margin: float  # 2 eps when a symmetry is used, else 0
    stacks: list  # per shape: the segment table (`curves._Stack`)


def _symmetry(comps) -> _Symmetry:
    """Congruence classes and rotation group of a link, from its coordinates.

    eps is _SYMMETRY_EPS times the link's extent, the largest spread of its
    vertices along an axis, so it does not depend on where the link sits.

    The rotation group is the largest cyclic group of rotations about the z
    axis whose generator maps every vertex v of every component within
    eps / k of vertex v + shift (cyclically) of a component, its image; each
    of its k elements is then within eps.  The orders tried are the
    divisors of the gcd of the sizes of the groups of components with
    matching chords (see _chords), largest first.  Each orbit of segments under the group is represented by its
    lowest index.

    Two components are congruent when they have the same vertex count and
    closedness and an isometry, proper or improper, maps one within eps of
    the other vertex for vertex in index order: the components of an orbit
    of the group are, and the orbits' first components are registered
    against each other.  A class is represented by its first member.

    Every segment pair is within 2 eps of a congruent pair with a
    representative segment, and every component within eps of its class
    representative, so distance minima over those are within 2 eps of the
    minima over the whole link."""
    q = len(comps)
    stacks = _stacks(comps)
    # one row per axis: numpy reduces rows far faster than (N, 3) columns
    axes = np.concatenate([st.vertices.reshape(-1, 3) for st in stacks]).T.copy()
    eps = _SYMMETRY_EPS * float(np.ptp(axes, axis=1).max())
    chords = [_chords(st.vertices) for st in stacks]
    sizes = [np.bincount(_matching(ch, eps).argmax(axis=1)) for ch in chords]
    sizes = np.concatenate(sizes)
    group = _rotation_group(comps, stacks, int(np.gcd.reduce(sizes[sizes > 1],
                                                             initial=0)), eps)
    orbit, reps = group if group is not None else (np.arange(q), None)
    classes = orbit.copy()
    for st, ch in zip(stacks, chords):
        idx = st.idx
        heads = np.flatnonzero(orbit[idx] == idx)
        if len(heads) > 1:
            classes[idx[heads]] = idx[heads][_congruent(st.vertices[heads],
                                                        ch[heads], eps)]
    classes = classes[orbit]
    used = reps is not None or (classes != np.arange(q)).any()
    return _Symmetry(classes, reps, 2.0 * eps if used else 0.0, stacks)


def _chords(v: np.ndarray) -> np.ndarray:
    """Distances from the first vertex to eight vertices spread along each
    component, for m components `v` (m, n, 3): invariants of an isometry
    that maps vertex for vertex in index order, which a congruence within
    eps moves by at most 2 eps."""
    spread = np.arange(1, 9) * v.shape[1] // 9
    return np.linalg.norm(v[:, spread] - v[:, :1], axis=2)


def _matching(chords: np.ndarray, eps: float) -> np.ndarray:
    """(m, m) mask of component pairs whose chords match within 4 eps (a
    congruence within eps, plus rounding)."""
    return (np.abs(chords[:, None] - chords[None]) <= 4.0 * eps).all(axis=2)


def _congruent(v: np.ndarray, chords: np.ndarray, eps: float) -> np.ndarray:
    """Index of each component's class representative among the m
    components `v` (m, n, 3) of one vertex count.  Each representative in
    turn registers, in one batch, the later components whose chords match
    its own: the least-squares isometry of the two vertex sequences must
    move every vertex within eps of its partner."""
    n = v.shape[1]
    x = v - (np.ones(n) @ v / n)[:, None]
    match = _matching(chords, eps)
    rep = np.arange(len(v))
    pending = rep.copy()
    while pending.size > 1:
        root, rest = pending[0], pending[1:]
        near = rest[match[root, rest]]
        if near.size:
            u, _, vt = np.linalg.svd(x[root].T @ x[near])
            miss = x[root] @ (u @ vt) - x[near]
            fits = np.einsum("rni,rni->rn", miss, miss).max(axis=1) <= eps * eps
            rep[near[fits]] = root
        pending = rest[rep[rest] == rest]
    return rep


def _rotation_group(comps, stacks, order: int, eps: float):
    """(orbit, reps) of the largest group of rotations about z whose order
    divides `order` (see _symmetry), or None when there is none: the first
    component of each component's orbit, and the segment mask of orbit
    representatives.  A segment represents its orbit when its component is
    the first of its orbit and its index is below the gcd of the
    component's segment count and the vertex shift by which the group maps
    the component onto itself."""
    q = len(comps)
    nseg = [c.n_segments for c in comps]
    for k in range(order, 1, -1):
        if order % k:
            continue
        image, shift = _rotation_images(stacks, q, k, eps / k)
        if image is None:
            continue
        orbit, limit = [-1] * q, [0] * q
        for i in range(q):
            if orbit[i] >= 0:
                continue
            cycle, total, j = [i], shift[i], image[i]
            while j != i:
                cycle.append(j)
                total += shift[j]
                j = image[j]
            # the generator's k-th power must be the identity
            if k % len(cycle) or total * (k // len(cycle)) % nseg[i]:
                break
            for j in cycle:
                orbit[j] = i
            limit[i] = math.gcd(total % nseg[i], nseg[i])
        else:
            counts = np.array(nseg)
            local = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                        counts)
            return np.array(orbit), local < np.repeat(limit, counts)
    return None


def _rotation_images(stacks, q: int, k: int, tol: float) -> tuple:
    """(image, shift) lists: the component onto which the rotation by
    2 pi / k about z maps each component, and the vertex shift on that
    image, when it maps each vertex v within `tol` of vertex v + shift
    (cyclically) of the image; (None, None) when some component has no
    such image.  The image of the first vertex is looked up among the first
    vertices of the components of its vertex count, and among all their
    vertices when none is near: a helix winding p times around a torus tube
    maps onto the first helix of its shell n/p vertices along it."""
    c, s = math.cos(2.0 * math.pi / k), math.sin(2.0 * math.pi / k)
    turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    image = np.zeros(q, dtype=np.int64)
    shift = np.zeros(q, dtype=np.int64)
    for st in stacks:
        idx, v = st.idx, st.vertices
        m, n = v.shape[:2]
        heads = v[:, 0] @ turn
        d0 = np.sum((heads[:, None] - v[None, :, 0]) ** 2, axis=2)
        to = d0.argmin(axis=1)
        target = v[to]
        flat = v.reshape(-1, 3)
        for a in np.flatnonzero(d0[np.arange(m), to] > tol * tol):
            # a vertex within tol lies within tol in z: measure only those
            near = np.flatnonzero(np.abs(flat[:, 2] - heads[a, 2]) <= 2.0 * tol)
            d = np.sum((flat[near] - heads[a]) ** 2, axis=1)
            if not st.closed or not near.size or d.min() > tol * tol:
                return None, None
            to[a], shift[idx[a]] = divmod(int(near[d.argmin()]), n)
            target[a] = np.roll(v[to[a]], -shift[idx[a]], axis=0)
        miss = v @ turn - target
        if np.einsum("mni,mni->mn", miss, miss).max() > tol * tol:
            return None, None
        image[idx] = idx[to]
    if not np.array_equal(np.sort(image), np.arange(q)):
        return None, None
    return image.tolist(), shift.tolist()


def _metrics(config, total_length, radii, min_inter, min_self, min_overall,
             margin) -> LinkMetrics:
    """LinkMetrics from the measured length, distances and curvature
    radii."""
    rho = min(radii)
    thickness = min(min_overall / 2.0, rho) if np.isfinite(min_overall) else rho
    normalized = total_length / thickness if thickness > 0 else np.inf

    crossings = config.crossing_number
    lpc = None
    alpha = None
    if crossings:
        lpc = normalized / crossings
        alpha = normalized / crossings ** 0.75

    return LinkMetrics(
        total_length=total_length,
        min_inter_distance=None if min_inter is None else float(min_inter),
        min_self_distance=None if min_self is None else float(min_self),
        min_overall_distance=float(min_overall),
        min_curvature_radius=float(rho),
        thickness=float(thickness),
        normalized_length=float(normalized),
        crossing_number=crossings,
        length_per_crossing=lpc,
        alpha=alpha,
        margin=margin,
    )


def _curvature(sym: _Symmetry) -> tuple:
    """(radii, windows): the minimal curvature radius of every component,
    measured in one batch per vertex count and closedness from the segment
    table (`sym.stacks`, min_curvature_radii), and each component's arc
    window, pi times a radius.  A class representative's window comes from
    the smallest radius in its class, so it admits every self pair that a
    member's own window would; the other members get inf, which admits no
    self pair."""
    q = len(sym.classes)
    radii = np.empty(q)
    for st in sym.stacks:
        radii[st.idx] = min_curvature_radii(st.vertices, st.closed, st.dirs,
                                            st.lens)
    first = sym.classes == np.arange(q)
    smallest = radii.copy()
    np.minimum.at(smallest, sym.classes, radii)
    windows = np.full(q, np.inf)
    windows[first] = np.pi * smallest[first]
    return radii, windows


def _total_length(stacks, q: int) -> float:
    """LinkConfiguration.total_length from the segment table: each
    component's segment lengths summed along its row, then added in
    component order, so the bits are the same."""
    lengths = np.empty(q)
    for st in stacks:
        lengths[st.idx] = st.lens.sum(axis=1)
    return float(sum(lengths.tolist()))


def _prepared(comps) -> tuple:
    """(radii, windows, total length, margin, soup) of a link: its
    curvature (`_curvature`), length and symmetry margin (`_symmetry`),
    and the segment table of its distance search, built from the
    per-shape stacks, which are freed before the search."""
    sym = _symmetry(comps)
    radii, windows = _curvature(sym)
    return (radii, windows, _total_length(sym.stacks, len(comps)), sym.margin,
            _SegmentSoup(comps, sym.reps, sym.stacks))


def measure_link(config: LinkConfiguration) -> LinkMetrics:
    """Measure a LinkConfiguration.

    Which segment pairs count is the rule of `distances._may_count`, under
    an arc window of pi times each component's minimal curvature radius
    (`_curvature`): self pairs closer along the curve describe local
    bending, already accounted for by the curvature term, rather than
    genuine self contact.  A component whose window covers half its length
    (a circle, a torus core) has no such pair and contributes inf.

    The link is measured modulo the symmetry its coordinates prove
    (`_symmetry`), built or read from a file alike, in one search over one
    segment table (`distances._certified_min` with `split`): the
    inter-component minimum over the segment pairs with a representative of
    an orbit of the rotation group, and the self minimum over the first
    member of each congruence class (the others get an infinite window).
    Each distance minimum is exact over the pairs searched and within 2 eps
    of the whole link's; `margin` is then 2 eps, which verify's clearance
    verdicts must clear, and 0 for a link measured in full.  Curvature
    radii are measured on every component.  The segment directions and
    lengths are computed once per shape of component (`curves._Stack`):
    the total length, the curvature radii and the search's segment table
    read them.
    """
    comps = config.components
    radii, windows, total_length, margin, soup = _prepared(comps)
    min_inter, min_self = _certified_min(comps, inter=True, intra=True,
                                         arc_windows=windows, split=True,
                                         soup=soup)
    return _metrics(config, total_length, radii, min_inter, min_self,
                    min(min_inter, min_self), margin)


def measure_thickness(config: LinkConfiguration) -> LinkMetrics:
    """Measure a link for its thickness alone, in one certified distance pass.

    Inter-component and self pairs are searched together, the same pairs
    as measure_link searches, so `min_overall_distance`, `thickness` and
    `normalized_length` equal measure_link's bit for bit, while
    `min_inter_distance` and `min_self_distance` are None (not measured).
    """
    comps = config.components
    radii, windows, total_length, margin, soup = _prepared(comps)
    min_overall = _certified_min(comps, inter=True, intra=True,
                                 arc_windows=windows, soup=soup)
    return _metrics(config, total_length, radii, None, None, min_overall,
                    margin)


def _expected_linking(config: LinkConfiguration) -> np.ndarray | None:
    """Expected |linking number| of every pair of a torus link, from the
    spec in its metadata: p within one torus, 1 across the two copies of a
    doubled torus (copy 1 first, then copy 2), 0 on the diagonal.  None when
    the metadata describes no torus construction, or when a component is
    open (linking numbers are defined for closed curves only)."""
    meta = config.metadata
    if meta.get("family") != "torus" or not all(
            c.closed for c in config.components):
        return None
    q = config.n_components
    copy = np.arange(q) >= (q // 2 if meta.get("doubled") else q)
    pattern = np.where(copy[:, None] == copy[None, :], meta["spec"]["p"], 1)
    np.fill_diagonal(pattern, 0)
    return pattern


def verify(
    config: LinkConfiguration,
    metrics: LinkMetrics,
    linking=_UNMEASURED,
    absolute: bool = True,
    tolerance: float = 0.01,
) -> dict:
    """Pass/fail verdicts of a configuration's measured metrics.

    Absolute configurations (tori, files being checked) must keep clearance
    2 and curvature radius 1 in tube-radius units, each up to `tolerance`.
    Scale-free ones (planar families, optimizer candidates) must merely be
    embeddable: clearance above _TOUCH_FRACTION of the total length, since
    normalization rescales the rest.  `linking` is the measured linking
    matrix, or None when it is undefined because components intersect.
    "linking_ok" is reported when the metadata of `config` describes a torus
    construction, and holds when |linking| equals its expected pattern entry
    for entry (the matrix is computed here when not given); it is also
    reported, as failed, whenever the linking is undefined.  "passed" is the
    conjunction of the individual checks.  The clearance verdicts hold with
    `metrics.margin` to spare: a link measured modulo a symmetry passes only
    when a clearance 2 eps below the measured one would, which bounds the
    clearance of the whole link.  The curvature radius is every
    component's, so its verdict takes no margin.
    """
    clearance = metrics.min_overall_distance - metrics.margin
    if absolute:
        checks = {
            "min_distance_ok": bool(clearance >= 2.0 - tolerance),
            "curvature_ok": bool(metrics.min_curvature_radius >= 1.0 - tolerance),
        }
    else:
        checks = {
            "embeddable": bool(
                clearance > _TOUCH_FRACTION * metrics.total_length
            )
        }
    pattern = _expected_linking(config)
    if pattern is not None and linking is _UNMEASURED:
        linking = linking_matrix(config.components)
    if linking is None or pattern is not None:
        checks["linking_ok"] = linking is not None and bool(
            np.array_equal(np.abs(linking), pattern)
        )
    checks["passed"] = all(checks.values())
    return checks
