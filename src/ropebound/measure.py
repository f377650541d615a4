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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import PolyCurve, min_curvature_radius
from .distances import _certified_min, mutual_min_distance
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

# Default of verify's `linking`: no linking numbers were computed.
_UNMEASURED = object()


@dataclass
class LinkConfiguration:
    """A multi-component polygonal link plus whatever is known about it.

    `orbits`, when given, holds for each component the index of its orbit's
    representative (a component congruent to it by an isometry), or None:
    measure_link measures self distance once per orbit.  Constructors set it;
    no file format stores it, so an imported link never claims a symmetry.
    """

    components: list
    crossing_number: int | None = None
    description: str = ""
    metadata: dict = field(default_factory=dict)
    orbits: tuple | None = None

    def __post_init__(self):
        self.components = list(self.components)
        if not self.components:
            raise ValueError("configuration needs at least one component")
        for c in self.components:
            if not isinstance(c, PolyCurve):
                raise TypeError("components must be PolyCurve instances")
        if self.orbits is not None:
            self.orbits = tuple(self.orbits)
            _check_orbits(self.orbits, len(self.components))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def total_length(self) -> float:
        return float(sum(c.length() for c in self.components))

    def scaled(self, factor: float) -> "LinkConfiguration":
        return LinkConfiguration(
            [c.scaled(factor) for c in self.components],
            crossing_number=self.crossing_number,
            description=self.description,
            metadata=dict(self.metadata),
            orbits=self.orbits,
        )

    def transformed(self, rotation=None, translation=None) -> "LinkConfiguration":
        return LinkConfiguration(
            [c.transformed(rotation, translation) for c in self.components],
            crossing_number=self.crossing_number,
            description=self.description,
            metadata=dict(self.metadata),
            orbits=self.orbits,
        )


def _check_orbits(orbits: tuple, n: int):
    """Raise ValueError unless `orbits` has one entry per component, each
    None or the index of a representative that is its own representative."""
    if len(orbits) != n:
        raise ValueError(f"orbits needs {n} entries, one per component, "
                         f"got {len(orbits)}")
    for i, rep in enumerate(orbits):
        if rep is None:
            continue
        if not (isinstance(rep, (int, np.integer)) and not isinstance(rep, bool)
                and 0 <= rep < n):
            raise ValueError(f"orbits[{i}] must be None or a component index, "
                             f"got {rep!r}")
        if orbits[rep] != rep:
            raise ValueError(f"orbits[{i}] = {rep} names a component that is "
                             f"not its own representative")


@dataclass
class LinkMetrics:
    """Summary measurements of a link configuration.  The inter-component
    and self minima are None when only the overall minimum was measured
    (measure_thickness)."""

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

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _as_configuration(config) -> LinkConfiguration:
    if isinstance(config, LinkConfiguration):
        return config
    return LinkConfiguration(list(config))


def _arc_window(radius: float) -> float:
    """Arc length within which a component's self pairs count as bending."""
    return np.pi * radius if np.isfinite(radius) else np.inf


def _metrics(config, radii, min_inter, min_self, min_overall) -> LinkMetrics:
    """LinkMetrics from the measured distances and curvature radii."""
    total_length = config.total_length()
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
    )


def measure_link(config) -> LinkMetrics:
    """Measure a LinkConfiguration (or plain list of PolyCurve components).

    Self distances exclude pairs closer along the curve than pi times the
    component's minimal curvature radius (with a floor of a few segments):
    such pairs describe local bending, already accounted for by the curvature
    term, rather than genuine self contact.  With `config.orbits` (set by
    the torus and planar constructors), self distance is measured on each
    orbit's representative only; curvature radii are measured on every
    component.  A component whose excluded arc covers half its length (a
    circle, a torus core) has no admissible self pair and contributes inf
    without a search.
    """
    config = _as_configuration(config)
    comps = config.components
    radii = [min_curvature_radius(c) for c in comps]
    orbits = config.orbits or (None,) * len(comps)

    min_inter = mutual_min_distance(comps) if len(comps) > 1 else np.inf
    min_self = np.inf
    for i, (c, r) in enumerate(zip(comps, radii)):
        if orbits[i] not in (None, i):
            continue
        min_self = min(
            min_self,
            _certified_min(
                [c], inter=False, intra=True,
                arc_windows=np.array([_arc_window(r)]),
            ),
        )
    return _metrics(config, radii, min_inter, min_self, min(min_inter, min_self))


def measure_thickness(config) -> LinkMetrics:
    """Measure a link for its thickness alone, in one certified distance pass.

    Inter-component and self pairs (with measure_link's exclusions) are
    searched together, so `min_overall_distance`, `thickness` and
    `normalized_length` equal measure_link's bit for bit, while
    `min_inter_distance` and `min_self_distance` are None (not measured).
    """
    config = _as_configuration(config)
    comps = config.components
    radii = [min_curvature_radius(c) for c in comps]
    min_overall = _certified_min(
        comps, inter=True, intra=True,
        arc_windows=np.array([_arc_window(r) for r in radii]),
    )
    return _metrics(config, radii, None, None, min_overall)


def _expected_linking(config: LinkConfiguration) -> np.ndarray | None:
    """Expected |linking number| of every pair of a torus link, from the
    spec in its metadata: p within one torus, 1 across the two copies of a
    doubled torus (copy 1 first, then copy 2), 0 on the diagonal.  None when
    the metadata describes no torus construction."""
    meta = config.metadata
    if meta.get("family") != "torus":
        return None
    q = config.n_components
    copy = np.arange(q) >= (q // 2 if meta.get("doubled") else q)
    pattern = np.where(copy[:, None] == copy[None, :], meta["spec"]["p"], 1)
    np.fill_diagonal(pattern, 0)
    return pattern


def verify(
    config,
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
    conjunction of the individual checks.
    """
    if absolute:
        checks = {
            "min_distance_ok": bool(
                metrics.min_overall_distance >= 2.0 - tolerance
            ),
            "curvature_ok": bool(metrics.min_curvature_radius >= 1.0 - tolerance),
        }
    else:
        checks = {
            "embeddable": bool(
                metrics.min_overall_distance
                > _TOUCH_FRACTION * metrics.total_length
            )
        }
    config = _as_configuration(config)
    pattern = _expected_linking(config)
    if pattern is not None and linking is _UNMEASURED:
        linking = linking_matrix(config.components)
    if linking is None or pattern is not None:
        checks["linking_ok"] = linking is not None and bool(
            np.array_equal(np.abs(linking), pattern)
        )
    checks["passed"] = all(checks.values())
    return checks
