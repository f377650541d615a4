"""Constructions of tight T(pQ, Q) torus links.

Toroidal builds wrap concentric shells of unit-thickness helices (shell i at
tube radius 2i, evenly phased) around a common circular core line of major
radius R0, optionally around a central core component.  A TorusSpec holds
its shells as three arrays of one length (tube radii, helix counts, phase
offsets), so spec builders and length formulas work on whole arrays.  The
hole radius h = R0 - r_outer is sized so every shell satisfies the
helix-packing constraint; two builds are provided:

* increment: shell i carries increment * i helices (increment 4 fills each
  shell to the rectangle rule exactly; increment 5 overfills, forcing a wider
  hole and a worse length ratio).
* optimal: hole radius fixed at 2T, every shell filled to capacity
  (exact transcendental count or the rectangle estimate minus 1).

donut_double threads a second congruent torus through the first one's hole
(Hopf-linking every component of one copy with every component of the other),
which requires R0 >= 2 r_outer + 2 and turns T(pQ, Q) into a T(Q', Q')-type
link of 2Q components with crossing number 2 p Q (Q-1) + 2 Q^2.  toroidal_pair
threads two tori of a core and six helices the same way at a free separation.

Planar builds place q convex loops (circles or flattened "gibbous" ovals)
evenly around an axis, each displaced outward and tilted so consecutive loops
thread one another; hybrid_square threads q-1 gibbous loops through a central
rounded square instead.

FAMILIES is the one table of parameterized families (the planar ones and
toroidal_pair): parameter names, start values and box bounds.  The start
values are both the defaults of build_planar_link and the optimizer's first
start (`optimize.OptimizationProblem`).

realize_torus, donut_double and build_planar_link take `check`: when true
(the default) the finished configuration is measured and passed through
`measure.verify` (absolute clearance 2, curvature radius 1 and the expected
linking pattern for tori; for the scale-free planar families, components
that do not touch), and a failed verdict raises OverlapError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .curves import rotation_about_axis, sample_planar_curve, sample_toroidal_helix
# Not called here; kept because perfbench/tracing.py wraps these attributes
# (its toroidal_correction counter reads a scalar ratio; analytic_length
# passes an array to _correction).
from .distances import mutual_min_distance  # noqa: F401
from .helices import _correction, aggregate_correction, max_helices
from .helices import toroidal_correction  # noqa: F401
from .linking import linking_matrix
from .measure import LinkConfiguration, expected_linking, measure_link, verify

__all__ = [
    "FAMILIES",
    "PLANAR_FAMILIES",
    "OverlapError",
    "TorusSpec",
    "ConstructionReport",
    "build_increment_spec",
    "build_optimal_spec",
    "analytic_length",
    "construction_report",
    "realize_torus",
    "donut_double",
    "toroidal_pair",
    "build_planar_link",
    "limiting_alpha",
]


class Family(NamedTuple):
    """Parameter names, start values and box bounds of one family."""

    names: tuple
    start: tuple
    bounds: tuple


FAMILIES = {
    "circles": Family(
        ("rho", "psi"),
        (0.5, 5.0 * math.pi / 18.0),
        ((0.05, 1.5), (0.05, 0.5 * math.pi - 0.05)),
    ),
    "gibbous": Family(
        ("rho", "psi", "gamma", "delta"),
        (0.4, 0.75, 0.8, -0.05),
        ((0.05, 1.5), (0.05, 0.5 * math.pi - 0.05), (0.2, 3.0), (-0.249, 0.249)),
    ),
    "hybrid_square": Family(
        ("rho", "psi", "gamma", "delta", "square_scale", "square_flat_fraction"),
        (0.45, 0.66, 0.88, 0.03, 0.88, 0.1),
        (
            (0.05, 1.5),
            (0.05, 0.5 * math.pi - 0.05),
            (0.2, 3.0),
            (-0.249, 0.249),
            (0.1, 3.0),
            (0.05, 0.95),
        ),
    ),
    "toroidal_pair": Family(
        ("major_radius", "separation", "phase", "shell_radius"),
        (6.4, 6.44, 0.0, 2.2),
        ((4.5, 9.0), (4.0, 9.0), (-0.6, 0.6), (2.0, 3.2)),
    ),
}
PLANAR_FAMILIES = tuple(f for f in FAMILIES if f != "toroidal_pair")


class OverlapError(RuntimeError):
    """Raised when a configuration built with check=True fails verification."""


def _checked(config: LinkConfiguration, absolute: bool) -> LinkConfiguration:
    """Return `config` if its measured metrics pass `verify`, else raise
    OverlapError naming the failed checks and the measured values."""
    metrics = measure_link(config)
    linking = {}
    pattern = expected_linking(config)
    if pattern is not None:
        linking = {"linking": linking_matrix(config.components),
                   "expected_linking": pattern}
    checks = verify(metrics, absolute=absolute, **linking)
    if not checks["passed"]:
        failed = ", ".join(k for k, ok in checks.items() if k != "passed" and not ok)
        raise OverlapError(
            f"{config.description} fails verification ({failed}): clearance "
            f"{metrics.min_overall_distance:.6f}, curvature radius "
            f"{metrics.min_curvature_radius:.6f}"
        )
    return config


@dataclass(eq=False)
class TorusSpec:
    """Parameters of one multi-shell torus construction: shell i has tube
    radius radii[i], counts[i] helices and phase offset phases[i] (zeros
    when omitted).  The three arrays have one length, the shell count."""

    radii: np.ndarray
    counts: np.ndarray
    has_core: bool
    major_radius: float
    p: int = 1
    phases: np.ndarray | None = None

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.phases = (np.zeros(len(self.radii)) if self.phases is None
                       else np.asarray(self.phases, dtype=float))
        if not len(self.radii) == len(self.counts) == len(self.phases):
            raise ValueError(
                f"radii, counts and phases need one length, got {len(self.radii)}, "
                f"{len(self.counts)} and {len(self.phases)}"
            )
        if not len(self.radii) and not self.has_core:
            raise ValueError("spec needs a core or at least one shell")
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if np.any(self.counts < 1):
            raise ValueError(f"shell counts must be >= 1, got {self.counts.tolist()}")
        if np.any(self.radii < 2.0):
            raise ValueError(f"shell radii must be >= 2, got {self.radii.tolist()}")
        if np.any(np.diff(self.radii) < 2.0 - 1e-12):
            raise ValueError(
                f"shell radii must increase by >= 2, got {self.radii.tolist()}"
            )
        if self.major_radius <= self.outer_radius:
            raise ValueError(
                f"major radius {self.major_radius} must exceed the outer shell "
                f"radius {self.outer_radius} (the hole must have positive size)"
            )

    @property
    def t_shells(self) -> int:
        return len(self.radii)

    @property
    def outer_radius(self) -> float:
        return float(self.radii[-1]) if len(self.radii) else 0.0

    @property
    def hole_radius(self) -> float:
        return self.major_radius - self.outer_radius

    @property
    def q(self) -> int:
        return int(self.has_core) + int(self.counts.sum())

    def crossing_number(self, doubled: bool = False) -> int:
        q = self.q
        single = self.p * q * (q - 1)
        return 2 * single + 2 * q * q if doubled else single

    def as_dict(self) -> dict:
        return {
            "shells": [
                {"radius": r, "count": n, "phase_offset": ph}
                for r, n, ph in zip(
                    self.radii.tolist(), self.counts.tolist(), self.phases.tolist()
                )
            ],
            "has_core": self.has_core,
            "major_radius": self.major_radius,
            "p": self.p,
            "t_shells": self.t_shells,
        }


def _hole_radius_required(radii, counts) -> np.ndarray:
    """Rectangle-rule hole radius at which counts[i] helices of tube radius
    radii[i] are exactly at capacity, elementwise: inverts
    N = pi*h*r/sqrt(h^2+r^2)."""
    cap = math.pi * radii
    over = counts >= cap
    if np.any(over):
        i = int(np.argmax(over))
        raise ValueError(
            f"{counts[i]} helices exceed the circumferential capacity pi*r = "
            f"{cap[i]:.3f} of a radius-{radii[i]} shell at any height"
        )
    return counts * radii / np.sqrt(cap * cap - counts * counts)


def build_increment_spec(
    t_shells: int,
    increment: int = 4,
    jenga_mode: str = "naive",
    outer_count: int | None = None,
) -> TorusSpec:
    """Torus spec with a core and increment*i helices on shell i (radius 2i).

    The hole radius comes from the rectangle rule h = N r / sqrt(pi^2 r^2 - N^2)
    (for increment 4 this is exactly h = N_outer / sqrt(pi^2 - 4), i.e. hole
    circumference (2*pi/sqrt(pi^2-4)) * N_outer): jenga_mode "naive" sizes it
    by the outermost shell alone, while "deferred_radius" takes the maximum
    requirement over all shells, which defers major-radius growth while a
    partially filled outer shell (see `outer_count`) still needs less room
    than the penultimate one.
    """
    if t_shells < 1:
        raise ValueError(f"need t_shells >= 1, got {t_shells}")
    if increment < 1:
        raise ValueError(f"need increment >= 1, got {increment}")
    index = np.arange(1, t_shells + 1)
    counts = increment * index
    if outer_count is not None:
        if outer_count < 1:
            raise ValueError(f"outer_count must be >= 1, got {outer_count}")
        counts[-1] = outer_count
    radii = 2.0 * index
    if jenga_mode == "naive":
        h = _hole_radius_required(radii[-1:], counts[-1:])[0]
    elif jenga_mode == "deferred_radius":
        h = _hole_radius_required(radii, counts).max()
    else:
        raise ValueError(f"jenga_mode must be 'naive' or 'deferred_radius', got {jenga_mode!r}")
    return TorusSpec(radii, counts, has_core=True, major_radius=float(h + radii[-1]))


def build_optimal_spec(t_shells: int, count_mode: str = "exact") -> TorusSpec:
    """Capacity-filling torus spec: shell i at radius 2i, hole radius 2T,
    major radius 4T, no core; each shell holds max_helices(2i, 2T) helices.

    count_mode "exact" solves the pair constraint per shell; "approx" uses
    floor(N_a - 1), which reproduces the published component totals (e.g.
    doubled T=100 gives 2 x 26102 = 52204); exact counting packs ~0.4% more
    helices.
    """
    if t_shells < 1:
        raise ValueError(f"need t_shells >= 1, got {t_shells}")
    radii = 2.0 * np.arange(1, t_shells + 1)
    counts = max_helices(radii, 2.0 * t_shells, count_mode, epsilon=1.0)
    filled = counts >= 1
    if not filled.any():
        raise ValueError("no shell can host a single helix; t_shells too small")
    return TorusSpec(
        radii[filled], counts[filled], has_core=False, major_radius=4.0 * t_shells
    )


def analytic_length(spec: TorusSpec, corrected: bool = True) -> float:
    """Analytic centerline length of one realized torus.

    Each helix on shell radius r contributes 2*pi*sqrt(R0^2 + (p r)^2), the
    length of the equivalent straight helix (one axial turn of rise 2*pi*R0
    around a cylinder of circumference 2*pi*p*r); `corrected` multiplies by
    the toroidal correction at ratio R0/r, one array call for all shells.
    The core adds 2*pi*R0.
    """
    r0 = spec.major_radius
    total = 2.0 * math.pi * r0 if spec.has_core else 0.0
    radii = spec.radii
    factors = _correction(r0 / radii, spec.p) if corrected else np.ones(len(radii))
    for r, n, factor in zip(radii.tolist(), spec.counts.tolist(), factors.tolist()):
        total += n * (2.0 * math.pi * math.hypot(r0, spec.p * r) * factor)
    return total


@dataclass
class ConstructionReport:
    """Analytic summary of a torus construction."""

    spec: TorusSpec
    q: int
    p: int
    crossing_number: int
    predicted_length: float
    alpha_predicted: float
    doubled: bool = False
    mirrored: bool = False
    inflation: float = 1.0

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["spec"] = self.spec.as_dict()
        return d


def construction_report(
    spec: TorusSpec, doubled: bool = False, mirrored: bool = False
) -> ConstructionReport:
    """Predicted length, crossing number, and coefficient for a (possibly
    doubled) torus spec; doubling inflates the major radius if needed."""
    inflation = 1.0
    realized_spec = spec
    if doubled:
        realized_spec, inflation = _inflated_for_doubling(spec)
    length = analytic_length(realized_spec, corrected=True)
    if doubled:
        length *= 2.0
    crossings = spec.crossing_number(doubled)
    return ConstructionReport(
        spec=realized_spec,
        q=spec.q,
        p=spec.p,
        crossing_number=crossings,
        predicted_length=length,
        alpha_predicted=length / crossings ** 0.75,
        doubled=doubled,
        mirrored=mirrored,
        inflation=inflation,
    )


def realize_torus(
    spec: TorusSpec,
    n_points: int = 1000,
    check: bool = True,
) -> LinkConfiguration:
    """Sample every component of a torus spec as polygonal curves.

    Components are ordered core first, then shells inside out, helices by
    phase index.  With check=True the link is measured and verified as a
    unit-tube embedding (`measure.verify`, absolute, default tolerance 0.01:
    clearance >= 1.99 within and between components, curvature radius
    >= 0.99, |lk| = p for every pair); a failure raises OverlapError.
    Callers that measure the link themselves pass check=False.
    """
    comps = []
    if spec.has_core:
        comps.append(sample_toroidal_helix(spec.major_radius, 0.0, n_points=n_points))
    shells = zip(spec.radii.tolist(), spec.counts.tolist(), spec.phases.tolist())
    for radius, count, phase in shells:
        for j in range(count):
            comps.append(
                sample_toroidal_helix(
                    spec.major_radius,
                    radius,
                    p=spec.p,
                    n_shell=count,
                    shell_index=j,
                    phase=phase,
                    n_points=n_points,
                )
            )
    config = LinkConfiguration(
        comps,
        crossing_number=spec.crossing_number(doubled=False),
        description=f"torus link of {spec.q} components, p={spec.p}",
        metadata={"family": "torus", "doubled": False, "spec": spec.as_dict()},
    )
    return _checked(config, absolute=True) if check else config


def _inflated_for_doubling(spec: TorusSpec) -> tuple:
    """Smallest major radius >= 2 r_outer + 2 permitting donut doubling.

    Returns (possibly inflated spec, inflation factor).  Two congruent tori
    threaded through each other sit at constant center-circle distance R0, so
    tube extents r_outer + 1 each demand R0 >= 2 r_outer + 2.
    """
    needed = 2.0 * spec.outer_radius + 2.0
    if spec.major_radius >= needed:
        return spec, 1.0
    factor = needed / spec.major_radius
    return replace(spec, major_radius=needed), factor


def _threaded_copy(components, separation: float, mirror: bool = False) -> list:
    """The second copy of a threaded pair of tori: `components` turned 90
    degrees about the x axis (after a reflection through the xy plane when
    `mirror`) and shifted by `separation` along x, so its tube circle passes
    through the first torus' hole."""
    rot = rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi)
    if mirror:
        rot = rot @ np.diag([1.0, 1.0, -1.0])
    shift = np.array([separation, 0.0, 0.0])
    return [c.transformed(rot, shift) for c in components]


def donut_double(
    spec: TorusSpec,
    mirror: bool = False,
    n_points: int = 1000,
    check: bool = True,
) -> LinkConfiguration:
    """Thread a second congruent copy of the torus through the first's hole.

    The second copy is rotated 90 degrees about the x axis and translated
    along x by the (inflated) major radius, so its tube circle passes through
    the first torus' hole at constant clearance; mirror=True reflects the
    second copy through the xy plane first, producing the opposite-chirality
    variant.  Components are copy 1 then copy 2, in realize_torus order.
    check=True verifies the doubled link as realize_torus does, expecting
    |lk| = 1 between the two copies.
    """
    inflated, inflation = _inflated_for_doubling(spec)
    first = realize_torus(inflated, n_points=n_points, check=False)
    second = _threaded_copy(first.components, inflated.major_radius, mirror)
    config = LinkConfiguration(
        list(first.components) + second,
        crossing_number=spec.crossing_number(doubled=True),
        description=f"doubled torus link of {2 * spec.q} components, p={spec.p}",
        metadata={
            "family": "torus",
            "doubled": True,
            "mirrored": mirror,
            "inflation": inflation,
            "spec": inflated.as_dict(),
        },
    )
    return _checked(config, absolute=True) if check else config


def toroidal_pair(
    major_radius: float,
    separation: float,
    phase: float,
    shell_radius: float,
    n_points: int,
) -> LinkConfiguration:
    """Two congruent tori, each a core and six helices on one shell, threaded
    through each other: 14 components.

    Unlike donut doubling this does not enforce the conservative clearance
    R0 >= 2 r_outer + 2: `separation` places the second copy freely (at the
    major radius it is the donut double), letting an optimizer trade
    inter-copy clearance against intra-copy helix gaps.  The common `phase`
    rotates each torus about its own axis, changing the relative geometry of
    the two copies.  The parameters' start values and bounds are the
    "toroidal_pair" row of FAMILIES.
    """
    spec = TorusSpec(
        [shell_radius], [6], has_core=True, major_radius=major_radius,
        phases=[phase],
    )
    first = realize_torus(spec, n_points=n_points, check=False)
    second = _threaded_copy(first.components, separation)
    q = spec.q
    return LinkConfiguration(
        list(first.components) + second,
        crossing_number=2 * q * (q - 1) + 2 * q * q,
        description=f"two threaded tori of {q} components each",
        metadata={"family": "toroidal_pair", "spec": spec.as_dict(),
                  "separation": separation},
    )


def build_planar_link(
    q: int,
    family: str = "circles",
    params: dict | None = None,
    n_points: int = 1000,
    check: bool = True,
) -> LinkConfiguration:
    """q planar loops arranged so each pair is Hopf linked (a T(q,q) link).

    Loops sit at azimuths 2*pi*i/q, displaced outward by rho (in loop units)
    and tilted by psi about the radial direction.  Families: "circles"
    (params rho, psi; unit circles, since planar links are scale-free),
    "gibbous" (adds gamma, delta), and "hybrid_square" (q-1 gibbous loops
    around a central rounded square in the xy plane; adds square_scale,
    square_flat_fraction).  Parameters missing from `params` take the
    family's start values in FAMILIES.  check=True raises
    OverlapError unless `measure.verify` finds the link embeddable (no two
    components touch; a touching link cannot be thickened at all); clearance
    scaling is otherwise left to normalization.
    """
    if q < 2:
        raise ValueError(f"need q >= 2 components, got {q}")
    if family not in PLANAR_FAMILIES:
        raise ValueError(f"unknown planar family {family!r}")
    merged = dict(zip(FAMILIES[family].names, FAMILIES[family].start))
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for family {family!r}")
        merged[key] = float(value)

    rho, psi = merged["rho"], merged["psi"]
    shape = "circle" if family == "circles" else "gibbous"
    shape_params = {k: merged[k] for k in ("gamma", "delta") if k in merged}

    comps = []
    n_ring = q - 1 if family == "hybrid_square" else q
    for i in range(n_ring):
        comps.append(
            sample_planar_curve(
                shape,
                shape_params,
                placement={
                    "azimuth": 2.0 * math.pi * i / n_ring,
                    "displacement": rho,
                    "inclination": psi,
                },
                n_points=n_points,
            )
        )
    if family == "hybrid_square":
        comps.append(
            sample_planar_curve(
                "rounded_square",
                {
                    "scale": merged["square_scale"],
                    "flat_fraction": merged["square_flat_fraction"],
                },
                placement={"inclination": 0.5 * math.pi},
                n_points=n_points,
            )
        )
    config = LinkConfiguration(
        comps,
        crossing_number=q * (q - 1),
        description=f"planar {family} link of {q} components",
        metadata={"family": family, "q": q, "params": merged},
    )
    return _checked(config, absolute=False) if check else config


def limiting_alpha(method: str, corrected: bool = False) -> float:
    """Large-T limit of ropelength / crossings^(3/4) for the torus builds.

    Methods: inc4_single, inc4_doubled, inc5_single, inc5_doubled,
    optimal_doubled.  corrected=True multiplies by the aggregate toroidal
    correction of the matching geometry (evaluated at T=10^4, converged to
    ~1e-5), accounting for the helices living on tori rather than cylinders.
    """
    s = math.sqrt(math.pi * math.pi - 4.0)
    kappa = 2.0 * math.pi * (1.0 / s + 0.5) * math.sqrt(8.0)
    rho5 = 2.0 + 10.0 / math.sqrt(4.0 * math.pi * math.pi - 25.0)
    if method == "inc4_single":
        base = ((kappa * kappa + 8.0 * math.pi ** 2) ** 1.5 - kappa ** 3) / (
            12.0 * math.pi ** 2
        )
        weighting, coeff = "increment", 1.0 + 2.0 / s
    elif method == "inc4_doubled":
        base = 4.0 * math.pi * (5.0 * math.sqrt(5.0) - 8.0) / 3.0
        weighting, coeff = "increment", 2.0
    elif method == "inc5_single":
        base = (
            (5.0 * math.pi / 6.0)
            * ((rho5 * rho5 + 4.0) ** 1.5 - rho5 ** 3)
            / 2.5 ** 1.5
        )
        weighting, coeff = "increment", rho5 / 2.0
    elif method == "inc5_doubled":
        base = (
            (5.0 * math.pi / 6.0)
            * ((rho5 * rho5 + 4.0) ** 1.5 - rho5 ** 3)
            / (2.5 ** 1.5 * math.sqrt(2.0))
        )
        weighting, coeff = "increment", 2.0
    elif method == "optimal_doubled":
        base = math.sqrt((7.0 + 5.0 * math.sqrt(2.0)) * math.pi) * (
            math.sqrt(10.0)
            - 2.0
            + 3.0 * (math.atanh(math.sqrt(0.4)) - math.atanh(0.5))
        )
        weighting, coeff = "optimal", 2.0
    else:
        raise ValueError(f"unknown limiting-alpha method {method!r}")
    if corrected:
        base *= aggregate_correction(10000, weighting, coeff)
    return base
