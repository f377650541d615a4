"""Geometry of the tight T(pQ, Q) torus links: the curves of a spec, its
donut double, and the planar families.

The shell layouts, predicted lengths and coefficients are computed in
`specs`, without geometry; this module samples them.  realize_torus samples
every helix of a `specs.TorusSpec` on its torus.  donut_double threads a
second congruent torus through the first one's hole (Hopf-linking every
component of one copy with every component of the other), which requires
R0 >= 2 r_outer + 2 and turns T(Q, Q) into a T(2Q, 2Q)-type link; it
refuses p > 1, for which no crossing number is derived.  toroidal_pair
threads its copy the same way at a free separation: both are doubled tori.

Planar builds place q convex loops (circles or flattened "gibbous" ovals)
evenly around an axis, each displaced outward and tilted so consecutive loops
thread one another; hybrid_square threads q-1 gibbous loops through a central
rounded square instead.  Their parameters are the rows of
`specs.FAMILIES`.

realize_torus and donut_double take `check`: when true (the default) the
finished torus is measured and passed through `measure.verify` (absolute
clearance 2, curvature radius 1 and the linking pattern of its spec), and a
failed verdict raises OverlapError.  Planar links are scale-free, so
build_planar_link leaves verification to whoever measures them.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import PolyCurve, _placed, _planar_shape, rotation_about_axis
from .curves import sample_toroidal_helix
# Not called here; kept because perfbench/tracing.py wraps this attribute.
from .curves import sample_planar_curve  # noqa: F401
# Not called here; kept because perfbench/tracing.py wraps these attributes
# (its toroidal_correction counter reads a scalar ratio).
from .distances import mutual_min_distance  # noqa: F401
from .helices import max_helices, toroidal_correction  # noqa: F401
from .measure import LinkConfiguration, measure_link, verify
from .specs import FAMILIES, PLANAR_FAMILIES, TorusSpec, _inflated_for_doubling
# Not called here; kept because perfbench/workloads.py builds its
# torus_check inputs from these names of this module.
from .specs import build_increment_spec, build_optimal_spec  # noqa: F401

__all__ = [
    "OverlapError",
    "realize_torus",
    "donut_double",
    "toroidal_pair",
    "build_planar_link",
]


class OverlapError(RuntimeError):
    """Raised when a torus built with check=True fails verification."""


def _checked(config: LinkConfiguration) -> LinkConfiguration:
    """Return the torus `config` if its measured metrics pass `verify`, else
    raise OverlapError naming the failed checks and the measured values."""
    metrics = measure_link(config)
    checks = verify(config, metrics)
    if not checks["passed"]:
        failed = ", ".join(k for k, ok in checks.items() if k != "passed" and not ok)
        raise OverlapError(
            f"{config.description} fails verification ({failed}): clearance "
            f"{metrics.min_overall_distance:.6f}, curvature radius "
            f"{metrics.min_curvature_radius:.6f}"
        )
    return config


def realize_torus(
    spec: TorusSpec,
    n_points: int = 1000,
    check: bool = True,
) -> LinkConfiguration:
    """Sample every component of a torus spec as polygonal curves.

    Components are ordered core first, then shells inside out, helices by
    phase index.  A shell's helices are rotations of its first one about the
    z axis, which measure_link finds from the coordinates: it measures their
    self distance once per shell.  With check=True the link is measured
    and verified as a unit-tube embedding (`measure.verify`, absolute,
    default tolerance 0.01: clearance >= 1.99 within and between components,
    curvature radius >= 0.99, |lk| = p for every pair); a failure raises
    OverlapError.  Callers that measure the link themselves pass check=False.
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
    return _checked(config) if check else config


def _threaded(spec: TorusSpec, separation: float, n_points: int,
              description: str, metadata: dict) -> LinkConfiguration:
    """The torus of `spec` and a copy turned 90 degrees about the x axis and
    shifted by `separation` along x, through its hole: copy 1 then copy 2,
    in realize_torus order, with a doubled torus's metadata and `metadata`.
    Each copy-2 component is a rigid motion of its copy-1 twin, so
    measure_link puts the two in one class."""
    first = realize_torus(spec, n_points=n_points, check=False)
    rot = rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi)
    shift = np.array([separation, 0.0, 0.0])
    second = [c.transformed(rot, shift) for c in first.components]
    return LinkConfiguration(
        first.components + second,
        crossing_number=spec.crossing_number(doubled=True),
        description=description,
        metadata={"family": "torus", "doubled": True, "spec": spec.as_dict(),
                  **metadata},
    )


def donut_double(
    spec: TorusSpec,
    n_points: int = 1000,
    check: bool = True,
) -> LinkConfiguration:
    """Thread a second congruent copy of the torus through the first's hole.

    The second copy is threaded at the (inflated) major radius, so its tube
    circle passes through the first torus' hole at constant clearance
    (`_threaded`).  A spec of p > 1 raises ValueError: no crossing number
    is derived for its double.  check=True verifies the doubled link as
    realize_torus does, expecting |lk| = 1 between the two copies.
    """
    inflated, inflation = _inflated_for_doubling(spec)
    config = _threaded(
        inflated, inflated.major_radius, n_points,
        f"doubled torus link of {2 * spec.q} components, p={spec.p}",
        {"inflation": inflation},
    )
    return _checked(config) if check else config


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
    the two copies.  It is a doubled torus to `measure.verify`, so the
    objective is inf where its linking is wrong.  The parameters' start
    values and bounds are the "toroidal_pair" row of FAMILIES.
    """
    spec = TorusSpec(
        [shell_radius], [6], has_core=True, major_radius=major_radius,
        phases=[phase],
    )
    return _threaded(spec, separation, n_points,
                     f"two threaded tori of {spec.q} components each",
                     {"separation": separation})


def build_planar_link(
    q: int,
    family: str = "circles",
    params: dict | None = None,
    n_points: int = 1000,
) -> LinkConfiguration:
    """q planar loops arranged so each pair is Hopf linked (a T(q,q) link).

    Loops sit at azimuths 2*pi*i/q, displaced outward by rho (in loop units)
    and tilted by psi about the radial direction.  Families: "circles"
    (params rho, psi; unit circles, since planar links are scale-free),
    "gibbous" (adds gamma, delta), and "hybrid_square" (q-1 gibbous loops
    around a central rounded square in the xy plane; adds square_scale,
    square_flat_fraction).  Parameters missing from `params` take the
    family's start values in FAMILIES.  The base shape is sampled once and
    the ring placed in one batch (`curves._placed`: one matmul per
    placement step over all loops, each loop with the bits of a placement
    of its own), the square through the same routine; the loops' vertices
    are rows of one array, checked once.  Ring loop i is loop 0 rotated by
    2*pi*i/(ring size) about the z axis, which measure_link finds from the
    coordinates: it measures the ring once.  The link is not verified:
    it is scale-free, so whoever measures it verifies it (`measure.verify`
    with absolute=False finds it embeddable when no two components touch).
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

    shape = "circle" if family == "circles" else "gibbous"
    shape_params = {k: merged[k] for k in ("gamma", "delta") if k in merged}
    n_ring = q - 1 if family == "hybrid_square" else q
    ring = _placed(_planar_shape(shape, shape_params, n_points),
                   2.0 * math.pi * np.arange(n_ring) / n_ring, merged["rho"],
                   merged["psi"])
    comps = PolyCurve._of_stack(ring)
    if family == "hybrid_square":
        square = _planar_shape("rounded_square", {
            "scale": merged["square_scale"],
            "flat_fraction": merged["square_flat_fraction"],
        }, n_points)
        comps += PolyCurve._of_stack(_placed(square, np.zeros(1), 0.0,
                                             0.5 * math.pi))
    return LinkConfiguration(
        comps,
        crossing_number=q * (q - 1),
        description=f"planar {family} link of {q} components",
        metadata={"family": family, "q": q, "params": merged},
    )
