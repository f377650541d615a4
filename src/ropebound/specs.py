"""Spec arithmetic of the tight T(pQ, Q) torus links: shell layouts,
predicted lengths and coefficients, with no geometry.

A torus build wraps concentric shells of unit-thickness helices (shell i at
tube radius 2i, evenly phased) around a common circular core line of major
radius R0, optionally around a central core component.  A TorusSpec holds
its shells as three arrays of one length (tube radii, helix counts, phase
offsets).  The spec builders and length formulas compute on a TorusBatch,
the shells of many tori in one set of arrays: a sweep evaluates a chunk of
T values in one batch, and a single spec is a batch of one.  The
hole radius h = R0 - r_outer is sized so every shell satisfies the
helix-packing constraint; a helix winding p times around the tube packs as
one winding once around a hole p times smaller.  Two builds are provided:

* increment: shell i carries increment * i helices (increment 4 fills each
  shell to the rectangle rule exactly; increment 5 overfills, forcing a wider
  hole and a worse length ratio).
* optimal: hole radius fixed at 2T, every shell filled to capacity
  (exact transcendental count or the rectangle estimate minus 1).

A donut double threads a second congruent torus through the first one's
hole, which requires R0 >= 2 r_outer + 2 (`_inflated`) and turns T(Q, Q)
into a T(2Q, 2Q)-type link; no crossing number is derived for a double of
p > 1.  construction_report, doubled_alphas and limiting_alpha predict
lengths and coefficients from the spec alone.

FAMILIES is the one table of parameterized families (the planar ones and
toroidal_pair): parameter names, start values and box bounds.  The start
values are both the defaults of `construct.build_planar_link` and the
optimizer's first start (`optimize.OptimizationProblem`).

This module imports numpy and `helices` only, so the commands that compute
on specs alone (`sweep`, `correction`, `bounds`) load no geometry; the
links themselves are realized in `construct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .helices import _correction, aggregate_correction, max_helices

__all__ = [
    "FAMILIES",
    "PLANAR_FAMILIES",
    "TorusSpec",
    "TorusBatch",
    "ConstructionReport",
    "build_increment_spec",
    "build_optimal_spec",
    "increment_tori",
    "optimal_tori",
    "doubled_alphas",
    "construction_report",
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
    def q(self) -> int:
        return int(self.has_core) + int(self.counts.sum())

    def crossing_number(self, doubled: bool = False) -> int:
        return _crossing_number(self.q, self.p, doubled)

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


class TorusBatch(NamedTuple):
    """Torus specs without phase offsets, as one set of arrays: the shells of
    every torus in order (tube radii and helix counts), each torus's shell
    count and major radius, and the core flag and winding number p they
    share.  The spec builders and the length formulas compute on batches; a
    sweep holds a chunk of T values in one, and a TorusSpec is a batch of
    one (`TorusBatch.of`)."""

    radii: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    majors: np.ndarray
    has_core: bool
    p: int = 1

    @classmethod
    def of(cls, spec: TorusSpec) -> TorusBatch:
        return cls(spec.radii, spec.counts, np.array([spec.t_shells]),
                   np.array([spec.major_radius]), spec.has_core, spec.p)

    @property
    def owner(self) -> np.ndarray:
        """The index of the torus each shell belongs to."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @property
    def q(self) -> np.ndarray:
        """Component count of each torus."""
        totals = np.concatenate(([0], np.cumsum(self.counts)))
        ends = np.cumsum(self.sizes)
        return int(self.has_core) + totals[ends] - totals[ends - self.sizes]

    @property
    def outer_radii(self) -> np.ndarray:
        """Outer shell radius of each torus (0 for a bare core)."""
        last = np.concatenate(([0.0], self.radii))[np.cumsum(self.sizes)]
        return np.where(self.sizes > 0, last, 0.0)


def _crossing_number(q: int, p: int, doubled: bool) -> int:
    """Crossing number of a T(pQ, Q) torus link of q components, or of its
    donut double, a link of 2q components.  A double of p > 1 raises
    ValueError: it is no torus link."""
    if doubled and p > 1:
        raise ValueError(f"a doubled torus of p = {p} is no torus link: "
                         f"no crossing number is derived for that link")
    single = p * q * (q - 1)
    return 2 * single + 2 * q * q if doubled else single


def _shell_index(ts, p: int) -> tuple:
    """(sizes, index): the shell count T of each torus, and 1..T for each
    torus in turn.  Rejects T < 1 and p < 1."""
    sizes = np.asarray(ts, dtype=np.int64)
    if sizes.min() < 1:
        raise ValueError(f"need t_shells >= 1, got {sizes.min()}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    ends = np.cumsum(sizes)
    return sizes, np.arange(1, ends[-1] + 1) - np.repeat(ends - sizes, sizes)


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


def increment_tori(ts, increment: int, outer_counts=None, p: int = 1) -> TorusBatch:
    """build_increment_spec for every T in `ts` at once: shell i (radius 2i)
    of torus k holds increment*i helices, except its outer shell, which holds
    outer_counts[k] when given; the hole of each torus is p times its
    largest rectangle-rule requirement, since a helix of p windings packs
    like one of a hole p times smaller.  An increment above 4 overfills its
    shells, and for p > 1 that hole leaves helices closer than 2, so it is
    refused."""
    sizes, index = _shell_index(ts, p)
    if increment < 1:
        raise ValueError(f"need increment >= 1, got {increment}")
    if p > 1 and increment > 4:
        raise ValueError(
            f"increment {increment} with p = {p}: the rectangle-rule hole of "
            f"an overfilled shell leaves helices closer than 2 for p > 1"
        )
    counts = increment * index
    outer = np.cumsum(sizes) - 1
    if outer_counts is not None:
        outer_counts = np.asarray(outer_counts, dtype=np.int64)
        if outer_counts.min() < 1:
            raise ValueError(f"outer_count must be >= 1, got {outer_counts.min()}")
        counts[outer] = outer_counts
    radii = 2.0 * index
    holes = p * np.maximum.reduceat(_hole_radius_required(radii, counts),
                                    outer - sizes + 1)
    return TorusBatch(radii, counts, sizes, holes + radii[outer], has_core=True,
                      p=p)


def optimal_tori(ts, count_mode: str = "exact", p: int = 1) -> TorusBatch:
    """build_optimal_spec for every T in `ts` at once, with one max_helices
    call for every shell of every torus; shells that cannot host a helix
    are left out."""
    sizes, index = _shell_index(ts, p)
    radii = 2.0 * index
    counts = max_helices(radii, 2.0 * np.repeat(sizes, sizes) / p, count_mode)
    filled = counts >= 1
    kept = np.bincount(np.repeat(np.arange(len(sizes)), sizes)[filled],
                       minlength=len(sizes))
    if not kept.all():
        raise ValueError("no shell can host a single helix; t_shells too small")
    return TorusBatch(radii[filled], counts[filled], kept, 4.0 * sizes,
                      has_core=False, p=p)


def build_increment_spec(t_shells: int, increment: int = 4,
                         p: int = 1) -> TorusSpec:
    """Torus spec with a core and increment*i helices on shell i (radius 2i),
    each winding p times around the tube.

    The hole radius is the largest requirement of the rectangle rule
    h = N r / sqrt(pi^2 r^2 - N^2) over all shells: the outer shell's (for
    increment 4 exactly h = N_outer / sqrt(pi^2 - 4), i.e. hole
    circumference (2*pi/sqrt(pi^2-4)) * N_outer), times p.  The spec is
    `increment_tori` of this one T.
    """
    batch = increment_tori([t_shells], increment, p=p)
    return TorusSpec(batch.radii, batch.counts, has_core=True,
                     major_radius=float(batch.majors[0]), p=p)


def build_optimal_spec(t_shells: int, count_mode: str = "exact",
                       p: int = 1) -> TorusSpec:
    """Capacity-filling torus spec: shell i at radius 2i, hole radius 2T,
    major radius 4T, no core; each shell holds max_helices(2i, 2T/p)
    helices of p windings.

    count_mode "exact" solves the pair constraint per shell; "approx" uses
    floor(N_a - 1), which reproduces the published component totals (e.g.
    doubled T=100 gives 2 x 26102 = 52204); exact counting packs ~0.4% more
    helices.  The spec is `optimal_tori` of this one T, which a sweep calls
    for a chunk of T values.
    """
    batch = optimal_tori([t_shells], count_mode, p)
    return TorusSpec(batch.radii, batch.counts, has_core=False,
                     major_radius=float(batch.majors[0]), p=p)


def _lengths(batch: TorusBatch) -> np.ndarray:
    """Analytic centerline length of every torus of a batch.

    Each helix on shell radius r contributes 2*pi*sqrt(R0^2 + (p r)^2), the
    length of the equivalent straight helix (one axial turn of rise 2*pi*R0
    around a cylinder of circumference 2*pi*p*r), times the toroidal
    correction at ratio R0/r.  The core adds 2*pi*R0.  One _correction call
    covers the distinct ratios R0/r of the batch; equal ratios give equal
    factors, so this changes no bit.  Each torus sums its terms in shell
    order after the core's, with the same scalar operations as a loop over
    its shells: a sequential accumulate along one zero-padded row per
    torus."""
    owner = batch.owner
    r0 = batch.majors[owner]
    ratios, inverse = np.unique(r0 / batch.radii, return_inverse=True)
    factors = _correction(ratios, batch.p)[inverse]
    hypots = np.array(
        list(map(math.hypot, r0.tolist(), (batch.p * batch.radii).tolist()))
    )
    terms = batch.counts * (2.0 * math.pi * hypots * factors)
    table = np.zeros((len(batch.sizes), 1 + int(batch.sizes.max())))
    if batch.has_core:
        table[:, 0] = 2.0 * math.pi * batch.majors
    starts = np.cumsum(batch.sizes) - batch.sizes
    table[owner, 1 + np.arange(len(owner)) - starts[owner]] = terms
    return np.add.accumulate(table, axis=1)[:, -1]


def _inflated(batch: TorusBatch) -> tuple:
    """(batch with each major radius raised to at least 2 r_outer + 2,
    inflation factor of each torus): two congruent tori threaded through
    each other sit at constant center-circle distance R0, so tube extents
    r_outer + 1 each demand R0 >= 2 r_outer + 2."""
    needed = 2.0 * batch.outer_radii + 2.0
    short = batch.majors < needed
    factors = np.where(short, needed / batch.majors, 1.0)
    return batch._replace(majors=np.where(short, needed, batch.majors)), factors


def _predicted(batch: TorusBatch, doubled: bool) -> tuple:
    """(lengths, crossing numbers, alphas) that construction_report gives
    for each torus of a batch realized as it stands (inflate it first for a
    double), as lists of Python numbers; the alpha of a link without
    crossings (a single helix) is None."""
    lengths = _lengths(batch)
    if doubled:
        lengths = 2.0 * lengths
    crossings = [_crossing_number(q, batch.p, doubled) for q in batch.q.tolist()]
    alphas = [length / c ** 0.75 if c else None
              for length, c in zip(lengths.tolist(), crossings)]
    return lengths.tolist(), crossings, alphas


def doubled_alphas(batch: TorusBatch) -> tuple:
    """(q, alpha) lists: each torus's component count, and the predicted
    alpha of its donut double, which is construction_report(spec,
    doubled=True).alpha_predicted of its spec bit for bit."""
    return batch.q.tolist(), _predicted(_inflated(batch)[0], doubled=True)[2]


@dataclass
class ConstructionReport:
    """Analytic summary of a torus construction."""

    spec: TorusSpec
    q: int
    p: int
    crossing_number: int
    predicted_length: float
    alpha_predicted: float | None
    doubled: bool = False
    inflation: float = 1.0

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["spec"] = self.spec.as_dict()
        return d


def construction_report(spec: TorusSpec,
                        doubled: bool = False) -> ConstructionReport:
    """Predicted length, crossing number, and coefficient for a (possibly
    doubled) torus spec; doubling inflates the major radius if needed, and
    refuses p > 1 (ValueError)."""
    realized_spec, inflation = (_inflated_for_doubling(spec) if doubled
                                else (spec, 1.0))
    (length,), (crossings,), (alpha,) = _predicted(
        TorusBatch.of(realized_spec), doubled
    )
    return ConstructionReport(
        spec=realized_spec,
        q=spec.q,
        p=spec.p,
        crossing_number=crossings,
        predicted_length=length,
        alpha_predicted=alpha,
        doubled=doubled,
        inflation=inflation,
    )


def _inflated_for_doubling(spec: TorusSpec) -> tuple:
    """(spec, 1.0) when its major radius permits donut doubling, else (spec
    at the smallest major radius 2 r_outer + 2 that does, inflation
    factor); see _inflated.  A spec of p > 1 raises ValueError."""
    spec.crossing_number(doubled=True)  # refuses p > 1
    batch, factors = _inflated(TorusBatch.of(spec))
    if batch.majors[0] == spec.major_radius:
        return spec, 1.0
    return replace(spec, major_radius=float(batch.majors[0])), float(factors[0])


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
