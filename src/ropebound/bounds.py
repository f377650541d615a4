"""Ropelength lower bounds and three-quarter-power coefficients for T(pQ, Q)
torus links.

Each of the Q components of a T(pQ, Q) torus link is linked with every other,
so any one component must wrap around a bundle of p(Q-1) unit-radius tubes;
its length is bounded below by 2*pi (its own bending) plus the perimeter of
the minimal convex hull around that many unit disks.  Three hull estimates
give three bounds:

* small_hull: exact minimal hulls known for up to 5 disks (valid p=1,
  3 <= Q <= 6), giving L >= Q(4*pi + 2(Q-1)).
* isoperimetric: hull perimeter >= circumference of the circle of equal
  packed area, giving L >= 2*pi*Q(1 + sqrt(p(Q-1))).
* wegner: hull perimeter >= the hexagonal-packing perimeter inequality
  wegner_hull_length(n), giving L >= Q(2*pi + wegner_hull_length(p(Q-1))).

Dividing by the crossing number C = pQ(Q-1) to the 3/4 power yields the
coefficients alpha_iso and alpha_w, whose large-Q limits asymptotic_coefficients
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundsReport",
    "wegner_hull_length",
    "lower_bound_report",
    "asymptotic_coefficients",
]

def wegner_hull_length(n: int) -> float:
    """Lower bound on the convex-hull perimeter of n packed unit disks.

    Evaluates sqrt(4*pi*(sqrt(12)*(n-1) + (2-sqrt(3))*ceil(sqrt(12n-3)-3) + pi)).
    The ceiling argument is nudged down by 1e-12 before rounding so that
    arguments that are mathematically integers (n = 1, 7, 19, ... where
    12n-3 is a perfect square) are never spuriously rounded up by
    floating-point overshoot.  n=1 gives exactly 2*pi, one disk's circumference.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 disks, got {n}")
    ceil_term = math.ceil(math.sqrt(12.0 * n - 3.0) - 3.0 - 1e-12)
    inner = (
        math.sqrt(12.0) * (n - 1)
        + (2.0 - math.sqrt(3.0)) * ceil_term
        + math.pi
    )
    return math.sqrt(4.0 * math.pi * inner)


@dataclass
class BoundsReport:
    """All lower bounds and coefficients for one T(pQ, Q) torus link."""

    p: int
    q: int
    crossing_number: int
    small_hull_bound: float | None
    isoperimetric_bound: float
    wegner_bound: float
    best_bound: float
    alpha_iso: float
    alpha_w: float
    rigor_flag: str  # "rigorous" | "conditional"

    @property
    def alpha_best(self) -> float:
        return self.best_bound / self.crossing_number ** 0.75

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["alpha_best"] = self.alpha_best
        return d


def lower_bound_report(p: int, q: int) -> BoundsReport:
    """Evaluate every applicable ropelength lower bound for T(pQ, Q).

    The Wegner-style bound relies on each component enclosing the other
    strands' full cross-section; when p > 1 the strands pass through a
    component's disk p times but the tube-count argument is only heuristic,
    so the report is flagged "conditional" whenever p > 1 and that bound
    exceeds the isoperimetric one.
    """
    if q < 2:
        raise ValueError(f"need q >= 2 components, got {q}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    crossings = p * q * (q - 1)
    n = p * (q - 1)

    small = None
    if p == 1 and 3 <= q <= 6:
        small = q * (4.0 * math.pi + 2.0 * (q - 1))
    iso = 2.0 * math.pi * q * (1.0 + math.sqrt(n))
    weg = q * (2.0 * math.pi + wegner_hull_length(n))
    best = max(b for b in (small, iso, weg) if b is not None)

    c34 = crossings ** 0.75
    rigor = "conditional" if (p > 1 and weg > iso) else "rigorous"
    return BoundsReport(
        p=p,
        q=q,
        crossing_number=crossings,
        small_hull_bound=small,
        isoperimetric_bound=iso,
        wegner_bound=weg,
        best_bound=best,
        alpha_iso=iso / c34,
        alpha_w=weg / c34,
        rigor_flag=rigor,
    )


def asymptotic_coefficients(p: int) -> dict:
    """Large-Q limits of the coefficient alpha = L / C^(3/4).

    alpha_w_limit is the closed form sqrt(8*pi) * (3/p)^(1/4); alpha_iso_limit
    is 2*pi / p^(1/4).  `subleading` is the coefficient s in
    alpha_w(Q) ~ alpha_w_limit + s/sqrt(Q), in closed form
    s = (2*pi + sqrt(2*pi*(7*sqrt(3) - 12))) / p^(3/4).  For large n,
    wegner_hull_length(n) = sqrt(8*pi*sqrt(3)*n) + sqrt(2*pi*(7*sqrt(3) - 12))
    + O(n^(-1/2)); the constant part of L/Q = 2*pi + wegner_hull_length(p(Q-1)),
    times Q over C^(3/4) ~ p^(3/4) Q^(3/2), gives s, and the growing part
    gives alpha_w_limit plus O(1/Q).
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return {
        "alpha_w_limit": math.sqrt(8.0 * math.pi) * (3.0 / p) ** 0.25,
        "alpha_iso_limit": 2.0 * math.pi / p ** 0.25,
        "subleading": (
            2.0 * math.pi + math.sqrt(2.0 * math.pi * (7.0 * math.sqrt(3.0) - 12.0))
        ) / p ** 0.75,
    }
