"""Packing mathematics for helices on cylinders and tori.

A shell of n unit-thickness helices of radius r rising through a hole of
radius h (circumference H = 2*pi*h) stays embedded iff each adjacent pair
keeps distance 2.  The squared gap between two helices whose phases differ by
2*pi/n, compared at parameter offset theta, is

    d^2(theta) = 2 r^2 (1 - cos(theta + 2*pi/n)) + h^2 theta^2,

so the packing constraint is min_theta d(theta) >= 2.  This module solves
that minimization, counts the maximum helices per shell exactly and by the
rectangular estimate N_a = pi*h*r/sqrt(h^2 + r^2) minus a safety decrement
epsilon, evaluates the cubic Taylor closed form of the same minimum, and
integrates the arc-length correction a helix acquires when its cylinder is
bent into a torus.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

__all__ = [
    "EPSILON_SAFE",
    "helix_count_estimate",
    "pair_min_distance",
    "max_helices",
    "cubic_min_distance",
    "toroidal_correction",
    "aggregate_correction",
]

# Largest safety decrement that still packs 6 helices at r=2 in the tall
# limit, where the estimate N_a approaches 2*pi but the true maximum is 6.
EPSILON_SAFE = 2.0 * math.pi - 6.0


def helix_count_estimate(r: float, h: float) -> float:
    """Rectangular-packing estimate N_a = pi*h*r/sqrt(h^2+r^2) (real-valued)."""
    return math.pi * h * r / math.hypot(h, r)


def _minimize_gap(a: float, r: float, h: float) -> tuple:
    """Minimum of d^2(theta) = 2 r^2 (1 - cos(theta+a)) + h^2 theta^2 and its
    arg, for phase gap a = 2*pi/n.  Both terms grow outside [-a, 0], so that
    interval brackets the minimum; it is presampled (the objective can have
    two local minima when a is large and h small) and the best bracket is
    polished to |delta theta| <= 1e-10."""
    r2 = 2.0 * r * r
    h2 = h * h

    def d2(t):
        return r2 * (1.0 - math.cos(t + a)) + h2 * t * t

    ts = np.linspace(-a, 0.0, 65)
    vals = r2 * (1.0 - np.cos(ts + a)) + h2 * ts * ts
    k = int(np.argmin(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    if lo == hi:  # pragma: no cover - linspace endpoints always differ
        raise RuntimeError("failed to bracket the pair-distance minimum")
    res = minimize_scalar(
        d2, bounds=(float(lo), float(hi)), method="bounded",
        options={"xatol": 1e-13},
    )
    best_t, best_v = float(res.x), float(res.fun)
    if vals[k] < best_v:
        best_t, best_v = float(ts[k]), float(vals[k])
    return best_v, best_t


def pair_min_distance(n: int, r: float, h: float) -> dict:
    """Minimum gap between adjacent helices among n on a (r, h) shell.

    Minimizes d(theta) = sqrt(2 r^2 (1 - cos(theta + 2*pi/n)) + h^2 theta^2)
    over theta in [-pi, pi] by bracketed 1-D minimization.  Returns
    {"distance", "theta_at_min"}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 helices for a pair, got {n}")
    if r <= 0.0 or h <= 0.0:
        raise ValueError("r and h must be positive")
    best_v, best_t = _minimize_gap(2.0 * math.pi / n, r, h)
    return {"distance": math.sqrt(best_v), "theta_at_min": best_t}


def max_helices(r: float, h: float, mode: str = "exact", epsilon: float = EPSILON_SAFE) -> int:
    """Maximum number of unit-thickness helices packable on a (r, h) shell.

    mode="approx" returns floor(N_a - epsilon) from the rectangular estimate
    (with a 1e-9 nudge so that mathematically integer arguments are not
    floored down by floating-point undershoot); results below 1 report 0.
    mode="exact" returns the largest n with pair_min_distance >= 2 (within
    1e-9, since the tall-cylinder optimum approaches 2 from below), found by
    scanning from the estimate; a single helix always fits, so exact mode
    never returns less than 1.
    """
    if r < 2.0:
        raise ValueError(f"shell radius must be >= 2, got {r}")
    if h <= 0.0:
        raise ValueError(f"hole radius must be positive, got {h}")
    n_a = helix_count_estimate(r, h)
    if mode == "approx":
        if epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        count = math.floor(n_a - epsilon + 1e-9)
        return max(count, 0)
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")

    def fits(n: int) -> bool:
        return pair_min_distance(n, r, h)["distance"] >= 2.0 - 1e-9

    n = max(2, math.floor(n_a - EPSILON_SAFE + 1e-9))
    if fits(n):
        while fits(n + 1):
            n += 1
        return n
    while n > 2:
        n -= 1
        if fits(n):
            return n
    return 1


def cubic_min_distance(r: float, h: float, epsilon: float) -> float:
    """Squared minimum gap predicted by the cubic Taylor model at n = N_a - epsilon.

    Expanding d^2(theta) to third order around theta = 0 gives

        d_c^2(theta) = 4 r^2 sin^2(a/2) + 2 r^2 sin(a) theta
                       + (r^2 cos(a) + h^2) theta^2 - (r^2 sin(a)/3) theta^3

    with a = 2*pi/(N_a - epsilon).  The interior stationary point has the
    closed form theta_co = -(sqrt(4 B^2 + 8 r^4 sin^2 a) - 2 B)/(2 r^2 sin a),
    B = r^2 cos a + h^2; the function returns d_c^2(theta_co).  This is the
    analytic certification path for large shells: a value >= 4 certifies the
    packing without numerical search.
    """
    if r < 2.0:
        raise ValueError(f"shell radius must be >= 2, got {r}")
    if h <= 0.0:
        raise ValueError(f"hole radius must be positive, got {h}")
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    n_eff = helix_count_estimate(r, h) - epsilon
    if n_eff <= 2.0:
        raise ValueError(
            f"cubic model invalid: effective count N_a - epsilon = {n_eff:.6g} <= 2"
        )
    a = 2.0 * math.pi / n_eff
    sa, ca = math.sin(a), math.cos(a)
    b = r * r * ca + h * h
    disc = 4.0 * b * b + 8.0 * r ** 4 * sa * sa
    if disc < 0.0:  # pragma: no cover - nonnegative by construction
        raise ValueError("negative discriminant: outside cubic validity")
    theta = -(math.sqrt(disc) - 2.0 * b) / (2.0 * r * r * sa)
    return (
        4.0 * r * r * math.sin(0.5 * a) ** 2
        + 2.0 * r * r * sa * theta
        + b * theta * theta
        - (r * r * sa / 3.0) * theta ** 3
    )


def toroidal_correction(ratio: float, p: int = 1) -> float:
    """Arc-length ratio of a toroidal helix to its straightened counterpart.

    A helix winding p times around a torus tube of radius r while circling
    the axis of major radius R = ratio * r once has length
    integral_0^{2pi} sqrt(p^2 r^2 + (R - r cos t)^2) dt; straightening the
    torus into a cylinder replaces (R - r cos t) by R.  The ratio is

        integral_0^{2pi} sqrt(1 + (ratio - cos t)^2 / p^2) dt
        / (2 pi sqrt((ratio/p)^2 + 1)),

    always > 1, decreasing in ratio, tending to 1 like ratio^-4.  ratio < 1
    describes a self-intersecting torus and is rejected; ratio == 1 (tube as
    fat as the hole) is computed but flagged with a warning.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if ratio < 1.0:
        raise ValueError(
            f"ratio must be >= 1, got {ratio}: the torus is self-intersecting"
        )
    if ratio == 1.0:
        warnings.warn(
            "ratio == 1 describes a degenerate horn torus; the correction is "
            "still integrable but the geometry cannot be realized",
            stacklevel=2,
        )
    inv_p2 = 1.0 / (p * p)

    def integrand(t):
        dev = ratio - math.cos(t)
        return math.sqrt(1.0 + inv_p2 * dev * dev)

    val, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val / (2.0 * math.pi * math.sqrt((ratio / p) ** 2 + 1.0))


@lru_cache(maxsize=64)
def _aggregate_cached(t_shells: int, weighting: str, ratio_coeff: float) -> float:
    i = np.arange(1, t_shells + 1, dtype=float)
    t = float(t_shells)
    corr = np.array([toroidal_correction(ratio_coeff * t / ii, 1) for ii in i])
    # straight per-helix length, up to 4*pi: sqrt((R0/2)^2 + i^2), R0 = 2*c*T
    straight = np.sqrt((ratio_coeff * t) ** 2 + i * i)
    if weighting == "increment":
        counts = i  # shell i holds a count proportional to i
    elif weighting == "optimal":
        counts = i * t / np.sqrt(t * t + i * i)  # N_a-style per-shell counts
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    w = counts * straight
    return float(np.sum(w * corr) / np.sum(w))


def aggregate_correction(
    t_shells: int, weighting: str = "increment", ratio_coeff: float = 2.0
) -> float:
    """Length-weighted mean toroidal correction over a T-shell torus.

    Shell i (radius 2i) of a torus with major radius R0 = 2 * ratio_coeff * T
    needs the correction at ratio ratio_coeff * T / i; the default coefficient
    2 is the doubled-construction geometry (R0 = 4T).  Weights are (helix
    count per shell) x (straight helix length): counts scale like i for the
    fixed-increment builds ("increment") or like the rectangular estimate for
    the capacity-filling build ("optimal").  Tends to ~1.0042 ("increment")
    or ~1.0039 ("optimal") as T grows.
    """
    if t_shells < 1:
        raise ValueError(f"need t_shells >= 1, got {t_shells}")
    if ratio_coeff <= 1.0:
        raise ValueError("ratio_coeff must exceed 1 (the outermost shell has this ratio)")
    return _aggregate_cached(int(t_shells), weighting, float(ratio_coeff))
