"""Packing mathematics for helices on cylinders and tori.

A shell of n unit-thickness helices of radius r rising through a hole of
radius h (circumference H = 2*pi*h) stays embedded iff each adjacent pair
keeps distance 2.  The squared gap between two helices whose phases differ by
a = 2*pi/n, compared at parameter offset theta, is

    d^2(theta) = 4 r^2 sin^2((theta + a)/2) + h^2 theta^2,

(the form 2 r^2 (1 - cos(theta + a)) rewritten so that small gaps do not
cancel), and the packing constraint is min_theta d(theta) >= 2.  Both terms
grow outside [-a, 0], so that interval holds the minimum.  It is found for an
array of shells at once, a block of _BLOCK shells at a time: 65 equispaced
samples bracket the smallest sample (the objective can have two local minima
when a is large and h small), and a fixed number of safeguarded Newton steps
on d(d^2)/dtheta polish it inside that bracket.  `max_helices` counts the
helices per shell exactly, scanning n from the rectangular estimate
N_a = pi*h*r/sqrt(h^2 + r^2) for every shell it is given in one pass (all
shells of a sweep's chunk of tori at once), or approximately as
floor(N_a - 1).

Bending the cylinder into a torus changes each helix's arc length by a factor
that is the mean over the tube angle t of a smooth 2*pi-periodic function.
The equispaced trapezoid rule converges exponentially on such integrands
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule", SIAM
Review 2014): a fixed 64 nodes reproduce adaptive quadrature to a few ulps
for every ratio >= 1 and p >= 1, and evaluate an array of ratios at once,
_BLOCK ratios at a time.

A block writes its bracket rows or its quadrature nodes into buffers that
each thread allocates once (`_workspace`), so a pass over any number of
shells holds no bracket or node array larger than one block, and touches
no fresh pages.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np

__all__ = [
    "EPSILON_SAFE",
    "helix_count_estimate",
    "pair_min_distance",
    "max_helices",
    "toroidal_correction",
    "aggregate_correction",
]

# Largest safety decrement that still packs 6 helices at r=2 in the tall
# limit, where the estimate N_a approaches 2*pi but the true maximum is 6;
# the exact count scans from floor(N_a - EPSILON_SAFE).
EPSILON_SAFE = 2.0 * math.pi - 6.0

# Samples that bracket the pair-gap minimum, and Newton steps that polish it
# (from within one sample spacing, a/64, quadratic convergence reaches
# machine precision in about five).
_BRACKET_SAMPLES = 65
_NEWTON_STEPS = 8

# Bracket sample k of a shell is k (a/64) - a, as np.linspace computes it.
_SAMPLE_STEPS = np.arange(float(_BRACKET_SAMPLES))

# Shells per block of _min_gap, and ratios per block of _correction: a
# block's three (block x 65) bracket rows, or its (block x 64) quadrature
# nodes, take 0.8 MiB of the calling thread's workspace.  Smaller blocks in
# fresh arrays cost 13-15% more time, most of it page faults.
_BLOCK = 512

# Trapezoid nodes for the toroidal correction; cos t at each node.
_CORRECTION_NODES = 64
_COS_NODES = np.cos(2.0 * np.pi * np.arange(_CORRECTION_NODES) / _CORRECTION_NODES)

_buffers = threading.local()


def _workspace() -> np.ndarray:
    """(3, _BLOCK, _BRACKET_SAMPLES) floats that the calling thread
    allocates once: a block's bracket samples, values and one temporary,
    or, in the first, its quadrature nodes.  They carry nothing from one
    block to the next: a block writes every element it reads."""
    floats = getattr(_buffers, "floats", None)
    if floats is None:
        floats = _buffers.floats = np.empty((3, _BLOCK, _BRACKET_SAMPLES))
    return floats


def helix_count_estimate(r, h):
    """Rectangular-packing estimate N_a = pi*h*r/sqrt(h^2+r^2) (real-valued;
    elementwise on arrays)."""
    return math.pi * h * r / np.hypot(h, r)


def _min_gap(a: np.ndarray, r: np.ndarray, h: np.ndarray) -> tuple:
    """Minimum of d^2(theta) over theta in [-a, 0] and its argmin,
    elementwise over equal-length 1-D arrays of phase gaps a, radii r and
    hole radii h, _BLOCK shells at a time.  The result is never above the
    smallest bracket sample."""
    v, t = np.empty(len(a)), np.empty(len(a))
    for k in range(0, len(a), _BLOCK):
        block = slice(k, k + _BLOCK)
        v[block], t[block] = _min_gap_block(a[block], r[block], h[block])
    return v, t


def _min_gap_block(a: np.ndarray, r: np.ndarray, h: np.ndarray) -> tuple:
    """_min_gap on one block of shells.  The bracket rows are those of

        ts = linspace(-a, 0, 65)
        vals = 4 r^2 sin(0.5 (ts + a))^2 + h^2 ts ts

    step by step, written into the thread's workspace."""
    r2 = r * r
    h2 = h * h
    rows = np.arange(len(a))
    ts, vals, tmp = _workspace()[:, : len(a)]
    np.multiply(_SAMPLE_STEPS, (a / (_BRACKET_SAMPLES - 1))[:, None], out=ts)
    np.subtract(ts, a[:, None], out=ts)
    ts[:, -1] = 0.0
    np.add(ts, a[:, None], out=vals)
    vals *= 0.5
    np.sin(vals, out=vals)
    np.square(vals, out=vals)
    vals *= (4.0 * r2)[:, None]
    np.multiply(h2[:, None], ts, out=tmp)
    tmp *= ts
    vals += tmp
    k = np.argmin(vals, axis=-1)
    lo = ts[rows, np.maximum(k - 1, 0)]
    hi = ts[rows, np.minimum(k + 1, _BRACKET_SAMPLES - 1)]
    best_t = ts[rows, k]
    best_v = vals[rows, k]

    t = best_t
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            # half of d(d^2)/dtheta and of its derivative
            g = r2 * np.sin(t + a) + h2 * t
            dg = r2 * np.cos(t + a) + h2
            lo = np.where(g < 0.0, t, lo)
            hi = np.where(g > 0.0, t, hi)
            step = t - g / dg
            t = np.where((dg > 0.0) & (step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    v = 4.0 * r2 * np.sin(0.5 * (t + a)) ** 2 + h2 * t * t
    better = v < best_v
    return np.where(better, v, best_v), np.where(better, t, best_t)


# The scalar form of _min_gap.  The package counts helices through _fits;
# this stays because perfbench/tracing.py wraps this attribute.
def pair_min_distance(n: int, r: float, h: float) -> dict:
    """Minimum gap between adjacent helices among n on a (r, h) shell.

    Minimizes d(theta) = sqrt(4 r^2 sin^2((theta + a)/2) + h^2 theta^2),
    a = 2*pi/n, over theta in [-a, 0], where it is attained.  Returns
    {"distance", "theta_at_min"}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 helices for a pair, got {n}")
    if r <= 0.0 or h <= 0.0:
        raise ValueError("r and h must be positive")
    v, t = _min_gap(np.array([2.0 * math.pi / n]), np.array([float(r)]),
                    np.array([float(h)]))
    return {"distance": math.sqrt(v[0]), "theta_at_min": float(t[0])}


def _fits(n: np.ndarray, r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Whether n helices pack on each (r, h) shell: pair gap >= 2 within
    1e-9, since the tall-cylinder optimum approaches 2 from below."""
    v, _ = _min_gap(2.0 * np.pi / n, r, h)
    return np.sqrt(v) >= 2.0 - 1e-9


def _exact_counts(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Largest n that fits on each shell (1 when not even 2 fit), scanning
    up or down from floor(N_a - EPSILON_SAFE); one _min_gap call per step
    for all shells still scanning."""
    n = np.maximum(2, np.floor(helix_count_estimate(r, h) - EPSILON_SAFE + 1e-9))
    n = n.astype(np.int64)
    start_fits = _fits(n, r, h)

    growing = np.flatnonzero(start_fits)
    while growing.size:
        ok = _fits(n[growing] + 1, r[growing], h[growing])
        n[growing[ok]] += 1
        growing = growing[ok]

    shrinking = np.flatnonzero(~start_fits)
    while shrinking.size:
        at_two = n[shrinking] <= 2
        n[shrinking[at_two]] = 1
        shrinking = shrinking[~at_two]
        n[shrinking] -= 1
        shrinking = shrinking[~_fits(n[shrinking], r[shrinking], h[shrinking])]
    return n


def max_helices(r, h, mode: str = "exact"):
    """Maximum number of unit-thickness helices packable on a (r, h) shell.

    r and h may be arrays (broadcast together), one count per shell; scalar
    arguments give an int.  mode="approx" returns floor(N_a - 1) from
    the rectangular estimate (with a 1e-9 nudge so that mathematically
    integer arguments are not floored down by floating-point undershoot);
    results below 1 report 0.  mode="exact" returns the largest n with
    pair_min_distance >= 2 (within 1e-9, since the tall-cylinder optimum
    approaches 2 from below), found by scanning from the estimate; a single
    helix always fits, so exact mode never returns less than 1.
    """
    r_arr, h_arr = np.broadcast_arrays(np.asarray(r, dtype=float),
                                       np.asarray(h, dtype=float))
    if not (np.all(np.isfinite(r_arr)) and np.all(np.isfinite(h_arr))):
        raise ValueError(f"shell and hole radii must be finite, got {r} and {h}")
    if np.any(r_arr < 2.0):
        raise ValueError(f"shell radius must be >= 2, got {r_arr.min()}")
    if np.any(h_arr <= 0.0):
        raise ValueError(f"hole radius must be positive, got {h_arr.min()}")
    if mode == "approx":
        n_a = helix_count_estimate(r_arr, h_arr)
        counts = np.maximum(np.floor(n_a - 1.0 + 1e-9), 0).astype(np.int64)
    elif mode == "exact":
        counts = _exact_counts(r_arr.ravel(), h_arr.ravel()).reshape(r_arr.shape)
    else:
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    return int(counts) if counts.ndim == 0 else counts


def _correction(ratio: np.ndarray, p: int) -> np.ndarray:
    """toroidal_correction on an array of ratios, returning an array of the
    same shape."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    finite = np.isfinite(ratio)
    if not np.all(finite):
        raise ValueError(f"ratio must be finite, got {ratio[~finite][0]}")
    if np.any(ratio < 1.0):
        raise ValueError(
            f"ratio must be >= 1, got {ratio.min()}: the torus is self-intersecting"
        )
    if np.any(ratio == 1.0):
        warnings.warn(
            "ratio == 1 describes a degenerate horn torus; the correction is "
            "still integrable but the geometry cannot be realized",
            stacklevel=3,
        )
    # Each node is divided by the node count (exact: a power of two) before
    # summing, so that the largest finite ratios do not overflow the sum.  A
    # row's sum does not depend on how many rows its block holds, so the
    # blocks give the bits of one (ratios x nodes) pass.
    flat = ratio.ravel()
    out = np.empty(flat.size)
    floats = _workspace()[0].reshape(-1)
    for k in range(0, flat.size, _BLOCK):
        block = flat[k : k + _BLOCK]
        nodes = floats[: block.size * _CORRECTION_NODES].reshape(
            block.size, _CORRECTION_NODES)
        np.subtract(block[:, None], _COS_NODES, out=nodes)
        np.hypot(p, nodes, out=nodes)
        nodes /= _CORRECTION_NODES
        sums = np.sum(nodes, axis=-1, out=out[k : k + _BLOCK])
        sums /= np.hypot(p, block)
    return out.reshape(ratio.shape)


def toroidal_correction(ratio, p: int = 1):
    """Arc-length ratio of a toroidal helix to its straightened counterpart.

    A helix winding p times around a torus tube of radius r while circling
    the axis of major radius R = ratio * r once has length
    integral_0^{2pi} sqrt(p^2 r^2 + (R - r cos t)^2) dt; straightening the
    torus into a cylinder replaces (R - r cos t) by R.  The ratio is

        mean over t of hypot(p, ratio - cos t) / hypot(p, ratio),

    evaluated by the 64-node trapezoid rule (exact to a few ulps; hypot keeps
    huge ratios from overflowing).  It is always > 1, decreasing in ratio,
    tending to 1 like ratio^-4.  `ratio` may be a scalar (float result) or an
    array (array result).  Non-finite ratios are rejected, as is ratio < 1,
    a self-intersecting torus; ratio == 1 (tube as fat as the hole) is
    computed but flagged with a warning.
    """
    out = _correction(np.asarray(ratio, dtype=float), p)
    return float(out) if out.ndim == 0 else out


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
    i = np.arange(1, int(t_shells) + 1, dtype=float)
    t = float(t_shells)
    if weighting == "increment":
        counts = i  # shell i holds a count proportional to i
    elif weighting == "optimal":
        counts = i * t / np.sqrt(t * t + i * i)  # N_a-style per-shell counts
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    # straight per-helix length, up to 4*pi: sqrt((R0/2)^2 + i^2), R0 = 2*c*T
    w = counts * np.sqrt((ratio_coeff * t) ** 2 + i * i)
    corr = _correction(ratio_coeff * t / i, 1)
    return float(np.sum(w / np.sum(w) * corr))
