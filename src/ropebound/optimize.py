"""Derivative-free minimization of normalized ropelength.

The objective for every family is the scale-invariant normalized ropelength
of the realized configuration (total length over thickness), so the optimum
is exactly the quantity the rest of the library measures and bounds.  The
minimizer is a reflection/expansion/contraction simplex over box-bounded
parameters with boundary clamping; infeasible parameter vectors (self
intersections, invalid shapes) evaluate to +inf and are recovered from by
contraction.  Restarts jitter the starting point deterministically from a
seeded generator.

reverse_jenga improves a multi-shell torus spec by greedily moving helices
from the outermost shell into spare exact capacity of inner shells whenever
the recomputed hole radius makes the predicted total length drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construct import (
    OverlapError,
    Shell,
    TorusSpec,
    _hole_radius_required,
    analytic_length,
    build_planar_link,
    realize_torus,
)
from .curves import rotation_about_axis, sample_planar_curve
from .helices import max_helices
from .measure import LinkConfiguration, measure_link, verify

__all__ = [
    "OptimizationProblem",
    "normalized_ropelength",
    "nelder_mead",
    "minimize_params",
    "reverse_jenga",
    "toroidal_pair",
    "toroidal_pair_problem",
    "perpendicular_variant",
]


# parameter names, default starting vector, and box bounds per family
_FAMILIES = {
    "circles": (
        ("rho", "psi"),
        (0.5, 5.0 * math.pi / 18.0),
        ((0.05, 1.5), (0.05, 0.5 * math.pi - 0.05)),
    ),
    "gibbous": (
        ("rho", "psi", "gamma", "delta"),
        (0.4, 0.75, 0.8, -0.05),
        ((0.05, 1.5), (0.05, 0.5 * math.pi - 0.05), (0.2, 3.0), (-0.249, 0.249)),
    ),
    "hybrid_square": (
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
    "toroidal_pair": (
        ("major_radius", "separation", "phase", "shell_radius"),
        (6.4, 6.44, 0.0, 2.2),
        ((4.5, 9.0), (4.0, 9.0), (-0.6, 0.6), (2.0, 3.2)),
    ),
}


def normalized_ropelength(link) -> float:
    """Normalized ropelength of a configuration; +inf for configurations
    that cannot be thickened (touching or intersecting components)."""
    try:
        metrics = measure_link(link)
    except (ValueError, OverlapError):
        return np.inf
    value = metrics.normalized_length
    if not np.isfinite(value) or not verify(metrics, absolute=False)["passed"]:
        return np.inf
    return float(value)


def toroidal_pair(
    major_radius: float,
    separation: float | None = None,
    phase: float = 0.0,
    count: int = 6,
    shell_radius: float = 2.0,
    n_points: int = 420,
) -> LinkConfiguration:
    """Two congruent core-plus-helices tori threaded through each other.

    Unlike donut doubling this does not enforce the conservative clearance
    R0 >= 2 r_outer + 2: `separation` (default: the major radius) places the
    second copy freely, letting an optimizer trade inter-copy clearance
    against intra-copy helix gaps.  The common `phase` rotates each torus
    about its own axis, changing the relative geometry of the two copies.
    """
    if separation is None:
        separation = major_radius
    spec = TorusSpec(
        [Shell(shell_radius, count, phase)], has_core=True, major_radius=major_radius
    )
    first = realize_torus(spec, n_points=n_points, check=False)
    rot = rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi)
    shift = np.array([separation, 0.0, 0.0])
    second = [c.transformed(rot, shift) for c in first.components]
    q = spec.q
    return LinkConfiguration(
        list(first.components) + second,
        crossing_number=2 * q * (q - 1) + 2 * q * q,
        description=f"two threaded tori of {q} components each",
        metadata={"family": "toroidal_pair", "spec": spec.as_dict(),
                  "separation": separation},
    )


@dataclass
class OptimizationProblem:
    """A parameterized construction plus everything needed to minimize its
    normalized ropelength."""

    family: str
    q: int
    p: int = 1
    initial_params: object = None
    param_bounds: object = None
    n_points: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        names, defaults, bounds = _FAMILIES[self.family]
        if self.initial_params is None:
            self.initial_params = np.asarray(defaults, dtype=float)
        else:
            self.initial_params = np.asarray(self.initial_params, dtype=float)
        if self.param_bounds is None:
            self.param_bounds = np.asarray(bounds, dtype=float)
        else:
            self.param_bounds = np.asarray(self.param_bounds, dtype=float)
        arity = len(names)
        if self.initial_params.shape != (arity,):
            raise ValueError(
                f"{self.family} takes {arity} parameters "
                f"({', '.join(names)}), got {self.initial_params.shape}"
            )
        if self.param_bounds.shape != (arity, 2):
            raise ValueError(f"param_bounds must be ({arity}, 2)")
        lo, hi = self.param_bounds.T
        if (self.initial_params < lo).any() or (self.initial_params > hi).any():
            raise ValueError("initial parameters outside bounds")

    @property
    def param_names(self):
        return _FAMILIES[self.family][0]

    def build(self, params) -> LinkConfiguration:
        params = np.asarray(params, dtype=float)
        if self.family == "toroidal_pair":
            return toroidal_pair(
                params[0], params[1], params[2], shell_radius=params[3],
                n_points=self.n_points,
            )
        values = dict(zip(self.param_names, params))
        return build_planar_link(
            self.q, self.family, values, n_points=self.n_points, check=False
        )

    def objective(self, params) -> float:
        try:
            link = self.build(params)
        except (ValueError, OverlapError):
            return np.inf
        return normalized_ropelength(link)


def nelder_mead(
    func,
    x0,
    bounds,
    xatol: float = 1e-6,
    fatol: float = 1e-8,
    maxfev: int = 2000,
    initial_step: float = 0.05,
):
    """Simplex minimization over a box, clamping every trial point to the box.

    Terminates when the simplex diameter drops below `xatol`, or the value
    spread drops below `fatol`, or `maxfev` evaluations are spent.  Raises
    ValueError if no vertex of the initial simplex is feasible (finite).
    """
    x0 = np.asarray(x0, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds.T
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(func(np.clip(x, lo, hi)))

    sim = [np.clip(x0, lo, hi)]
    for i in range(n):
        step = initial_step * (hi[i] - lo[i])
        x = sim[0].copy()
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        sim.append(x)
    sim = np.array(sim)
    fs = np.array([f(x) for x in sim])
    if not np.isfinite(fs).any():
        raise ValueError("every vertex of the initial simplex is infeasible")

    alpha_r, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    while evals < maxfev:
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        diameter = float(np.max(np.abs(sim[1:] - sim[0]))) if n else 0.0
        finite = fs[np.isfinite(fs)]
        spread = float(finite.max() - finite.min()) if finite.size > 1 else np.inf
        if diameter < xatol or spread < fatol:
            break
        centroid = sim[:-1].mean(axis=0)
        xr = np.clip(centroid + alpha_r * (centroid - sim[-1]), lo, hi)
        fr = f(xr)
        if fr < fs[0]:
            xe = np.clip(centroid + gamma_e * (centroid - sim[-1]), lo, hi)
            fe = f(xe)
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            inside = fr >= fs[-1]
            base = sim[-1] if inside else xr
            fb = fs[-1] if inside else fr
            xc = np.clip(centroid + rho_c * (base - centroid), lo, hi)
            fc = f(xc)
            if fc < fb:
                sim[-1], fs[-1] = xc, fc
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    sim[i] = sim[0] + sigma_s * (sim[i] - sim[0])
                    fs[i] = f(sim[i])

    best = int(np.argmin(fs))
    return {
        "best_params": sim[best].copy(),
        "best_value": float(fs[best]),
        "evaluations": evals,
    }


def minimize_params(
    problem: OptimizationProblem,
    restarts: int = 5,
    xatol: float = 1e-6,
    fatol: float = 1e-8,
    maxfev: int = 2000,
) -> dict:
    """Best-of-restarts simplex minimization of the problem objective.

    The first start is the problem's initial parameters; the remaining
    `restarts - 1` are jittered deterministically from the problem seed.
    The result is never worse than the initial feasible objective, and
    includes the total evaluation count.
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    rng = np.random.default_rng(problem.seed)
    lo, hi = np.asarray(problem.param_bounds, dtype=float).T
    span = hi - lo
    starts = [np.asarray(problem.initial_params, dtype=float)]
    while len(starts) < restarts:
        jitter = rng.uniform(-0.1, 0.1, size=len(span)) * span
        starts.append(np.clip(starts[0] + jitter, lo, hi))

    initial_value = problem.objective(starts[0])
    best = {
        "best_params": starts[0].copy(),
        "best_value": float(initial_value),
        "evaluations": 1,
    }
    total_evals = 1
    for x0 in starts:
        try:
            res = nelder_mead(
                problem.objective, x0, problem.param_bounds,
                xatol=xatol, fatol=fatol, maxfev=maxfev,
            )
        except ValueError:
            continue
        total_evals += res["evaluations"]
        if res["best_value"] < best["best_value"]:
            best = res
    best["evaluations"] = total_evals
    return best


def _rect_hole(radii, counts, fallback):
    """Rectangle-rule hole radius for the given shell loading, falling back
    when a count exceeds the circumferential cap."""
    try:
        return max(_hole_radius_required(r, n) for r, n in zip(radii, counts) if n)
    except ValueError:
        return fallback


def _jenga_radius(radii, counts, current_hole):
    """Smallest hole radius at which every shell passes the exact capacity
    check, starting from the rectangle-rule estimate."""
    h = _rect_hole(radii, counts, current_hole)
    for _ in range(60):
        if all(
            n <= max_helices(r, h, "exact") for r, n in zip(radii, counts) if n
        ):
            return h
        h *= 1.02
    return None


def reverse_jenga(spec: TorusSpec) -> TorusSpec:
    """Greedily move helices from the outermost shell into inner shells.

    A move takes one helix off the outermost populated shell and places it
    on an inner shell with spare exact capacity, re-deriving the hole radius
    (and hence the major radius) for the new loading; it is kept when the
    corrected predicted length drops.  Moves repeat until no move improves,
    so the returned spec has predicted length <= the input's and the same
    total component count.
    """
    radii = [s.radius for s in spec.shells]
    counts = [s.count for s in spec.shells]
    phases = [s.phase_offset for s in spec.shells]
    hole = spec.hole_radius

    def make(counts_v, hole_v):
        shells = [
            Shell(r, n, ph)
            for r, n, ph in zip(radii, counts_v, phases)
            if n > 0
        ]
        return TorusSpec(
            shells,
            has_core=spec.has_core,
            major_radius=hole_v + shells[-1].radius,
            p=spec.p,
            t_shells=len(shells),
        )

    current = make(counts, hole)
    length = analytic_length(current, corrected=True)
    improved = True
    while improved:
        improved = False
        outer = max(i for i, n in enumerate(counts) if n > 0)
        best_move = None
        for target in range(outer):
            trial = counts.copy()
            trial[outer] -= 1
            trial[target] += 1
            h = _jenga_radius(radii, trial, hole)
            if h is None:
                continue
            if trial[target] > max_helices(radii[target], h, "exact"):
                continue
            cand = make(trial, h)
            cand_len = analytic_length(cand, corrected=True)
            if cand_len < length - 1e-12 and (
                best_move is None or cand_len < best_move[0]
            ):
                best_move = (cand_len, trial, h, cand)
        if best_move is not None:
            length, counts, hole, current = best_move
            improved = True
    return current


def toroidal_pair_problem(n_points: int = 420, seed: int = 0) -> OptimizationProblem:
    """Optimization problem for the 14-component link made of two threaded
    copies of a core circle surrounded by six helices."""
    return OptimizationProblem("toroidal_pair", q=14, n_points=n_points, seed=seed)


def perpendicular_variant(
    spec: TorusSpec, outer_crossing: float | None = None, n_points: int = 1000
):
    """Replace one outermost helix with a circle threading the hole
    perpendicular to the torus plane; returns (configuration, normalized
    ropelength).  The circle crosses the torus plane at the hole center and
    at `outer_crossing` (default: just outside the outermost tube)."""
    if not spec.shells:
        raise ValueError("spec has no helices to move")
    counts = [s.count for s in spec.shells]
    counts[-1] -= 1
    shells = [
        Shell(s.radius, n, s.phase_offset)
        for s, n in zip(spec.shells, counts)
        if n > 0
    ]
    reduced = TorusSpec(
        shells or spec.shells[:1],
        has_core=spec.has_core,
        major_radius=spec.major_radius,
        p=spec.p,
        t_shells=len(shells) if shells else 1,
    )
    if outer_crossing is None:
        outer_crossing = spec.major_radius + spec.outer_radius + 2.0
    radius = 0.5 * outer_crossing
    # xz-plane circle through the hole center (0,0,0) and (outer_crossing,0,0)
    circle = sample_planar_curve(
        "circle", {"radius": radius}, n_points=n_points
    ).transformed(np.eye(3), np.array([radius, 0.0, 0.0]))
    base = realize_torus(reduced, n_points=n_points, check=False)
    q = spec.q
    config = LinkConfiguration(
        list(base.components) + [circle],
        crossing_number=spec.crossing_number(doubled=False),
        description=f"torus link of {q} components, one moved perpendicular",
        metadata={"family": "torus_perpendicular", "spec": reduced.as_dict()},
    )
    return config, normalized_ropelength(config)
