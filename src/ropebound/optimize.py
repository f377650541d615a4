"""Derivative-free minimization of normalized ropelength.

An OptimizationProblem names a family of `construct.FAMILIES` (whose row
gives the parameter names, the start and the box bounds), a component count,
a sampling density and a seed.  The objective for every family is the
scale-invariant normalized ropelength of the realized configuration (total
length over thickness), so the optimum is exactly the quantity the rest of
the library measures and bounds.  The minimizer is a reflection/expansion/
contraction simplex over box-bounded parameters with boundary clamping;
infeasible parameter vectors (self intersections, invalid shapes) evaluate
to +inf and are recovered from by contraction.  Restarts jitter the starting
point deterministically from a seeded generator.

reverse_jenga improves a multi-shell torus spec by greedily moving helices
from the outermost shell into spare exact capacity of inner shells whenever
the recomputed hole radius makes the predicted total length drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import (
    FAMILIES,
    OverlapError,
    TorusSpec,
    _hole_radius_required,
    analytic_length,
    build_planar_link,
    toroidal_pair,
)
from .helices import max_helices
from .measure import LinkConfiguration, measure_thickness, verify
# Not called here; kept because perfbench/tracing.py wraps this attribute.
from .measure import measure_link  # noqa: F401

__all__ = [
    "OptimizationProblem",
    "normalized_ropelength",
    "nelder_mead",
    "minimize_params",
    "reverse_jenga",
]


def normalized_ropelength(link) -> float:
    """Normalized ropelength of a configuration; +inf for configurations
    that cannot be thickened (touching or intersecting components)."""
    try:
        metrics = measure_thickness(link)
    except (ValueError, OverlapError):
        return np.inf
    value = metrics.normalized_length
    if not np.isfinite(value) or not verify(metrics, absolute=False)["passed"]:
        return np.inf
    return float(value)


@dataclass
class OptimizationProblem:
    """A parameterized construction plus everything needed to minimize its
    normalized ropelength."""

    family: str
    q: int
    n_points: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def param_names(self) -> tuple:
        return FAMILIES[self.family].names

    @property
    def initial_params(self) -> np.ndarray:
        return np.array(FAMILIES[self.family].start, dtype=float)

    @property
    def param_bounds(self) -> np.ndarray:
        return np.array(FAMILIES[self.family].bounds, dtype=float)

    def build(self, params) -> LinkConfiguration:
        values = dict(zip(self.param_names, np.asarray(params, dtype=float)))
        if self.family == "toroidal_pair":
            return toroidal_pair(**values, n_points=self.n_points)
        return build_planar_link(
            self.q, self.family, values, n_points=self.n_points, check=False
        )

    def objective(self, params) -> float:
        try:
            link = self.build(params)
        except (ValueError, OverlapError):
            return np.inf
        return normalized_ropelength(link)


# Stop tolerances: simplex diameter and spread of its values.
_XATOL = 1e-6
_FATOL = 1e-8
# Initial simplex edge, as a fraction of each parameter's box width.
_INITIAL_STEP = 0.05


def nelder_mead(func, x0, bounds, maxfev: int = 2000):
    """Simplex minimization over a box, clamping every trial point to the box.

    Terminates when the simplex diameter drops below _XATOL, or the value
    spread drops below _FATOL, or `maxfev` evaluations are spent.  Raises
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
        step = _INITIAL_STEP * (hi[i] - lo[i])
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
        if diameter < _XATOL or spread < _FATOL:
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
    problem: OptimizationProblem, restarts: int = 5, maxfev: int = 2000
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
    lo, hi = problem.param_bounds.T
    span = hi - lo
    starts = [problem.initial_params]
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
                problem.objective, x0, problem.param_bounds, maxfev=maxfev
            )
        except ValueError:
            continue
        total_evals += res["evaluations"]
        if res["best_value"] < best["best_value"]:
            best = res
    best["evaluations"] = total_evals
    return best


def _jenga_radius(radii, counts, current_hole):
    """Smallest hole radius at which every populated shell passes the exact
    capacity check, starting from the rectangle-rule estimate (from
    `current_hole` when a count exceeds the circumferential cap)."""
    filled = counts > 0
    radii, counts = radii[filled], counts[filled]
    try:
        h = _hole_radius_required(radii, counts).max()
    except ValueError:
        h = current_hole
    for _ in range(60):
        if np.all(counts <= max_helices(radii, h, "exact")):
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
    radii, counts = spec.radii, spec.counts
    hole = spec.hole_radius

    def make(counts_v, hole_v):
        filled = counts_v > 0
        return TorusSpec(
            radii[filled],
            counts_v[filled],
            has_core=spec.has_core,
            major_radius=float(hole_v + radii[filled][-1]),
            p=spec.p,
            phases=spec.phases[filled],
        )

    current = make(counts, hole)
    length = analytic_length(current, corrected=True)
    improved = True
    while improved:
        improved = False
        outer = int(np.flatnonzero(counts)[-1])
        best_move = None
        for target in range(outer):
            trial = counts.copy()
            trial[outer] -= 1
            trial[target] += 1
            h = _jenga_radius(radii, trial, hole)
            if h is None:
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
