"""Derivative-free minimization of normalized ropelength.

An OptimizationProblem names a family of `specs.FAMILIES` (whose row
gives the parameter names, the start and the box bounds), a component count,
a sampling density and a seed.  The objective for every family is the
scale-invariant normalized ropelength of the realized configuration (total
length over thickness), so the optimum is exactly the quantity the rest of
the library measures and bounds.  The minimizer is a reflection/expansion/
contraction simplex over box-bounded parameters with boundary clamping;
infeasible parameter vectors (self intersections, invalid shapes, threaded
tori whose linking `measure.verify` rejects) evaluate to +inf and are
recovered from by contraction.  Restarts jitter the starting point
deterministically from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import build_planar_link, toroidal_pair
from .measure import LinkConfiguration, measure_thickness, verify
# Not called here; kept because perfbench/tracing.py wraps this attribute.
from .measure import measure_link  # noqa: F401
from .specs import FAMILIES

__all__ = [
    "OptimizationProblem",
    "normalized_ropelength",
    "nelder_mead",
    "minimize_params",
]


def normalized_ropelength(link: LinkConfiguration) -> float:
    """Normalized ropelength of a configuration; +inf for configurations
    that cannot be thickened (touching or intersecting components)."""
    try:
        metrics = measure_thickness(link)
    except ValueError:
        return np.inf
    value = metrics.normalized_length
    if not np.isfinite(value) or not verify(link, metrics, absolute=False)["passed"]:
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
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")

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
        return build_planar_link(self.q, self.family, values, n_points=self.n_points)

    def objective(self, params) -> float:
        try:
            link = self.build(params)
        except ValueError:
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
    spread drops below _FATOL, or `maxfev` evaluations are spent.  When no
    vertex of the initial simplex is feasible (finite), the result is the
    start at +inf after those n + 1 evaluations.
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

    alpha_r, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    # with every vertex infeasible there is nowhere to move: the start at
    # +inf is the result (a finite vertex is never replaced by +inf)
    while evals < maxfev and np.isfinite(fs).any():
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
    The first simplex vertex of each run is its start, so the result is
    never worse than the objective at the initial parameters.  Evaluations
    are summed over all runs; when no run found a feasible vertex, the
    result is the initial parameters at +inf.
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if maxfev < 1:
        raise ValueError(f"need maxfev >= 1, got {maxfev}")
    rng = np.random.default_rng(problem.seed)
    lo, hi = problem.param_bounds.T
    span = hi - lo
    starts = [problem.initial_params]
    while len(starts) < restarts:
        jitter = rng.uniform(-0.1, 0.1, size=len(span)) * span
        starts.append(np.clip(starts[0] + jitter, lo, hi))

    runs = [nelder_mead(problem.objective, x0, problem.param_bounds, maxfev=maxfev)
            for x0 in starts]
    best = min(runs, key=lambda res: res["best_value"])
    return dict(best, evaluations=sum(res["evaluations"] for res in runs))
