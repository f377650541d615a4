"""Planar-loop torus links and a quick ropelength optimization.

A T(q,q) link can also be built from q planar loops fanned around an axis,
each pair Hopf-linked.  For q = 2 and circular loops this reproduces the
tight Hopf link (ropelength exactly 8*pi); for larger q the loop shape
("gibbous" ovals beat circles) and tilt can be optimized.  The optimizer
here is a short bounded simplex run, deterministic for a fixed seed.

Run:  python3 demos/planar_families.py   (about half a minute)
"""

import math

from ropebound.bounds import lower_bound_report
from ropebound.construct import build_planar_link
from ropebound.measure import measure_link, verify
from ropebound.optimize import (
    OptimizationProblem,
    minimize_params,
    normalized_ropelength,
)


def main():
    hopf = build_planar_link(2, "circles", {"rho": 0.5, "psi": 0.25 * math.pi},
                             n_points=1000)
    norm = normalized_ropelength(hopf)
    print(f"Tight Hopf link from two tilted circles: normalized ropelength "
          f"{norm:.6f} vs 8*pi = {8 * math.pi:.6f}")

    q = 3
    problem = OptimizationProblem("gibbous", q=q, n_points=200, seed=0)
    start = problem.objective(problem.initial_params)
    result = minimize_params(problem, restarts=1, maxfev=300)
    fine = OptimizationProblem("gibbous", q=q, n_points=1000, seed=0)
    best = normalized_ropelength(fine.build(result["best_params"]))
    bound = lower_bound_report(1, q).best_bound
    names = ", ".join(
        f"{n}={v:.4f}" for n, v in zip(problem.param_names, result["best_params"])
    )
    print(f"\nGibbous q={q}: start {start:.3f} -> optimized {best:.3f} "
          f"({result['evaluations']} evaluations)")
    print(f"  parameters: {names}")
    print(f"  certified lower bound {bound:.3f}; "
          f"construction is within {best / bound - 1:.1%} of it")

    print("\nLength per crossing for larger q (loops only get so efficient):")
    for q in (5, 10, 20):
        link = build_planar_link(q, "gibbous", n_points=400)
        metrics = measure_link(link)
        if not verify(link, metrics, absolute=False)["passed"]:
            raise SystemExit(f"gibbous q={q}: the default loops touch")
        lpc = metrics.normalized_length / (q * (q - 1))
        print(f"  q={q:>2}: L/C = {lpc:.4f} at default parameters")


if __name__ == "__main__":
    main()
