"""Acceptance checks for the package's end-to-end guarantees.

One test per criterion.  Each test collects all of its sub-checks first,
prints a single ``criterion N: PASS/FAIL — ...`` scoreboard line, and only
then asserts, so a failing band never hides the state of the checks around
it and a full run always yields one readable line per criterion.
"""

import math
import time
import warnings

import numpy as np

from ropebound.bounds import (
    asymptotic_coefficients,
    lower_bound_report,
    wegner_hull_length,
)
from ropebound.cli import main
from ropebound.construct import build_planar_link, donut_double, realize_torus
from ropebound.curves import PolyCurve, rotation_about_axis, sample_cylindrical_helix
from ropebound.distances import min_distance_brute, mutual_min_distance
from ropebound.helices import (
    aggregate_correction,
    max_helices,
    pair_min_distance,
    toroidal_correction,
)
from ropebound.io_formats import export_geometry, import_geometry
from ropebound.linking import linking_matrix
from ropebound.measure import LinkConfiguration, measure_link, verify
from ropebound.optimize import (
    OptimizationProblem,
    minimize_params,
    normalized_ropelength,
)
from ropebound.parallel import parallel_map
from ropebound.specs import (
    build_increment_spec,
    build_optimal_spec,
    construction_report,
    limiting_alpha,
)

# Reference values for the toroidal correction factor, tabulated to the
# six-or-seven significant digits shown: rows are (hole/strand radius ratio,
# factor at p=1, p=2, p=3).
_CORRECTION_TABLE = [
    (1.0, 1.06998, 1.039895, 1.022286),
    (1.1, 1.058092, 1.036947, 1.021417),
    (1.2, 1.04807, 1.034065, 1.020521),
    (1.3, 1.039731, 1.031288, 1.019608),
    (1.4, 1.032854, 1.028642, 1.018687),
    (1.5, 1.027218, 1.026147, 1.017768),
    (1.6, 1.022615, 1.023815, 1.016856),
    (1.7, 1.018859, 1.021651, 1.015959),
    (1.8, 1.015793, 1.019657, 1.015083),
    (1.9, 1.013286, 1.017828, 1.014232),
    (2.0, 1.011229, 1.016158, 1.013409),
    (2.1, 1.009536, 1.014639, 1.012617),
    (2.2, 1.008137, 1.013262, 1.011859),
    (2.3, 1.006976, 1.012016, 1.011136),
    (2.4, 1.006008, 1.010891, 1.010448),
    (2.5, 1.005197, 1.009876, 1.009795),
    (3.0, 1.0026752, 1.006131, 1.007052),
    (3.5, 1.001501, 1.003911, 1.005065),
    (4.0, 1.000902, 1.002572, 1.00366),
    (4.5, 1.0005727, 1.001743, 1.002672),
    (5.0, 1.0003803, 1.001215, 1.001975),
    (5.5, 1.000262, 1.000869, 1.001481),
    (6.0, 1.0001863, 1.000635, 1.001125),
    (6.5, 1.0001359, 1.000474, 1.000866),
    (7.0, 1.0001015, 1.000361, 1.000676),
    (7.5, 1.0000773, 1.000279, 1.000534),
    (8.0, 1.0000598, 1.000218, 1.000426),
    (8.5, 1.0000471, 1.000174, 1.000344),
    (9.0, 1.0000375, 1.00014, 1.00028),
    (9.5, 1.0000303, 1.000113, 1.00023),
    (10.0, 1.0000247, 1.000093, 1.000191),
    (20.0, 1.0000015, 1.000006, 1.000013),
]


def _record(results, name, ok, detail=""):
    results.append((name, bool(ok), detail))


def _finish(criterion, results, note=""):
    failed = [f"{name} ({detail})" if detail else name
              for name, ok, detail in results if not ok]
    verdict = "FAIL" if failed else "PASS"
    tail = "; ".join(failed) if failed else (note or "all checks within tolerance")
    line = f"criterion {criterion}: {verdict} — {tail}"
    print(line)
    assert not failed, line


def test_criterion_1_correction_table():
    # Every tabulated cell reproduced to 1e-4 absolute, all 96 inside 10 s.
    results = []
    t0 = time.perf_counter()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ratio, *cells in _CORRECTION_TABLE:
            for p, expected in zip((1, 2, 3), cells):
                err = abs(toroidal_correction(ratio, p) - expected)
                worst = max(worst, err)
                _record(results, f"ratio={ratio} p={p}", err <= 1e-4,
                        f"abs err {err:.2e}")
    elapsed = time.perf_counter() - t0
    _record(results, "runtime", elapsed < 10.0, f"{elapsed:.2f}s >= 10s")
    _finish(1, results,
            f"96 cells within 1e-4 (worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_2_limiting_coefficients():
    results = []
    # The hole circumference of the 4-per-shell build grows as kappa*sqrt(q);
    # measure the constant from the geometry actually built at T = 10^4.
    spec = build_increment_spec(10**4, 4)
    kappa = 2.0 * math.pi * spec.major_radius / math.sqrt(spec.q)
    _record(results, "kappa", abs(kappa - 16.221) <= 0.01, f"{kappa:.5f}")

    a4 = limiting_alpha("inc4_single")
    _record(results, "alpha4 single", abs(a4 - 17.36) <= 0.03, f"{a4:.5f}")
    a4d = limiting_alpha("inc4_doubled")
    _record(results, "alpha4 doubled", abs(a4d - 13.3213) <= 1e-3, f"{a4d:.6f}")
    aopt = limiting_alpha("optimal_doubled")
    _record(results, "alpha optimal", abs(aopt - 11.641) <= 5e-3, f"{aopt:.6f}")

    agg = aggregate_correction(10000, "increment", 2.0)
    _record(results, "aggregate correction", abs(agg - 1.0042) <= 2e-4,
            f"{agg:.7f}")

    c4d = limiting_alpha("inc4_doubled", corrected=True)
    _record(results, "corrected doubled", abs(c4d - 13.38) <= 0.01, f"{c4d:.5f}")
    copt = limiting_alpha("optimal_doubled", corrected=True)
    _record(results, "corrected optimal", abs(copt - 11.68) <= 0.01, f"{copt:.5f}")
    _finish(2, results,
            f"kappa={kappa:.4f}, limits {a4:.4f}/{a4d:.5f}/{aopt:.5f}, "
            f"corrected {c4d:.4f}/{copt:.4f}")


def test_criterion_3_lower_bounds():
    results = []
    _record(results, "W(1) == 2*pi", wegner_hull_length(1) == 2.0 * math.pi)

    best = lower_bound_report(1, 3).best_bound
    target = 3.0 * (4.0 * math.pi + 4.0)
    _record(results, "T(3,3) bound", abs(best - target) <= 1e-6,
            f"{best!r} vs {target!r}")

    alpha_w = [lower_bound_report(1, q).alpha_w for q in range(2, 51)]
    _record(results, "alpha_w decreasing in Q",
            all(b < a for a, b in zip(alpha_w, alpha_w[1:])))

    # p^(-1/4) scaling: exact for the limits, and inherited by the finite-Q
    # coefficients once Q is large enough (1e5) that the 1/sqrt(Q)
    # subleading term drops below one percent.
    limits = {p: asymptotic_coefficients(p)["alpha_w_limit"] for p in (1, 4, 16)}
    for p in (4, 16):
        rel = abs(limits[p] / limits[1] / p ** -0.25 - 1.0)
        _record(results, f"limit scaling p={p}", rel <= 1e-12, f"rel {rel:.2e}")
    finite = {p: lower_bound_report(p, 100000).alpha_w for p in (1, 4, 16)}
    for p in (4, 16):
        rel = abs(finite[p] / finite[1] / p ** -0.25 - 1.0)
        _record(results, f"finite-Q scaling p={p}", rel <= 0.01, f"rel {rel:.2%}")

    # The abstract states the limit in closed form, sqrt(8*pi*sqrt(3)), and
    # rounds it to 6.60.  (Its subleading term is printed as ~7.61, which the
    # printed expression does not evaluate to, so no band is asserted on it.)
    limit1 = limits[1]
    closed = math.sqrt(8.0 * math.pi * math.sqrt(3.0))
    rel = abs(limit1 / closed - 1.0)
    _record(results, "alpha_w limit closed form", rel <= 1e-12,
            f"{limit1!r} vs sqrt(8*pi*sqrt(3)) = {closed!r}, rel {rel:.2e}")
    _record(results, "alpha_w limit rounds to 6.60", round(limit1, 2) == 6.60,
            f"{limit1:.6f}")
    _finish(3, results)


def test_criterion_4_helix_packing_grid():
    # 200 cylinder geometries (20 radii x 10 aspect ratios); realize the
    # claimed maximum packing and confirm the clearance it promises.
    results = []
    radii = np.geomspace(2.0, 100.0, 20)
    ratios = np.geomspace(1.0, 50.0, 10)
    cells = [(float(r), float(r * s)) for r in radii for s in ratios]

    def cell_clearance(cell):
        r, h = cell
        n = max_helices(r, h, "exact")
        n_apx = max_helices(r, h, "approx")
        # z = h * theta, so one full turn rises 2*pi*h; adjacent strands
        # differ only in phase.  By symmetry the tightest pairs involve
        # strand 0 with strands 1 and (when distinct) 2.
        strands = [
            sample_cylindrical_helix(r, 2.0 * math.pi * h,
                                     phase=2.0 * math.pi * j / n, n_points=1000)
            for j in range(min(3, n))
        ]
        d = mutual_min_distance(strands[:2])
        if n >= 4:
            d = min(d, mutual_min_distance([strands[0], strands[2]]))
        return d, n, n_apx

    t0 = time.perf_counter()
    measured = parallel_map(cell_clearance, cells)
    elapsed = time.perf_counter() - t0

    dmin = min(d for d, _, _ in measured)
    _record(results, "pairwise clearance", dmin >= 2.0 - 0.01,
            f"min {dmin:.6f} < 1.99")
    _record(results, "approx <= exact",
            all(na <= n for _, n, na in measured))
    _record(results, "runtime", elapsed < 300.0, f"{elapsed:.1f}s >= 300s")
    _finish(4, results,
            f"200 cells, min clearance {dmin:.6f}, counts "
            f"{min(n for _, n, _ in measured)}..{max(n for _, n, _ in measured)}, "
            f"{elapsed:.1f}s")


def test_criterion_5_doubled_torus_scaling():
    results = []
    # A small doubled build must realize without component overlap; it is
    # measured once and verified with its linking pattern.
    cfg = donut_double(build_optimal_spec(3), n_points=400, check=False)
    metrics = measure_link(cfg)
    d = metrics.min_inter_distance
    _record(results, "T=3 doubled clearance", d >= 2.0 - 0.01, f"min {d:.6f}")
    checks = verify(cfg, metrics)
    _record(results, "T=3 doubled verified", checks["passed"],
            ", ".join(f"{k}={v}" for k, v in checks.items()))

    # alpha(T) for the doubled capacity-filling build: integer shell counts
    # give a small sawtooth, so "eventually decreasing" is asserted as
    # strictly decreasing milestones plus a bound on any single-step rise.
    alphas = {
        t: construction_report(build_optimal_spec(t), doubled=True).alpha_predicted
        for t in range(2, 61)
    }
    milestones = [alphas[t] for t in (2, 5, 10, 20, 40, 60)]
    _record(results, "milestones decreasing",
            all(b < a for a, b in zip(milestones, milestones[1:])),
            " > ".join(f"{a:.4f}" for a in milestones))
    max_rise = max(alphas[t + 1] - alphas[t] for t in range(2, 60))
    _record(results, "sawtooth rises", max_rise <= 0.02,
            f"max rise {max_rise:.4f}")
    rel60 = abs(alphas[60] / 11.68 - 1.0)
    _record(results, "alpha(60) near limit", rel60 <= 0.15, f"rel {rel60:.2%}")

    # Component totals for the doubled T=100 build against the published
    # figure of 52203: the conservative counting mode reproduces it.
    approx = build_optimal_spec(100, count_mode="approx")
    approx_n = 2 * approx.q
    rel = abs(approx_n - 52203) / 52203
    _record(results, "T=100 approx count", rel <= 0.003,
            f"{approx_n} rel {rel:.4%}")
    # The exact mode promises the largest count that fits on each shell
    # (radius 2i, hole radius 2T = 200), which is never below the
    # conservative count; it packs ~0.4% more helices than the published
    # total, so that total is not its reference.
    exact = build_optimal_spec(100, count_mode="exact")

    def fits(n, r):
        return n == 1 or pair_min_distance(n, r, 200.0)["distance"] >= 2.0 - 1e-9

    exact_shells = list(zip(exact.radii.tolist(), exact.counts.tolist()))
    not_maximal = [r for r, n in exact_shells if not fits(n, r) or fits(n + 1, r)]
    _record(results, "T=100 exact counts maximal", not not_maximal,
            f"{len(not_maximal)} of {exact.t_shells} shells, radii "
            f"{not_maximal[:5]}")
    approx_counts = dict(zip(approx.radii.tolist(), approx.counts.tolist()))
    below = [r for r, n in exact_shells if n < approx_counts.get(r, 0)]
    _record(results, "T=100 exact >= approx per shell", not below,
            f"{len(below)} shells below, radii {below[:5]}")
    _finish(5, results, f"T=100 doubled: approx {approx_n}, exact {2 * exact.q}")


def _optimize_family(family, q):
    problem = OptimizationProblem(family, q=q, n_points=200, seed=0)
    t0 = time.perf_counter()
    res = minimize_params(problem, restarts=1, maxfev=400)
    fine = OptimizationProblem(family, q=q, n_points=1000, seed=0)
    norm = normalized_ropelength(fine.build(res["best_params"]))
    return norm, res["best_params"], time.perf_counter() - t0


def test_criterion_6_planar_optimization():
    results = []

    norm, _, dt = _optimize_family("gibbous", 3)
    ratio = norm / lower_bound_report(1, 3).best_bound
    _record(results, "gibbous q=3 vs bound", ratio <= 1.08, f"ratio {ratio:.4f}")
    _record(results, "gibbous q=3 runtime", dt < 120.0, f"{dt:.1f}s")
    detail = [f"q=3 ratio {ratio:.4f} ({dt:.0f}s)"]

    norm, _, dt = _optimize_family("gibbous", 4)
    ratio = norm / lower_bound_report(1, 4).best_bound
    _record(results, "gibbous q=4 vs bound", ratio <= 1.25, f"ratio {ratio:.4f}")
    _record(results, "gibbous q=4 runtime", dt < 120.0, f"{dt:.1f}s")
    detail.append(f"q=4 ratio {ratio:.4f} ({dt:.0f}s)")

    norm, _, dt = _optimize_family("hybrid_square", 5)
    ratio = norm / lower_bound_report(1, 5).best_bound
    _record(results, "hybrid q=5 vs bound", ratio <= 1.25, f"ratio {ratio:.4f}")
    _record(results, "hybrid q=5 runtime", dt < 120.0, f"{dt:.1f}s")
    detail.append(f"q=5 ratio {ratio:.4f} ({dt:.0f}s)")

    norm, params, dt = _optimize_family("gibbous", 20)
    lpc = norm / (20 * 19)
    _record(results, "gibbous q=20 L/C", abs(lpc - 5.53) <= 0.15, f"{lpc:.4f}")
    _record(results, "gibbous q=20 runtime", dt < 120.0, f"{dt:.1f}s")
    detail.append(f"gibbous20 L/C {lpc:.3f} ({dt:.0f}s)")

    norm, params, dt = _optimize_family("circles", 20)
    rho, psi = params
    _record(results, "circles q=20 rho", abs(rho - 0.5) <= 0.05, f"{rho:.4f}")
    _record(results, "circles q=20 psi",
            abs(psi - 5.0 * math.pi / 18.0) <= 0.05, f"{psi:.4f}")
    _record(results, "circles q=20 runtime", dt < 120.0, f"{dt:.1f}s")
    detail.append(f"circles20 rho {rho:.3f} psi {psi:.3f} ({dt:.0f}s)")
    # At q = 20 the optimum must be no worse than the published parameter
    # point (rho 0.5, psi 5*pi/18) measured at the same resolution.
    published = {"rho": 0.5, "psi": 5.0 * math.pi / 18.0}
    lpc = norm / (20 * 19)
    ref = normalized_ropelength(
        build_planar_link(20, "circles", published, n_points=1000)
    ) / (20 * 19)
    _record(results, "circles q=20 L/C vs published point", lpc <= ref,
            f"{lpc:.4f} > {ref:.4f}")
    # The 6.6 figure is the family's q -> infinity limit.  L/C falls with q as
    # L/C(q) ~ L + c/q, so 2 L/C(2q) - L/C(q) estimates the limit L; the band
    # applies to that estimate from q = 80 and 160.
    f = {
        q: normalized_ropelength(
            build_planar_link(q, "circles", published, n_points=400)
        ) / (q * (q - 1))
        for q in (80, 160)
    }
    limit = 2.0 * f[160] - f[80]
    _record(results, "circles L/C limit", abs(limit - 6.6) <= 0.2,
            f"{limit:.4f} vs 6.6+-0.2")
    detail.append(f"circles20 L/C {lpc:.3f} (published {ref:.3f}), "
                  f"limit {limit:.3f}")
    _finish(6, results, "; ".join(detail))


def test_criterion_7_linking_numbers():
    results = []
    for name, spec in [
        ("increment4 T=1", build_increment_spec(1, 4)),
        ("increment5 T=1", build_increment_spec(1, 5)),
        ("optimal T=1", build_optimal_spec(1)),
    ]:
        cfg = realize_torus(spec, n_points=400)
        m = linking_matrix(cfg.components)
        off = m[np.triu_indices(spec.q, 1)]
        _record(results, f"{name} pairwise linking",
                abs(off[0]) == 1 and (off == off[0]).all(),
                f"values {sorted(set(off.tolist()))}")

    doubled = donut_double(build_increment_spec(1, 4), n_points=400)
    m = linking_matrix(doubled.components)
    off = np.abs(m[np.triu_indices(len(doubled.components), 1)])
    _record(results, "doubled complete linking", (off == 1).all(),
            f"|lk| values {sorted(set(off.tolist()))}")

    hopf = build_planar_link(2, "circles", {"rho": 0.5, "psi": 0.25 * math.pi},
                             n_points=1000)
    norm = normalized_ropelength(hopf)
    rel = abs(norm / (8.0 * math.pi) - 1.0)
    _record(results, "tight Hopf near 8*pi", rel <= 0.005, f"rel {rel:.2e}")
    _finish(7, results, f"all pairs linked once; Hopf rel err {rel:.1e}")


def test_criterion_8_reproducibility(tmp_path, capsys):
    results = []
    # Grid-accelerated distances agree with the all-pairs scan bit for bit.
    rng = np.random.default_rng(11)
    a = PolyCurve(np.cumsum(rng.normal(size=(60, 3)), axis=0), closed=False)
    b = PolyCurve(np.cumsum(rng.normal(size=(60, 3)), axis=0) + [8.0, 0.0, 0.0],
                  closed=False)
    _record(results, "grid == brute (random walks)",
            mutual_min_distance([a, b]) == min_distance_brute(a, b))
    h1 = sample_cylindrical_helix(5.0, 12.0, phase=0.0, n_points=500)
    h2 = sample_cylindrical_helix(5.0, 12.0, phase=2.0, n_points=500)
    _record(results, "grid == brute (helices)",
            mutual_min_distance([h1, h2]) == min_distance_brute(h1, h2))

    # Normalized ropelength is invariant under scaling and rigid motion.
    link = build_planar_link(3, "circles", n_points=300)
    base = normalized_ropelength(link)
    scaled = LinkConfiguration([PolyCurve(37.0 * c.vertices) for c in link.components])
    rel = abs(normalized_ropelength(scaled) / base - 1.0)
    _record(results, "scale invariance", rel <= 1e-9, f"rel {rel:.2e}")
    rot = rotation_about_axis((0.3, -1.0, 0.7), 1.1)
    moved = LinkConfiguration([c.transformed(rot, (4.0, -2.0, 9.0))
                               for c in link.components])
    rel = abs(normalized_ropelength(moved) / base - 1.0)
    _record(results, "rigid invariance", rel <= 1e-9, f"rel {rel:.2e}")

    # Geometry files round-trip with no vertex drift in any format.
    for fmt in ("vect", "csv", "json"):
        path = str(tmp_path / f"roundtrip.{fmt}")
        export_geometry(link, fmt=fmt, path=path)
        back = import_geometry(path)
        drift = max(
            float(np.abs(c.vertices - o.vertices).max())
            for c, o in zip(back.components, link.components)
        )
        _record(results, f"{fmt} round trip", drift <= 1e-12,
                f"drift {drift:.2e}")

    # Rerunning the same CLI command writes byte-identical output.
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--q", "7", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    _record(results, "byte-identical rerun", out.read_bytes() == first)
    _finish(8, results)
