"""How the length-per-crossing coefficient falls as torus links grow.

Doubling a torus construction (threading a congruent copy through the hole)
nearly squares the crossing number at twice the length, which drives the
coefficient alpha = L / C^(3/4) down.  This script sweeps shell count T for
the capacity-filling build, shows the sawtooth from integer helix counts,
and compares against the closed-form T -> infinity limits with and without
the toroidal length correction.

Run:  python3 demos/doubling_and_limits.py
"""

from ropebound.specs import build_optimal_spec, construction_report, limiting_alpha


def main():
    print("alpha(T) for the doubled capacity-filling construction:")
    print(f"  {'T':>3} {'components':>10} {'crossings':>10} {'alpha':>9}")
    prev = None
    for t in (2, 3, 5, 8, 12, 20, 30, 45, 60):
        rep = construction_report(build_optimal_spec(t), doubled=True)
        trend = "" if prev is None else ("  (down)" if rep.alpha_predicted < prev else "  (up: sawtooth)")
        print(
            f"  {t:>3} {2 * rep.q:>10} {rep.crossing_number:>10} "
            f"{rep.alpha_predicted:>9.4f}{trend}"
        )
        prev = rep.alpha_predicted

    print("\nClosed-form T -> infinity limits (corrected = helices live on")
    print("tori, not cylinders, which lengthens them by a ratio-dependent factor):")
    for method in ("inc4_single", "inc4_doubled", "inc5_single",
                   "inc5_doubled", "optimal_doubled"):
        plain = limiting_alpha(method)
        corrected = limiting_alpha(method, corrected=True)
        print(f"  {method:>15}: {plain:.5f}  ->  {corrected:.5f} corrected")

    print("\nComponent totals at T = 100 (doubled):")
    for label, mode in (("approx (N_a - 1)", "approx"), ("exact", "exact")):
        spec = build_optimal_spec(100, count_mode=mode)
        print(f"  {label:>20}: {2 * spec.q} components, "
              f"{spec.crossing_number(doubled=True)} crossings")
    print("  (exact constraint solving packs ~0.4% more helices than the")
    print("   conservative N_a - 1 rule)")


if __name__ == "__main__":
    main()
