"""Build a torus link from packed helices and verify the embedding.

The construction stacks shells of toroidal helices (4 per shell index here,
plus a core circle), sizes the hole so neighbouring strands keep clearance 2,
and realizes everything as polygonal curves.  Verification then measures
the realized geometry once: pairwise clearance, curvature radius, normalized
ropelength, and the full linking matrix against the pattern the spec
promises.

Run:  python3 demos/build_and_verify.py
"""

import tempfile

import numpy as np

from ropebound.construct import realize_torus
from ropebound.io_formats import export_geometry, import_geometry
from ropebound.linking import linking_matrix
from ropebound.measure import measure_link, verify
from ropebound.specs import build_increment_spec, construction_report


def main():
    spec = build_increment_spec(t_shells=2, increment=4)
    print("Spec:", spec.as_dict())
    report = construction_report(spec)
    print(
        f"Predicted: length {report.predicted_length:.4f}, "
        f"crossings {report.crossing_number}, "
        f"alpha {report.alpha_predicted:.4f}"
    )

    link = realize_torus(spec, n_points=800, check=False)  # verified below
    metrics = measure_link(link)
    print(
        f"Measured:  length {metrics.total_length:.4f}, "
        f"clearance {metrics.min_overall_distance:.5f} (needs >= 2), "
        f"curvature radius {metrics.min_curvature_radius:.5f} (needs >= 1)"
    )
    print(f"Normalized ropelength {metrics.normalized_length:.4f}, "
          f"alpha {metrics.alpha:.4f}")

    lk = linking_matrix(link.components)
    off = lk[np.triu_indices(len(link.components), 1)]
    print(f"Linking matrix off-diagonal values: {sorted(set(off.tolist()))} "
          f"(every pair of the {spec.q} components links once)")
    verdict = verify(link, metrics, lk)  # |lk| against the spec's pattern
    print("Verification:", verdict)
    if not verdict["passed"]:
        raise SystemExit(1)

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/torus.vect"
        export_geometry(link, path=path)
        back = import_geometry(path)
        drift = max(
            float(np.abs(a.vertices - b.vertices).max())
            for a, b in zip(back.components, link.components)
        )
        print(f"Geometry file round trip ({path.rsplit('/', 1)[-1]}): "
              f"max vertex drift {drift:.2e}")


if __name__ == "__main__":
    main()
