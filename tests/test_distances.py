"""Certified minimum-distance engine against brute force."""

import math

import numpy as np
import pytest

from ropebound.curves import PolyCurve, sample_planar_curve, sample_toroidal_helix
from ropebound.distances import (
    min_distance,
    min_distance_brute,
    min_self_distance,
    min_self_distance_brute,
    mutual_min_distance,
    segment_pair_distances,
)


def _random_curve(rng, n=60, scale=5.0, offset=(0.0, 0.0, 0.0)):
    pts = rng.normal(size=(n, 3)) * scale + np.asarray(offset)
    # smooth into a loop by averaging with neighbours to avoid co-located points
    for _ in range(2):
        pts = 0.5 * pts + 0.25 * (np.roll(pts, 1, axis=0) + np.roll(pts, -1, axis=0))
    return PolyCurve(pts)


def test_segment_pair_distances_known_cases():
    # parallel unit segments 3 apart
    d = segment_pair_distances(
        np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]),
        np.array([[0.0, 3, 0]]), np.array([[1.0, 0, 0]]),
    )
    assert d[0] == pytest.approx(3.0, abs=1e-12)
    # crossing perpendicular segments separated along z
    d = segment_pair_distances(
        np.array([[-1.0, 0, 0]]), np.array([[2.0, 0, 0]]),
        np.array([[0.0, -1, 1]]), np.array([[0.0, 2, 0]]),
    )
    assert d[0] == pytest.approx(1.0, abs=1e-12)
    # endpoint-to-endpoint case
    d = segment_pair_distances(
        np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]),
        np.array([[3.0, 0, 0]]), np.array([[1.0, 0, 0]]),
    )
    assert d[0] == pytest.approx(2.0, abs=1e-12)


def test_concentric_circles_distance_is_radial_gap():
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=720)
    b = sample_planar_curve("circle", {"radius": 4.0}, n_points=720)
    assert min_distance(a, b) == pytest.approx(2.0, abs=1e-4)


def test_grid_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(42)
    for k in range(12):
        a = _random_curve(rng)
        b = _random_curve(rng, offset=rng.normal(size=3) * 4.0)
        fast = min_distance(a, b)
        slow = min_distance_brute(a, b)
        assert fast == pytest.approx(slow, rel=1e-12), f"pair {k}"


def test_grid_matches_brute_force_far_apart():
    # widely separated curves exercise the radius-escalation path
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=200)
    b = a.transformed(None, (500.0, 0.0, 0.0))
    fast = min_distance(a, b)
    assert fast == pytest.approx(498.0, abs=1e-9)
    assert fast == pytest.approx(min_distance_brute(a, b), rel=1e-12)


def test_self_distance_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(6):
        c = _random_curve(rng, n=80)
        fast = min_self_distance(c, skip_window=4)
        slow = min_self_distance_brute(c, skip_window=4)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_self_distance_skip_window_on_circle():
    # with only the 5-segment skip, the closest admissible pair is the pair of
    # segments exactly 5 apart; its distance just undercuts the vertex chord
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    d = min_self_distance(c, skip_window=5)
    assert d == pytest.approx(0.06282926924728165, rel=1e-12)
    assert d <= 4 * math.sin(5 * math.pi / 1000)
    assert d == pytest.approx(4 * math.sin(5 * math.pi / 1000), rel=1e-3)


def test_self_distance_arc_window_on_circle():
    # excluding pairs within arc 2 leaves the chord of arc 2 as the minimum
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    d = min_self_distance(c, arc_window=2.0)
    assert d == pytest.approx(4 * math.sin(0.5), rel=1e-3)
    assert d == pytest.approx(1.915993210579043, rel=1e-12)


def test_self_distance_whole_curve_excluded_is_infinite():
    c = sample_planar_curve("circle", {"radius": 1.0}, n_points=500)
    # arc window beyond half the perimeter excludes every pair
    assert min_self_distance(c, arc_window=4.0) == np.inf


def test_mutual_min_distance_over_components():
    helices = [
        sample_toroidal_helix(6.0, 2.0, n_shell=4, shell_index=j, n_points=500)
        for j in range(4)
    ]
    mutual = mutual_min_distance(helices)
    pairwise = min(
        min_distance(helices[i], helices[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert mutual == pytest.approx(pairwise, rel=1e-12)
    assert mutual_min_distance(helices[:1]) == np.inf


def test_touching_curves_report_zero():
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=360)
    b = a.transformed(None, (2.0, 0.0, 0.0))  # tangent at (1, 0, 0)
    assert min_distance(a, b) == pytest.approx(0.0, abs=1e-6)


def test_random_curves_far_apart_match_brute_force_exactly():
    # two compact curves 40 apart: the first search radius finds no
    # candidates, and the vertex bound must then certify in one more pass
    rng = np.random.default_rng(11)
    a = _random_curve(rng, n=120, scale=1.0)
    b = _random_curve(rng, n=120, scale=1.0, offset=(40.0, 0.0, 0.0))
    assert min_distance(a, b) == min_distance_brute(a, b)


def test_candidate_pairs_put_the_lower_segment_first():
    # segment_pair_distances is not symmetric in floating point: here the
    # closest pair evaluated as (j, i) comes out one ulp below the
    # brute-force (i, j) value, 0.00737833973821339
    from ropebound.construct import build_planar_link

    params = dict(zip(
        ("rho", "psi", "gamma", "delta", "square_scale", "square_flat_fraction"),
        (0.509578, 0.558421, 0.494418, -0.042231, 1.152545, 0.211444),
    ))
    comps = build_planar_link(
        5, "hybrid_square", params, n_points=200, check=False
    ).components
    brute = min(
        min_distance_brute(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )
    assert mutual_min_distance(comps) == brute


def test_mutual_min_distance_on_planar_ring_matches_brute_force_exactly():
    # circles q=8 at 200 points: the sampled-vertex bound (0.238) sits just
    # above the true minimum (0.236) and far below the first-vertex distances
    # (1.15), so it sets the search radius.
    from ropebound import distances as dmod
    from ropebound.construct import build_planar_link

    comps = build_planar_link(8, "circles", n_points=200, check=False).components
    ub = dmod._vertex_upper_bound(dmod._SegmentSoup(comps), True, False, 5)
    assert ub < 0.25
    brute = min(
        min_distance_brute(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )
    assert mutual_min_distance(comps) == brute
    assert ub >= brute


def test_vertex_upper_bound_never_below_certified_minimum():
    from ropebound import distances as dmod
    from ropebound.construct import build_increment_spec, build_planar_link, realize_torus

    rng = np.random.default_rng(5)
    cases = [
        build_planar_link(q, family, n_points=n, check=False).components
        for q, family, n in [(3, "gibbous", 200), (20, "circles", 200),
                             (5, "hybrid_square", 150)]
    ]
    cases.append(realize_torus(build_increment_spec(1, 4), n_points=200).components)
    cases.append([_random_curve(rng, offset=rng.normal(size=3) * 4.0)
                  for _ in range(3)])
    for comps in cases:
        soup = dmod._SegmentSoup(comps)
        ub = dmod._vertex_upper_bound(soup, True, False, 5)
        assert ub >= mutual_min_distance(comps)
    for c in cases[-1]:
        ub = dmod._vertex_upper_bound(dmod._SegmentSoup([c]), False, True, 5)
        assert ub >= min_self_distance(c, skip_window=5)
