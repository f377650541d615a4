"""Certified minimum-distance engine against brute force."""

import math

import numpy as np
import pytest

from ropebound import distances
from ropebound.construct import (
    build_increment_spec,
    build_planar_link,
    realize_torus,
)
from ropebound.curves import (
    PolyCurve,
    min_curvature_radius,
    sample_planar_curve,
    sample_toroidal_helix,
)
from ropebound.distances import (
    _certified_min,
    min_distance_brute,
    min_self_distance_brute,
    mutual_min_distance,
    segment_pair_distances,
)
from ropebound.measure import _arc_window


def _random_curve(rng, n=60, scale=5.0, offset=(0.0, 0.0, 0.0)):
    pts = rng.normal(size=(n, 3)) * scale + np.asarray(offset)
    # smooth into a loop by averaging with neighbours to avoid co-located points
    for _ in range(2):
        pts = 0.5 * pts + 0.25 * (np.roll(pts, 1, axis=0) + np.roll(pts, -1, axis=0))
    return PolyCurve(pts)


def _self_min(c, arc_window=None):
    windows = None if arc_window is None else np.array([arc_window])
    return _certified_min([c], inter=False, intra=True, arc_windows=windows)


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
    assert mutual_min_distance([a, b]) == pytest.approx(2.0, abs=1e-4)


def test_grid_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(42)
    for k in range(12):
        a = _random_curve(rng)
        b = _random_curve(rng, offset=rng.normal(size=3) * 4.0)
        fast = mutual_min_distance([a, b])
        slow = min_distance_brute(a, b)
        assert fast == pytest.approx(slow, rel=1e-12), f"pair {k}"


def test_grid_matches_brute_force_far_apart():
    # widely separated curves exercise the radius-escalation path
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=200)
    b = a.transformed(None, (500.0, 0.0, 0.0))
    fast = mutual_min_distance([a, b])
    assert fast == pytest.approx(498.0, abs=1e-9)
    assert fast == pytest.approx(min_distance_brute(a, b), rel=1e-12)


def test_self_distance_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(6):
        c = _random_curve(rng, n=80)
        assert _self_min(c) == min_self_distance_brute(c)


def test_self_distance_skip_window_on_circle():
    # with only the 5-segment skip, the closest admissible pair is the pair of
    # segments exactly 5 apart; its distance just undercuts the vertex chord
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    d = _self_min(c)
    assert d == pytest.approx(0.06282926924728165, rel=1e-12)
    assert d <= 4 * math.sin(5 * math.pi / 1000)
    assert d == pytest.approx(4 * math.sin(5 * math.pi / 1000), rel=1e-3)


def test_self_distance_arc_window_on_circle():
    # excluding pairs within arc 2 leaves the chord of arc 2 as the minimum
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    d = _self_min(c, arc_window=2.0)
    assert d == pytest.approx(4 * math.sin(0.5), rel=1e-3)
    assert d == pytest.approx(1.915993210579043, rel=1e-12)


def test_self_distance_whole_curve_excluded_is_infinite():
    c = sample_planar_curve("circle", {"radius": 1.0}, n_points=500)
    # arc window beyond half the perimeter excludes every pair
    assert _self_min(c, arc_window=4.0) == np.inf


def test_mutual_min_distance_over_components():
    helices = [
        sample_toroidal_helix(6.0, 2.0, n_shell=4, shell_index=j, n_points=500)
        for j in range(4)
    ]
    mutual = mutual_min_distance(helices)
    pairwise = min(
        mutual_min_distance([helices[i], helices[j]])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert mutual == pytest.approx(pairwise, rel=1e-12)
    assert mutual_min_distance(helices[:1]) == np.inf


def test_touching_curves_report_zero():
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=360)
    b = a.transformed(None, (2.0, 0.0, 0.0))  # tangent at (1, 0, 0)
    assert mutual_min_distance([a, b]) == pytest.approx(0.0, abs=1e-6)


def test_random_curves_far_apart_match_brute_force_exactly():
    # two compact curves 40 apart: the sampled bound is an inter pair's
    # distance, so the one search at it certifies
    rng = np.random.default_rng(11)
    a = _random_curve(rng, n=120, scale=1.0)
    b = _random_curve(rng, n=120, scale=1.0, offset=(40.0, 0.0, 0.0))
    assert mutual_min_distance([a, b]) == min_distance_brute(a, b)


def test_candidate_pairs_put_the_lower_segment_first():
    # segment_pair_distances is not symmetric in floating point: here the
    # closest pair evaluated as (j, i) comes out one ulp below the
    # brute-force (i, j) value, 0.00737833973821339
    params = dict(zip(
        ("rho", "psi", "gamma", "delta", "square_scale", "square_flat_fraction"),
        (0.509578, 0.558421, 0.494418, -0.042231, 1.152545, 0.211444),
    ))
    comps = build_planar_link(5, "hybrid_square", params, n_points=200).components
    brute = min(
        min_distance_brute(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )
    assert mutual_min_distance(comps) == brute


def test_mutual_min_distance_on_planar_ring_matches_brute_force_exactly():
    # circles q=8 at 200 points: the sampled bound (0.2373) sits just above
    # the true minimum (0.236) and far below the first-vertex distances
    # (1.15), so it sets the search radius.
    comps = build_planar_link(8, "circles", n_points=200).components
    ub = distances._sampled_bound(distances._SegmentSoup(comps), True, False, None)
    assert ub == pytest.approx(0.2373, abs=1e-4)
    brute = min(
        min_distance_brute(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )
    assert mutual_min_distance(comps) == brute
    assert ub >= brute


def test_sampled_bound_never_below_certified_minimum():
    rng = np.random.default_rng(5)
    cases = [
        build_planar_link(q, family, n_points=n).components
        for q, family, n in [(3, "gibbous", 200), (20, "circles", 200),
                             (5, "hybrid_square", 150)]
    ]
    cases.append(realize_torus(build_increment_spec(1, 4), n_points=200).components)
    cases.append([_random_curve(rng, offset=rng.normal(size=3) * 4.0)
                  for _ in range(3)])
    for comps in cases:
        soup = distances._SegmentSoup(comps)
        ub = distances._sampled_bound(soup, True, False, None)
        assert ub >= mutual_min_distance(comps)
    for c in cases[-1]:
        ub = distances._sampled_bound(distances._SegmentSoup([c]), False, True, None)
        assert ub >= _self_min(c)


def _brute_min(curves, inter, intra, windows):
    """Brute-force reference for _certified_min in every mode."""
    best = np.inf
    if inter:
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                best = min(best, min_distance_brute(curves[i], curves[j]))
    if intra:
        for k, c in enumerate(curves):
            window = None if windows is None else windows[k]
            best = min(best, min_self_distance_brute(c, arc_window=window))
    return best


def _bending_windows(curves):
    return np.array([_arc_window(min_curvature_radius(c)) for c in curves])


def _random_pair():
    rng = np.random.default_rng(7)
    return [_random_curve(rng, n=90),
            _random_curve(rng, n=70, offset=(6.0, 0.0, 0.0))]


def _circle(radius=1.0, n=120):
    return sample_planar_curve("circle", {"radius": radius}, n_points=n)


def _torus():
    return realize_torus(build_increment_spec(1, 4), n_points=100,
                         check=False).components


def _ring():
    return build_planar_link(4, "gibbous", n_points=100).components


def _open_arc(n_segments, sweep=1.7 * math.pi):
    """An open polyline of `n_segments` along a circular arc of `sweep`."""
    t = np.linspace(0.0, sweep, n_segments + 1)
    return PolyCurve(np.column_stack((np.cos(t), np.sin(t), 0.0 * t)),
                     closed=False)


def _open_arc_length(n_segments):
    return _open_arc(n_segments).length()


# (curves, inter, intra, arc windows: None, "bending" for pi times each
# component's curvature radius, or an array); "none admissible" in a name
# marks a case without a single admissible pair
_MODES = {
    "inter random pair": (_random_pair, True, False, None),
    "inter planar ring": (_ring, True, False, None),
    "inter far apart": (
        lambda: [_circle(), _circle().transformed(None, (500.0, 0.0, 0.0))],
        True, False, None),
    "inter single component, none admissible": (
        lambda: [_circle()], True, False, None),
    "intra random curve": (lambda: _random_pair()[:1], False, True, None),
    "intra random curve, arc window 3": (
        lambda: _random_pair()[:1], False, True, np.array([3.0])),
    "intra torus helix, bending window": (
        lambda: _torus()[1:2], False, True, "bending"),
    "intra torus core, bending window, none admissible": (
        lambda: _torus()[:1], False, True, "bending"),
    "intra short polygon, none admissible": (
        lambda: [_circle(n=11)], False, True, None),
    "intra two circles, windows beyond half, none admissible": (
        lambda: [_circle(), _circle(2.0)], False, True, np.array([4.0, 7.0])),
    # an open curve's arc separation is not folded: its ends are admissible
    # under a window of 0.7 of its length
    "intra open arc, window beyond half": (
        lambda: [_open_arc(60)], False, True,
        np.array([0.7 * _open_arc_length(60)])),
    # 8 segments: the open polyline has pairs 6 and 7 apart, the closed
    # octagon none more than 4 apart
    "intra open and closed 8 segments": (
        lambda: [_open_arc(8), _circle(n=8).transformed(None, (0.0, 0.0, 3.0))],
        False, True, None),
    "intra open 6 segments, none admissible": (
        lambda: [_open_arc(6)], False, True, None),
    "combined random pair": (_random_pair, True, True, None),
    "combined random pair, arc windows": (
        _random_pair, True, True, np.array([2.0, 5.0])),
    "combined planar ring, bending windows": (_ring, True, True, "bending"),
    "combined torus, bending windows": (_torus, True, True, "bending"),
    "combined single circle, window beyond half, none admissible": (
        lambda: [_circle()], True, True, np.array([4.0])),
    "combined circle with window beyond half, and a random curve": (
        lambda: [_circle(), _random_pair()[1].transformed(None, (-4.0, 0.0, 0.0))],
        True, True, np.array([4.0, 2.0])),
    "combined two circles, windows beyond half": (
        lambda: [_circle(), _circle(2.0).transformed(None, (0.5, 0.0, 0.3))],
        True, True, np.array([4.0, 7.0])),
}


@pytest.mark.parametrize("name", list(_MODES))
def test_certified_min_equals_brute_force_in_every_mode(name):
    make, inter, intra, windows = _MODES[name]
    curves = make()
    if isinstance(windows, str):
        windows = _bending_windows(curves)
    fast = _certified_min(curves, inter=inter, intra=intra, arc_windows=windows)
    assert fast == _brute_min(curves, inter, intra, windows)
    assert (fast == np.inf) is ("none admissible" in name)


def test_torus_self_distances_search_once_or_not_at_all(monkeypatch):
    # a helix's self search starts at its sampled bound, an admissible pair,
    # and certifies in one search; the core circle's bending window covers
    # half its length, so no self pair can be admissible: no search, inf
    searches = []
    candidate_pairs = distances._candidate_pairs

    def counting(points, reach, marked=None):
        searches.append(reach)
        return candidate_pairs(points, reach, marked)

    monkeypatch.setattr(distances, "_candidate_pairs", counting)
    core, helix = _torus()[:2]
    for curve, expected, finite in ((helix, 1, True), (core, 0, False)):
        searches.clear()
        d = _certified_min([curve], inter=False, intra=True,
                           arc_windows=_bending_windows([curve]))
        assert len(searches) == expected
        assert bool(np.isfinite(d)) is finite


def _trefoil(n):
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return PolyCurve(np.column_stack((
        np.sin(t) + 2.0 * np.sin(2.0 * t),
        np.cos(t) - 2.0 * np.cos(2.0 * t),
        -np.sin(3.0 * t),
    )))


def test_sampled_self_start_certifies_a_trefoil():
    # the closest admissible pair among 32 sampled segments starts the self
    # search below the chord from vertex 0 to vertex n/2 (2.0 here), and the
    # minimum stays the brute-force one bit for bit
    c = _trefoil(1500)
    window = _arc_window(min_curvature_radius(c))
    soup = distances._SegmentSoup([c])
    start = distances._sampled_bound(soup, False, True, np.array([window]))
    assert start < 0.7 * np.linalg.norm(c.vertices[0] - c.vertices[750])
    fast = _self_min(c, window)
    assert start >= fast
    assert fast == min_self_distance_brute(c, window)
