"""Certified minimum-distance engine against brute force."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ropebound import distances, measure
from ropebound.construct import build_planar_link, realize_torus
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
from ropebound.io_formats import export_geometry, import_geometry
from ropebound.measure import LinkConfiguration
from ropebound.specs import build_increment_spec


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


def _brute_pairs(points, reach, marked=None) -> list:
    """Every pair (i < j) of `points` within `reach`, i marked when points
    are marked, in order."""
    gap = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    within = np.triu(gap <= reach, 1)
    if marked is not None:
        within &= marked[:, None]
    return list(zip(*(k.tolist() for k in np.nonzero(within))))


def _searched_pairs(points, reach, marked=None) -> list:
    """The pairs `_candidate_pairs` returns, in order, each once."""
    i, j = distances._candidate_pairs(points, reach, marked)
    pairs = sorted(zip(i.tolist(), j.tolist()))
    assert len(set(pairs)) == len(pairs)
    return pairs


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e12])
@pytest.mark.parametrize("with_marked", [False, True], ids=["all", "marked"])
def test_candidate_pairs_are_the_brute_force_pairs_within_reach(
        dim, offset, with_marked):
    # the search is pinned by the pair set it returns, whatever the grid
    # layout: every pair (i < j) within reach, i marked when points are
    # marked; a duplicated point pairs at distance 0
    rng = np.random.default_rng(dim)
    points = rng.uniform(size=(600, dim))
    points[550:] = points[:50]
    points += offset
    reach = 0.15 if dim == 3 else 0.05
    marked = rng.random(600) < 0.5 if with_marked else None
    gap = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    # no pair so near the reach that rounding could decide it
    assert not np.any(np.abs(gap - reach) <= 1e-9 * reach)
    brute = _brute_pairs(points, reach, marked)
    assert len(brute) > 500
    assert _searched_pairs(points, reach, marked) == brute


def _masks(n, rng, with_marked) -> list:
    """None, or a random mask, no point marked and every point marked."""
    if not with_marked:
        return [None]
    return [rng.random(n) < 0.5, np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("case", ["one point", "coincident", "reach 0",
                                  "collinear", "lattice"])
@pytest.mark.parametrize("with_marked", [False, True], ids=["all", "marked"])
def test_candidate_pairs_of_degenerate_inputs_are_the_brute_force_pairs(
        dim, case, with_marked):
    # inputs with no extent along some or all axes, or no reach: the grid
    # has one cell along them, or cells of a positive side; and a lattice
    # far from the origin, whose nearest pairs lie exactly at the reach,
    # where a cell boundary falls between them
    rng = np.random.default_rng(dim)
    if case == "one point":
        inputs = [(rng.uniform(size=(1, dim)), 0.1)]
    elif case == "coincident":
        inputs = [(np.full((30, dim), 0.3), reach) for reach in (0.1, 0.0)]
    elif case == "reach 0":
        inputs = [(np.repeat(rng.uniform(size=(20, dim)), 3, axis=0), 0.0)]
    elif case == "lattice":  # 2^20 + the integers 0..4 along each axis
        axes = np.meshgrid(*[np.arange(5.0)] * dim, indexing="ij")
        points = np.stack([a.ravel() for a in axes], axis=1) + 2.0 ** 20
        inputs = [(points[rng.permutation(len(points))], 1.0)]
    else:  # 40 points 0.1 apart along each axis in turn, 2 per reach
        inputs = []
        for axis in range(dim):
            points = np.full((40, dim), 5.0)
            points[:, axis] += 0.1 * rng.permutation(40)
            inputs.append((points, 0.25))
    for points, reach in inputs:
        for marked in _masks(len(points), rng, with_marked):
            brute = _brute_pairs(points, reach, marked)
            assert _searched_pairs(points, reach, marked) == brute
            if marked is None and case != "one point":
                assert brute


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("with_marked", [False, True], ids=["all", "marked"])
def test_candidate_pairs_keep_the_grid_small_for_a_wide_extent(
        dim, with_marked):
    # 300 points in a unit box and one 1e9 reaches away: at cells of half
    # the reach the box would need 2e9 cells per axis; the grid widens its
    # cells to hold O(n) of them, and memory stays that of a small search
    import tracemalloc

    rng = np.random.default_rng(dim)
    points = rng.uniform(size=(301, dim))
    reach = 0.05 if dim == 3 else 0.01
    points[-1] = 1e9 * reach
    distances._candidate_pairs(points, reach)  # the thread's buffers
    for marked in _masks(len(points), rng, with_marked):
        tracemalloc.start()
        try:
            pairs = _searched_pairs(points, reach, marked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs == _brute_pairs(points, reach, marked)
        assert peak < 2 << 20


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("with_marked", [False, True], ids=["all", "marked"])
def test_candidate_pairs_expand_in_blocks(dim, with_marked, monkeypatch):
    # blocks of 16 candidates: several query blocks, and queries whose own
    # candidates overflow a block
    monkeypatch.setattr(distances, "_GRID_BLOCK", 16)
    rng = np.random.default_rng(dim)
    points = rng.uniform(size=(400, dim))
    points[350:] = points[:50]
    reach = 0.15 if dim == 3 else 0.05
    for marked in _masks(len(points), rng, with_marked):
        brute = _brute_pairs(points, reach, marked)
        assert len(brute) > 16 * 10 or (marked is not None and not marked.any())
        assert _searched_pairs(points, reach, marked) == brute


@pytest.mark.parametrize("with_marked", [False, True], ids=["all", "marked"])
def test_candidate_groups_join_to_the_candidate_pairs(with_marked,
                                                      monkeypatch):
    # blocks of 16 candidates, groups of 50 pairs or more: the groups,
    # joined in order, are the pairs of one search, and each but the last
    # holds at least 50
    rng = np.random.default_rng(5)
    points = rng.uniform(size=(400, 3))
    marked = rng.random(400) < 0.5 if with_marked else None
    whole = distances._candidate_pairs(points, 0.15, marked)
    monkeypatch.setattr(distances, "_GRID_BLOCK", 16)
    monkeypatch.setattr(distances, "_GATHER", 50)
    groups = list(distances._candidate_groups(points, 0.15, marked))
    assert len(groups) > 5
    assert all(i.size == j.size >= 50 for i, j in groups[:-1])
    assert all(np.array_equal(np.concatenate(side), w)
               for side, w in zip(zip(*groups), whole))


def _einsum_distances(p1, d1, p2, d2):
    """The (m, 3) einsum formulation of the clamped closest-point kernel,
    which the coordinate-row kernel reproduces bit for bit."""
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    b = np.einsum("ij,ij->i", d1, d2)
    c = np.einsum("ij,ij->i", d1, r)
    f = np.einsum("ij,ij->i", d2, r)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s_low = np.clip(-c / a, 0.0, 1.0)
        s_high = np.clip((b - c) / a, 0.0, 1.0)
    s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
    t = np.clip(t, 0.0, 1.0)
    diff = r + s[:, None] * d1 - t[:, None] * d2
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _kernel_segments():
    """(starts, directions) of random segments followed by the special
    cases: parallel, collinear overlapping, touching and very short."""
    rng = np.random.default_rng(19)
    starts = [rng.normal(size=(20000, 3)) * 10.0]
    dirs = [rng.normal(size=(20000, 3))]
    p = np.array([[0.3, -1.2, 2.0]])
    d = np.array([[1.0, 0.5, -0.25]])
    side = np.cross(d, [[0.0, 0.0, 1.0]])
    for start, direction in (
        (p, d), (p + side, 2.0 * d),             # parallel
        (p + 0.5 * d, d), (p + 0.25 * d, 0.5 * d),  # collinear, overlapping
        (p + d, side), (p + d, -d),               # touching at an end
        (p + 0.5 * d, 1e-9 * side),               # touching mid-segment
        (p + 0.5 * side, 1e-9 * d), (0.0 * p, 1e-100 * side),  # very short
    ):
        starts.append(start)
        dirs.append(direction)
    return np.concatenate(starts), np.concatenate(dirs)


def test_row_kernel_is_the_public_kernel():
    # _SegmentSoup.pair_distances gathers coordinate rows; on the same
    # segments the public (m, 3) kernel and the einsum formula it replaced
    # give the same bits, on random pairs and on every pair of the special
    # cases (more than one kernel chunk of pairs in all)
    curves = [PolyCurve([s, s + d], closed=False)
              for s, d in zip(*_kernel_segments())]
    soup = distances._SegmentSoup(curves)
    starts = np.array([c.vertices[0] for c in curves])
    dirs = np.array([c.vertices[1] for c in curves]) - starts
    rng = np.random.default_rng(23)
    special = np.arange(20000, len(starts))
    ia, ib = np.meshgrid(special, special, indexing="ij")
    ia = np.concatenate((rng.integers(0, len(starts), 30000), ia.ravel()))
    ib = np.concatenate((rng.integers(0, len(starts), 30000), ib.ravel()))
    ia, ib = ia[ia != ib], ib[ia != ib]
    assert ia.size > distances._KERNEL_PAIRS
    rows = soup.pair_distances(ia, ib)
    public = segment_pair_distances(starts[ia], dirs[ia], starts[ib], dirs[ib])
    assert rows.tobytes() == public.tobytes()
    assert rows.tobytes() == _einsum_distances(
        starts[ia], dirs[ia], starts[ib], dirs[ib]).tobytes()
    assert np.all(np.isfinite(rows))
    assert np.count_nonzero(rows == 0.0) >= 8


def test_kernel_workspaces_are_per_thread():
    # every thread runs the kernel in a workspace of its own: calls from
    # more threads than cores, switching as often as the interpreter allows
    # and overlapping where numpy releases the lock, give serial bits
    rng = np.random.default_rng(29)
    m = 3 * distances._KERNEL_PAIRS // 2
    args = [tuple(rng.normal(size=(m, 3)) for _ in range(4)) for _ in range(6)]
    serial = [segment_pair_distances(*a).tobytes() for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(segment_pair_distances, *a) for a in args * 4]
            pooled = [f.result(timeout=60).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial * 4


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
    return np.array([np.pi * min_curvature_radius(c) for c in curves])


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


def _small_polygons():
    """Closed polygons of 3 to 6 segments side by side: one run covers a
    triangle or a square, and its chord, from vertex 0 back to vertex 0,
    has length 0."""
    rng = np.random.default_rng(31)
    return [PolyCurve(rng.normal(size=(n, 3)) + (1.5 * k, 0.0, 0.0))
            for k, n in enumerate((3, 4, 5, 6, 3, 4))]


def _looping_curve(chord, offset=(0.0, 0.0, 0.0), seed=41):
    """An open curve of 12 runs: every other run loops back to within
    `chord` of its first vertex (to that vertex itself when chord is 0), the
    others travel on."""
    rng = np.random.default_rng(seed)
    pts = [np.asarray(offset, dtype=float)]
    for j in range(12):
        p = pts[-1]
        u, w, step = rng.normal(size=(3, 3)) * 0.6
        if j % 2 == 0:
            away = rng.normal(size=3)
            pts += [p + u, p + u + w, p + w, p + chord * away / np.linalg.norm(away)]
        else:
            pts += [p + u, p + u + w, p + u + w + step, p + 2.0 * (u + w + step)]
    return PolyCurve(np.array(pts), closed=False)


def _sticks():
    """Open curves of 1, 2 and 3 segments, shorter than a run."""
    rng = np.random.default_rng(43)
    return [PolyCurve(rng.normal(size=(n + 1, 3)) + (0.8 * n, 0.0, 0.0),
                      closed=False) for n in (1, 2, 3, 1, 3)]


def _threaded_triangle():
    """A 3-segment triangle threading a 1,500-segment unit circle: a coarse
    component beside a fine one."""
    triangle = PolyCurve(np.array([[0.5, -1.0, 0.0], [0.5, 1.0, 0.0],
                                   [2.0, 0.0, 0.0]]))
    return [_circle(n=1500), triangle]


def _far_torus(offset=(1e12, 0.0, 0.0)):
    return [c.transformed(None, offset) for c in _torus()]


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
    "inter polygons of 3-6 segments": (_small_polygons, True, False, None),
    "combined polygons of 3-6 segments": (_small_polygons, True, True, None),
    "inter looping curves, chords 0 and 1e-12": (
        lambda: [_looping_curve(0.0), _looping_curve(1e-12, (1.0, 0.5, 0.0), 47)],
        True, False, None),
    "intra looping curve, chord 0": (
        lambda: [_looping_curve(0.0)], False, True, None),
    "combined looping curves, chords 1e-7 and 1e-3": (
        lambda: [_looping_curve(1e-7), _looping_curve(1e-3, (1.0, 0.5, 0.0), 47)],
        True, True, np.array([1.0, 2.0])),
    "inter open curves shorter than a run": (_sticks, True, False, None),
    "combined open curves shorter than a run": (_sticks, True, True, None),
    "inter triangle threading a fine circle": (
        _threaded_triangle, True, False, None),
    "inter torus at x=1e12": (_far_torus, True, False, None),
    "combined torus at x=1e12, bending windows": (
        _far_torus, True, True, "bending"),
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


def _orbit_rule(orbit_min, ia, ib):
    """Which segment pairs (ia[k] < ib[k]) the orbit rule keeps: the lower
    segment is the lowest of its orbit, and the other's orbit has no index
    below it."""
    return (orbit_min[ia] == ia) & (orbit_min[ib] >= ia)


def _masked_brute(curves, inter, intra, windows, orbit_min):
    """Brute-force reference over the admissible pairs that the orbit rule
    keeps."""
    soup = distances._SegmentSoup(curves)
    ia, ib = np.triu_indices(len(soup), 1)
    keep = _orbit_rule(orbit_min, ia, ib)
    return distances._admissible_min(soup, ia[keep], ib[keep], inter, intra,
                                     windows)


def _random_orbits(n, rng, size=5):
    """Each of n segments' orbit minimum, for a random partition of them
    into orbits of about `size`."""
    label = rng.integers(0, max(1, n // size), n)
    low = np.full(label.max() + 1, n)
    np.minimum.at(low, label, np.arange(n))
    return low[label]


def _scattered_orbits(curves, seed):
    rng = np.random.default_rng(seed)
    return _random_orbits(sum(c.n_segments for c in curves), rng)


_REPS = {
    # the orbits of the torus's symmetry group
    "torus, its orbits": (_torus, True, True, "bending",
                          lambda c: measure._symmetry(c).orbit_min),
    # moved along the axis of its rotation group, which it keeps
    "torus at z=1e12, inter": (lambda: _far_torus((0.0, 0.0, 1e12)), True, False,
                               None, lambda c: measure._symmetry(c).orbit_min),
    "random pair, random orbits": (_random_pair, True, True, np.array([2.0, 5.0]),
                                  lambda c: _scattered_orbits(c, 3)),
    "looping curves, random orbits": (
        lambda: [_looping_curve(0.0), _looping_curve(1e-12, (1.0, 0.5, 0.0), 47)],
        True, True, None, lambda c: _scattered_orbits(c, 5)),
    # the circle in orbits of five segments 300 apart: a fifth of the runs
    # hold a representative, so the run query starts from those alone
    "threaded triangle, circle in five orbits": (
        _threaded_triangle, True, False, None,
        lambda c: np.concatenate((np.arange(1500) % 300, np.arange(1500, 1503)))),
}


@pytest.mark.parametrize("name", list(_REPS))
def test_certified_min_with_reps_equals_masked_brute_force(name):
    make, inter, intra, windows, orbits = _REPS[name]
    curves = make()
    if isinstance(windows, str):
        windows = _bending_windows(curves)
    orbit_min = orbits(curves)
    assert orbit_min is not None
    assert not np.array_equal(orbit_min, np.arange(orbit_min.size))
    fast = _certified_min(curves, inter=inter, intra=intra, arc_windows=windows,
                          orbit_min=orbit_min)
    assert np.isfinite(fast)
    assert fast == _masked_brute(curves, inter, intra, windows, orbit_min)


def test_measure_thickness_equals_masked_brute_force_far_out():
    # one combined search, restricted to one pair per orbit, with the
    # windows measure computes: the masked brute force over the same pairs
    comps = _far_torus((0.0, 0.0, 1e12))
    sym = measure._symmetry(comps)
    assert sym.orbit_min is not None
    _, windows = measure._curvature(sym)
    thick = measure.measure_thickness(LinkConfiguration(comps))
    assert thick.min_overall_distance == _masked_brute(comps, True, True, windows,
                                                       sym.orbit_min)


def _split_references(curves, windows, orbit_min):
    """(inter, self) brute-force minima: over every pair of distinct
    components (min_distance_brute) and every component under its window
    (min_self_distance_brute); with `orbit_min`, the brute force of each
    kind over the pairs the orbit rule keeps."""
    if orbit_min is not None:
        return (_masked_brute(curves, True, False, None, orbit_min),
                _masked_brute(curves, False, True, windows, orbit_min))
    inter = min((min_distance_brute(a, b) for i, a in enumerate(curves)
                 for b in curves[i + 1:]), default=np.inf)
    self_ = min(min_self_distance_brute(
        c, None if windows is None else windows[k])
        for k, c in enumerate(curves))
    return inter, self_


@pytest.mark.parametrize("symmetric", [False, True], ids=["all", "symmetry"])
@pytest.mark.parametrize("name", list(_MODES))
def test_one_search_minima_equal_brute_force_of_each_kind(name, symmetric):
    # measure_link's one search returns the inter and the self minimum; each
    # equals the brute force of its kind bit for bit, with every component
    # searched under the mode's windows, or modulo the symmetry measure
    # finds, self pairs on class representatives under their windows
    make, _, _, windows = _MODES[name]
    curves = make()
    if symmetric:
        sym = measure._symmetry(curves)
        orbit_min, windows = sym.orbit_min, measure._curvature(sym)[1]
    else:
        orbit_min = None
        if isinstance(windows, str):
            windows = _bending_windows(curves)
    split = _certified_min(curves, inter=True, intra=True, arc_windows=windows,
                           orbit_min=orbit_min, split=True)
    assert split == _split_references(curves, windows, orbit_min)


def test_one_search_minima_of_a_file_equal_brute_force(tmp_path):
    # inc4 T=2 read back from VECT: no symmetry is declared, the one its
    # coordinates prove restricts both kinds, and each equals its masked
    # brute force bit for bit
    link = realize_torus(build_increment_spec(2, 4), n_points=120, check=False)
    path = str(tmp_path / "inc4.vect")
    curves = import_geometry(export_geometry(link, path=path)).components
    sym = measure._symmetry(curves)
    assert sym.orbit_min is not None and len(set(sym.classes.tolist())) == 3
    windows = measure._curvature(sym)[1]
    split = _certified_min(curves, inter=True, intra=True, arc_windows=windows,
                           orbit_min=sym.orbit_min, split=True)
    assert split == _split_references(curves, windows, sym.orbit_min)
    assert all(np.isfinite(split))


@pytest.mark.parametrize("make", [
    lambda: _random_pair()[:1], lambda: _torus()[1:2], lambda: _torus()[:1],
    lambda: [_trefoil(300)], lambda: [_coiled_knot()],
], ids=["random curve", "torus helix", "torus core", "trefoil", "coiled knot"])
def test_one_component_asked_for_both_kinds_is_its_self_minimum(make,
                                                                monkeypatch):
    # a single component has no inter pair, so a request for both kinds is
    # the self pass's, bit for bit the brute force under its window
    monkeypatch.setattr(distances, "_search", None)  # no inter pass to run
    curves = make()
    windows = _bending_windows(curves)
    fast = _certified_min(curves, inter=True, intra=True, arc_windows=windows)
    assert fast == min_self_distance_brute(curves[0], windows[0])


@pytest.mark.parametrize("intra", [False, True], ids=["inter", "combined"])
def test_the_sampled_bound_holds_a_kept_pair_under_any_orbits(intra):
    # segment 0 is the lowest of its orbit and no orbit lies below it, so a
    # sampled pair (0, b) with b on the other curve always counts: here
    # segment 3 is an orbit of its own, which the samples miss, and every
    # other segment shares segment 0's, so the only kept pairs are segment
    # 0's; the search starts at a finite radius and equals the brute force
    # over them
    curves = _random_pair()
    n = sum(c.n_segments for c in curves)
    orbit_min = np.where(np.arange(n) == 3, 3, 0)
    windows = np.array([2.0, 5.0]) if intra else None
    soup = distances._SegmentSoup(curves, orbit_min)
    assert np.isfinite(distances._sampled_bound(soup, True, intra, windows))
    fast = _certified_min(curves, inter=True, intra=intra, arc_windows=windows,
                          orbit_min=orbit_min)
    assert fast == _masked_brute(curves, True, intra, windows, orbit_min)
    others = np.arange(1, n)
    assert fast == distances._admissible_min(
        soup, np.zeros_like(others), others, True, intra, windows)


def _rule_scene(seed):
    """Random open and closed curves (a closed 11-segment one, whose widest
    folded separation is _SKIP_WINDOW segments, among them), per-component
    arc windows (finite, within 1e-9 of half the length either side, or
    inf; or no windows at all) and a random partition of the segments into
    orbits (`_random_orbits`), or none."""
    rng = np.random.default_rng(seed)
    shapes = [(11, True)] + [(int(rng.integers(3, 40)), bool(rng.random() < 0.5))
                             for _ in range(int(rng.integers(1, 4)))]
    curves = []
    for k in rng.permutation(len(shapes)):
        n, closed = shapes[k]
        m = n + (not closed)
        curves.append(PolyCurve(rng.normal(size=(m, 3))
                                * rng.uniform(0.1, 3.0, size=(m, 1)), closed))
    windows = None
    if rng.random() < 0.8:
        windows = np.array([rng.choice([
            rng.uniform(0.0, 0.6) * c.length(),
            0.5 * c.length() * (1.0 + rng.choice([-1e-9, 1e-9])),
            np.inf]) for c in curves])
    n = sum(c.n_segments for c in curves)
    orbit_min = _random_orbits(n, rng) if rng.random() < 0.5 else None
    return curves, windows, orbit_min


def _rule(curves, inter, intra, windows, orbit_min):
    """The pair-exclusion rule from first principles: (n, n) mask of the
    segment pairs that count, i < j."""
    comp, index, arc, nseg, total, closed = [], [], [], [], [], []
    for k, c in enumerate(curves):
        lens = np.linalg.norm(c.segment_ends() - c.segment_starts(), axis=1)
        m = len(lens)
        comp += [k] * m
        index += range(m)
        arc += list(np.concatenate(([0.0], np.cumsum(lens)))[:-1] + 0.5 * lens)
        nseg += [m] * m
        total += [float(lens.sum())] * m
        closed += [c.closed] * m
    comp, index, arc, nseg, total, closed = map(
        np.array, (comp, index, arc, nseg, total, closed))
    same = comp[:, None] == comp[None, :]
    d = np.abs(index[:, None] - index[None, :])
    d = np.where(closed[:, None], np.minimum(d, nseg[:, None] - d), d)
    ok = intra & same & (d > distances._SKIP_WINDOW)
    if windows is not None:
        x = np.abs(arc[:, None] - arc[None, :])
        x = np.where(closed[:, None], np.minimum(x, total[:, None] - x), x)
        ok &= x > windows[comp][:, None]
    keep = (inter & ~same) | ok
    if orbit_min is not None:
        i, j = np.indices(keep.shape)
        keep &= _orbit_rule(orbit_min, i, j)
    return np.triu(keep, 1)


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("inter, intra", [(True, False), (False, True),
                                          (True, True)])
def test_may_count_states_the_rule_at_every_granularity(seed, inter, intra):
    curves, windows, orbit_min = _rule_scene(seed)
    soup = distances._SegmentSoup(curves, orbit_min)
    rule = _rule(curves, inter, intra, windows, orbit_min)

    def may_count(units, ia, ib):
        return distances._may_count(soup, units, ia, ib, inter, intra, windows)

    # segment pairs: exactly the rule
    ia, ib = np.triu_indices(len(soup), 1)
    assert np.array_equal(may_count(None, ia, ib), rule[ia, ib])
    # run pairs, a run with itself included: never a drop of a counted pair
    runs = distances._Runs(soup)
    ra, rb = np.triu_indices(runs.first.size)
    held = np.array([rule[f:l + 1, g:k + 1].any() for f, l, g, k in zip(
        runs.first[ra], runs.last[ra], runs.first[rb], runs.last[rb])])
    kept = may_count((runs.first, runs.last, runs.top), ra, rb)
    assert not (held & ~kept).any()
    # whole components: never a drop, and exactly "some pair counts" for
    # distinct components, under an infinite window, and without orbits on
    # an open component or without windows, where one pair has the widest
    # separations
    first = soup.first
    last = first + soup.comp_nseg - 1
    top = None if orbit_min is None else np.maximum.reduceat(orbit_min, first)
    ca, cb = np.triu_indices(first.size)
    held = np.array([rule[first[a]:last[a] + 1, first[b]:last[b] + 1].any()
                     for a, b in zip(ca, cb)])
    kept = may_count((first, last, top), ca, cb)
    assert not (held & ~kept).any()
    window = np.zeros(ca.size) if windows is None else windows[ca]
    exact = (ca != cb) | np.isinf(window) | ((orbit_min is None) & (
        ~np.array([c.closed for c in curves])[ca] | (windows is None)))
    assert np.array_equal(kept[exact], held[exact])


def _closed_loops():
    """Closed loops of 3 and 4 segments: each is one run whose chord, from
    vertex 0 back to vertex 0, has length 0."""
    rng = np.random.default_rng(53)
    return [PolyCurve(rng.normal(size=(n, 3)) + (0.0, 0.0, 0.7 * k))
            for k, n in enumerate((3, 4, 3, 4))]


def _nearly_closing_run():
    """An open curve of three runs whose first run starts with a segment
    1/1000 as long as the others and ends 1e-9 of the run's length from
    its first vertex, beside a square."""
    head = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [1.0, 1.0, 0.0],
                     [0.0, 1.0, 0.5]])
    length = np.linalg.norm(np.diff(head, axis=0), axis=1).sum()
    length += np.linalg.norm(head[-1])
    back = 1e-9 * length * np.array([0.0, -0.6, 0.8])
    tail = back + np.array([[0.5, -1.0, 0.2], [1.3, -1.4, 0.0], [2.0, -0.8, 0.4],
                            [2.6, -1.5, 0.1], [3.0, -0.5, 0.3], [3.8, -1.1, 0.0],
                            [4.2, -0.2, 0.5], [5.0, -0.9, 0.2]])
    curve = PolyCurve(np.vstack((head, back, tail)), closed=False)
    square = PolyCurve(np.array([[0.2, 0.3, 1.0], [0.9, 0.3, 1.0],
                                 [0.9, 1.0, 1.0], [0.2, 1.0, 1.0]]))
    return [curve, square]


def test_a_nearly_closing_run_is_bounded_about_its_first_segment():
    # its chord is below _DEGENERATE of its length, so the capsule's axis is
    # its first segment
    soup = distances._SegmentSoup(_nearly_closing_run())
    runs = distances._Runs(soup)
    assert runs.first.tolist() == [0, 4, 8, 12]
    assert np.array_equal(runs.rows[:, 0], soup.rows[:, 0])


@pytest.mark.parametrize("curves", [
    _small_polygons, _sticks, _threaded_triangle, _far_torus,
    lambda: [_looping_curve(c, (0.0, 0.0, 2.0 * k), k)
             for k, c in enumerate((0.0, 1e-12, 1e-7, 1e-3))],
    _closed_loops, _nearly_closing_run,
], ids=["polygons", "sticks", "threaded triangle", "torus at x=1e12",
        "looping curves", "closed 3- and 4-segment loops",
        "nearly closing run"])
def test_run_bounds_hold_every_segment_pair(curves):
    # a run's capsule bound never exceeds the kernel distance of any of its
    # segment pairs, however short its chord
    soup = distances._SegmentSoup(curves())
    runs = distances._Runs(soup)
    ra, rb = np.triu_indices(runs.first.size, 1)
    ia, ib = distances._expand(runs.first, runs.size, ra, rb)
    d = soup.pair_distances(ia, ib)
    per_pair = np.minimum.reduceat(d, np.cumsum(runs.size[ra] * runs.size[rb])
                                   - runs.size[ra] * runs.size[rb])
    assert np.all(runs.lower_bounds(ra, rb) <= per_pair)
    assert distances._RUN <= distances._SKIP_WINDOW


def test_torus_self_distances_search_once_or_not_at_all(monkeypatch):
    # a helix's self search starts at its sampled bound, an admissible pair,
    # which reaches across the helix, so its runs are enumerated by index
    # and no query is made; the core circle's bending window covers half its
    # length, so no self pair can be admissible: no search, inf
    searches = []
    candidate_pairs = distances._candidate_pairs

    def counting(points, reach, marked=None):
        searches.append(reach)
        return candidate_pairs(points, reach, marked)

    monkeypatch.setattr(distances, "_candidate_pairs", counting)
    core, helix = _torus()[:2]
    for curve, finite in ((helix, True), (core, False)):
        searches.clear()
        d = _certified_min([curve], inter=False, intra=True,
                           arc_windows=_bending_windows([curve]))
        assert len(searches) == 0
        assert bool(np.isfinite(d)) is finite


def _queries(monkeypatch) -> list:
    """Record the point count of every `_candidate_pairs` query."""
    queries = []
    candidate_pairs = distances._candidate_pairs

    def counting(points, reach, marked=None):
        queries.append(len(points))
        return candidate_pairs(points, reach, marked)

    monkeypatch.setattr(distances, "_candidate_pairs", counting)
    return queries


def test_measure_link_of_a_torus_queries_once(monkeypatch):
    # inc4 T=3 at 400 points: a query at the sampled self bound would reach
    # across every helix, so each helix class has its run pairs enumerated
    # by index (the core has no self pair); the one query is the inter
    # pass's, over the runs of all 25 components
    link = realize_torus(build_increment_spec(3, 4), n_points=400, check=False)
    queries = _queries(monkeypatch)
    measure.measure_link(link)
    assert queries == [25 * 400 // distances._RUN]


def _coiled_knot(n=400, major=4.0, minor=1.0):
    """A (2, 7) torus knot on a thin tube: its self minimum, across the
    tube, lies far below its extent."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ring = major + minor * np.cos(7.0 * t)
    return PolyCurve(np.column_stack((ring * np.cos(2.0 * t),
                                      ring * np.sin(2.0 * t),
                                      minor * np.sin(7.0 * t))))


def test_a_coiled_knot_takes_the_query(monkeypatch):
    # a single component has no inter pass, so the one query is the self
    # search's, over the knot's runs; its minimum is the brute force's
    knot = _coiled_knot()
    queries = _queries(monkeypatch)
    monkeypatch.setattr(distances, "_search", None)  # no inter pass to run
    metrics = measure.measure_link(LinkConfiguration([knot]))
    assert queries == [400 // distances._RUN]
    assert metrics.min_inter_distance == np.inf
    window = np.pi * min_curvature_radius(knot)
    assert metrics.min_self_distance == min_self_distance_brute(knot, window)
    assert metrics.min_self_distance < 0.3 * np.ptp(knot.vertices, axis=0).max()


def test_a_link_without_symmetry_enumerates_its_runs_in_blocks(monkeypatch):
    # inc4 T=2 with every component nudged differently proves no symmetry,
    # so each of its 12 helices is a class of its own; with blocks capped
    # at the run pairs of two helices, the self pass enumerates them in
    # several blocks, each within the cap plus one helix, every helix once,
    # and both minima stay the brute force of their kind bit for bit
    link = realize_torus(build_increment_spec(2, 4), n_points=120, check=False)
    curves = []
    for k, c in enumerate(link.components):
        v = c.vertices.copy()
        v[17, 0] += 1e-6 * (k + 1)
        curves.append(PolyCurve(v))
    sym = measure._symmetry(curves)
    assert sym.classes.tolist() == list(range(13)) and sym.orbit_min is None
    windows = measure._curvature(sym)[1]
    whole = _certified_min(curves, inter=True, intra=True,
                           arc_windows=windows, split=True)
    helix = 120 // distances._RUN
    monkeypatch.setattr(distances, "_INDEXED_PAIRS", helix * (helix - 1))
    blocks = []
    run_pairs = distances._run_pairs

    def recording(soup, at, radius, inter, intra, arc_windows, sizes=None):
        if sizes is not None:
            blocks.append(sizes.tolist())
        return run_pairs(soup, at, radius, inter, intra, arc_windows, sizes)

    monkeypatch.setattr(distances, "_run_pairs", recording)
    split = _certified_min(curves, inter=True, intra=True, arc_windows=windows,
                           split=True)
    assert len(blocks) > 1 and sum(blocks, []) == [helix] * 12
    for sizes in blocks:
        pairs = sum(n * (n - 1) // 2 for n in sizes)
        assert pairs <= distances._INDEXED_PAIRS + helix * (helix - 1) // 2
    assert split == whole == _split_references(curves, windows, None)
    with pytest.raises(ValueError, match="split"):
        _certified_min(curves, inter=True, intra=False, arc_windows=None,
                       split=True)


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
    window = np.pi * min_curvature_radius(c)
    soup = distances._SegmentSoup([c])
    start = distances._sampled_bound(soup, False, True, np.array([window]),
                                     np.array([distances._SELF_SAMPLES]))
    assert start < 0.7 * np.linalg.norm(c.vertices[0] - c.vertices[750])
    fast = _self_min(c, window)
    assert start >= fast
    assert fast == min_self_distance_brute(c, window)
