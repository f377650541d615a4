"""Linking numbers of polygonal loops: projected crossings against the
Gauss-sum reference."""

import math

import numpy as np
import pytest

from ropebound import distances, linking
from ropebound.construct import (
    build_planar_link,
    donut_double,
    realize_torus,
    toroidal_pair,
)
from ropebound.curves import (
    PolyCurve,
    rotation_about_axis,
    sample_planar_curve,
    sample_toroidal_helix,
)
from ropebound.distances import min_distance_brute
from ropebound.linking import linking_matrix
from ropebound.specs import TorusSpec, build_increment_spec, build_optimal_spec

from conftest import mirrored_double


def _quad_solid_angles(a, b, c, d):
    """Signed solid angle of the spherical quadrilateral with vertex
    directions a, b, c, d (rows), where a - b + c - d = 0 guarantees the two
    triangle fans share one numerator."""
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    ld = np.linalg.norm(d, axis=1)
    p = np.einsum("ij,ij->i", a, np.cross(b, c))
    ab = np.einsum("ij,ij->i", a, b)
    bc = np.einsum("ij,ij->i", b, c)
    ca = np.einsum("ij,ij->i", c, a)
    cd = np.einsum("ij,ij->i", c, d)
    da = np.einsum("ij,ij->i", d, a)
    den1 = la * lb * lc + ab * lc + bc * la + ca * lb
    den2 = la * lc * ld + ca * ld + cd * la + da * lc
    return 2.0 * (np.arctan2(p, den1) + np.arctan2(p, den2))


def _gauss_linking_number(a, b):
    """The brute-force reference: the Gauss linking integral of two closed
    polygons, the sum of the signed solid angles of all segment pairs (each
    the quadrilateral spanned by its endpoints) over 4 pi, or None when it
    lies farther than 0.1 from an integer (the curves touch)."""
    s1, e1 = a.segment_starts(), a.segment_ends()
    s2, e2 = b.segment_starts(), b.segment_ends()
    i, j = np.divmod(np.arange(len(s1) * len(s2)), len(s2))
    total = _quad_solid_angles(s1[i] - s2[j], s1[i] - e2[j], e1[i] - e2[j],
                               e1[i] - s2[j]).sum()
    value = float(total) / (4.0 * np.pi)
    nearest = round(value)
    return int(nearest) if abs(value - nearest) <= 0.1 else None


def _lk(a, b):
    return linking_matrix([a, b])[0, 1]


def _hopf_pair(n=400):
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=n)
    b = sample_planar_curve(
        "circle", {"radius": 2.0},
        placement={"inclination": 0.5 * math.pi}, n_points=n,
    ).transformed(None, (2.0, 0.0, 0.0))
    return a, b


def test_hopf_pair_links_once():
    a, b = _hopf_pair()
    assert abs(_lk(a, b)) == 1


def test_unlinked_circles_link_zero():
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=300)
    b = a.transformed(None, (5.0, 0.0, 0.0))
    assert _lk(a, b) == 0


def _square():
    """A 2 x 2 square about the origin in the plane z = 0."""
    return PolyCurve(np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0],
                               [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]))


def _above(point, t):
    """point moved by t along the projection direction d."""
    return np.asarray(point, dtype=float) + t * linking._D.ravel()


def _threading(*vertices):
    """The square and a loop that threads it once, down the z axis through
    its centre and back through the given vertices."""
    return [_square(), PolyCurve(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                           *vertices]))]


# Dyadic links whose projection along d is degenerate, so the float filter
# cannot decide some side and simulation of simplicity does.
_DEGENERATE = {
    "vertex on a projected segment": lambda: _threading(
        (2.0, 0.0, -1.0), _above((1.0, 0.5, 0.0), 0.5)),
    "collinear overlapping projections": lambda: _threading(
        (3.0, 0.0, -1.0), _above((1.0, 1.5, 0.0), 1.0),
        _above((1.0, 0.0, 0.0), 0.5)),
    "vertex projecting onto a vertex": lambda: _threading(
        (2.0, 0.0, -1.0), _above((1.0, 1.0, 0.0), 0.5)),
    # a vertex collinear in space with an edge of the square, beyond its end,
    # on a segment in the edge's vertical plane
    "vertex on a segment's line, off the segment": lambda: _threading(
        (1.0, -3.0, -1.0), (1.0, 2.0, 0.0)),
}


def _torus_check_link(method, t, double):
    spec = (build_optimal_spec(t) if method == "optimal"
            else build_increment_spec(t, int(method[3:])))
    realize = donut_double if double else realize_torus
    return lambda: realize(spec, n_points=200, check=False).components


# the Hopf pair, the links of the benchmark's torus_check workload, and the
# dyadic links whose projection needs exact signs
_INVARIANCE = {
    "Hopf pair": lambda: list(_hopf_pair(n=250)),
    "inc4 T=2 @200": _torus_check_link("inc4", 2, False),
    "inc5 T=1 doubled @200": _torus_check_link("inc5", 1, True),
    "optimal T=2 @200": _torus_check_link("optimal", 2, False),
    **_DEGENERATE,
}


def _invariance_link(name):
    curves = _INVARIANCE[name]()
    lm = linking_matrix(curves)
    assert lm is not None and np.any(lm != 0)
    return curves, lm


@pytest.mark.parametrize("name", list(_INVARIANCE))
def test_reversing_one_curve_flips_the_sign(name):
    # component 1's row and column change sign
    curves, lm = _invariance_link(name)
    curves[1] = PolyCurve(curves[1].vertices[::-1])
    flip = np.ones(len(curves), dtype=int)
    flip[1] = -1
    assert np.array_equal(linking_matrix(curves), lm * np.outer(flip, flip))


@pytest.mark.parametrize("name", list(_INVARIANCE))
def test_symmetry_in_the_arguments(name):
    # permuting the components permutes the matrix
    curves, lm = _invariance_link(name)
    order = np.roll(np.arange(len(curves)), 1)
    permuted = linking_matrix([curves[k] for k in order])
    assert np.array_equal(permuted, lm[np.ix_(order, order)])


@pytest.mark.parametrize("name", list(_INVARIANCE))
def test_reflection_negates_the_matrix(name):
    # the point reflection x -> -x is exact and keeps the projection's lines
    # (d goes to -d), so the degenerate links stay degenerate
    curves, lm = _invariance_link(name)
    reflected = [PolyCurve(-c.vertices) for c in curves]
    assert np.array_equal(linking_matrix(reflected), -lm)


def test_rigid_motion_invariance():
    a, b = _hopf_pair(n=250)
    rot = rotation_about_axis((1.0, -2.0, 0.5), 1.234)
    shift = (3.0, -7.0, 2.0)
    assert _lk(a.transformed(rot, shift), b.transformed(rot, shift)) == _lk(a, b)


@pytest.mark.parametrize("x", [1e6, 1e9, 1e12])
def test_distance_from_the_origin_keeps_the_matrix(x):
    # each determinant's error bound scales with its coordinate differences,
    # not with the coordinates: far out, every crossing is still decided
    link = realize_torus(build_increment_spec(2, 4), n_points=200, check=False)
    moved = [c.transformed(None, (x, 0.0, 0.0)) for c in link.components]
    assert np.array_equal(linking_matrix(moved), linking_matrix(link.components))


def _projected_boxes(curves):
    """The projected segment boxes linking_matrix builds, before their
    padding, and their labels."""
    labels = np.repeat(np.arange(len(curves)), [c.n_segments for c in curves])
    p0 = np.concatenate([c.segment_starts() for c in curves]) @ linking._PLANE.T
    p1 = np.concatenate([c.segment_ends() for c in curves]) @ linking._PLANE.T
    return np.minimum(p0, p1), np.maximum(p0, p1), labels


def _corner_touching_boxes():
    # two 3-ulp boxes at 2^40 that touch corner to corner; each centre
    # rounds half an ulp away from the other, so the centres lie 4 ulps apart
    # on each axis, beyond the largest diagonal (3 * sqrt(2) ulps)
    x = 2.0**40
    u = float(np.spacing(x))
    lo = np.array([[x + u, x + u], [x + 4 * u, x + 4 * u]])
    return lo, lo + 3 * u, np.array([0, 1])


def _small_polygons():
    """Closed polygons of 3 to 6 segments, each threading the next."""
    return [PolyCurve(np.column_stack((
        np.cos(t), np.sin(t) * math.cos(k), np.sin(t) * math.sin(k))) * 1.3
        + (1.0 * k, 0.0, 0.0))
        for k, n in enumerate((3, 4, 5, 6, 3, 4))
        for t in [2.0 * math.pi * np.arange(n) / n]]


def _threaded_triangle():
    """A 3-segment triangle threading a 1,500-segment unit circle."""
    circle = sample_planar_curve("circle", {"radius": 1.0}, n_points=1500)
    triangle = PolyCurve(np.array([[0.5, -1.0, 0.0], [0.5, 1.0, 0.0],
                                   [2.0, 0.0, 0.0]]))
    return [circle, triangle]


_BOXES = {
    "polygons of 3-6 segments": lambda: _projected_boxes(_small_polygons()),
    "triangle threading a fine circle": lambda: _projected_boxes(
        _threaded_triangle()),
    "inc4 T=2": lambda: _projected_boxes(
        realize_torus(build_increment_spec(2, 4), 200, False).components),
    # square and gibbous segments of different lengths
    "hybrid_square q=5": lambda: _projected_boxes(
        build_planar_link(5, "hybrid_square", n_points=200).components),
    "inc4 T=2 at x=1e12": lambda: _projected_boxes([
        c.transformed(None, (1e12, 0.0, 0.0)) for c in
        realize_torus(build_increment_spec(2, 4), 200, False).components]),
    "corner-touching boxes at 2^40": _corner_touching_boxes,
}


@pytest.mark.parametrize("name", list(_BOXES))
def test_box_pairs_are_the_brute_force_overlaps(name):
    # the one near-pair query over box centres, filtered, keeps exactly the
    # pairs of different components whose boxes overlap on both axes
    lo, hi, labels = _BOXES[name]()
    a, b = distances._joined(list(linking._overlapping_boxes(lo, hi, labels)))
    overlap = labels[:, None] != labels[None, :]
    for k in range(2):
        overlap &= (lo[:, None, k] <= hi[None, :, k]) & (
            lo[None, :, k] <= hi[:, None, k])
    i, j = np.nonzero(np.triu(overlap, 1))
    assert i.size > 0
    assert sorted(zip(a.tolist(), b.tolist())) == list(
        zip(i.tolist(), j.tolist()))


def _seen_groups(monkeypatch) -> list:
    """Hand out the run pairs of the box search in groups of one block of
    16 candidates each, and record the size of every group it filters."""
    seen = []
    candidate_groups = linking._candidate_groups

    def groups(*args):
        for group in candidate_groups(*args):
            seen.append(group[0].size)
            yield group

    monkeypatch.setattr(linking, "_candidate_groups", groups)
    monkeypatch.setattr(distances, "_GATHER", 1)
    monkeypatch.setattr(distances, "_GRID_BLOCK", 16)
    return seen


@pytest.mark.parametrize("name", list(_BOXES))
def test_box_search_filters_group_by_group(name, monkeypatch):
    # filtered as they stream, group by group, the run pairs give the same
    # segment pairs in the same order as one group holding them all, one
    # part per group
    lo, hi, labels = _BOXES[name]()
    whole = list(linking._overlapping_boxes(lo, hi, labels))
    seen = _seen_groups(monkeypatch)
    parts = list(linking._overlapping_boxes(lo, hi, labels))
    grouped = distances._joined(parts)
    assert all(np.array_equal(g, w)
               for g, w in zip(grouped, distances._joined(whole)))
    assert len(parts) == len(seen)
    assert len(seen) > 1 or labels.size == 2


_GROUPED_LINKS = {
    "mirrored doubled inc4 T=1": lambda: mirrored_double(
        build_increment_spec(1, 4), 200).components,
    "gibbous q=20": lambda: build_planar_link(
        20, "gibbous", n_points=200).components,
}


@pytest.mark.parametrize("name", list(_GROUPED_LINKS))
def test_linking_matrix_of_streamed_groups(name, monkeypatch):
    curves = _GROUPED_LINKS[name]()
    whole = linking_matrix(curves)
    seen = _seen_groups(monkeypatch)
    assert np.array_equal(linking_matrix(curves), whole)
    assert len(seen) > 1 and np.any(whole != 0)


def _segment_level_boxes(lo, hi, labels):
    """The segment-level box search that runs replaced: one query over the
    segment box centres at the largest segment box diagonal, filtered by
    label and overlap, as one part."""
    centres = 0.5 * (lo + hi)
    pad = 4.0 * np.spacing(np.abs(centres).max())
    a, b = distances._candidate_pairs(centres, np.hypot(*(hi - lo).T).max() + pad)
    keep = labels[a] != labels[b]
    for lo_k, hi_k in zip(lo.T, hi.T):
        keep &= (lo_k[a] <= hi_k[b]) & (lo_k[b] <= hi_k[a])
    return [(a[keep], b[keep])]


_RUN_LINKS = {
    "polygons of 3-6 segments": _small_polygons,
    "triangle threading a fine circle": _threaded_triangle,
    "inc4 T=3 @400": lambda: realize_torus(
        build_increment_spec(3, 4), 400, False).components,
    "optimal T=2 doubled @200": lambda: donut_double(
        build_optimal_spec(2), n_points=200, check=False).components,
    "inc4 T=2 at x=1e12": lambda: [
        c.transformed(None, (1e12, 0.0, 0.0)) for c in
        realize_torus(build_increment_spec(2, 4), 200, False).components],
}


@pytest.mark.parametrize("name", list(_RUN_LINKS))
def test_run_search_gives_the_segment_level_matrix(name, monkeypatch):
    curves = _RUN_LINKS[name]()
    runs = linking_matrix(curves)
    monkeypatch.setattr(linking, "_overlapping_boxes", _segment_level_boxes)
    segments = linking_matrix(curves)
    assert runs is not None and np.array_equal(runs, segments)
    assert np.any(runs[np.triu_indices(len(curves), 1)] != 0)


def test_torus_helices_link_by_winding():
    # two helices of the same shell link once per mutual revolution; a p = 2
    # helix links the core circle twice... the core sees each strand p times
    core = sample_toroidal_helix(8.0, 0.0, n_points=300)
    strand1 = sample_toroidal_helix(8.0, 2.0, p=1, n_points=300)
    strand2 = sample_toroidal_helix(8.0, 2.0, p=2, n_points=600)
    assert abs(_lk(core, strand1)) == 1
    assert abs(_lk(core, strand2)) == 2


def test_open_curves_are_rejected():
    a, b = _hopf_pair(n=100)
    open_curve = PolyCurve(b.vertices, closed=False)
    with pytest.raises(ValueError):
        _lk(a, open_curve)


def test_intersecting_curves_have_no_linking_number():
    # a and its 90-degree rotation about the x axis share the vertex
    # (1, 0, 0) exactly
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=400)
    b = a.transformed(rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi),
                      (0.0, 0.0, 0.0))
    assert linking_matrix([a, b]) is None


def test_linking_matrix_structure():
    helices = [
        sample_toroidal_helix(6.0, 2.0, n_shell=4, shell_index=j, n_points=300)
        for j in range(4)
    ]
    lm = linking_matrix(helices)
    assert lm.shape == (4, 4)
    assert np.array_equal(lm, lm.T)
    assert np.all(np.diag(lm) == 0)
    off = lm[np.triu_indices(4, 1)]
    assert np.all(np.abs(off) == 1)


def _gauss_matrix(curves):
    q = len(curves)
    out = np.zeros((q, q), dtype=int)
    for i in range(q):
        for j in range(i + 1, q):
            out[i, j] = out[j, i] = _gauss_linking_number(curves[i], curves[j])
    return out


_P2_SPEC = TorusSpec([2.0], [3], has_core=True, major_radius=8.0, p=2)

_LINKS = {
    "inc4 T=1": lambda: realize_torus(build_increment_spec(1, 4), 120, False),
    "inc4 T=2": lambda: realize_torus(build_increment_spec(2, 4), 120, False),
    "inc5 T=1": lambda: realize_torus(build_increment_spec(1, 5), 120, False),
    "inc5 T=2": lambda: realize_torus(build_increment_spec(2, 5), 120, False),
    "optimal T=1": lambda: realize_torus(build_optimal_spec(1), 120, False),
    "optimal T=2": lambda: realize_torus(build_optimal_spec(2), 120, False),
    "doubled inc4 T=1": lambda: donut_double(
        build_increment_spec(1, 4), n_points=120, check=False),
    "mirrored doubled inc4 T=1": lambda: mirrored_double(
        build_increment_spec(1, 4), 120),
    "p=2 torus": lambda: realize_torus(_P2_SPEC, 200, False),
    "circles q=6": lambda: build_planar_link(6, "circles", n_points=150),
    "gibbous q=5": lambda: build_planar_link(5, "gibbous", n_points=150),
    "hybrid_square q=5": lambda: build_planar_link(
        5, "hybrid_square", n_points=150),
    "toroidal_pair": lambda: toroidal_pair(6.4, 6.44, 0.0, 2.2, n_points=150),
}


@pytest.mark.parametrize("name", list(_LINKS))
def test_crossing_count_equals_gauss_reference(name):
    curves = _LINKS[name]().components
    lm = linking_matrix(curves)
    assert lm.dtype.kind == "i"
    assert np.array_equal(lm, _gauss_matrix(curves))
    assert np.any(lm != 0)


def test_p2_torus_links_every_pair_twice():
    lm = linking_matrix(realize_torus(_P2_SPEC, 200, False).components)
    assert np.all(np.abs(lm[np.triu_indices(len(lm), 1)]) == 2)


def _exact_calls(monkeypatch):
    """A list that grows by one at each exact evaluation."""
    calls = []
    exact = linking._exact

    def counting(v):
        calls.append(1)
        return exact(v)

    monkeypatch.setattr(linking, "_exact", counting)
    return calls


def _assert_exact_linking(curves):
    lm = linking_matrix(curves)
    assert lm is not None and np.array_equal(lm, _gauss_matrix(curves))
    assert np.all(linking._crossing_counts(curves) % 2 == 0)
    return lm


@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_exact_degeneracies_link_as_the_gauss_reference(name, monkeypatch):
    calls = _exact_calls(monkeypatch)
    lm = _assert_exact_linking(_DEGENERATE[name]())
    assert calls
    assert abs(lm[0, 1]) == 1


def test_polygons_on_a_dyadic_grid_link_as_the_gauss_reference(monkeypatch):
    # hexagons on a grid of step 1/2: collinear and coplanar vertices and
    # exact projected contacts abound; the pairs that touch give None
    rng = np.random.default_rng(5)
    calls = _exact_calls(monkeypatch)
    linked = touching = 0
    for _ in range(80):
        curves = [rng.integers(0, 5, (6, 3)) * 0.5 for _ in range(2)]
        if any((c == np.roll(c, 1, axis=0)).all(axis=1).any()
               for c in curves):
            continue  # a repeated vertex
        curves = [PolyCurve(c) for c in curves]
        gap = min_distance_brute(*curves)
        if linking_matrix(curves) is None:
            assert gap < 1e-12
            touching += 1
        else:
            assert gap > 1e-3
            linked += _assert_exact_linking(curves)[0, 1] != 0
    assert linked >= 5 and touching >= 5 and calls


@pytest.mark.parametrize("scale", [1.0, 2.0**-515])
def test_the_filter_decides_no_sign_the_exact_value_contradicts(scale):
    # points within rounding of a projected segment (side tests) and of a
    # plane (crossing signs); at 2^-515 the products underflow, and only
    # the absolute term keeps the filter from deciding on their noise
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(3, 2000)) for _ in range(3))
    s, t = rng.random(2000), rng.normal(size=2000)
    over = a + s * (b - a) + t * linking._D
    plane = a + s * (b - a) + t * (c - a)
    for p, q, r, z in ((a, b, over, None), (a, b, c, plane)):
        p, q, r = (v * scale for v in (p, q, r))
        if z is None:
            args, exact = (q - p, r - p, linking._D), (
                linking._exact(q) - linking._exact(p),
                linking._exact(r) - linking._exact(p), linking._D)
        else:
            z = z * scale
            args = (q - z, r - z, p - z)
            ez = linking._exact(z)
            exact = tuple(linking._exact(v) - ez for v in (q, r, p))
        sign, unsure = linking._signs(*args)
        decided = np.ones(sign.size, dtype=bool)
        decided[unsure] = False
        truth = np.sign(linking._det(*exact)[0]).astype(float)
        assert np.array_equal(sign[decided], truth[decided])


def test_generic_pairs_need_no_exact_arithmetic(monkeypatch):
    def failing(_v):
        raise AssertionError("exact path used")

    monkeypatch.setattr(linking, "_exact", failing)
    a, b = _hopf_pair()
    assert abs(_lk(a, b)) == 1


def test_empty_and_single_curve_matrices():
    a, _ = _hopf_pair(n=50)
    assert linking_matrix([]).shape == (0, 0)
    assert np.array_equal(linking_matrix([a]), [[0]])


_TOUCHING = {
    "vertex inside a segment": [(1.0, 0.5, 0.0), (3.0, 0.0, -1.0),
                                (3.0, 0.0, 1.0)],
    "segments crossing inside both": [(1.0, 0.0, 1.0), (1.0, 0.0, -1.0),
                                      (3.0, 0.0, -1.0), (3.0, 0.0, 1.0)],
    "shared vertex": [(1.0, 1.0, 0.0), (3.0, 0.0, -1.0), (3.0, 0.0, 1.0)],
}


@pytest.mark.parametrize("name", list(_TOUCHING))
def test_curves_meeting_exactly_have_no_linking(name):
    curves = [_square(), PolyCurve(np.array(_TOUCHING[name]))]
    assert linking_matrix(curves) is None


def test_a_near_touch_still_links():
    # a triangle 1e-10 above the square's plane, across one of its edges:
    # no tolerance calls it touching
    h = 1e-10
    triangle = PolyCurve(np.array([[0.5, 0.0, h], [1.5, 0.5, h],
                                   [1.5, -0.5, h]]))
    lm = linking_matrix([_square(), triangle])
    assert np.array_equal(lm, np.zeros((2, 2), dtype=int))
    assert np.array_equal(lm, _gauss_matrix([_square(), triangle]))


def test_touching_curves_have_no_linking_even_where_the_gauss_sum_rounds():
    # at 100 points the two circles sharing the vertex (1, 0, 0) give a
    # Gauss sum within 0.1 of 0; the exact count sees them touch and refuses
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=100)
    b = a.transformed(rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi),
                      (0.0, 0.0, 0.0))
    assert _gauss_linking_number(a, b) == 0
    assert linking_matrix([a, b]) is None
