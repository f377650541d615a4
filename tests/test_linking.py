"""Linking numbers of polygonal loops: projected crossings against the
Gauss-sum reference."""

import math

import numpy as np
import pytest

from ropebound import linking
from ropebound.construct import (
    TorusSpec,
    build_increment_spec,
    build_optimal_spec,
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
from ropebound.linking import _gauss_linking_number, linking_matrix


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


def test_reversing_one_curve_flips_the_sign():
    a, b = _hopf_pair()
    assert _lk(a, PolyCurve(b.vertices[::-1])) == -_lk(a, b)


def test_symmetry_in_the_arguments():
    a, b = _hopf_pair(n=250)
    assert _lk(a, b) == _lk(b, a)


def test_rigid_motion_invariance():
    a, b = _hopf_pair(n=250)
    rot = rotation_about_axis((1.0, -2.0, 0.5), 1.234)
    shift = (3.0, -7.0, 2.0)
    assert _lk(a.transformed(rot, shift), b.transformed(rot, shift)) == _lk(a, b)


@pytest.mark.parametrize("x", [1e6, 1e9, 1e12])
def test_distance_from_the_origin_keeps_the_matrix(x):
    # the touching margin scales with the link's extent, not with its
    # largest coordinate: far out, crossings still count as crossings
    link = realize_torus(build_increment_spec(2, 4), n_points=200, check=False)
    moved = [c.transformed(None, (x, 0.0, 0.0)) for c in link.components]
    assert np.array_equal(linking_matrix(moved), linking_matrix(link.components))


def _projected_boxes(curves):
    """The projected segment boxes linking_matrix builds, and their labels."""
    labels = np.repeat(np.arange(len(curves)), [c.n_segments for c in curves])
    frame = linking._FRAME.T
    p0 = np.concatenate([c.segment_starts() for c in curves]) @ frame
    p1 = np.concatenate([c.segment_ends() for c in curves]) @ frame
    margin = linking._EPS * float(np.ptp(p0, axis=0).max())
    lo = np.minimum(p0[:, :2], p1[:, :2]) - margin
    return lo, np.maximum(p0[:, :2], p1[:, :2]) + margin, labels


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
    # the one KD-tree query over box centres, filtered, keeps exactly the
    # pairs of different components whose boxes overlap on both axes
    lo, hi, labels = _BOXES[name]()
    a, b = linking._overlapping_boxes(lo, hi, labels)
    overlap = labels[:, None] != labels[None, :]
    for k in range(2):
        overlap &= (lo[:, None, k] <= hi[None, :, k]) & (
            lo[None, :, k] <= hi[:, None, k])
    i, j = np.nonzero(np.triu(overlap, 1))
    assert i.size > 0
    assert sorted(zip(a.tolist(), b.tolist())) == list(
        zip(i.tolist(), j.tolist()))


def _segment_level_boxes(lo, hi, labels):
    """The segment-level box search that runs replaced: one query over the
    segment box centres at the largest segment box diagonal, filtered by
    label and overlap."""
    centres = 0.5 * (lo + hi)
    pad = 4.0 * np.spacing(np.abs(centres).max())
    a, b = linking._candidate_pairs(centres, np.hypot(*(hi - lo).T).max() + pad)
    keep = labels[a] != labels[b]
    for lo_k, hi_k in zip(lo.T, hi.T):
        keep &= (lo_k[a] <= hi_k[b]) & (lo_k[b] <= hi_k[a])
    return a[keep], b[keep]


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
    # a and its 90-degree rotation about the x axis share the two vertices
    # (+-1, 0, 0) exactly, so the solid-angle sum lands far from any integer
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
    "mirrored doubled inc4 T=1": lambda: donut_double(
        build_increment_spec(1, 4), mirror=True, n_points=120, check=False),
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


def _projected_onto_a_midpoint(a, b):
    """b moved, in the projection along the linking frame's direction, by
    the in-plane offset that puts its vertex nearest to a midpoint of a
    exactly on that midpoint."""
    frame = linking._FRAME
    mids = 0.5 * (a.segment_starts() + a.segment_ends())
    offsets = mids[:, None, :] - b.vertices[None, :, :]
    planar = offsets - np.einsum("ijk,k->ij", offsets, frame[2])[..., None] * frame[2]
    k, v = np.unravel_index(
        np.argmin(np.linalg.norm(planar, axis=2)), planar.shape[:2]
    )
    assert np.linalg.norm(planar[k, v]) < 0.1
    return b.transformed(None, planar[k, v])


def test_vertex_projecting_onto_a_segment_takes_the_gauss_fallback(monkeypatch):
    a, b = _hopf_pair(n=200)
    moved = _projected_onto_a_midpoint(a, b)
    calls = []
    gauss = linking._gauss_linking_number

    def counting(*args, **kwargs):
        calls.append(1)
        return gauss(*args, **kwargs)

    monkeypatch.setattr(linking, "_gauss_linking_number", counting)
    value = _lk(a, moved)
    assert calls == [1]
    assert value == gauss(a, moved) == gauss(a, b)
    assert abs(value) == 1


def test_generic_pairs_need_no_fallback(monkeypatch):
    def failing(*_args, **_kwargs):
        raise AssertionError("Gauss fallback used")

    monkeypatch.setattr(linking, "_gauss_linking_number", failing)
    a, b = _hopf_pair()
    assert abs(_lk(a, b)) == 1


def test_empty_and_single_curve_matrices():
    a, _ = _hopf_pair(n=50)
    assert linking_matrix([]).shape == (0, 0)
    assert np.array_equal(linking_matrix([a]), [[0]])


def test_degenerate_pair_without_an_integer_gauss_sum_has_no_linking(monkeypatch):
    a, b = _hopf_pair(n=200)
    moved = _projected_onto_a_midpoint(a, b)
    monkeypatch.setattr(linking, "_gauss_linking_number", lambda *_args: None)
    assert linking_matrix([a, moved]) is None
    assert abs(_lk(a, b)) == 1


def test_touching_curves_have_no_linking_even_where_the_gauss_sum_rounds():
    # at 100 points the two circles through (+-1, 0, 0) give a Gauss sum
    # within 0.1 of 0; the crossing count sees them touch and refuses
    a = sample_planar_curve("circle", {"radius": 1.0}, n_points=100)
    b = a.transformed(rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi),
                      (0.0, 0.0, 0.0))
    assert _gauss_linking_number(a, b) == 0
    assert linking_matrix([a, b]) is None
