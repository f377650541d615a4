"""Torus and planar link constructions: specs, realizations, doubling."""

import math

import numpy as np
import pytest

from ropebound import _groups, distances, measure
from ropebound.bounds import lower_bound_report
from ropebound.cli import _sig12, main
from ropebound.construct import (
    OverlapError,
    build_planar_link,
    donut_double,
    realize_torus,
    toroidal_pair,
)
from ropebound.curves import PolyCurve, rotation_about_axis
from ropebound.distances import mutual_min_distance
from ropebound.helices import toroidal_correction
from ropebound.io_formats import export_geometry, import_geometry
from ropebound.linking import linking_matrix
from ropebound.measure import LinkConfiguration, measure_link, verify
from ropebound.specs import (
    FAMILIES,
    TorusSpec,
    build_increment_spec,
    build_optimal_spec,
    construction_report,
    increment_tori,
    limiting_alpha,
)

from conftest import mirrored_double

RHO5 = 2.0 + 10.0 / math.sqrt(4.0 * math.pi ** 2 - 25.0)


def test_spec_counts_and_crossings():
    spec = TorusSpec([2.0], [4], has_core=True, major_radius=4.0)
    assert spec.q == 5
    assert spec.t_shells == 1
    with pytest.raises(AttributeError):
        spec.t_shells = 2  # derived from the arrays, never set
    assert spec.crossing_number() == 20
    assert spec.crossing_number(doubled=True) == 2 * 20 + 2 * 25
    assert spec.outer_radius == 2.0


def test_no_crossing_number_is_given_for_a_double_of_p_above_one():
    # the double of a p > 1 torus is refused wherever it is asked for
    spec = build_increment_spec(1, 4, p=2)
    assert spec.crossing_number() == 40
    with pytest.raises(ValueError, match="no crossing number is derived"):
        spec.crossing_number(doubled=True)


# (positional arguments, keywords, expected message): one row per rejection
_INVALID_SPECS = [
    (([2.0], [0], True, 5.0), {}, "counts must be >= 1"),
    (([1.5], [3], True, 5.0), {}, "radii must be >= 2"),
    (([2.0, 3.0], [3, 3], False, 9.0), {}, "increase by >= 2"),
    (([2.0], [3], True, 2.0), {}, "must exceed the outer shell"),
    (([], [], False, 5.0), {}, "core or at least one shell"),
    (([2.0], [3], True, 5.0), {"p": 0}, "need p >= 1"),
    (([2.0, 4.0], [3], True, 7.0), {}, "one length"),
    (([2.0], [3], True, 5.0), {"phases": [0.0, 0.1]}, "one length"),
]


def test_spec_validation():
    for args, kwargs, match in _INVALID_SPECS:
        with pytest.raises(ValueError, match=match):
            TorusSpec(*args, **kwargs)


def _shells(*rows):
    return [{"radius": r, "count": n, "phase_offset": ph} for r, n, ph in rows]


def test_spec_as_dict_is_pinned():
    assert build_increment_spec(2, 4).as_dict() == {
        "shells": _shells((2.0, 4, 0.0), (4.0, 8, 0.0)),
        "has_core": True,
        "major_radius": 7.302064644110731,
        "p": 1,
        "t_shells": 2,
    }
    assert build_optimal_spec(3).as_dict() == {
        "shells": _shells((2.0, 5, 0.0), (4.0, 10, 0.0), (6.0, 13, 0.0)),
        "has_core": False,
        "major_radius": 12.0,
        "p": 1,
        "t_shells": 3,
    }
    assert toroidal_pair(6.4, 6.4, 0.3, 2.0, n_points=50).metadata["spec"] == {
        "shells": _shells((2.0, 6, 0.3)),
        "has_core": True,
        "major_radius": 6.4,
        "p": 1,
        "t_shells": 1,
    }
    # every value is a plain Python scalar, as JSON writes it
    d = build_increment_spec(2, 4).as_dict()
    assert [type(v) for v in d["shells"][0].values()] == [float, int, float]
    assert type(d["major_radius"]) is float and type(d["t_shells"]) is int


def test_increment_spec_geometry():
    s1 = build_increment_spec(1, 4)
    assert s1.counts.tolist() == [4]
    assert s1.has_core and s1.q == 5
    assert s1.major_radius - s1.outer_radius == pytest.approx(
        4.0 / math.sqrt(math.pi ** 2 - 4.0), rel=1e-12)
    assert s1.major_radius == pytest.approx(3.6510323220553653, rel=1e-12)
    s2 = build_increment_spec(2, 4)
    assert s2.counts.tolist() == [4, 8]
    assert s2.major_radius == pytest.approx(7.302064644110731, rel=1e-12)
    # increment 5 forces the wider hole whose major radius is rho5 * T
    s5 = build_increment_spec(1, 5)
    assert s5.major_radius == pytest.approx(RHO5, rel=1e-12)
    assert s5.q == 6


def test_increment_spec_outer_count():
    # a nearly empty outer shell needs less room than the full inner shell,
    # whose requirement then sets the hole
    batch = increment_tori([2], 4, [1])
    assert batch.counts.tolist() == [4, 1]
    assert batch.majors[0] - batch.outer_radii[0] == pytest.approx(
        1.6510323220553653, rel=1e-12)
    with pytest.raises(ValueError):
        build_increment_spec(0, 4)
    with pytest.raises(ValueError):
        increment_tori([2], 4, [0])


def test_optimal_spec_counts():
    o1 = build_optimal_spec(1)
    assert o1.counts.tolist() == [4]
    assert not o1.has_core
    assert o1.major_radius == 4.0 and o1.outer_radius == 2.0
    assert build_optimal_spec(2).counts.tolist() == [5, 8]
    assert build_optimal_spec(3).counts.tolist() == [5, 10, 13]
    # the safety-decrement estimate is never above the exact count
    assert build_optimal_spec(3, "approx").counts.tolist() == [4, 9, 12]


def test_optimal_spec_fifty_shell_total():
    assert build_optimal_spec(50).q == 6592


def test_analytic_length_matches_direct_formula():
    spec = build_increment_spec(1, 4)
    r0 = spec.major_radius
    plain = 2 * math.pi * r0 + 4 * 2 * math.pi * math.hypot(r0, 2.0)
    corrected = 2 * math.pi * r0 + 4 * 2 * math.pi * math.hypot(r0, 2.0) * \
        toroidal_correction(r0 / 2.0, 1)
    length = construction_report(spec).predicted_length
    assert length == pytest.approx(corrected, rel=1e-12)
    assert length > plain


def test_construction_report_single_and_doubled():
    spec = build_increment_spec(1, 4)
    single = construction_report(spec)
    assert single.crossing_number == 20
    assert single.alpha_predicted == pytest.approx(13.655579216585407, rel=1e-12)
    doubled = construction_report(spec, doubled=True)
    assert doubled.crossing_number == 90
    assert doubled.inflation == pytest.approx(1.643370825219721, rel=1e-12)
    assert doubled.alpha_predicted == pytest.approx(13.489186019606151, rel=1e-12)
    assert doubled.spec.major_radius == pytest.approx(6.0, rel=1e-12)
    d = doubled.as_dict()
    assert d["spec"]["major_radius"] == pytest.approx(6.0)


def test_realized_increment_build_keeps_clearance():
    link = realize_torus(build_increment_spec(1, 4), n_points=1000)
    assert link.n_components == 5
    assert link.crossing_number == 20
    d = mutual_min_distance(link.components)
    assert d == pytest.approx(1.9999802609535444, rel=1e-10)
    assert d >= 2.0 - 0.01


def test_realized_components_all_pairwise_linked():
    link = realize_torus(build_increment_spec(1, 4), n_points=400)
    lm = linking_matrix(link.components)
    off = lm[np.triu_indices(5, 1)]
    assert np.all(off == off[0])
    assert abs(off[0]) == 1


@pytest.mark.parametrize("doubled", [False, True], ids=["single", "doubled"])
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("method", ["inc4", "optimal"])
def test_torus_links_of_p_windings_verify(method, p, t, doubled):
    # shells packed for helices of p windings (inc4: a hole p times the
    # rectangle rule's; optimal: max_helices(2i, 2T/p)), staggered by
    # 2 pi j / (n p): the link verifies, with |lk| = p for every pair, and
    # its predicted length is the realized one within the sampling error.
    # Its double would link p times within a copy and once across, which
    # no torus link does, and no crossing number is derived for it: the
    # same spec is refused, and `build --double` exits 2
    spec = (build_optimal_spec(t, p=p) if method == "optimal"
            else build_increment_spec(t, 4, p=p))
    assert spec.p == p
    if doubled:
        with pytest.raises(ValueError, match="no crossing number is derived"):
            donut_double(spec, n_points=50, check=False)
        with pytest.raises(ValueError, match="no crossing number is derived"):
            construction_report(spec, doubled=True)
        assert main(["build", method, "--t", str(t), "--p", str(p),
                     "--double", "--points", "50"]) == 2
        return
    link = realize_torus(spec, n_points=400, check=False)
    metrics = measure_link(link)
    lk = linking_matrix(link.components)
    assert verify(link, metrics, lk)["passed"]
    q = spec.q
    assert np.all(np.abs(lk[np.triu_indices(q, 1)]) == p)
    report = construction_report(spec)
    assert report.predicted_length == pytest.approx(metrics.total_length,
                                                    rel=2e-4)
    if q >= 2:
        # the report is "conditional" for p > 1, since its Wegner term
        # counts the strands through a component's disk heuristically
        bound = lower_bound_report(p, q)
        assert bound.rigor_flag == "conditional"
        assert metrics.normalized_length >= bound.best_bound


def test_increment_tori_refuse_an_overfilled_shell_for_p_above_one():
    with pytest.raises(ValueError, match="p > 1"):
        build_increment_spec(1, 5, p=2)
    assert build_increment_spec(1, 5).p == 1


def test_realize_rejects_overcrowded_spec():
    bad = TorusSpec([2.0], [6], has_core=True, major_radius=3.0)
    with pytest.raises(OverlapError, match="min_distance_ok"):
        realize_torus(bad, n_points=300)
    # the same spec skips the check when asked
    link = realize_torus(bad, n_points=300, check=False)
    assert link.n_components == 7


def test_realize_rejects_wrong_linking(monkeypatch):
    monkeypatch.setattr(measure, "linking_matrix",
                        lambda curves: np.zeros((len(curves),) * 2, dtype=int))
    with pytest.raises(OverlapError, match="linking_ok"):
        realize_torus(build_increment_spec(1, 4), n_points=200)
    with pytest.raises(OverlapError, match="linking_ok"):
        donut_double(build_increment_spec(1, 4), n_points=200)
    # planar links carry no linking pattern
    planar = build_planar_link(3, "circles", n_points=200)
    assert verify(planar, measure_link(planar), absolute=False) == {
        "embeddable": True, "passed": True}


def test_verify_requires_one_chirality():
    # every triangle sign product s_ij s_0i s_0j is one value in a torus
    # link: flipping the sign of one pair of doubled inc4 T=1 keeps |lk|
    # right and breaks it, and so does reflecting the second copy
    spec = build_increment_spec(1, 4)
    link = donut_double(spec, n_points=200, check=False)
    metrics = measure_link(link)
    lk = linking_matrix(link.components)
    assert verify(link, metrics, lk)["linking_ok"] is True
    flipped = lk.copy()
    flipped[3, 7] = flipped[7, 3] = -lk[3, 7]
    checks = verify(link, metrics, flipped)
    assert checks["linking_ok"] is False and checks["passed"] is False
    mirrored = mirrored_double(spec, 200)
    lk = linking_matrix(mirrored.components)
    assert np.array_equal(np.abs(lk), measure._expected_linking(mirrored))
    checks = verify(mirrored, measure_link(mirrored), lk)
    assert checks["linking_ok"] is False and checks["min_distance_ok"] is True


_BUILT_TORI = {
    "inc4 T=2": lambda: realize_torus(build_increment_spec(2, 4), 120, False),
    "inc5 T=1": lambda: realize_torus(build_increment_spec(1, 5), 120, False),
    "optimal T=2": lambda: realize_torus(build_optimal_spec(2), 120, False),
    "inc4 T=2 p=2": lambda: realize_torus(build_increment_spec(2, 4, p=2),
                                          120, False),
    "inc4 T=1 p=3": lambda: realize_torus(build_increment_spec(1, 4, p=3),
                                          120, False),
    "optimal T=2 p=2": lambda: realize_torus(build_optimal_spec(2, p=2),
                                             120, False),
    "doubled inc4 T=2": lambda: donut_double(build_increment_spec(2, 4), 120,
                                             False),
    "doubled inc5 T=1": lambda: donut_double(build_increment_spec(1, 5), 120,
                                             False),
    "doubled optimal T=2": lambda: donut_double(build_optimal_spec(2), 120,
                                                False),
    "toroidal_pair": lambda: toroidal_pair(*FAMILIES["toroidal_pair"].start,
                                           n_points=120),
}


@pytest.mark.parametrize("name", list(_BUILT_TORI))
def test_every_built_torus_has_one_chirality(name):
    # the links the package builds pass the sign invariant with their
    # signed linking matrix
    link = _BUILT_TORI[name]()
    lk = linking_matrix(link.components)
    assert verify(link, measure_link(link), lk)["linking_ok"] is True


def test_realized_orbits_map_each_shell_to_its_first_helix():
    # the classes come from the coordinates: a shell's helices are rotations
    # of its first one, and a doubled link's copy-2 components are
    # isometric images of their copy-1 twins
    spec = build_increment_spec(2, 4)  # core, 4 helices, 8 helices
    single = realize_torus(spec, n_points=60, check=False)
    classes = (0,) + (1,) * 4 + (5,) * 8
    assert tuple(measure._symmetry(single.components).classes) == classes
    # the mirrored double's copy-2 components are improper images
    for doubled in (donut_double(spec, n_points=60, check=False),
                    mirrored_double(spec, 60)):
        assert tuple(measure._symmetry(doubled.components).classes) == classes * 2
    optimal = build_optimal_spec(2)  # no core
    n1, n2 = optimal.counts.tolist()
    link = realize_torus(optimal, n_points=60, check=False)
    assert tuple(measure._symmetry(link.components).classes) == (
        (0,) * n1 + (n1,) * n2)
    # rigid motions and scaling keep the classes
    for rotation, shift in ((2.0 * np.eye(3), None), (np.eye(3), (1.0, 0.0, 0.0))):
        moved = [c.transformed(rotation, shift) for c in single.components]
        assert tuple(measure._symmetry(moved).classes) == classes
    # a planar ring's loops are rotations of loop 0; the square stands alone
    planar = build_planar_link(4, "gibbous", n_points=60)
    assert tuple(measure._symmetry(planar.components).classes) == (0,) * 4
    hybrid = build_planar_link(5, "hybrid_square", n_points=60)
    assert tuple(measure._symmetry(hybrid.components).classes) == (0,) * 4 + (4,)


def _representatives(link):
    """Per component, the indices of its segments that represent their
    orbits under the detected group (all of them without one)."""
    orbit_min = measure._symmetry(link.components).orbit_min
    if orbit_min is None:
        return [list(range(c.n_segments)) for c in link.components]
    own = orbit_min == np.arange(orbit_min.size)
    ends = np.cumsum([c.n_segments for c in link.components])
    return [np.flatnonzero(own[end - c.n_segments:end]).tolist()
            for c, end in zip(link.components, ends)]


def test_rotation_groups_of_the_built_links():
    # a ring of q loops: D_q, whose half-turns map loop 0 onto itself
    # reversed, so the first half of loop 0 represents every loop
    assert _representatives(build_planar_link(20, "gibbous", n_points=200)) == (
        [list(range(100))] + [[]] * 19)
    # hybrid_square q=5: C4 and no half-turn; C4 maps the square to itself
    # shifted by 50 vertices, so its first 50 segments represent the rest
    assert _representatives(build_planar_link(5, "hybrid_square",
                                              n_points=200)) == (
        [list(range(200))] + [[]] * 3 + [list(range(50))])
    # inc4 T=3: D4 (counts 4, 8, 12); all eight elements map the core to
    # itself, and two map some helices to themselves
    inc4 = _representatives(_torus_link("inc4", 3, "single", n_points=400))
    assert inc4[0] == list(range(50))
    assert [len(r) for r in inc4[1:]] == (
        [200] + [0] * 3 + [200] * 2 + [0] * 6 + [200, 400] + [0] * 10)
    # optimal T=2 (counts 5 and 8) and the mirrored double keep a half-turn
    # about the x axis alone; the double also swaps its copies
    for link, order in ((_torus_link("optimal", 2, "single"), 2),
                        (_torus_link("inc4", 1, "double"), 4),
                        (_torus_link("inc5", 1, "mirror"), 2)):
        assert len(measure._symmetry(link.components).group) == order


@pytest.mark.parametrize("p", [2, 3])
def test_tori_of_p_windings_keep_the_rotation_group_of_p_one(p):
    # with the 2 pi j/(n p) stagger the generator maps a shell's last
    # helices onto its first ones, n/p vertices along them: the image of a
    # peak is found among the tops of the components of its shape, so
    # inc4 T=2 keeps D4 and an eighth of its segments represent their
    # orbits, as at p = 1 (408 points: the core maps onto itself 102
    # vertices along, and 408/p is whole)
    links = {k: realize_torus(build_increment_spec(2, 4, p=k), n_points=408,
                              check=False) for k in (1, p)}
    reps = {k: _representatives(link) for k, link in links.items()}
    assert sum(map(len, reps[p])) == sum(map(len, reps[1])) == 13 * 408 // 8
    # the minima over those representatives are within the margin (2 eps)
    # of the search over every component
    metrics = measure_link(links[p])
    assert metrics.margin > 0.0
    inter, self_, overall, rho = _brute_force(links[p])
    measured = (metrics.min_inter_distance, metrics.min_self_distance,
                metrics.min_overall_distance)
    for value, reference in zip(measured, (inter, self_, overall)):
        assert abs(value - reference) <= metrics.margin
    assert metrics.min_curvature_radius == rho


def _vertex_maps(link, group):
    """Each element's index map of `group` (measure._symmetry) as a
    permutation of the link's vertices, all components in order."""
    comps = link.components
    count = np.array([c.n_vertices for c in comps])
    start = np.cumsum(count) - count
    return [np.concatenate([start[to] + (s * np.arange(n) + c) % n
                            for to, s, c, n in zip(*element, count)])
            for element in group]


def _segment_maps(link, group):
    """Each element's index map of `group` as a permutation of the link's
    segments: segment t of a component, from vertex t to t + 1, goes to the
    segment between the images of those vertices."""
    comps = link.components
    count = np.array([c.n_segments for c in comps])
    start = np.cumsum(count) - count
    return [np.concatenate([start[to] + np.where(s > 0, np.arange(n) + c,
                                                 c - 1 - np.arange(n)) % n
                            for to, s, c, n in zip(*element, count)])
            for element in group]


def _group_link(method, size, variant):
    if variant == "planar":
        return build_planar_link(size, method, n_points=200)
    if variant.startswith("p="):
        return realize_torus(build_increment_spec(size, 4, p=int(variant[2:])),
                             n_points=408, check=False)
    return _torus_link(method, size, variant)


# (method, T of a torus or q of a planar family, variant, group order)
_GROUP_ORDERS = [
    ("inc4", 1, "single", 8), ("inc4", 2, "single", 8), ("inc4", 3, "single", 8),
    ("inc4", 1, "double", 4), ("inc4", 2, "double", 4), ("inc4", 1, "mirror", 2),
    ("inc4", 2, "p=2", 8), ("inc4", 2, "p=3", 8),
    ("inc5", 1, "single", 10), ("inc5", 1, "double", 2), ("inc5", 1, "mirror", 2),
    ("optimal", 1, "single", 8), ("optimal", 1, "double", 4),
    ("optimal", 1, "mirror", 2), ("optimal", 2, "single", 2),
    ("optimal", 2, "double", 2), ("optimal", 2, "mirror", 2),
    ("gibbous", 3, "planar", 6), ("gibbous", 20, "planar", 40),
    ("circles", 8, "planar", 16), ("hybrid_square", 5, "planar", 4),
]


@pytest.mark.parametrize("method, size, variant, order", _GROUP_ORDERS)
def test_every_element_of_the_group_maps_every_vertex_within_eps(
        method, size, variant, order):
    # the group found is D4 for single inc4 and optimal T=1 tori, D5 for
    # inc5, the x half-turn and the copy swap for a double of a D4 torus,
    # the x half-turn alone for mirrored doubles, doubled inc5 and optimal
    # T=2, D_q for a ring of q loops and C4 for hybrid_square; its index
    # maps are closed under composition, and the best rigid motion of each
    # onto its image (Kabsch) is a proper rotation that moves every vertex
    # within eps
    link = _group_link(method, size, variant)
    group = measure._symmetry(link.components).group
    assert len(group) == order
    maps = _vertex_maps(link, group)
    keys = {m.tobytes() for m in maps}
    assert len(keys) == order
    assert all(a.take(b).tobytes() in keys for a in maps for b in maps)
    points = np.concatenate([c.vertices for c in link.components])
    eps = measure._SYMMETRY_EPS * np.ptp(points, axis=0).max()
    centre = points.mean(axis=0)
    for image in maps:
        target = points[image]
        u, _, vt = np.linalg.svd((points - centre).T @ (target - centre))
        turn = vt.T @ u.T
        assert np.linalg.det(turn) > 0.0
        miss = (points - centre) @ turn.T + centre - target
        assert np.sqrt(np.einsum("ij,ij->i", miss, miss)).max() <= eps


@pytest.mark.parametrize("method, size, variant, n_points", [
    ("inc4", 3, "p=3", 402), ("inc4", 3, "single", 400),
    ("hybrid_square", 5, "planar", 200), ("inc5", 1, "double", 400),
    ("optimal", 2, "single", 400),
])
def test_a_failing_candidate_is_rejected_on_the_peaks(monkeypatch, method, size,
                                                      variant, n_points):
    # every candidate rotation is first tested on each component's peak,
    # which finds its image among few vertices; only a candidate whose
    # peaks all land is tested on every vertex, and on these links every
    # such test passes: no full scan is spent on a failing candidate (inc4
    # T=3 p=3 @402 tries C4 first, which its core's 100.5-vertex quarter
    # turn cannot be)
    if variant.startswith("p="):
        link = realize_torus(build_increment_spec(size, 4, p=int(variant[2:])),
                             n_points=n_points, check=False)
    elif variant == "planar":
        link = build_planar_link(size, method, n_points=n_points)
    else:
        link = _torus_link(method, size, variant, n_points=n_points)
    fits, peaks = _groups._Frame.fits, _groups._Frame.peak_images
    tried, scanned = [], []

    def peak_images(self, turn, tol):
        maps = peaks(self, turn, tol)
        tried.append(maps is not None)
        return maps

    def full(self, turn, maps, tol):
        scanned.append(fits(self, turn, maps, tol))
        return scanned[-1]

    monkeypatch.setattr(_groups._Frame, "peak_images", peak_images)
    monkeypatch.setattr(_groups._Frame, "fits", full)
    measure._symmetry(link.components)
    assert scanned and all(scanned) and len(scanned) == sum(tried)


def test_a_turned_and_shifted_torus_keeps_its_group():
    # inc4 T=2 turned about an axis along no coordinate axis, then shifted:
    # the tensor's axes follow it, so the same D4 is found, and the minima
    # stay within the margin of the unmoved link's
    link = _torus_link("inc4", 2, "single")
    turn = rotation_about_axis((0.3, -0.5, 0.8), 1.1)
    moved = LinkConfiguration([c.transformed(turn, (3.0, -2.0, 5.0))
                               for c in link.components])
    assert len(measure._symmetry(moved.components).group) == len(
        measure._symmetry(link.components).group) == 8
    still, metrics = measure_link(link), measure_link(moved)
    assert metrics.margin > 0.0
    for key in ("min_inter_distance", "min_self_distance",
                "min_overall_distance"):
        assert abs(getattr(metrics, key) - getattr(still, key)) <= metrics.margin


@pytest.mark.parametrize("variant", ["single", "double", "mirror"])
def test_the_kept_segment_pairs_meet_every_orbit(variant):
    # inc4 T=1 at 24 points: every segment's orbit minimum is the least of
    # its images, and some image of every segment pair is one that the
    # orbit rule keeps; at most two per orbit are kept, where an element
    # maps a segment onto itself
    link = _torus_link("inc4", 1, variant, n_points=24)
    sym = measure._symmetry(link.components)
    maps = _segment_maps(link, sym.group)
    low = sym.orbit_min
    assert np.array_equal(low, np.min(maps, axis=0))
    ia, ib = np.triu_indices(low.size, 1)
    met = np.zeros(ia.size, dtype=bool)
    orbit = np.full(ia.size, low.size * low.size)
    for perm in maps:
        a, b = perm[ia], perm[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        met |= (low[lo] == lo) & (low[hi] >= lo)
        np.minimum(orbit, lo * low.size + hi, out=orbit)
    assert met.all()
    kept = int(((low[ia] == ia) & (low[ib] >= ia)).sum())
    orbits = np.unique(orbit).size
    assert orbits <= kept <= 2 * orbits


def _torus_link(method, t, variant, n_points=120):
    spec = build_optimal_spec(t) if method == "optimal" else (
        build_increment_spec(t, int(method[3:])))
    if variant == "single":
        return realize_torus(spec, n_points=n_points, check=False)
    if variant == "mirror":
        return mirrored_double(spec, n_points)
    return donut_double(spec, n_points=n_points, check=False)


def _brute_force(link):
    """(inter, self, overall, rho): the distance minima over every component
    and every segment pair, each component's self pairs under its own
    bending window, and the smallest curvature radius of any component."""
    comps = link.components
    radii = [measure.min_curvature_radius(c) for c in comps]
    windows = np.pi * np.asarray(radii)
    inter = mutual_min_distance(comps)
    self_ = min(
        measure._certified_min([c], inter=False, intra=True,
                               arc_windows=windows[i:i + 1])
        for i, c in enumerate(comps))
    overall = measure._certified_min(comps, inter=True, intra=True,
                                     arc_windows=windows)
    return inter, self_, overall, min(radii)


# (method, T of a torus or q of a planar family, variant)
_ORBIT_LINKS = [
    (method, t, variant)
    for method in ("inc4", "inc5", "optimal")
    for t in (1, 2)
    for variant in ("single", "double", "mirror")
] + [("circles", 8, "planar"), ("gibbous", 20, "planar"),
     ("hybrid_square", 5, "planar")]


@pytest.mark.parametrize("method, size, variant", _ORBIT_LINKS)
def test_orbit_measurement_matches_the_full_path(method, size, variant):
    # every link here has a symmetry, so its distance minima are measured
    # on orbit representatives: within 2 eps (the margin; eps scales with
    # the link's extent) of the brute force over every component, and equal
    # to it at the 12 digits a report prints
    if variant == "planar":
        link = build_planar_link(size, method, n_points=200)
    else:
        link = _torus_link(method, size, variant)
    metrics = measure_link(link)
    points = np.concatenate([c.vertices for c in link.components])
    extent = np.ptp(points, axis=0).max()
    assert metrics.margin == 2.0 * measure._SYMMETRY_EPS * extent
    inter, self_, overall, rho = _brute_force(link)
    measured = (metrics.min_inter_distance, metrics.min_self_distance,
                metrics.min_overall_distance)
    for value, reference in zip(measured, (inter, self_, overall)):
        if reference == np.inf:
            assert value == np.inf
        else:
            assert abs(value - reference) <= metrics.margin
            assert _sig12(value) == _sig12(reference)
    # the curvature radius is every component's, exactly; the thickness and
    # normalized length it bounds follow the clearance within the margin
    assert metrics.min_curvature_radius == rho
    thickness = min(overall / 2.0, rho)
    assert abs(metrics.thickness - thickness) <= metrics.margin / 2.0
    normalized = metrics.total_length / thickness
    assert abs(metrics.normalized_length - normalized) <= (
        normalized * metrics.margin / thickness)
    assert _sig12(metrics.normalized_length) == _sig12(normalized)


def test_measure_link_searches_self_distance_once_per_orbit(searches):
    link = _torus_link("inc4", 2, "double", n_points=80)  # 26 components
    classes = set(measure._symmetry(link.components).classes.tolist())
    measure_link(link)
    # one search, whose self pairs are those of the first members of the
    # classes of shell 1 and shell 2 only (the cores have no self pair)
    (count, searched, held), = searches
    assert count == 26 and searched == classes - {0} == {1, 5}
    assert held and held <= searched


def _inc4_file(tmp_path, edit=None):
    """inc4 T=2 at 120 points read back from a VECT file, after
    `edit(vertices)` changed its vertices (components concatenated)."""
    link = _torus_link("inc4", 2, "single")
    vertices = np.concatenate([c.vertices for c in link.components])
    if edit is not None:
        edit(vertices)
    ends = np.cumsum([c.n_vertices for c in link.components])
    edited = LinkConfiguration(
        [PolyCurve(v) for v in np.split(vertices, ends[:-1])])
    return import_geometry(export_geometry(edited, path=str(tmp_path / "t.vect")))


def test_a_moved_vertex_breaks_the_symmetry_it_touches(tmp_path, monkeypatch,
                                                      searches):
    # helix 2 of shell 1 (component 3) has one vertex moved by 1e-6: it is
    # congruent to nothing, so it gets its own class and its own self
    # search, and no rotation maps the link onto itself, so every inter
    # pair is searched; the other helices keep their classes
    def move(vertices):
        vertices[3 * 120 + 17, 0] += 1e-6

    link = _inc4_file(tmp_path, move)
    sym = measure._symmetry(link.components)
    assert sym.classes.tolist() == [0, 1, 1, 3, 1] + [5] * 8
    assert sym.group is None and sym.orbit_min is None
    searches.clear()
    metrics = measure_link(link)
    # one search, whose self pairs are those of the first members of shell
    # 1, the moved helix and shell 2 (the core has no self pair)
    (count, searched, held), = searches
    assert count == 13 and searched == {1, 3, 5}
    assert held and held <= searched
    monkeypatch.undo()
    # the inter pass, and so the clearance it sets, is the brute force bit
    # for bit, as is the curvature radius; the self minimum comes from the
    # class representatives
    inter, self_, overall, rho = _brute_force(link)
    assert metrics.min_inter_distance == inter
    assert metrics.min_curvature_radius == rho
    assert metrics.min_overall_distance == overall == inter
    assert abs(metrics.min_self_distance - self_) <= metrics.margin


def test_shuffled_components_measure_the_same(tmp_path):
    link = _inc4_file(tmp_path)
    order = np.random.default_rng(7).permutation(link.n_components)
    shuffled = LinkConfiguration([link.components[i] for i in order])
    # the same classes and group, with other representatives: the minima
    # agree within the margin, and at the 12 digits a report prints
    sym = measure._symmetry(shuffled.components)
    assert len(set(sym.classes.tolist())) == 3 and sym.group is not None
    a, b = measure_link(link), measure_link(shuffled)
    assert a.margin == b.margin > 0
    for key, value in a.as_dict().items():
        other = getattr(b, key)
        if isinstance(value, float) and np.isfinite(value):
            assert abs(value - other) <= a.margin, key
        assert _sig12(value) == _sig12(other), key


def test_inflate_for_doubling():
    spec = build_increment_spec(1, 4)  # major radius 3.65 < 2*2 + 2
    report = construction_report(spec, doubled=True)
    assert report.spec.major_radius == pytest.approx(6.0)
    assert report.inflation == pytest.approx(1.643370825219721, rel=1e-12)
    roomy = TorusSpec([2.0], [4], has_core=True, major_radius=9.0)
    report = construction_report(roomy, doubled=True)
    assert report.inflation == 1.0 and report.spec is roomy


def test_toroidal_pair_threads_like_donut_double():
    # at separation = major radius, the free pair is the donut double of a
    # spec roomy enough (6.4 >= 2 * 2 + 2) to need no inflation
    spec = TorusSpec([2.0], [6], has_core=True, major_radius=6.4)
    doubled = donut_double(spec, n_points=200, check=False)
    assert doubled.metadata["inflation"] == 1.0
    pair = toroidal_pair(6.4, 6.4, 0.0, 2.0, n_points=200)
    assert pair.n_components == doubled.n_components == 14
    for a, b in zip(pair.components, doubled.components):
        assert np.array_equal(a.vertices, b.vertices)


def test_donut_double_threads_every_component():
    link = donut_double(build_increment_spec(1, 4), n_points=400)
    assert link.n_components == 10
    assert link.crossing_number == 90
    m = measure_link(link)
    assert m.min_overall_distance == pytest.approx(1.9998766362863114, rel=1e-9)
    lm = linking_matrix(link.components)
    off = lm[np.triu_indices(10, 1)]
    assert np.all(np.abs(off) == 1)


def test_donut_double_mirror_metrics_match():
    # the mirrored copy realizes the opposite chirality; the governing minima
    # live on mirror-symmetric substructures so the metrics agree exactly
    spec = build_increment_spec(1, 4)
    plain = measure_link(donut_double(spec, n_points=400))
    mirrored = measure_link(mirrored_double(spec, 400))
    assert mirrored.total_length == pytest.approx(plain.total_length, rel=1e-12)
    assert mirrored.min_overall_distance == pytest.approx(
        plain.min_overall_distance, rel=1e-12
    )
    assert mirrored.normalized_length == pytest.approx(
        plain.normalized_length, rel=1e-12
    )


def test_planar_circles_give_the_tight_hopf_link():
    link = build_planar_link(2, "circles", {"rho": 0.5, "psi": 0.25 * math.pi})
    assert link.crossing_number == 2
    m = measure_link(link)
    assert m.normalized_length == pytest.approx(25.132947937249956, rel=1e-12)
    assert m.normalized_length == pytest.approx(8 * math.pi, rel=5e-3)


def test_planar_circles_default_family_links_completely():
    link = build_planar_link(5, "circles", n_points=300)
    assert link.n_components == 5
    assert link.crossing_number == 20
    lm = linking_matrix(link.components)
    off = lm[np.triu_indices(5, 1)]
    assert np.all(np.abs(off) == 1)


def test_hybrid_square_component_structure():
    link = build_planar_link(5, "hybrid_square", n_points=400)
    assert link.n_components == 5
    # the final component is the central square, tilted into the xy plane
    square = link.components[-1]
    assert np.allclose(square.vertices[:, 2], 0.0, atol=1e-9)
    ring = link.components[:-1]
    lm = linking_matrix([*ring, square])
    # every ring loop threads the square
    assert np.all(np.abs(lm[-1, :-1]) == 1)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_table_rows(family):
    row = FAMILIES[family]
    assert len(row.names) == len(row.start) == len(row.bounds)
    for start, (lo, hi) in zip(row.start, row.bounds):
        assert lo <= start <= hi


def test_gibbous_defaults_are_not_the_circles_link():
    # the default ovals verify as an embedding
    gibbous = build_planar_link(4, "gibbous", n_points=200)
    assert verify(gibbous, measure_link(gibbous), absolute=False)["passed"]
    circles = build_planar_link(4, "circles", n_points=200)
    for a, b in zip(gibbous.components, circles.components):
        assert not np.allclose(a.vertices, b.vertices)


def test_planar_link_validation():
    with pytest.raises(ValueError):
        build_planar_link(1, "circles")
    with pytest.raises(ValueError):
        build_planar_link(3, "bogus")
    with pytest.raises(ValueError):
        build_planar_link(3, "circles", {"bogus": 1.0})
    with pytest.raises(ValueError):  # planar links are scale-free
        build_planar_link(3, "circles", {"radius": 2.0})
    with pytest.raises(ValueError):  # a family, but not a planar one
        build_planar_link(14, "toroidal_pair")
    # coincident loops cannot be thickened
    coincident = build_planar_link(3, "circles", {"rho": 0.0, "psi": 0.0},
                                   n_points=200)
    assert not verify(coincident, measure_link(coincident), absolute=False)["passed"]


def test_limiting_alpha_closed_forms():
    cases = {
        "inc4_single": 17.383105899782773,
        "inc4_doubled": 13.321776568647051,
        "inc5_single": 19.224872468847188,
        "inc5_doubled": 13.59403769016841,
        "optimal_doubled": 11.640947224594354,
    }
    for method, value in cases.items():
        assert limiting_alpha(method) == pytest.approx(value, rel=1e-12), method
    with pytest.raises(ValueError):
        limiting_alpha("bogus")


def test_limiting_alpha_corrected_values():
    corrected = {
        "inc4_single": 17.483348079637445,
        "inc4_doubled": 13.377606297807715,
        "inc5_single": 19.272479888105156,
        "inc5_doubled": 13.651008428157526,
        "optimal_doubled": 11.685956794267325,
    }
    for method, value in corrected.items():
        assert limiting_alpha(method, corrected=True) == pytest.approx(
            value, rel=1e-9
        ), method
        assert limiting_alpha(method, corrected=True) > limiting_alpha(method)


def test_doubled_alpha_approaches_its_limit_from_above():
    alphas = [
        construction_report(build_increment_spec(t, 4), doubled=True).alpha_predicted
        for t in (2, 10, 40)
    ]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] > limiting_alpha("inc4_doubled", corrected=True)
