"""Thickness, normalized ropelength, and invariances."""

import math

import numpy as np
import pytest

from ropebound.curves import PolyCurve, rotation_about_axis, sample_planar_curve
from ropebound.distances import _SegmentSoup, _segment_rows
from ropebound.measure import (
    LinkConfiguration,
    LinkMetrics,
    _curvature,
    _expected_linking,
    _symmetry,
    _total_length,
    measure_link,
    verify,
)

EIGHT_PI = 8.0 * math.pi


def _tight_hopf(n=1000):
    """Two radius-2 circles in perpendicular planes, each through the
    other's center: the minimal Hopf-link configuration."""
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=n)
    b = sample_planar_curve(
        "circle", {"radius": 2.0},
        placement={"inclination": 0.5 * math.pi}, n_points=n,
    ).transformed(None, (2.0, 0.0, 0.0))
    return LinkConfiguration([a, b], crossing_number=2, description="hopf")


def test_tight_hopf_normalized_length_is_eight_pi():
    m = measure_link(_tight_hopf())
    assert m.normalized_length == pytest.approx(25.132947937249956, rel=1e-12)
    assert m.normalized_length == pytest.approx(EIGHT_PI, rel=5e-3)
    assert m.min_inter_distance == pytest.approx(2.0, abs=1e-4)
    assert m.min_curvature_radius == pytest.approx(2.0, abs=1e-6)
    assert m.thickness == pytest.approx(1.0, abs=1e-4)


def test_metrics_fields_are_consistent():
    m = measure_link(_tight_hopf(n=400))
    assert m.min_overall_distance == min(m.min_inter_distance, m.min_self_distance)
    assert m.thickness == pytest.approx(
        min(m.min_overall_distance / 2.0, m.min_curvature_radius)
    )
    assert m.normalized_length == pytest.approx(m.total_length / m.thickness)
    assert m.length_per_crossing == pytest.approx(m.normalized_length / 2.0)
    assert m.alpha == pytest.approx(m.normalized_length / 2.0 ** 0.75)


def test_scale_invariance_of_normalized_length():
    base = _tight_hopf(n=600)
    m0 = measure_link(base)
    m3 = measure_link(LinkConfiguration(
        [PolyCurve(3.0 * c.vertices) for c in base.components]))
    assert m3.normalized_length == pytest.approx(m0.normalized_length, rel=1e-9)
    assert m3.total_length == pytest.approx(3.0 * m0.total_length, rel=1e-12)


def test_rigid_motion_invariance_of_normalized_length():
    base = _tight_hopf(n=600)
    rot = rotation_about_axis((2.0, 1.0, -1.0), 0.9)
    moved = LinkConfiguration(
        [c.transformed(rot, (5.0, -4.0, 3.0)) for c in base.components])
    assert measure_link(moved).normalized_length == pytest.approx(
        measure_link(base).normalized_length, rel=1e-9
    )


def test_single_circle_normalized_by_curvature():
    # one loop has no admissible self pairs: thickness is the curvature radius
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    m = measure_link(LinkConfiguration([c]))
    assert not np.isfinite(m.min_inter_distance)
    assert not np.isfinite(m.min_self_distance)
    assert m.thickness == pytest.approx(2.0, abs=1e-8)
    assert m.normalized_length == pytest.approx(c.length() / 2.0, rel=1e-9)
    assert m.normalized_length == pytest.approx(2 * math.pi, rel=1e-5)
    assert m.crossing_number is None and m.alpha is None


def test_self_distance_governs_a_pinched_loop():
    # a flattened ellipse-like loop whose two lobes nearly touch
    t = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
    x = 10.0 * np.cos(t)
    y = 2.0 * np.sin(t) * np.abs(np.sin(0.5 * t)) + 0.25 * np.sin(t)
    z = 0.05 * np.sin(2 * t)
    loop = PolyCurve(np.column_stack((x, y, z)))
    m = measure_link(LinkConfiguration([loop]))
    assert np.isfinite(m.min_self_distance)
    assert m.min_overall_distance == m.min_self_distance


def _metrics(distance, radius, length=10.0):
    thickness = min(distance / 2.0, radius)
    return LinkMetrics(
        total_length=length,
        min_inter_distance=distance,
        min_self_distance=np.inf,
        min_overall_distance=distance,
        min_curvature_radius=radius,
        thickness=thickness,
        normalized_length=length / thickness if thickness > 0 else np.inf,
    )


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


@pytest.mark.parametrize(
    "distance, radius, kwargs, expected",
    [
        # absolute: clearance >= 2 - tolerance and curvature radius >= 1 - tolerance
        (2.0 - 0.01, 1.0 - 0.01, {}, (True, True)),
        (_below(2.0 - 0.01), 5.0, {}, (False, True)),
        (5.0, _below(1.0 - 0.01), {}, (True, False)),
        (2.0 - 0.1, 1.0 - 0.1, {"tolerance": 0.1}, (True, True)),
        (_below(2.0 - 0.1), 5.0, {"tolerance": 0.1}, (False, True)),
        (5.0, _below(1.0 - 0.1), {"tolerance": 0.1}, (True, False)),
        (2.0, 5.0, {"tolerance": -0.5}, (False, True)),
    ],
)
def test_verify_absolute_table(distance, radius, kwargs, expected):
    checks = verify(_tight_hopf(n=8), _metrics(distance, radius), **kwargs)
    assert checks == {
        "min_distance_ok": expected[0],
        "curvature_ok": expected[1],
        "passed": all(expected),
    }


@pytest.mark.parametrize(
    "distance, radius, embeddable",
    [
        # scale-free: clearance must exceed 1e-9 of the total length (10)
        (1e-9 * 10.0, 5.0, False),
        (_above(1e-9 * 10.0), 5.0, True),
        (0.0, 5.0, False),
        # curvature and the absolute clearance 2 are not part of the verdict
        (0.5, 1e-3, True),
    ],
)
def test_verify_scale_free_table(distance, radius, embeddable):
    checks = verify(_tight_hopf(n=8), _metrics(distance, radius), absolute=False)
    assert checks == {"embeddable": embeddable, "passed": embeddable}



def _torus_config(q, p=1, doubled=False):
    return LinkConfiguration(
        [sample_planar_curve("circle", {"radius": 1.0}, n_points=8)] * q,
        metadata={"family": "torus", "doubled": doubled, "spec": {"p": p}},
    )


def test_expected_linking_patterns():
    single = _expected_linking(_torus_config(3, p=2))
    assert np.array_equal(single, [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    doubled = _expected_linking(_torus_config(4, p=2, doubled=True))
    assert np.array_equal(
        doubled, [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]]
    )
    assert _expected_linking(_tight_hopf(n=8)) is None


@pytest.mark.parametrize(
    "linking, expected, linking_ok",
    [
        # signs are free, magnitudes must match entry for entry
        ([[0, -1], [-1, 0]], [[0, 1], [1, 0]], True),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]], True),
        ([[0, 2], [2, 0]], [[0, 1], [1, 0]], False),
        ([[0, 0], [0, 0]], [[0, 1], [1, 0]], False),
        # undefined linking (intersecting components) fails, pattern or not
        (None, [[0, 1], [1, 0]], False),
        (None, None, False),
        # a measured linking with no pattern to compare adds no verdict
        ([[0, 1], [1, 0]], None, None),
    ],
)
def test_verify_linking_table(linking, expected, linking_ok):
    lk = None if linking is None else np.array(linking)
    # a 2-component torus has the pattern [[0, 1], [1, 0]]; the Hopf link none
    config = _tight_hopf(n=8) if expected is None else _torus_config(2)
    pattern = _expected_linking(config)
    assert (pattern is None) if expected is None else np.array_equal(pattern, expected)
    checks = verify(config, _metrics(5.0, 5.0), lk)
    assert checks.get("linking_ok") is linking_ok
    assert checks["passed"] is (linking_ok is not False)


def test_verify_measures_an_unmeasured_torus_linking():
    # the pattern comes from the spec, the matrix from the components when
    # none is given: the tight Hopf link as a 1-torus links as expected
    hopf = _tight_hopf(n=200)
    torus = LinkConfiguration(hopf.components, metadata=_torus_config(2).metadata)
    metrics = _metrics(5.0, 5.0)
    assert verify(torus, metrics)["linking_ok"] is True
    assert verify(torus, metrics, np.zeros((2, 2)))["linking_ok"] is False
    assert "linking_ok" not in verify(hopf, metrics)



@pytest.mark.parametrize(
    "orbits, message",
    [
        ((0,), "needs 2 entries"),
        ((0, 1, 1), "needs 2 entries"),
        ((1, 1), None),
        ((0, 0), None),
        ((None, 1), None),
        ((None, None), None),
        ((1, 0), "not its own representative"),
        ((None, 0), "not its own representative"),
        ((0, 2), "must be None or a component index"),
        ((0, -1), "must be None or a component index"),
        ((0, 1.0), "must be None or a component index"),
        ((True, 1), "must be None or a component index"),
    ],
)
def test_orbits_are_validated(orbits, message):
    # no field declares a symmetry any more.  Each claim that the removed
    # `orbits` field judged (`message` is its verdict, None where it
    # accepted the claim) is refused as an argument, and as metadata, which
    # a JSON file can carry, it changes nothing measured
    comps = _tight_hopf(n=8).components
    with pytest.raises(TypeError):
        LinkConfiguration(comps, orbits=orbits)
    claimed = LinkConfiguration(comps, metadata={"orbits": list(orbits)})
    assert measure_link(claimed) == measure_link(LinkConfiguration(comps)), message


def _mixed_link():
    """Closed components of two vertex counts and one open component,
    interleaved, so no stack of one shape is a block of components."""
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=90)
    b = sample_planar_curve(
        "gibbous", {"gamma": 1.3, "delta": 0.1},
        placement={"azimuth": 0.4, "displacement": 1.5, "inclination": 1.0},
        n_points=130)
    t = np.linspace(0.0, 3.0, 130)
    arc = PolyCurve(np.column_stack((2.0 * t - 3.0, np.full(130, 0.5),
                                     np.sin(t))), closed=False)
    c = sample_planar_curve(
        "circle", {"radius": 1.0},
        placement={"azimuth": 2.0, "displacement": 2.5, "inclination": 0.3},
        n_points=90)
    # loops of very different lengths, so the total depends on the order
    # in which component lengths are added
    loops = [sample_planar_curve("circle", {"radius": 10.0 ** k}, n_points=90)
             .transformed(None, (0.0, 3.0 * 10.0 ** k + 20.0, 0.0))
             for k in (5, -1, -1, 0, -2, 1)]
    return LinkConfiguration([a, b, arc, c, b.transformed(None, (0.0, 0.0, 3.0)),
                              *loops])


def _table_of_one_component(curve):
    """(starts, dirs, lengths, arc-length midpoints, length, curvature
    radius) of one component, computed on its own as before the segment
    table was stacked per shape."""
    v = curve.vertices
    ends = np.roll(v, -1, axis=0) if curve.closed else v[1:]
    starts = v if curve.closed else v[:-1]
    dirs = ends - starts
    lens = np.linalg.norm(dirs, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(lens)))
    if curve.closed:
        a, b, c = v, np.roll(v, -1, axis=0), np.roll(v, -2, axis=0)
    else:
        a, b, c = v[:-2], v[1:-1], v[2:]
    ab = np.linalg.norm(b - a, axis=1)
    bc = np.linalg.norm(c - b, axis=1)
    ca = np.linalg.norm(a - c, axis=1)
    area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = ab * bc * ca / (2.0 * area2)
    radii[area2 <= 1e-14 * (ab * bc)] = np.inf
    return starts, dirs, lens, cum[:-1] + 0.5 * lens, cum[-1], radii.min()


def test_the_stacked_segment_table_has_the_bits_of_each_component():
    link = _mixed_link()
    comps = link.components
    sym = _symmetry(comps)
    assert len(sym.stacks) == 3
    starts, dirs, lens, arc_mid, length, radius = zip(
        *map(_table_of_one_component, comps))
    rows = _segment_rows(np.concatenate(starts), np.concatenate(dirs))
    closed = np.array([c.closed for c in comps])
    for soup in (_SegmentSoup(comps), _SegmentSoup(comps, stacks=sym.stacks)):
        assert soup.rows.tobytes() == rows.tobytes()
        assert soup.arc_mid.tobytes() == np.concatenate(arc_mid).tobytes()
        assert soup.fold_len.tobytes() == np.where(closed, length,
                                                   np.inf).tobytes()
        assert soup.labels.tolist() == [k for k, c in enumerate(comps)
                                        for _ in range(c.n_segments)]
    # each component's lengths, their sums, the total length and the
    # curvature radii read the same table
    for st in sym.stacks:
        for i, row in zip(st.idx, st.lens):
            assert row.tobytes() == lens[i].tobytes()
            assert float(row.sum()) == comps[i].length() == float(lens[i].sum())
    total = sum(float(x.sum()) for x in lens)
    assert total != float(np.sum([x.sum() for x in lens]))  # order matters
    assert _total_length(sym.stacks, len(comps)) == link.total_length() == total
    assert _curvature(sym)[0].tolist() == list(radius)
    metrics = measure_link(link)
    assert metrics.total_length == link.total_length()
    assert metrics.min_curvature_radius == min(radius)
