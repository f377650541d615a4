"""Thickness, normalized ropelength, and invariances."""

import math

import numpy as np
import pytest

from ropebound.curves import rotation_about_axis, sample_planar_curve
from ropebound.measure import LinkConfiguration, LinkMetrics, measure_link, verify

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
    m3 = measure_link(base.scaled(3.0))
    assert m3.normalized_length == pytest.approx(m0.normalized_length, rel=1e-9)
    assert m3.total_length == pytest.approx(3.0 * m0.total_length, rel=1e-12)


def test_rigid_motion_invariance_of_normalized_length():
    base = _tight_hopf(n=600)
    rot = rotation_about_axis((2.0, 1.0, -1.0), 0.9)
    moved = base.transformed(rot, (5.0, -4.0, 3.0))
    assert measure_link(moved).normalized_length == pytest.approx(
        measure_link(base).normalized_length, rel=1e-9
    )


def test_single_circle_normalized_by_curvature():
    # one loop has no admissible self pairs: thickness is the curvature radius
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=1000)
    m = measure_link([c])
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
    from ropebound.curves import PolyCurve

    loop = PolyCurve(np.column_stack((x, y, z)))
    m = measure_link([loop])
    assert np.isfinite(m.min_self_distance)
    assert m.min_overall_distance == m.min_self_distance


def test_plain_component_lists_are_accepted():
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=200)
    b = a.transformed(None, (10.0, 0.0, 0.0))
    m = measure_link([a, b])
    assert m.min_inter_distance == pytest.approx(6.0, abs=1e-3)
    assert m.crossing_number is None


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
    checks = verify(_metrics(distance, radius), **kwargs)
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
    checks = verify(_metrics(distance, radius), absolute=False)
    assert checks == {"embeddable": embeddable, "passed": embeddable}

