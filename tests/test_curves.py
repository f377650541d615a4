"""Sampling and differential-geometry primitives."""

import math

import numpy as np
import pytest

from ropebound.construct import build_planar_link
from ropebound.curves import (
    PolyCurve,
    _planar_shape,
    min_curvature_radius,
    rotation_about_axis,
    sample_cylindrical_helix,
    sample_planar_curve,
    sample_toroidal_helix,
)
from ropebound.specs import FAMILIES, PLANAR_FAMILIES


def test_polycurve_validation():
    with pytest.raises(ValueError):
        PolyCurve(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0]]))  # closed needs 3
    with pytest.raises(ValueError):
        PolyCurve(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]))  # repeated vertex
    open_two = PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0]]), closed=False)
    assert open_two.n_segments == 1


def test_circle_length_matches_inscribed_polygon():
    n = 1000
    c = sample_planar_curve("circle", {"radius": 1.0}, n_points=n)
    assert c.length() == pytest.approx(2 * n * math.sin(math.pi / n), rel=1e-12)
    assert c.length() == pytest.approx(2 * math.pi, rel=1e-5)


def test_circle_curvature_radius_is_exact():
    # any three points of a circle have circumradius equal to the circle's
    c = sample_planar_curve("circle", {"radius": 2.0}, n_points=500)
    assert min_curvature_radius(c) == pytest.approx(2.0, abs=1e-9)


def test_collinear_triples_have_infinite_curvature():
    line = PolyCurve(
        np.column_stack((np.linspace(0, 9, 10), np.zeros(10), np.zeros(10))),
        closed=False,
    )
    assert min_curvature_radius(line) == np.inf


def test_rotation_about_axis_is_special_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(5):
        axis = rng.normal(size=3)
        angle = rng.uniform(-math.pi, math.pi)
        rot = rotation_about_axis(axis, angle)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    quarter = rotation_about_axis((0, 0, 1), 0.5 * math.pi)
    assert np.allclose(quarter @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_transformed_preserves_lengths():
    c = sample_toroidal_helix(5.0, 2.0, n_points=400)
    rot = rotation_about_axis((1, 2, 3), 0.8)
    moved = c.transformed(rot, (4.0, -1.0, 2.0))
    assert moved.length() == pytest.approx(c.length(), rel=1e-12)


def test_toroidal_helix_lies_on_its_torus():
    r0, r = 7.0, 2.0
    c = sample_toroidal_helix(r0, r, p=3, n_points=600)
    axial = np.hypot(np.hypot(c.vertices[:, 0], c.vertices[:, 1]) - r0,
                     c.vertices[:, 2])
    assert np.allclose(axial, r, atol=1e-12)


def test_toroidal_helix_shell_stagger_is_rigid_rotation():
    a = sample_toroidal_helix(6.0, 2.0, n_shell=4, shell_index=0, n_points=100)
    b = sample_toroidal_helix(6.0, 2.0, n_shell=4, shell_index=1, n_points=100)
    rot = rotation_about_axis((0, 0, 1), 2.0 * math.pi / 4.0)
    assert np.allclose(a.transformed(rot).vertices, b.vertices, atol=1e-12)


def test_toroidal_helix_zero_minor_radius_is_the_core_circle():
    c = sample_toroidal_helix(4.0, 0.0, n_points=256)
    assert np.allclose(np.hypot(c.vertices[:, 0], c.vertices[:, 1]), 4.0)
    assert np.allclose(c.vertices[:, 2], 0.0)


def test_toroidal_helix_winds_p_times():
    p = 4
    c = sample_toroidal_helix(9.0, 2.0, p=p, n_points=2048)
    # z = r sin(p t) crosses zero upward exactly p times per revolution;
    # close the cycle so the crossing at t = 0 is counted too
    z = np.append(c.vertices[:, 2], c.vertices[0, 2])
    ups = np.sum((z[:-1] < 0) & (z[1:] >= 0))
    assert ups == p


def test_toroidal_helix_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_toroidal_helix(2.0, 2.0)
    with pytest.raises(ValueError):
        sample_toroidal_helix(5.0, -1.0)
    with pytest.raises(ValueError):
        sample_toroidal_helix(5.0, 2.0, n_shell=3, shell_index=3)


def test_cylindrical_helix_rise_and_radius():
    c = sample_cylindrical_helix(3.0, 10.0, turns=2.0, n_points=501)
    assert not c.closed
    assert np.allclose(np.hypot(c.vertices[:, 0], c.vertices[:, 1]), 3.0)
    assert c.vertices[0, 2] == 0.0
    assert c.vertices[-1, 2] == pytest.approx(10.0)


def test_planar_placement_geometry():
    rho, psi, az = 1.3, 0.7, 2.1
    c = sample_planar_curve(
        "circle", {"radius": 1.0},
        placement={"azimuth": az, "displacement": rho, "inclination": psi},
        n_points=800,
    )
    center = c.vertices.mean(axis=0)
    radial = np.array([math.cos(az), math.sin(az), 0.0])
    assert np.allclose(center, rho * radial, atol=1e-9)
    # all vertices stay at unit distance from the center (rigid placement)
    assert np.allclose(np.linalg.norm(c.vertices - center, axis=1), 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        sample_planar_curve("circle", placement={"bogus": 1.0})


def test_gibbous_parametrization():
    gamma, delta = 0.8, 0.2
    c = sample_planar_curve("gibbous", {"gamma": gamma, "delta": delta},
                            n_points=360)
    # theta = 0 is the first sample: (gamma*(1+delta), 0, 0)
    assert np.allclose(c.vertices[0], [gamma * (1 + delta), 0.0, 0.0], atol=1e-12)
    # theta = pi/2 sample: (gamma*(-delta), 0, 1)
    k = 90
    assert np.allclose(c.vertices[k], [-gamma * delta, 0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        sample_planar_curve("gibbous", {"delta": 0.3})


def test_rounded_square_perimeter_and_corner_radius():
    scale, flat = 2.0, 0.5
    c = sample_planar_curve(
        "rounded_square", {"scale": scale, "flat_fraction": flat}, n_points=4000
    )
    corner = (1 - flat) * scale
    expected = 4 * (2 * flat * scale + 0.5 * math.pi * corner)
    assert c.length() == pytest.approx(expected, rel=1e-5)
    assert min_curvature_radius(c) == pytest.approx(corner, rel=1e-3)


def test_unknown_shape_and_params_raise():
    with pytest.raises(ValueError):
        sample_planar_curve("pentagon")
    with pytest.raises(ValueError):
        sample_planar_curve("circle", {"radius": 1.0, "bogus": 2.0})


def _rotation_of_one_call(axis, angle):
    """One rotation matrix as rotation_about_axis formed it before it took
    stacks: a norm of one vector and np.outer."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    c, s = np.cos(angle), np.sin(angle)
    ux, uy, uz = u
    cross = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(u, u)


def test_stacked_rotations_have_the_bits_of_single_calls():
    rng = np.random.default_rng(11)
    axes = rng.normal(size=(64, 3)) * rng.uniform(0.1, 10.0, (64, 1))
    angles = rng.uniform(-7.0, 7.0, 64)
    cases = [
        (axes, angles, [_rotation_of_one_call(u, a) for u, a in zip(axes, angles)]),
        (axes, 0.7, [_rotation_of_one_call(u, 0.7) for u in axes]),
        ((0.0, 0.0, 1.0), angles,
         [_rotation_of_one_call((0.0, 0.0, 1.0), a) for a in angles]),
        (axes[0], angles[0], _rotation_of_one_call(axes[0], angles[0])),
    ]
    for axis, angle, expected in cases:
        assert rotation_about_axis(axis, angle).tobytes() == (
            np.asarray(expected).tobytes())


def _placed_by_loop(base, azimuth, displacement, inclination):
    """One loop placed as sample_planar_curve placed it before the ring was
    placed in one batch: two rotation matrices of its own."""
    xyz = base
    if azimuth != 0.0:
        xyz = xyz @ _rotation_of_one_call((0.0, 0.0, 1.0), azimuth).T
    radial = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    center = displacement * radial
    xyz = xyz + center
    if inclination != 0.0:
        rot = _rotation_of_one_call(radial, inclination)
        xyz = center + (xyz - center) @ rot.T
    return xyz


def _planar_link_by_loop(q, family, params, n_points):
    """The vertices of build_planar_link(q, family, params, n_points), one
    loop at a time."""
    merged = dict(zip(FAMILIES[family].names, FAMILIES[family].start))
    merged.update(params)
    shape = "circle" if family == "circles" else "gibbous"
    base = _planar_shape(shape, {k: merged[k] for k in ("gamma", "delta")
                                 if k in merged}, n_points)
    ring = q - 1 if family == "hybrid_square" else q
    loops = [_placed_by_loop(base, 2.0 * math.pi * i / ring, merged["rho"],
                             merged["psi"]) for i in range(ring)]
    if family == "hybrid_square":
        square = _planar_shape("rounded_square", {
            "scale": merged["square_scale"],
            "flat_fraction": merged["square_flat_fraction"]}, n_points)
        loops.append(_placed_by_loop(square, 0.0, 0.0, 0.5 * math.pi))
    return loops


def _interior(family):
    """A point inside the family's box, away from its start."""
    return {name: lo + 0.37 * (hi - lo) for name, (lo, hi) in
            zip(FAMILIES[family].names, FAMILIES[family].bounds)}


@pytest.mark.parametrize("family", PLANAR_FAMILIES)
@pytest.mark.parametrize("point", ["start", "interior", "psi=0"])
@pytest.mark.parametrize("q", [2, 7])
def test_planar_rings_are_placed_with_the_bits_of_one_loop_at_a_time(
        family, point, q):
    # the ring is one batched placement and the square goes through the
    # same routine; every vertex keeps the bits of the per-loop placement
    params = {"start": {}, "interior": _interior(family),
              "psi=0": {"psi": 0.0}}[point]
    link = build_planar_link(q, family, params, n_points=150)
    expected = _planar_link_by_loop(q, family, params, 150)
    assert len(link.components) == len(expected) == q
    for curve, vertices in zip(link.components, expected):
        assert curve.closed
        assert curve.vertices.tobytes() == vertices.tobytes()


def test_a_placed_loop_has_the_bits_of_its_own_placement():
    # sample_planar_curve places one loop through the ring's routine
    one = sample_planar_curve(
        "circle", placement={"azimuth": 2.5, "displacement": 0.4,
                             "inclination": 0.9}, n_points=150)
    assert one.vertices.tobytes() == _placed_by_loop(
        _planar_shape("circle", {}, 150), 2.5, 0.4, 0.9).tobytes()
