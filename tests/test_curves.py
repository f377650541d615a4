"""Sampling and differential-geometry primitives."""

import math

import numpy as np
import pytest

from ropebound.curves import (
    PolyCurve,
    min_curvature_radius,
    rotation_about_axis,
    sample_cylindrical_helix,
    sample_planar_curve,
    sample_toroidal_helix,
)


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
    # strict=False admits non-convex ovals
    sample_planar_curve("gibbous", {"delta": 0.3}, strict=False)


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
