"""Helix packing counts, pair distances, and toroidal length corrections."""

import math

import numpy as np
import pytest

from ropebound.helices import (
    EPSILON_SAFE,
    aggregate_correction,
    cubic_min_distance,
    helix_count_estimate,
    max_helices,
    pair_min_distance,
    toroidal_correction,
)


def test_estimate_formula():
    assert helix_count_estimate(3.0, 4.0) == pytest.approx(
        math.pi * 12.0 / 5.0, rel=1e-15
    )


def test_pair_distance_two_helices_on_squat_shell():
    # n=2, r=2, h=2: the phase gap is pi and the minimum sits at zero offset,
    # d = 2r exactly
    res = pair_min_distance(2, 2.0, 2.0)
    assert res["distance"] == pytest.approx(4.0, abs=1e-12)
    # the minimum is flat in theta, so the argmin is only loosely pinned
    assert res["theta_at_min"] == pytest.approx(0.0, abs=1e-2)


def test_pair_distance_decreasing_in_count():
    ds = [pair_min_distance(n, 2.0, 3.0)["distance"] for n in range(2, 9)]
    assert all(b < a for a, b in zip(ds, ds[1:]))


def test_six_helices_on_tall_radius_two_shell_reach_exactly_two():
    # tall limit: six radius-2 helices become parallel lines spaced 60 degrees
    # apart on the cylinder, adjacent distance 2*2*sin(pi/6) = 2
    assert pair_min_distance(6, 2.0, 1e6)["distance"] == pytest.approx(2.0, abs=1e-9)
    # a seventh would violate the clearance at any height
    assert pair_min_distance(7, 2.0, 1e6)["distance"] < 2.0


def test_safety_decrement_matches_the_tall_limit():
    assert EPSILON_SAFE == pytest.approx(2 * math.pi - 6, rel=1e-15)


def test_max_helices_exact_versus_estimate_spot_values():
    assert max_helices(2.0, 2.0, "exact") == 4
    assert max_helices(2.0, 2.0, "approx") == 4
    assert max_helices(4.0, 8.0, "exact") == 11
    assert max_helices(4.0, 8.0, "approx") == 10


def test_max_helices_exact_is_truly_maximal():
    for r, h in ((2.0, 2.0), (3.0, 5.0), (6.0, 6.0), (10.0, 30.0)):
        n = max_helices(r, h, "exact")
        assert pair_min_distance(n, r, h)["distance"] >= 2.0 - 1e-9
        assert pair_min_distance(n + 1, r, h)["distance"] < 2.0 - 1e-9


def test_max_helices_approx_never_exceeds_exact():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.uniform(2.0, 40.0)
        h = rng.uniform(r, 20.0 * r)
        assert max_helices(r, h, "approx") <= max_helices(r, h, "exact")


def test_max_helices_validation():
    with pytest.raises(ValueError):
        max_helices(1.0, 2.0)
    with pytest.raises(ValueError):
        max_helices(2.0, 0.0)
    with pytest.raises(ValueError):
        max_helices(2.0, 2.0, "bogus")
    with pytest.raises(ValueError):
        max_helices(2.0, 2.0, "approx", epsilon=-1.0)


def test_cubic_model_tracks_the_exact_minimum_on_large_shells():
    # the third-order closed form approximates the true squared gap when the
    # phase gap is small, and the agreement tightens as the shell grows
    errors = []
    for r, h in ((20.0, 60.0), (50.0, 200.0)):
        n = max_helices(r, h, "approx", epsilon=1.0)
        exact = pair_min_distance(n, r, h)["distance"] ** 2
        cubic = cubic_min_distance(r, h, 1.0)
        errors.append(abs(cubic - exact) / exact)
        assert cubic == pytest.approx(exact, rel=3e-2)
    assert errors[1] < errors[0]


def test_cubic_certifies_the_safe_decrement():
    # with the safe decrement the cubic model sits just above the threshold 4
    assert cubic_min_distance(2.0, 100.0, EPSILON_SAFE) == pytest.approx(
        4.000319419728307, rel=1e-12
    )
    assert cubic_min_distance(2.0, 100.0, EPSILON_SAFE) >= 4.0
    # at zero decrement it confirms the rectangle rule slightly overfills
    assert cubic_min_distance(2.0, 100.0, 0.0) == pytest.approx(
        3.6777948948792125, rel=1e-12
    )
    assert cubic_min_distance(2.0, 100.0, 0.0) < 4.0


def test_cubic_validation():
    with pytest.raises(ValueError):
        cubic_min_distance(2.0, 2.0, 5.0)  # effective count drops below 2


def test_toroidal_correction_spot_values():
    assert toroidal_correction(2.0, 1) == pytest.approx(1.0112292664185119, rel=1e-12)
    assert toroidal_correction(1.5, 2) == pytest.approx(1.0261469994820882, rel=1e-12)
    assert toroidal_correction(20.0, 3) == pytest.approx(1.0000134744544458, rel=1e-12)


def test_toroidal_correction_properties():
    values = [toroidal_correction(r, 1) for r in (1.5, 2.0, 3.0, 5.0, 10.0)]
    assert all(v > 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    # excess decays like ratio^-4: quadrupling the ratio shrinks it ~256-fold
    e10 = toroidal_correction(10.0, 1) - 1.0
    e40 = toroidal_correction(40.0, 1) - 1.0
    assert e10 / e40 == pytest.approx(256.0, rel=0.05)


def test_toroidal_correction_validation_and_degenerate_warning():
    with pytest.raises(ValueError):
        toroidal_correction(0.8, 1)
    with pytest.raises(ValueError):
        toroidal_correction(2.0, 0)
    with pytest.warns(UserWarning):
        toroidal_correction(1.0, 1)


def test_aggregate_correction_single_shell_equals_pointwise():
    assert aggregate_correction(1, "increment", 2.0) == toroidal_correction(2.0, 1)


def test_aggregate_correction_limits():
    assert aggregate_correction(10000, "increment", 2.0) == pytest.approx(
        1.0041908621476252, rel=1e-12
    )
    assert aggregate_correction(10000, "optimal", 2.0) == pytest.approx(
        1.0038664868764182, rel=1e-12
    )


def test_aggregate_correction_validation():
    with pytest.raises(ValueError):
        aggregate_correction(0)
    with pytest.raises(ValueError):
        aggregate_correction(10, "bogus")
    with pytest.raises(ValueError):
        aggregate_correction(10, "increment", 1.0)
