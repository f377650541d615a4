"""Ropelength lower bounds and asymptotic coefficients."""

import math

import numpy as np
import pytest

from ropebound.bounds import (
    asymptotic_coefficients,
    lower_bound_report,
    wegner_hull_length,
)


def test_one_disk_hull_is_its_circumference():
    assert wegner_hull_length(1) == 2 * math.pi


def test_hull_length_five_disks():
    assert wegner_hull_length(5) == pytest.approx(15.180214124325817, rel=1e-15)


def test_hull_length_monotone_in_disk_count():
    values = [wegner_hull_length(n) for n in range(1, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_hull_length_exact_hexagonal_counts_not_rounded_up():
    # 12n - 3 is a perfect square at n = 1, 7, 19, ...: the ceiling term must
    # evaluate exactly there, not be bumped by floating-point overshoot
    for n, expected in ((1, 0), (7, 6), (19, 12)):
        ceil_term = math.ceil(math.sqrt(12 * n - 3) - 3 - 1e-12)
        assert ceil_term == expected


def test_three_component_report_values():
    r = lower_bound_report(1, 3)
    assert r.crossing_number == 6
    assert r.small_hull_bound == pytest.approx(3 * (4 * math.pi + 4), rel=1e-15)
    assert r.best_bound == pytest.approx(49.69911184307752, rel=1e-12)
    assert r.wegner_bound == pytest.approx(47.26953306009654, rel=1e-12)
    assert r.isoperimetric_bound == pytest.approx(45.506853550488955, rel=1e-12)
    assert r.rigor_flag == "rigorous"
    assert r.alpha_best == pytest.approx(r.best_bound / 6 ** 0.75)


def test_two_component_best_bound_is_eight_pi():
    r = lower_bound_report(1, 2)
    assert r.best_bound == pytest.approx(8 * math.pi, rel=1e-15)
    assert r.small_hull_bound is None  # exact hulls start at q = 3


def test_small_hull_bound_applies_only_up_to_six():
    assert lower_bound_report(1, 6).small_hull_bound is not None
    assert lower_bound_report(1, 7).small_hull_bound is None
    assert lower_bound_report(2, 4).small_hull_bound is None


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        lower_bound_report(1, 1)
    with pytest.raises(ValueError):
        lower_bound_report(0, 3)
    with pytest.raises(ValueError):
        wegner_hull_length(0)


def test_conditional_flag_for_multi_wound_components():
    # for p > 1 the hull argument is heuristic whenever it is the binding bound
    r = lower_bound_report(3, 12)
    assert r.rigor_flag == "conditional"


def test_asymptotic_limits_closed_forms():
    ac = asymptotic_coefficients(1)
    assert ac["alpha_w_limit"] == pytest.approx(
        math.sqrt(8 * math.pi * math.sqrt(3)), rel=1e-15
    )
    assert ac["alpha_w_limit"] == pytest.approx(6.597816664747605, rel=1e-15)
    assert ac["alpha_iso_limit"] == pytest.approx(2 * math.pi, rel=1e-15)
    assert ac["subleading"] == pytest.approx(
        2 * math.pi + math.sqrt(2 * math.pi * (7 * math.sqrt(3) - 12)), rel=1e-15
    )


def _fitted_subleading(p):
    """Intercept s of the least-squares line (alpha_w(Q) - limit) * sqrt(Q)
    = s + d / sqrt(Q) over Q = 1e4 ... 1e6, from the computed bounds."""
    limit = asymptotic_coefficients(p)["alpha_w_limit"]
    qs = [int(round(10 ** e)) for e in (4.0, 4.5, 5.0, 5.5, 6.0)]
    x = np.array([1.0 / math.sqrt(q) for q in qs])
    y = np.array([(lower_bound_report(p, q).alpha_w - limit) * math.sqrt(q)
                  for q in qs])
    _slope, intercept = np.polyfit(x, y, 1)
    return intercept


@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
def test_subleading_closed_form_matches_the_fitted_bounds(p):
    assert asymptotic_coefficients(p)["subleading"] == pytest.approx(
        _fitted_subleading(p), rel=2e-5
    )


def test_alpha_w_decreasing_in_q():
    for p in (1, 2):
        alphas = [
            lower_bound_report(p, q).alpha_w for q in (3, 5, 10, 30, 100, 1000)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))


def test_alpha_w_limit_scales_as_inverse_fourth_root_of_p():
    base = asymptotic_coefficients(1)["alpha_w_limit"]
    for p in (4, 16):
        limit = asymptotic_coefficients(p)["alpha_w_limit"]
        assert limit == pytest.approx(base * p ** -0.25, rel=1e-12)
    # finite-Q coefficients inherit the scaling to within one percent once Q
    # is large enough that the 1/sqrt(Q) subleading term drops below that
    q = 100000
    a1 = lower_bound_report(1, q).alpha_w
    for p in (4, 16):
        ap = lower_bound_report(p, q).alpha_w
        assert ap * p ** 0.25 == pytest.approx(a1, rel=1e-2)
