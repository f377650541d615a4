"""Torus and planar link constructions: specs, realizations, doubling."""

import math

import numpy as np
import pytest

from ropebound.construct import (
    OverlapError,
    Shell,
    TorusSpec,
    analytic_length,
    build_increment_spec,
    build_optimal_spec,
    build_planar_link,
    construction_report,
    donut_double,
    inflate_for_doubling,
    limiting_alpha,
    realize_torus,
)
from ropebound.distances import mutual_min_distance
from ropebound.helices import toroidal_correction
from ropebound.linking import linking_matrix
from ropebound.measure import measure_link

RHO5 = 2.0 + 10.0 / math.sqrt(4.0 * math.pi ** 2 - 25.0)


def test_spec_counts_and_crossings():
    spec = TorusSpec([Shell(2.0, 4)], has_core=True, major_radius=4.0)
    assert spec.q == 5
    assert spec.crossing_number() == 20
    assert spec.crossing_number(doubled=True) == 2 * 20 + 2 * 25
    assert spec.outer_radius == 2.0
    assert spec.hole_radius == 2.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec([Shell(2.0, 0)], has_core=True, major_radius=5.0)
    with pytest.raises(ValueError):
        TorusSpec([Shell(1.5, 3)], has_core=True, major_radius=5.0)
    with pytest.raises(ValueError):
        TorusSpec([Shell(2.0, 3), Shell(3.0, 3)], has_core=False, major_radius=9.0)
    with pytest.raises(ValueError):
        TorusSpec([Shell(2.0, 3)], has_core=True, major_radius=2.0)
    with pytest.raises(ValueError):
        TorusSpec([], has_core=False, major_radius=5.0)
    with pytest.raises(ValueError):
        TorusSpec([Shell(2.0, 3)], has_core=True, major_radius=5.0, t_shells=2)
    with pytest.raises(ValueError):
        TorusSpec([Shell(2.0, 3)], has_core=True, major_radius=5.0, p=0)


def test_spec_dict_round_trip():
    spec = build_increment_spec(2, 4)
    again = TorusSpec.from_dict(spec.as_dict())
    assert again.as_dict() == spec.as_dict()
    assert again.q == spec.q


def test_increment_spec_geometry():
    s1 = build_increment_spec(1, 4)
    assert [s.count for s in s1.shells] == [4]
    assert s1.has_core and s1.q == 5
    assert s1.hole_radius == pytest.approx(4.0 / math.sqrt(math.pi ** 2 - 4.0),
                                           rel=1e-12)
    assert s1.major_radius == pytest.approx(3.6510323220553653, rel=1e-12)
    s2 = build_increment_spec(2, 4)
    assert [s.count for s in s2.shells] == [4, 8]
    assert s2.major_radius == pytest.approx(7.302064644110731, rel=1e-12)
    # increment 5 forces the wider hole whose major radius is rho5 * T
    s5 = build_increment_spec(1, 5)
    assert s5.major_radius == pytest.approx(RHO5, rel=1e-12)
    assert s5.q == 6


def test_increment_spec_outer_count_and_jenga_mode():
    # a nearly empty outer shell needs less room than the full inner shell:
    # naive mode sizes the hole from the outer shell alone, deferred mode
    # keeps the binding inner requirement
    naive = build_increment_spec(2, 4, "naive", outer_count=1)
    deferred = build_increment_spec(2, 4, "deferred_radius", outer_count=1)
    assert naive.hole_radius == pytest.approx(0.3193225587991906, rel=1e-12)
    assert deferred.hole_radius == pytest.approx(1.6510323220553653, rel=1e-12)
    with pytest.raises(ValueError):
        build_increment_spec(2, 4, "bogus")
    with pytest.raises(ValueError):
        build_increment_spec(0, 4)
    with pytest.raises(ValueError):
        build_increment_spec(2, 4, outer_count=0)


def test_optimal_spec_counts():
    o1 = build_optimal_spec(1)
    assert [s.count for s in o1.shells] == [4]
    assert not o1.has_core
    assert o1.major_radius == 4.0 and o1.hole_radius == 2.0
    assert [s.count for s in build_optimal_spec(2).shells] == [5, 8]
    assert [s.count for s in build_optimal_spec(3).shells] == [5, 10, 13]
    # the safety-decrement estimate is never above the exact count
    assert [s.count for s in build_optimal_spec(3, "approx").shells] == [4, 9, 12]


def test_optimal_spec_fifty_shell_total():
    assert build_optimal_spec(50).q == 6592


def test_analytic_length_matches_direct_formula():
    spec = build_increment_spec(1, 4)
    r0 = spec.major_radius
    plain = 2 * math.pi * r0 + 4 * 2 * math.pi * math.hypot(r0, 2.0)
    assert analytic_length(spec, corrected=False) == pytest.approx(plain, rel=1e-12)
    corrected = 2 * math.pi * r0 + 4 * 2 * math.pi * math.hypot(r0, 2.0) * \
        toroidal_correction(r0 / 2.0, 1)
    assert analytic_length(spec) == pytest.approx(corrected, rel=1e-12)
    assert analytic_length(spec) > analytic_length(spec, corrected=False)


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


def test_realize_rejects_overcrowded_spec():
    bad = TorusSpec([Shell(2.0, 6)], has_core=True, major_radius=3.0)
    with pytest.raises(OverlapError, match="min_distance_ok"):
        realize_torus(bad, n_points=300)
    # the same spec skips the check when asked
    link = realize_torus(bad, n_points=300, check=False)
    assert link.n_components == 7


def test_inflate_for_doubling():
    spec = build_increment_spec(1, 4)  # major radius 3.65 < 2*2 + 2
    inflated, factor = inflate_for_doubling(spec)
    assert inflated.major_radius == pytest.approx(6.0)
    assert factor == pytest.approx(1.643370825219721, rel=1e-12)
    roomy = TorusSpec([Shell(2.0, 4)], has_core=True, major_radius=9.0)
    same, one = inflate_for_doubling(roomy)
    assert one == 1.0 and same is roomy


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
    mirrored = measure_link(donut_double(spec, mirror=True, n_points=400))
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


def test_planar_link_validation():
    with pytest.raises(ValueError):
        build_planar_link(1, "circles")
    with pytest.raises(ValueError):
        build_planar_link(3, "bogus")
    with pytest.raises(ValueError):
        build_planar_link(3, "circles", {"bogus": 1.0})
    # coincident loops cannot be thickened
    with pytest.raises(OverlapError):
        build_planar_link(3, "circles", {"rho": 0.0, "psi": 0.0}, n_points=200)


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
