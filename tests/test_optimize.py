"""Simplex minimization and the threaded-pair family."""

import math

import numpy as np
import pytest

from ropebound import _groups, curves, distances, measure, optimize
from ropebound.construct import build_planar_link, realize_torus, toroidal_pair
from ropebound.curves import PolyCurve, sample_planar_curve
from ropebound.linking import linking_matrix
from ropebound.measure import (
    LinkConfiguration,
    measure_link,
    measure_thickness,
    verify,
)
from ropebound.optimize import (
    OptimizationProblem,
    minimize_params,
    nelder_mead,
    normalized_ropelength,
)
from ropebound.specs import build_increment_spec

C_PAIR = (2 * 7 * 6 + 2 * 49) ** 0.75  # 14 components pairwise linked


def test_nelder_mead_quadratic():
    res = nelder_mead(
        lambda v: (v[0] - 0.3) ** 2 + (v[1] + 0.1) ** 2,
        (0.0, 0.0),
        ((-1.0, 1.0), (-1.0, 1.0)),
    )
    assert res["best_value"] == pytest.approx(2.560115364412463e-09, rel=1e-12)
    assert res["evaluations"] == 57
    assert res["best_params"] == pytest.approx((0.3, -0.1), abs=1e-3)


def test_nelder_mead_respects_bounds():
    res = nelder_mead(lambda v: (v[0] - 5.0) ** 2, (0.0,), ((-1.0, 1.0),))
    assert res["best_params"][0] == pytest.approx(1.0, abs=1e-5)


def test_nelder_mead_all_infeasible_returns_the_start():
    res = nelder_mead(lambda v: np.inf, (0.5,), ((0.0, 1.0),))
    assert res["best_params"].tolist() == [0.5]
    assert res["best_value"] == np.inf
    assert res["evaluations"] == 2  # the two vertices of the initial simplex


def test_normalized_ropelength_scale_invariant():
    link = build_planar_link(2, "circles", {"rho": 0.5, "psi": 0.25 * math.pi},
                             n_points=200)
    base = normalized_ropelength(link)
    assert np.isfinite(base)
    scaled = LinkConfiguration([PolyCurve(3.0 * c.vertices) for c in link.components])
    assert normalized_ropelength(scaled) == pytest.approx(base, rel=1e-9)


def test_normalized_ropelength_infeasible_is_inf():
    circle = sample_planar_curve("circle", {"radius": 2.0}, n_points=100)
    assert normalized_ropelength(LinkConfiguration([circle, circle])) == np.inf


def _jittered(family, q, seed):
    problem = OptimizationProblem(family, q=q, n_points=200)
    lo, hi = problem.param_bounds.T
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.15, 0.15, size=len(lo)) * (hi - lo)
    return problem.build(np.clip(problem.initial_params + jitter, lo, hi))


def _single_pass_cases():
    circle = sample_planar_curve("circle", {"radius": 2.0}, n_points=300)
    cases = {}
    for family, q in (("circles", 8), ("gibbous", 4), ("hybrid_square", 5)):
        cases[f"{family} q={q} defaults"] = build_planar_link(
            q, family, n_points=200)
        for seed in range(3):
            cases[f"{family} q={q} jitter {seed}"] = _jittered(family, q, seed)
    cases["toroidal_pair"] = toroidal_pair(6.4, 6.44, 0.0, 2.2, n_points=200)
    cases["inc4 torus"] = realize_torus(build_increment_spec(1, 4), n_points=200,
                                        check=False)
    cases["crossing loops"] = LinkConfiguration(
        [circle, circle.transformed(None, (1.0, 0.0, 0.0))])
    # its arc window excludes every self pair
    cases["lone circle"] = LinkConfiguration([circle])
    t = np.linspace(0, 2 * math.pi, 600, endpoint=False)
    pinched = PolyCurve(np.column_stack((
        10.0 * np.cos(t),
        2.0 * np.sin(t) * np.abs(np.sin(0.5 * t)) + 0.25 * np.sin(t),
        0.05 * np.sin(2 * t),
    )))
    # its self distance sets the thickness
    cases["pinched loop beside a circle"] = LinkConfiguration(
        [pinched, circle.transformed(None, (0.0, 0.0, 8.0))])
    return cases


def test_single_pass_matches_measure_link():
    # the objective's one combined distance pass must give the value that
    # measure_link followed by verify gives, infeasible in the same cases
    def reference(link):
        try:
            metrics = measure_link(link)
        except ValueError:
            return np.inf
        if not verify(link, metrics, absolute=False)["passed"]:
            return np.inf
        return metrics.normalized_length

    infeasible = []
    for name, link in _single_pass_cases().items():
        full, single = measure_link(link), measure_thickness(link)
        assert single.min_inter_distance is None, name
        assert single.min_self_distance is None, name
        for key in ("total_length", "min_overall_distance",
                    "min_curvature_radius", "thickness", "normalized_length",
                    "length_per_crossing", "alpha"):
            assert getattr(single, key) == getattr(full, key), (name, key)
        value = normalized_ropelength(link)
        assert value == reference(link), name
        if value == np.inf:
            infeasible.append(name)
    assert "crossing loops" in infeasible
    assert "lone circle" not in infeasible


def test_programming_errors_are_not_infeasible(monkeypatch):
    # only geometry errors mean "infeasible"; a TypeError is a bug and must
    # surface instead of evaluating to +inf
    problem = OptimizationProblem("circles", q=3, n_points=60)

    def broken_build(*_args, **_kwargs):
        raise TypeError("broken build")

    monkeypatch.setattr(OptimizationProblem, "build", broken_build)
    with pytest.raises(TypeError, match="broken build"):
        problem.objective(problem.initial_params)

    def broken_measure(*_args, **_kwargs):
        raise TypeError("broken measure")

    monkeypatch.setattr(optimize, "measure_thickness", broken_measure)
    link = build_planar_link(3, "circles", n_points=60)
    with pytest.raises(TypeError, match="broken measure"):
        normalized_ropelength(link)


def test_geometry_errors_are_infeasible(monkeypatch):
    problem = OptimizationProblem("circles", q=3, n_points=60)

    def invalid_build(*_args, **_kwargs):
        raise ValueError("invalid shape")

    monkeypatch.setattr(OptimizationProblem, "build", invalid_build)
    assert problem.objective(problem.initial_params) == np.inf


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem("bogus", q=3)
    with pytest.raises(ValueError):
        minimize_params(OptimizationProblem("circles", q=2, n_points=50),
                        restarts=0)


@pytest.mark.parametrize("maxfev", [0, -3])
def test_minimize_params_rejects_an_empty_budget(maxfev):
    # an evaluation budget below 1 is an error, as a restart count below 1
    # is, not a run that spends the initial simplex anyway
    problem = OptimizationProblem("gibbous", q=3, n_points=50)
    with pytest.raises(ValueError, match=f"need maxfev >= 1, got {maxfev}"):
        minimize_params(problem, restarts=1, maxfev=maxfev)


@pytest.mark.parametrize("family", ["circles", "gibbous", "hybrid_square"])
def test_planar_defaults_are_the_optimizer_start(family):
    problem = OptimizationProblem(family, q=5, n_points=150)
    start = problem.build(problem.initial_params)
    built = build_planar_link(5, family, n_points=150)
    assert built.n_components == start.n_components == 5
    for a, b in zip(built.components, start.components):
        assert np.array_equal(a.vertices, b.vertices)


def test_minimize_params_never_worse_and_deterministic():
    problem = OptimizationProblem("circles", q=2, n_points=60)
    initial = problem.objective(problem.initial_params)
    first = minimize_params(problem, restarts=2, maxfev=40)
    assert first["best_value"] <= initial
    second = minimize_params(problem, restarts=2, maxfev=40)
    assert second["best_value"] == first["best_value"]
    assert np.array_equal(second["best_params"], first["best_params"])
    assert second["evaluations"] == first["evaluations"]


def test_minimize_params_counts_every_simplex_evaluation(monkeypatch):
    # the start is each run's first simplex vertex, so no evaluation is spent
    # outside nelder_mead, and the result is never worse than the start
    problem = OptimizationProblem("gibbous", q=3, n_points=100)
    start_value = problem.objective(problem.initial_params)
    runs = []

    def recording(*args, **kwargs):
        res = nelder_mead(*args, **kwargs)
        runs.append(res["evaluations"])
        return res

    monkeypatch.setattr(optimize, "nelder_mead", recording)
    result = minimize_params(problem, restarts=2, maxfev=10)
    assert len(runs) == 2
    assert result["evaluations"] == sum(runs)
    assert result["best_value"] <= start_value


def test_minimize_params_counts_an_infeasible_start(monkeypatch):
    # the first start's whole initial simplex (n + 1 = 3 vertices) is
    # infeasible: its evaluations are spent, so they are counted
    problem = OptimizationProblem("circles", q=5, n_points=100)
    objective = problem.objective
    calls = []

    def counting(params):
        calls.append(params)
        return np.inf if len(calls) <= 3 else objective(params)

    monkeypatch.setattr(problem, "objective", counting)
    result = minimize_params(problem, restarts=2, maxfev=10)
    assert len(calls) == 14
    assert result["evaluations"] == len(calls)
    assert np.isfinite(result["best_value"])


def test_toroidal_pair_structure():
    config = toroidal_pair(6.4, 6.4, 0.0, 2.0, n_points=120)
    assert config.n_components == 14
    assert config.crossing_number == 182
    # a doubled torus's metadata, so verify checks its linking pattern
    assert config.metadata["family"] == "torus"
    assert config.metadata["doubled"] is True
    assert config.metadata["spec"]["p"] == 1
    assert config.metadata["separation"] == pytest.approx(6.4)


def test_toroidal_pair_problem_objective():
    problem = OptimizationProblem("toroidal_pair", q=14, n_points=420)
    value = problem.objective(problem.initial_params)
    assert value == pytest.approx(604.330419676429, rel=1e-12)
    assert value / C_PAIR == pytest.approx(12.196098255847597, rel=1e-12)


def test_toroidal_pair_objective_rejects_a_wrong_linking_pattern():
    # at separation 9 the copies are embedded but no longer all linked (42
    # of the 49 cross pairs are): a finite ropelength for another link, so
    # the objective is inf; the start point keeps its value bit for bit
    problem = OptimizationProblem("toroidal_pair", q=14, n_points=200)
    link = problem.build([6.0, 9.0, 0.0, 2.2])
    assert measure_thickness(link).normalized_length == pytest.approx(
        4419.110586564394, rel=1e-12)
    lk = linking_matrix(link.components)
    assert np.count_nonzero(lk[:7, 7:]) == 42
    assert problem.objective([6.0, 9.0, 0.0, 2.2]) == np.inf
    assert problem.objective(problem.initial_params) == 604.4234942612318


def test_toroidal_pair_tuned_parameters_beat_twelve():
    tuned = [6.228759242349103, 6.240350485264015,
             0.353250252153055, 2.1811090743064794]
    config = toroidal_pair(*tuned, n_points=1000)
    alpha = normalized_ropelength(config) / C_PAIR
    assert alpha == pytest.approx(11.754848052775852, rel=1e-9)
    assert alpha < 12.0


def _forget_layouts():
    """Drop every table remembered for the last layout measured."""
    curves._ring.cache_clear()
    _groups._orbits_of.cache_clear()


def _plans(monkeypatch) -> list:
    """Record the search plan (`distances._Plan`) of every link measured."""
    plans = []
    symmetry = measure._symmetry

    def recording(comps):
        sym = symmetry(comps)
        plans.append(sym.plan)
        return sym

    monkeypatch.setattr(measure, "_symmetry", recording)
    return plans


@pytest.mark.parametrize("family, q, other", [
    ("gibbous", 20, ("hybrid_square", 5)),
    ("hybrid_square", 5, ("circles", 8)),
    ("circles", 8, ("toroidal_pair", 14)),
    ("toroidal_pair", 14, ("gibbous", 3)),
])
def test_objective_does_not_depend_on_what_was_measured_before(
        family, q, other, monkeypatch):
    # a layout's orbits and plan are remembered for the last layout
    # measured; the objective at a point keeps its bits fresh, after other
    # points of its family have shared one plan, and after another family
    # replaced it
    problem = OptimizationProblem(family, q, n_points=100)
    lo, hi = problem.param_bounds.T
    point = problem.initial_params + 0.02 * (hi - lo)
    _forget_layouts()
    plans = _plans(monkeypatch)
    fresh = problem.objective(point)
    assert math.isfinite(fresh)
    for step in (0.01, -0.01, 0.03):
        problem.objective(problem.initial_params + step * (hi - lo))
    assert problem.objective(point).hex() == fresh.hex()
    assert len(plans) == 5 and all(plan is plans[0] for plan in plans)
    rival = OptimizationProblem(*other, n_points=100)
    rival.objective(rival.initial_params)
    assert plans[-1] is not plans[0]
    assert problem.objective(point).hex() == fresh.hex()
    assert plans[-1] is not plans[0]


def test_one_layout_is_remembered_at_a_time(monkeypatch):
    # a link measured once keeps its orbits and plan until a link of
    # another layout is measured, one layout at a time
    _forget_layouts()
    plans = _plans(monkeypatch)
    torus = realize_torus(build_increment_spec(1, 4), n_points=80,
                          check=False)
    links = [build_planar_link(q, "gibbous", n_points=60) for q in (5, 7)]
    for link in (*links, torus):
        measure_link(link)
        measure_link(link)
        assert plans[-1] is plans[-2]
        assert _groups._orbits_of.cache_info().currsize == 1
        assert curves._ring.cache_info().currsize == 1
    assert plans[1] is not plans[2] and plans[3] is not plans[4]
    assert plans[3].comp_nseg.tolist() == [60] * 7
    info = _groups._orbits_of.cache_info()
    assert (info.hits, info.misses) == (3, 3)


def test_a_large_layout_is_planned_for_its_measurement_alone(monkeypatch):
    # a layout above the remembered size has its orbits and plan made for
    # each measurement, and its plan remembers none of its tables; the
    # remembered layout is left as it was, and the metrics are those of a
    # remembered plan
    link = build_planar_link(6, "gibbous", n_points=60)
    _forget_layouts()
    plans = _plans(monkeypatch)
    remembered = [measure_link(link) for _ in range(2)][-1]
    assert plans[0] is plans[1] and plans[1].remembered
    info = _groups._orbits_of.cache_info()
    monkeypatch.setattr(distances, "_REMEMBERED_SEGMENTS", 6 * 60 - 1)
    for _ in range(2):
        fresh = measure_link(link)
        assert plans[-1] is not plans[0] and not plans[-1].remembered
        assert plans[-1]._memo == {}
    assert plans[-1] is not plans[-2]
    assert _groups._orbits_of.cache_info() == info
    assert fresh.as_dict() == remembered.as_dict()


def test_a_plan_is_kept_only_for_its_own_orbits(monkeypatch):
    # a ring of four loops (D4) and a copy with loops 0 and 2 pulled toward
    # their successors alike (C2) share their layout but not their orbits:
    # measured after one another, each measures as it does with nothing
    # remembered, and neither is searched with the other's plan
    ring = build_planar_link(4, "gibbous", n_points=60)
    comps = list(ring.components)
    a, b = comps[0].vertices, comps[1].vertices
    gap = np.linalg.norm(a[:, None] - b[None], axis=2)
    i, j = np.unravel_index(gap.argmin(), gap.shape)
    pull = 0.5 * (b[j] - a[i])
    for k, turn in ((0, pull), (2, pull * (-1.0, -1.0, 1.0))):
        v = comps[k].vertices.copy()
        v[i] += turn
        comps[k] = PolyCurve(v)
    pulled = LinkConfiguration(comps)
    plans = _plans(monkeypatch)
    fresh = []
    for link in (ring, pulled):
        _forget_layouts()
        fresh.append(measure_link(link).as_dict())
    orbits = [plan.orbit_min for plan in plans]
    assert orbits[1] is not None and not np.array_equal(*orbits)
    assert fresh[1]["min_inter_distance"] < fresh[0]["min_inter_distance"]
    _forget_layouts()
    plans.clear()
    order = (ring, ring, pulled, pulled, ring)
    for link in order:
        assert measure_link(link).as_dict() == fresh[link is pulled]
    for link, plan in zip(order, plans):
        assert np.array_equal(plan.orbit_min, orbits[link is pulled])
    assert plans[0] is plans[1] and plans[1] is not plans[2]
