"""Helix packing counts, pair distances, and toroidal length corrections.

The package evaluates the correction by the trapezoid rule and the packing
minimum by bracketed Newton steps, for arrays of shells at once; adaptive
scipy quadrature and bounded scalar minimization are the references here.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from ropebound import helices
from ropebound.helices import (
    EPSILON_SAFE,
    _BLOCK,
    _correction,
    _min_gap,
    aggregate_correction,
    helix_count_estimate,
    max_helices,
    pair_min_distance,
    toroidal_correction,
)


def _quad_correction(ratio, p):
    """The correction integral by adaptive quadrature."""
    inv_p2 = 1.0 / (p * p)

    def integrand(t):
        dev = ratio - math.cos(t)
        return math.sqrt(1.0 + inv_p2 * dev * dev)

    val, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val / (2.0 * math.pi * math.sqrt((ratio / p) ** 2 + 1.0))


def _scalar_min_gap2(n, r, h):
    """Squared pair-gap minimum: 65 samples on [-a, 0], then a bounded
    scalar minimization of 2 r^2 (1 - cos(theta + a)) + h^2 theta^2 around
    the best sample."""
    a = 2.0 * math.pi / n
    r2 = 2.0 * r * r
    h2 = h * h
    ts = np.linspace(-a, 0.0, 65)
    vals = r2 * (1.0 - np.cos(ts + a)) + h2 * ts * ts
    k = int(np.argmin(vals))
    res = minimize_scalar(
        lambda t: r2 * (1.0 - math.cos(t + a)) + h2 * t * t,
        bounds=(float(ts[max(k - 1, 0)]), float(ts[min(k + 1, 64)])),
        method="bounded", options={"xatol": 1e-13},
    )
    return min(float(res.fun), float(vals[k]))


def _scalar_exact_count(r, h):
    """Largest n whose scalar-reference gap is >= 2 - 1e-9, scanning from
    floor(N_a - EPSILON_SAFE) as the package does."""
    def fits(n):
        return math.sqrt(_scalar_min_gap2(n, r, h)) >= 2.0 - 1e-9

    n = max(2, math.floor(math.pi * h * r / math.hypot(h, r) - EPSILON_SAFE + 1e-9))
    if fits(n):
        while fits(n + 1):
            n += 1
        return n
    while n > 2:
        n -= 1
        if fits(n):
            return n
    return 1


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
    assert max_helices(2.0, 2.0, "approx") == 3  # floor(4.44 - 1)
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


@pytest.mark.parametrize("t_shells", list(range(1, 101)) + [200])
def test_exact_counts_match_the_scalar_reference(t_shells):
    # every shell of the capacity-filling torus: radius 2i, hole radius 2T
    radii = 2.0 * np.arange(1, t_shells + 1)
    counts = max_helices(radii, 2.0 * t_shells, "exact")
    reference = [_scalar_exact_count(float(r), 2.0 * t_shells) for r in radii]
    assert counts.tolist() == reference


def test_max_helices_array_matches_scalar_calls():
    rng = np.random.default_rng(11)
    r = rng.uniform(2.0, 40.0, 30)
    h = r * 10.0 ** rng.uniform(-1.0, 1.5, 30)
    for mode in ("exact", "approx"):
        counts = max_helices(r, h, mode)
        assert counts.shape == (30,)
        assert counts.tolist() == [max_helices(float(a), float(b), mode)
                                   for a, b in zip(r, h)]
    assert isinstance(max_helices(4.0, 8.0), int)


def test_gap_minimum_never_above_a_dense_grid():
    # An overestimated minimum would over-pack a shell, so the solver's value
    # may undercut a 2e6-point grid on [-a, 0] but never exceed it.
    rng = np.random.default_rng(3)
    rows = [(2, 2.0, 2.0), (2, 5.0, 1.0), (3, 2.0, 0.5), (6, 2.0, 1e3)]
    for _ in range(40):
        r = rng.uniform(2.0, 60.0)
        rows.append((int(rng.integers(2, 200)), r, r * 10.0 ** rng.uniform(-1.0, 1.5)))
    n, r, h = (np.array(col, dtype=float) for col in zip(*rows))
    a = 2.0 * np.pi / n
    vals, thetas = _min_gap(a, r, h)
    for k in range(len(rows)):
        ts = np.linspace(-a[k], 0.0, 2_000_001)
        grid = np.min(4.0 * r[k] ** 2 * np.sin(0.5 * (ts + a[k])) ** 2 + h[k] ** 2 * ts * ts)
        assert vals[k] <= grid * (1.0 + 1e-12), rows[k]
        assert -a[k] <= thetas[k] <= 0.0
        assert pair_min_distance(int(n[k]), r[k], h[k])["distance"] == math.sqrt(vals[k])


def _unblocked_min_gap(a, r, h):
    """_min_gap as one pass over every shell, in the plain formulas:
    linspace brackets, then the same safeguarded Newton steps."""
    r2, h2 = r * r, h * h
    rows = np.arange(len(a))
    ts = np.linspace(-a, 0.0, 65, axis=-1)
    vals = (4.0 * r2[:, None] * np.sin(0.5 * (ts + a[:, None])) ** 2
            + h2[:, None] * ts * ts)
    k = np.argmin(vals, axis=-1)
    lo, hi = ts[rows, np.maximum(k - 1, 0)], ts[rows, np.minimum(k + 1, 64)]
    best_t, best_v = ts[rows, k], vals[rows, k]
    t = best_t
    for _ in range(8):
        g = r2 * np.sin(t + a) + h2 * t
        dg = r2 * np.cos(t + a) + h2
        lo, hi = np.where(g < 0.0, t, lo), np.where(g > 0.0, t, hi)
        step = t - g / dg
        t = np.where((dg > 0.0) & (step >= lo) & (step <= hi), step,
                     0.5 * (lo + hi))
    v = 4.0 * r2 * np.sin(0.5 * (t + a)) ** 2 + h2 * t * t
    better = v < best_v
    return np.where(better, v, best_v), np.where(better, t, best_t)


def _unblocked_correction(ratio, p):
    """_correction as one (ratios x 64) pass of the trapezoid rule."""
    nodes = np.hypot(p, ratio[:, None] - helices._COS_NODES) / 64
    return np.sum(nodes, axis=-1) / np.hypot(p, ratio)


def _shells(size, seed):
    """(a, r, h) of `size` random shells of 2 to 400 helices."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(2.0, 60.0, size)
    return (2.0 * np.pi / rng.integers(2, 400, size), r,
            r * 10.0 ** rng.uniform(-1.0, 1.5, size))


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  3 * _BLOCK + 7])
def test_block_passes_give_the_bits_of_one_pass(size):
    # blocks run through the thread's workspace; every value is the one the
    # plain formulas give over all shells or ratios at once
    a, r, h = _shells(size, size)
    for got, want in zip(_min_gap(a, r, h), _unblocked_min_gap(a, r, h)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    ratio = 1.0 + np.random.default_rng(size).exponential(20.0, size)
    ratio[::5] *= 1e250
    for p in (1, 2, 3):
        got, want = _correction(ratio, p), _unblocked_correction(ratio, p)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("size", [3 * _BLOCK + 7, 16 * _BLOCK])
def test_block_passes_allocate_less_than_a_block(size):
    # once the thread's workspace exists, a pass over any number of shells
    # or ratios allocates its per-shell arrays (three floats a shell at
    # most) and less than one block's bracket rows besides: no (shells x
    # 65) or (ratios x 64) array is made (one of 16 blocks would be 4 MiB)
    a, r, h = _shells(size, 7)
    ratio = np.linspace(1.5, 400.0, size)
    _min_gap(a[:1], r[:1], h[:1])  # the thread's workspace
    bound = _BLOCK * 65 * 8 + 3 * size * 8
    for run in (lambda: _min_gap(a, r, h), lambda: _correction(ratio, 2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_max_helices_validation():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            max_helices(bad, 2.0)
        with pytest.raises(ValueError):
            max_helices(2.0, bad)
    with pytest.raises(ValueError):
        max_helices(np.array([2.0, 1.5]), 2.0)
    with pytest.raises(ValueError):
        max_helices(1.0, 2.0)
    with pytest.raises(ValueError):
        max_helices(2.0, 0.0)
    with pytest.raises(ValueError):
        max_helices(2.0, 2.0, "bogus")


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


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
def test_toroidal_correction_rejects_non_finite_ratios(ratio):
    with pytest.raises(ValueError, match="finite"):
        toroidal_correction(ratio, 1)
    with pytest.raises(ValueError, match="finite"):
        toroidal_correction(np.array([2.0, ratio, 3.0]), 2)


def test_toroidal_correction_huge_ratio_does_not_overflow():
    for p in (1, 2, 3):
        assert toroidal_correction(1e300, p) == 1.0
    assert toroidal_correction(np.finfo(float).max, 1) == 1.0


_RATIOS = [1.0, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0,
           15.0, 20.0, 200.0, 1e6]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_toroidal_correction_matches_adaptive_quadrature(p):
    with pytest.warns(UserWarning):
        array = toroidal_correction(np.array(_RATIOS), p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scalars = [toroidal_correction(ratio, p) for ratio in _RATIOS]
    assert isinstance(scalars[0], float) and array.shape == (len(_RATIOS),)
    # one implementation: a ratio's value does not depend on its neighbours
    assert array.tolist() == scalars
    for ratio, value in zip(_RATIOS, scalars):
        ref = _quad_correction(ratio, p)
        assert abs(value - ref) <= 1e-14 * ref, (ratio, p, value, ref)


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
