"""Tests of the benchmark's own logic: span arithmetic, the tail-percentile
rule, failure counting against references, and seeded job lists.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def span(sid, start, end, parent=None, layer="measure", name=None, attrs=None):
    return Span(sid, name or f"{layer}.f", layer, start, end, parent, "j", attrs)


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0, layer="cli"), span(2, 1.0, 4.0, 1), span(3, 6.0, 7.0, 1),
             span(4, 2.0, 3.0, 2, layer="distances")]
    st = tracing.self_times(spans)
    assert st == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(st.values()) == 10.0  # self times partition the root span


def test_self_time_counts_overlapping_pool_children_once():
    # Two pool threads run children of one parallel_map span at once.
    spans = [span(1, 0.0, 10.0, layer="parallel"),
             span(2, 1.0, 5.0, 1, layer="helices"),
             span(3, 2.0, 6.0, 1, layer="helices"),
             span(4, 8.0, 12.0, 1, layer="helices")]  # clipped at the parent's end
    assert tracing.self_times(spans)[1] == 10.0 - (5.0 + 2.0)


def test_union_length():
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)], 0, 10) == 3.0
    assert tracing.union_length([], 0, 1) == 0.0
    assert tracing.union_length([(-5, 0.5)], 0, 1) == 0.5


def test_outermost_skips_same_layer_descendants():
    spans = [span(1, 0, 10, layer="construct"), span(2, 1, 9, 1, layer="distances"),
             span(3, 2, 3, 2, layer="construct"), span(4, 11, 12, layer="construct")]
    assert [s.sid for s in tracing.outermost(spans, "construct")] == [1, 4]


def test_layer_shares_sum_to_one():
    spans = [span(1, 0.0, 4.0, layer="cli", name="cli.main"),
             span(2, 1.0, 3.0, 1, layer="distances", name="distances.mutual_min_distance",
                  attrs={"segments": 10, "key": [[1, 2], True, False]})]
    m = tracing.layer_metrics(spans, rounds=1)
    assert m["distances.share"] == 0.5 and m["cli.share"] == 0.5
    assert sum(m[f"{layer}.share"] for layer in tracing.LAYERS) == 1.0
    assert m["cli.self_s"] == 2.0 and m["distances.busy_s"] == 2.0


def test_correction_distinct_ratio_is_per_job():
    spans = [Span(i, "helices.toroidal_correction", "helices", 0.0, 1.0, None, job,
                  {"key": [2.0, 1]}) for i, job in ((1, "a"), (2, "a"), (3, "b"))]
    assert tracing.layer_metrics(spans, rounds=1)["helices.correction_distinct_ratio"] == 2 / 3


def test_repeat_count_is_per_job():
    keys = [("a", [[1], True]), ("a", [[1], True]), ("a", [[1], False]), ("b", [[1], True])]
    assert tracing.repeat_count(keys) == 1


# -- tracer -------------------------------------------------------------------
def test_tracer_records_parents_across_pool_threads():
    tracer = tracing.Tracer()
    tracer.job = "job-1"

    def leaf():
        return tracer.call("helices.leaf", "helices", lambda: 1, (), {})

    def pool(fn):
        t = threading.Thread(target=fn)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    outer = tracer.call(
        "parallel.parallel_map", "parallel",
        lambda: pool(tracer.adopt(tracer.current(), leaf)), (), {})
    assert outer is None
    leaf_span, par_span = tracer.spans
    assert leaf_span.parent == par_span.sid and par_span.parent is None
    assert {leaf_span.job, par_span.job} == {"job-1"}
    assert par_span.start <= leaf_span.start <= leaf_span.end <= par_span.end


def test_install_wraps_every_entry_and_uninstall_restores():
    originals = {}
    for path, _, _ in tracing.WRAP_TABLE:
        module, attr = path.rsplit(".", 1)
        originals[path] = getattr(tracing._resolve(module), attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path in originals:
            module, attr = path.rsplit(".", 1)
            assert getattr(tracing._resolve(module), attr).__wrapped__ is originals[path]
    finally:
        tracer.uninstall()
    for path, fn in originals.items():
        module, attr = path.rsplit(".", 1)
        assert getattr(tracing._resolve(module), attr) is fn


# -- tail percentile ------------------------------------------------------------
def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 400, 7):
        xs = [float(i) for i in range(n)]
        pct, value = tracing.tail_percentile(xs)
        assert sum(x > value for x in xs) >= 10
        if pct < 99:  # the next whole percentile would leave fewer than 10
            nxt = xs[-(-(pct + 1) * n // 100) - 1]
            assert sum(x > nxt for x in xs) < 10


def test_tail_percentile_examples():
    assert tracing.tail_percentile(range(1000)) == (99, 989)
    assert tracing.tail_percentile(range(30)) == (66, 19)
    assert tracing.tail_percentile(range(20)) == (50, 9)
    assert tracing.tail_percentile(range(19)) == (50, 9)  # too few: the median
    assert tracing.tail_percentile([]) == (0, 0.0)


# -- failure counting -----------------------------------------------------------
CORRECTION = workloads.ROUNDS["alpha_sweep"][-1]


def test_correct_reference_passes_and_wrong_one_fails(tmp_path):
    refs = workloads.load_references()
    jobs = iter([[CORRECTION, CORRECTION]])
    _, results = worker.run_phase(jobs, 0.0, str(tmp_path), refs)
    assert [ok for _, _, ok in results] == [True, True]

    wrong = {CORRECTION.id: {"sha256": "0" * 64}}
    _, results = worker.run_phase(iter([[CORRECTION, CORRECTION]]), 0.0,
                                  str(tmp_path), wrong)
    assert sum(not ok for _, _, ok in results) == 2


def test_missing_reference_and_nonzero_exit_fail(tmp_path):
    bad = workloads.Job("sweep bad", "csv", ("sweep", "optimal", "--tmin", "3",
                                             "--tmax", "2"))
    out = workloads.execute(bad, str(tmp_path))
    assert out.code == 2
    assert not workloads.check(bad, out, {"sha256": ""})
    good = workloads.execute(CORRECTION, str(tmp_path))
    assert not workloads.check(CORRECTION, good, None)


def test_numeric_reference_tolerances():
    opt = workloads.ROUNDS["planar_optimize"][0]
    ran = workloads.Outcome(0, answer={"best_value": 10.0})
    assert workloads.check(opt, ran, {"best_value": 10.0})
    assert workloads.check(opt, ran, {"best_value": 10.0 * (1 + 5e-10)})
    assert not workloads.check(opt, ran, {"best_value": 10.0 * (1 - 2e-9)})
    assert not workloads.check(
        opt, workloads.Outcome(0, answer={"best_value": float("inf")}),
        {"best_value": float("inf")})

    build = workloads.ROUNDS["torus_build"][0]
    ref = {"components": 25, "normalized_length": 100.0, "passed": True}
    answer = dict(ref)
    assert workloads.check(build, workloads.Outcome(0, answer=answer), ref)
    answer["normalized_length"] = 100.0 * (1 + 2e-9)
    assert not workloads.check(build, workloads.Outcome(0, answer=answer), ref)
    answer = dict(ref, components=24)
    assert not workloads.check(build, workloads.Outcome(0, answer=answer), ref)
    answer = dict(ref, passed=False)
    assert not workloads.check(build, workloads.Outcome(1, answer=answer), ref)


def test_linking_pattern():
    single = [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]
    assert workloads.linking_pattern_ok(single, doubled=False, p=1)
    assert not workloads.linking_pattern_ok(single, doubled=False, p=2)
    doubled = [[0, 2, 1, 1], [2, 0, 1, -1], [1, 1, 0, 2], [1, -1, 2, 0]]
    assert workloads.linking_pattern_ok(doubled, doubled=True, p=2)
    doubled[0][2] = 0
    assert not workloads.linking_pattern_ok(doubled, doubled=True, p=2)


# -- seeded job lists -----------------------------------------------------------
def _first_rounds(workload, seed, n=6):
    rounds = workloads.job_rounds(workload, seed)
    return [[job.id for job in next(rounds)] for _ in range(n)]


def test_same_seed_same_job_list_and_held_out_seed_differs():
    for name in workloads.WORKLOADS:
        assert _first_rounds(name, 1) == _first_rounds(name, 1)
        assert _first_rounds(name, 1) != _first_rounds(name, 20261017)


def test_every_round_is_the_fixed_multiset():
    for name in workloads.WORKLOADS:
        fixed = sorted(job.id for job in workloads.ROUNDS[name])
        for ids in _first_rounds(name, 7):
            assert sorted(ids) == fixed


# -- declared metrics -----------------------------------------------------------
def test_benchmark_json_matches_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    produced = set(tracing.layer_metrics([], rounds=1)) | {
        "trace.overhead_s", "distances.kernel_ns_per_pair",
        "distances.kernel_computed_bytes_per_pair"}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(declared) == produced
    for name, unit in declared.items():
        assert run._unit(name) == unit, name
