"""In-memory spans around the calls into each ropebound layer.

A `Tracer` replaces module attributes with wrappers that record one span per
call: name, layer, start, end, parent span and job id, plus a few counters
taken from the call's arguments or result.  Wrappers are installed at the
attribute where the *caller* looks the function up (``ropebound.cli.
measure_link``, ``ropebound.construct.mutual_min_distance``, ...), because
``from .x import f`` binds a second name that patching ``ropebound.x.f`` alone
would miss.  Nothing under ``src/`` is changed; `uninstall` restores every
attribute.

The pure functions at the bottom (`self_times`, `tail_percentile`, ...) turn
the span list into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import math
import os
import statistics
import threading
import time

# Layers in report order; the benchmark's own job span is layer "cli".
LAYERS = (
    "distances", "measure", "curves", "linking", "construct", "optimize",
    "helices", "bounds", "parallel", "io_formats", "cli",
)

# Bytes segment_pair_distances must move per pair, computed rather than
# measured: p1, d1, p2, d2 read (4 x 3 float64) and one float64 written.
KERNEL_BYTES_PER_PAIR = 4 * 3 * 8 + 8


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "job", "attrs")

    def __init__(self, sid, name, layer, start, end, parent, job, attrs):
        self.sid, self.name, self.layer = sid, name, layer
        self.start, self.end = start, end
        self.parent, self.job, self.attrs = parent, job, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one instance per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        self.sample_curves = None  # largest component set seen by distances

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, layer, fn, args, kwargs, attrs_fn=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(self, args, kwargs, result) if attrs_fn else None
        self.spans.append(Span(sid, name, layer, start, end, parent, self.job, attrs))
        return result

    def adopt(self, parent_sid, fn):
        """Wrap fn so spans it opens on a pool thread have `parent_sid` as parent."""

        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent_sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- patching ---------------------------------------------------------
    def install(self):
        for path, layer, attrs_fn in WRAP_TABLE:
            module_name, attr = path.rsplit(".", 1)
            owner = _resolve(module_name)
            original = getattr(owner, attr)
            name = f"{layer}.{attr}"
            if attr == "parallel_map":
                wrapper = _make_parallel_wrapper(self, name, original)
            else:
                wrapper = _make_wrapper(self, name, layer, original, attrs_fn)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        """Spans as gzipped JSON lines, one [sid, name, layer, start, end,
        parent, job, attrs] list per line."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([getattr(s, k) for k in Span.__slots__]) + "\n")


def _resolve(dotted: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, cls = dotted.rsplit(".", 1)
        return getattr(importlib.import_module(module_name), cls)


def _make_wrapper(tracer, name, layer, original, attrs_fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, original, args, kwargs, attrs_fn)

    wrapper.__wrapped__ = original
    return wrapper


def _make_parallel_wrapper(tracer, name, original):
    """parallel_map: the pool threads start with an empty span stack, so the
    mapped function is re-parented onto the parallel_map span."""
    from ropebound.parallel import thread_count

    def wrapper(func, items, max_workers=None):
        items = list(items)
        cpu0 = time.process_time()

        def body(func, items, max_workers):
            return original(tracer.adopt(tracer.current(), func), items, max_workers)

        def attrs(_tracer, _args, _kwargs, _result):
            workers = min(thread_count() if max_workers is None else max_workers,
                          max(1, len(items)))
            return {"items": len(items), "workers": workers,
                    "cpu_s": time.process_time() - cpu0}

        return tracer.call(name, "parallel", body, (func, items, max_workers), {},
                           attrs)

    wrapper.__wrapped__ = original
    return wrapper


# -- counters taken at each boundary -----------------------------------------
def _distances(tracer, args, kwargs, _result):
    curves = list(args[0])
    inter = kwargs.get("inter", True)
    intra = kwargs.get("intra", False)
    if tracer.sample_curves is None or len(curves) > len(tracer.sample_curves):
        tracer.sample_curves = curves
    # Keyed by vertex content: id() values are reused once a link is freed.
    return {
        "segments": sum(c.n_segments for c in curves),
        "key": [[hash(c.vertices.tobytes()) for c in curves], bool(inter), bool(intra)],
    }


def _linking(_tracer, args, _kwargs, _result):
    sizes = [c.n_segments for c in args[0]]
    total = sum(sizes)
    return {
        "pairs": len(sizes) * (len(sizes) - 1) // 2,
        "segment_pairs": (total * total - sum(n * n for n in sizes)) // 2,
    }


def _objective(_tracer, _args, _kwargs, result):
    return {"infeasible": not math.isfinite(result)}


def _correction(_tracer, args, kwargs, _result):
    p = args[1] if len(args) > 1 else kwargs.get("p", 1)
    return {"key": [float(args[0]), int(p)]}


def _export(_tracer, args, kwargs, _result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _import(_tracer, args, _kwargs, _result):
    return {"bytes": os.path.getsize(args[0])}


# (attribute path, layer, counter function).  cli.main is the job span; the
# rest are the entry points a workload reaches, at each module that calls
# them.  distances also includes measure_link's private self-distance call,
# so distance work is not booked to measure; distances._auto_arc_windows is
# left unwrapped, so the curvature call inside it counts under measure_link.
WRAP_TABLE = (
    ("ropebound.cli.main", "cli", None),
    ("ropebound.construct.mutual_min_distance", "distances", _distances),
    ("ropebound.measure.mutual_min_distance", "distances", _distances),
    ("ropebound.measure._certified_min", "distances", _distances),
    ("ropebound.cli.measure_link", "measure", None),
    ("ropebound.optimize.measure_link", "measure", None),
    ("ropebound.measure.min_curvature_radius", "curves", None),
    ("ropebound.curves.min_curvature_radius", "curves", None),
    ("ropebound.construct.sample_toroidal_helix", "curves", None),
    ("ropebound.construct.sample_planar_curve", "curves", None),
    ("ropebound.cli.linking_matrix", "linking", _linking),
    ("ropebound.cli.build_increment_spec", "construct", None),
    ("ropebound.cli.build_optimal_spec", "construct", None),
    ("ropebound.cli.construction_report", "construct", None),
    ("ropebound.cli.realize_torus", "construct", None),
    ("ropebound.cli.donut_double", "construct", None),
    ("ropebound.cli.build_planar_link", "construct", None),
    ("ropebound.construct.realize_torus", "construct", None),
    ("ropebound.optimize.build_planar_link", "construct", None),
    ("ropebound.cli.minimize_params", "optimize", None),
    ("ropebound.optimize.OptimizationProblem.objective", "optimize", _objective),
    ("ropebound.construct.max_helices", "helices", None),
    ("ropebound.helices.pair_min_distance", "helices", None),
    ("ropebound.cli.toroidal_correction", "helices", _correction),
    ("ropebound.construct.toroidal_correction", "helices", _correction),
    ("ropebound.helices.toroidal_correction", "helices", _correction),
    ("ropebound.cli.lower_bound_report", "bounds", None),
    ("ropebound.cli.parallel_map", "parallel", None),
    ("ropebound.cli.export_geometry", "io_formats", _export),
    ("ropebound.cli.import_geometry", "io_formats", _import),
)


# -- span arithmetic ---------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end] intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it covered by its children.

    Children on pool threads may overlap one another; their union counts once.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def outermost(spans, layer: str) -> list:
    """Spans of `layer` with no ancestor of the same layer (no double count)."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.layer != layer:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def tail_percentile(samples, beyond: int = 10):
    """(pct, value): the highest whole percentile from 50 to 99 that leaves at
    least `beyond` samples above its nearest-rank value.  Fewer than
    2 * beyond samples fall back to the median, reported as pct 50."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 0, 0.0
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= beyond:
            return pct, xs[rank - 1]
    return 50, statistics.median(xs)


def repeat_count(keys) -> int:
    """Calls whose key was already seen earlier in the same job."""
    seen, repeats = set(), 0
    for job, key in keys:
        k = (job, json.dumps(key))
        if k in seen:
            repeats += 1
        seen.add(k)
    return repeats


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics from a traced phase of `rounds` job lists.

    Counts, busy and self times are per job list (per round); shares are each
    layer's self time over all self time, so they sum to 1.
    """
    spans = list(spans)
    selfs = self_times(spans)
    total_self = sum(selfs.values())
    per = 1.0 / rounds

    def named(suffix):
        return [s for s in spans if s.name.endswith(suffix)]

    def layer_self(layer):
        return sum(selfs[s.sid] for s in spans if s.layer == layer)

    def busy(group):
        return sum(s.duration for s in group)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self(layer), total_self)

    dist = outermost(spans, "distances")
    m["distances.calls"] = len(dist) * per
    m["distances.busy_s"] = busy(dist) * per
    m["distances.segments_in"] = sum(s.attrs["segments"] for s in dist) * per
    m["distances.call_p50_s"] = statistics.median([s.duration for s in dist]) if dist else 0.0
    m["distances.repeat_ratio"] = _ratio(
        repeat_count((s.job, s.attrs["key"]) for s in dist), len(dist))

    meas = outermost(spans, "measure")
    m["measure.calls"] = len(meas) * per
    m["measure.busy_s"] = busy(meas) * per
    m["measure.self_s"] = layer_self("measure") * per

    curv = named(".min_curvature_radius")
    samp = named(".sample_toroidal_helix") + named(".sample_planar_curve")
    m["curves.curvature_calls"] = len(curv) * per
    m["curves.curvature_s"] = busy(curv) * per
    m["curves.sample_calls"] = len(samp) * per
    m["curves.sample_s"] = busy(samp) * per

    link = outermost(spans, "linking")
    seg_pairs = sum(s.attrs["segment_pairs"] for s in link)
    m["linking.calls"] = len(link) * per
    m["linking.pairs"] = sum(s.attrs["pairs"] for s in link) * per
    m["linking.segment_pairs"] = seg_pairs * per
    m["linking.busy_s"] = busy(link) * per
    m["linking.ns_per_segment_pair"] = _ratio(busy(link) * 1e9, seg_pairs)

    cons = outermost(spans, "construct")
    m["construct.calls"] = len(cons) * per
    m["construct.busy_s"] = busy(cons) * per
    m["construct.self_s"] = layer_self("construct") * per

    evals = named(".objective")
    eval_s = [s.duration for s in evals]
    tail_pct, tail_s = tail_percentile(eval_s)
    m["optimize.evals"] = len(evals) * per
    m["optimize.infeasible_ratio"] = _ratio(
        sum(s.attrs["infeasible"] for s in evals), len(evals))
    m["optimize.eval_p50_s"] = statistics.median(eval_s) if eval_s else 0.0
    m["optimize.eval_tail_s"] = tail_s
    m["optimize.eval_tail_pct"] = tail_pct
    m["optimize.busy_s"] = busy(outermost(spans, "optimize")) * per
    m["optimize.self_s"] = layer_self("optimize") * per

    pmd = named(".pair_min_distance")
    corr = named(".toroidal_correction")
    m["helices.max_helices_calls"] = len(named(".max_helices")) * per
    m["helices.pair_min_distance_calls"] = len(pmd) * per
    m["helices.pair_min_distance_s"] = busy(pmd) * per
    m["helices.correction_calls"] = len(corr) * per
    m["helices.correction_s"] = busy(corr) * per
    m["helices.correction_distinct_ratio"] = _ratio(
        len({(s.job, json.dumps(s.attrs["key"])) for s in corr}), len(corr))

    bnd = outermost(spans, "bounds")
    m["bounds.calls"] = len(bnd) * per
    m["bounds.busy_s"] = busy(bnd) * per

    par = outermost(spans, "parallel")
    m["parallel.calls"] = len(par) * per
    m["parallel.items"] = sum(s.attrs["items"] for s in par) * per
    m["parallel.workers"] = max((s.attrs["workers"] for s in par), default=0)
    m["parallel.busy_s"] = busy(par) * per
    m["parallel.cpu_per_wall"] = _ratio(sum(s.attrs["cpu_s"] for s in par), busy(par))

    exp = named("io_formats.export_geometry")
    imp = named("io_formats.import_geometry")
    m["io_formats.export_calls"] = len(exp) * per
    m["io_formats.export_s"] = busy(exp) * per
    m["io_formats.export_bytes"] = sum(s.attrs["bytes"] for s in exp) * per
    m["io_formats.import_calls"] = len(imp) * per
    m["io_formats.import_s"] = busy(imp) * per
    m["io_formats.import_bytes"] = sum(s.attrs["bytes"] for s in imp) * per

    jobs = [s for s in spans if s.layer == "cli"]
    m["cli.jobs"] = len(jobs) * per
    m["cli.self_s"] = layer_self("cli") * per
    m["trace.spans"] = len(spans) * per
    return m


def kernel_ns_per_pair(curves, seed: int, n_pairs: int = 1 << 20, repeats: int = 5):
    """Median ns per pair of distances.segment_pair_distances on `n_pairs`
    random pairs of the given curves' own segments."""
    import numpy as np
    from ropebound import distances

    starts = np.concatenate([c.segment_starts() for c in curves])
    dirs = np.concatenate([c.segment_ends() for c in curves]) - starts
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, len(starts), n_pairs)
    ib = rng.integers(0, len(starts), n_pairs)
    p1, d1, p2, d2 = starts[ia], dirs[ia], starts[ib], dirs[ib]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        distances.segment_pair_distances(p1, d1, p2, d2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / n_pairs

