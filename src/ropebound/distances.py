"""Minimum distances of polygonal curves; the package's one near-pair search.

`_candidate_pairs` is one cell-grid query for every pair of points within
a reach, which each caller (this module and `linking`) sizes to hold every
pair it needs.  Both callers query runs, not segments: each component is cut
into runs of _RUN consecutive segments (`_run_starts`), a quarter of the
points.  Here a run is bounded by a capsule, a line-swept sphere (Larsen,
Gottschalk, Lin and Manocha, "Fast proximity queries with swept sphere
volumes", 2000): its chord, from its first vertex to its last (its first
segment where that chord degenerates), swept by a sphere whose radius is the
largest distance of its vertices from the chord, padded for rounding.  The
points are the chord midpoints and the reach is the query radius plus twice
the largest radius about them that holds a run.

Which segment pairs count is one rule, `_may_count`, asked of segment
pairs, run pairs and whole components.  A search over two or more
components (`_search`) queries at a sampled upper bound: the closest
counted pair among a hundred-odd segments spread evenly along the
components, which on planar rings lies within a small factor of the true
minimum and which the one search certifies.  With a symmetry's orbits
(from `measure`) one segment pair of each orbit counts, whose lower segment
represents its orbit, and the query runs from the runs that hold a
representative.  Run pairs are dropped before any segment pair is formed
when the rule drops them or their capsule bound (the kernel distance of
the chords minus both radii) exceeds the query radius.  The survivors
expand, _KERNEL_PAIRS segment pairs at most at a time, to the counted pairs
whose midpoints lie within the query radius plus both half-lengths, which
reach the kernel.  Results are exactly those of the brute-force scan over
the pairs counted: both routes use the same kernel with the lower segment
index first, and no bound drops the optimal pair.

Self pairs are searched on their own (`_self_min`): for a request of self
pairs alone or of one component, and for `measure_link`, which asks for its
inter-component and self minima together (`_certified_min` with `split`)
from one segment table and one set of runs.  On a torus helix or a planar
loop the self minimum lies across the component, so a query at the sampled
bound would return all or nearly all of its run pairs; such a component has
every pair of its runs enumerated, and no query is built for it.  A
component whose extent the bound does not reach across (a coiled knot)
still goes through a query.

`_candidate_pairs` sorts the points into a uniform grid of cells half the
reach wide (the linked-cell method of particle simulation), in numpy: a
row of 5 cells along the grid's last axis is one range of sorted points,
so a query point's neighbours lie in 25 ranges in 3-D and 5 in 2-D, each
cut to the cells within reach of it, and one distance test keeps the pairs
within reach.  `_SegmentSoup` keeps its segments as one contiguous table
of coordinate rows (start x, y, z, direction x, y, z, squared length).
The segment-pair kernel runs _KERNEL_PAIRS pairs at a time: a pass gathers
its pairs' columns from the table with one `take` per side and computes on
(3, m) rows, every step a ufunc that writes into the calling thread's
workspace, so a pass allocates nothing.  Its dot products
are summed x, z, y, the order `np.einsum("ij,ij->i")` sums an (m, 3) array
in, so the distances are those of the einsum formulation bit for bit.
`segment_pair_distances` takes (m, 3) arrays and runs the same kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

from .curves import PolyCurve, _length, _stacks

__all__ = [
    "segment_pair_distances",
    "mutual_min_distance",
    "min_distance_brute",
    "min_self_distance_brute",
]

_CHUNK = 1 << 20

# Pairs per pass of the segment-pair kernel.  A pass writes into the calling
# thread's _Workspace, allocated once: with fresh temporaries, passes of
# this size ran at about 170 ns per pair, most of it page faults, and with
# the workspace at about 60 ns (2 CPUs, numpy 2.4).
_KERNEL_PAIRS = 1 << 13

# Self pairs within this many segments along a curve are never admissible
# (adjacent segments share a vertex).
_SKIP_WINDOW = 5

# Consecutive segments of one component per run, the unit of the near-pair
# query.  At most _SKIP_WINDOW, so a run holds no admissible self pair.
_RUN = 4

# Rounding allowance of the bound tests, relative to the largest coordinate
# (_SegmentSoup.slack), and of a run's chord distance, relative to the
# chord's length: the kernel's closest points on nearly parallel chords can
# be off by about sqrt(2^-53) of their length.
_ROUNDING = 2.0 ** -40
_CHORD_ROUNDING = 2.0 ** -20

# A run whose chord is shorter than this fraction of its length is bounded
# about its first segment instead, since the kernel needs segments of
# positive length.
_DEGENERATE = 2.0 ** -26


def _dot(u, v, tmp=None, out=None) -> np.ndarray:
    """Dot products of the columns of two (3, m) coordinate-row arrays,
    summed x, z, y: the order np.einsum("ij,ij->i") sums an (m, 3) array in,
    so the kernel's distances equal those of the einsum formulation bit for
    bit.  `tmp` (3, m) and `out` (m,), when given, receive the products and
    the sums."""
    w = np.multiply(u, v, out=tmp)
    out = np.add(w[0], w[2], out=out)
    return np.add(out, w[1], out=out)


def _segment_rows(starts, dirs, rows=None, tmp=None) -> np.ndarray:
    """The (7, m) coordinate rows of m segments given as (m, 3) starts and
    directions: start x, y, z, direction x, y, z, squared length; written
    into `rows` when given (`tmp`, (3, m), takes the squares)."""
    if rows is None:
        rows = np.empty((7, len(starts)))
    rows[:3] = starts.T
    rows[3:6] = dirs.T
    _dot(rows[3:6], rows[3:6], tmp, rows[6])
    return rows


class _Workspace:
    """The operands of one kernel pass of m pairs, cut from the calling
    thread's buffers (`_workspace`): the gathered coordinate rows g and h
    (7, m), the (3, m) rows r, u, v and the (m,) intermediates, each one
    contiguous block."""

    def __init__(self, floats, mask, m: int):
        rows = floats[: _WORKSPACE_ROWS * m].reshape(_WORKSPACE_ROWS, m)
        self.g, self.h = rows[0:7], rows[7:14]
        self.r, self.u, self.v = rows[14:17], rows[17:20], rows[20:23]
        (self.b, self.c, self.f, self.denom, self.s, self.t, self.x,
         self.y) = rows[23:31]
        self.mask = mask[:m]


_WORKSPACE_ROWS = 31
_buffers = threading.local()


def _workspace(m: int) -> _Workspace:
    """Operands for a pass of m pairs, from buffers that each thread
    allocates once (for _KERNEL_PAIRS pairs), so that no pass touches fresh
    pages.  They carry nothing from one pass to the next: a pass writes
    every element it reads."""
    mask = getattr(_buffers, "mask", None)
    if mask is None or mask.size < m:
        size = max(m, _KERNEL_PAIRS)
        _buffers.floats = np.empty(_WORKSPACE_ROWS * size)
        _buffers.mask = np.empty(size, dtype=bool)
    return _Workspace(_buffers.floats, _buffers.mask, m)


def _scratch(size: int) -> np.ndarray:
    """`size` floats for work between kernel passes, which overwrite them:
    cut from the calling thread's kernel buffers (`_workspace`) when they
    hold that many, so the caller writes into pages already touched, else
    a fresh array, so the buffers never grow for it."""
    _workspace(0)
    floats = _buffers.floats
    return floats[:size] if floats.size >= size else np.empty(size)


def _kernel(g, h, ws, out) -> None:
    """The clamped closest-point distances of segment g[:, k] to segment
    h[:, k], both (7, m) coordinate rows (`_segment_rows`), written to
    `out` (m,); `ws` is a _Workspace of m pairs.  Every step is the ufunc
    of the plain formula, in its order, so the bits are those of

        r = p1 - p2;  b, c, f = d1.d2, d1.r, d2.r;  denom = a e - b b
        s = clip((b f - c e) / denom) where denom > 0, else 0
        t = (b s + f) / e
        s = clip(-c / a) where t < 0, clip((b - c) / a) where t > 1
        t = clip(t);  |r + s d1 - t d2|

    with every clip to [0, 1]."""
    p1, d1, a = g[:3], g[3:6], g[6]
    p2, d2, e = h[:3], h[3:6], h[6]
    r = np.subtract(p1, p2, out=ws.r)
    b = _dot(d1, d2, ws.u, ws.b)
    c = _dot(d1, r, ws.u, ws.c)
    f = _dot(d2, r, ws.u, ws.f)
    denom = np.multiply(a, e, out=ws.denom)
    np.subtract(denom, np.multiply(b, b, out=ws.x), out=denom)
    s, t, s_low, s_high = ws.s, ws.t, ws.x, ws.y
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(np.multiply(b, f, out=s), np.multiply(c, e, out=s_low), out=s)
        np.clip(np.divide(s, denom, out=s), 0.0, 1.0, out=s)
        np.copyto(s, 0.0, where=np.logical_not(np.greater(denom, 0.0, out=ws.mask),
                                                out=ws.mask))
        np.divide(np.add(np.multiply(b, s, out=t), f, out=t), e, out=t)
        np.clip(np.divide(np.negative(c, out=s_low), a, out=s_low), 0.0, 1.0,
                out=s_low)
        np.clip(np.divide(np.subtract(b, c, out=s_high), a, out=s_high), 0.0, 1.0,
                out=s_high)
    np.copyto(s, s_high, where=np.greater(t, 1.0, out=ws.mask))
    np.copyto(s, s_low, where=np.less(t, 0.0, out=ws.mask))
    np.clip(t, 0.0, 1.0, out=t)
    diff = np.add(r, np.multiply(s, d1, out=ws.v), out=ws.v)
    np.subtract(diff, np.multiply(t, d2, out=ws.u), out=diff)
    np.sqrt(_dot(diff, diff, ws.u, out), out=out)


def _pair_distances(rows, ia, ib) -> np.ndarray:
    """Distances of the segment pairs (ia[k], ib[k]) of the coordinate rows
    `rows` (7, n), gathered into a _Workspace, _KERNEL_PAIRS pairs at a
    time."""
    out = np.empty(ia.size)
    for k in range(0, out.size, _KERNEL_PAIRS):
        chunk = slice(k, k + _KERNEL_PAIRS)
        part = out[chunk]
        ws = _workspace(part.size)
        # mode="clip" writes straight into ws.g; "raise" would buffer it
        rows.take(ia[chunk], axis=1, out=ws.g, mode="clip")
        rows.take(ib[chunk], axis=1, out=ws.h, mode="clip")
        _kernel(ws.g, ws.h, ws, part)
    return out


def segment_pair_distances(p1, d1, p2, d2) -> np.ndarray:
    """Exact distances between segments [p1, p1+d1] and [p2, p2+d2], batched.

    Standard clamped closest-point computation; segments must have positive
    length.  All arrays are (m, 3); each kernel pass writes _KERNEL_PAIRS
    of them into a workspace as coordinate rows.
    """
    p1, d1, p2, d2 = (np.asarray(x, dtype=float) for x in (p1, d1, p2, d2))
    out = np.empty(len(p1))
    for k in range(0, out.size, _KERNEL_PAIRS):
        chunk = slice(k, k + _KERNEL_PAIRS)
        part = out[chunk]
        ws = _workspace(part.size)
        _segment_rows(p1[chunk], d1[chunk], ws.g, ws.u)
        _segment_rows(p2[chunk], d2[chunk], ws.h, ws.u)
        _kernel(ws.g, ws.h, ws, part)
    return out


class _SegmentSoup:
    """Flattened segments of one or more curves, with component bookkeeping,
    in component order.  They are built from the curves' segment table, one
    `curves._Stack` per vertex count and closedness (`stacks`, or grouped
    here when not given): each stack's rows, arc-length midpoints (a
    row-wise cumsum) and lengths are written in one pass, with no loop over
    components.  `orbit_min`, when given, is the lowest segment index of
    each segment's orbit under a symmetry (`measure._symmetry`), and a
    segment is its orbit's representative when that is its own; None, or
    every segment its own orbit, searches every pair.  `next_rep[i]` is the
    first representative at or after segment i (n after the last), and a
    separation x on component k folds to
    min(x, fold - x) for `fold_nseg[k]` and `fold_len[k]` (an open one's,
    2n and inf, never do)."""

    def __init__(self, curves, orbit_min=None, stacks=None):
        stacks = _stacks(curves) if stacks is None else stacks
        q = len(curves)
        self.comp_nseg = np.empty(q, dtype=np.int64)
        comp_len, closed = np.empty(q), np.empty(q, dtype=bool)
        for st in stacks:
            self.comp_nseg[st.idx] = st.lens.shape[1]
            closed[st.idx] = st.closed
        self.first = np.cumsum(self.comp_nseg) - self.comp_nseg
        self.rows = np.empty((7, int(self.comp_nseg.sum())))
        self.arc_mid = np.empty(self.rows.shape[1])
        for st in stacks:
            m, n = st.lens.shape
            at = (self.first[st.idx][:, None] + np.arange(n)).ravel()
            self.rows[:3, at] = st.vertices[:, :n].reshape(-1, 3).T
            self.rows[3:6, at] = st.dirs.reshape(-1, 3).T
            cum = np.cumsum(st.lens, axis=1)
            before = np.zeros((m, n))
            before[:, 1:] = cum[:, :-1]
            self.arc_mid[at] = (before + 0.5 * st.lens).ravel()
            comp_len[st.idx] = cum[:, -1]
        _dot(self.rows[3:6], self.rows[3:6], out=self.rows[6])
        # midpoints and half-lengths, as (3, n) and (n,) rows
        self.mids = self.rows[:3] + 0.5 * self.rows[3:6]
        self.half = 0.5 * np.sqrt(self.rows[6])
        self.labels = np.repeat(np.arange(q), self.comp_nseg)
        self.fold_nseg = np.where(closed, self.comp_nseg, 2 * self.comp_nseg)
        self.fold_len = np.where(closed, comp_len, np.inf)
        # what each bound test allows for rounding: the geometry is known to
        # a few ulps of its largest coordinate
        self.slack = _ROUNDING * (float(np.abs(self.mids).max())
                                  + 2.0 * float(self.half.max()))
        index = np.arange(len(self.labels))
        if orbit_min is not None and np.array_equal(orbit_min, index):
            orbit_min = None
        self.orbit_min = orbit_min
        self.next_rep = (None if orbit_min is None else
                         np.minimum.accumulate(np.where(
                             orbit_min == index, index, index.size)[::-1])[::-1])

    def __len__(self):
        return self.rows.shape[1]

    @functools.cached_property
    def runs(self) -> "_Runs":
        """The runs of these segments, built at the first search that
        needs them."""
        return _Runs(self)

    def pair_distances(self, ia, ib) -> np.ndarray:
        """Distances of the segment pairs (ia[k], ib[k])."""
        return _pair_distances(self.rows, ia, ib)


# Segments sampled for the upper bound that seeds the search radius: at most
# _BOUND_SAMPLES over all components together (8128 segment pairs), and at
# most _SELF_SAMPLES per component in `_self_min`: on a torus helix, 128
# samples cost more than their tighter start saves.
_BOUND_SAMPLES = 128
_SELF_SAMPLES = 32

# Run pairs per block that `_self_min` enumerates by index: a component of
# 250 runs (1,000 segments) holds 31,125.
_INDEXED_PAIRS = 1 << 15


# Cells of the near-pair grid are this much wider than half the reach, and
# its gap and width tests allow this much, in cells, for rounding
# (`_candidate_blocks`).
_CELL_MARGIN = 2.0 ** -20

# Cells the near-pair grid may hold per point, padding included (plus
# 8^dim, so that a few points still get a grid of 5 cells a side).
_CELLS_PER_POINT = 8

# Candidate pairs per block of the near-pair search.  A block gathers its
# coordinates into the calling thread's kernel buffers (`_scratch`): with
# fresh (3, m) arrays, blocks of this size ran at about twice the time,
# most of it page faults (2 CPUs, numpy 2.4).
_GRID_BLOCK = 1 << 13

# Pairs per group in which the near-pair search gathers what it finds and
# hands it out (`_candidate_groups`).
_GATHER = 1 << 19


@functools.cache
def _stencil_rows(dim: int, half: bool) -> np.ndarray:
    """Offsets (rows, dim - 1) of the stencil rows of a grid of `dim` axes
    along its first axes, in lexicographic order: 5^(dim - 1) rows, or
    with `half` the middle one (a point's own row) and those after it."""
    rows = np.array(list(itertools.product(range(-2, 3), repeat=dim - 1)),
                    dtype=np.int64).reshape(5 ** (dim - 1), dim - 1)
    rows.setflags(write=False)  # shared by every call
    return rows[rows.shape[0] // 2 :] if half else rows


def _candidate_pairs(points, reach: float, marked=None):
    """All index pairs (i, j), i < j, of `points` (n rows of any dimension)
    that lie within `reach` (finite, at least 0) of each other; with
    `marked`, a mask over the points, only the pairs whose i it marks: the
    groups of `_candidate_groups`, joined in order."""
    return _joined(list(_candidate_groups(points, reach, marked)))


def _candidate_groups(points, reach: float, marked=None):
    """The pairs of `_candidate_pairs`, handed out as (i, j) arrays of
    _GATHER pairs or more (the last may hold fewer) as they are gathered,
    so that a caller that filters each group holds one group at a time.
    The blocks of `_candidate_blocks` are joined as they come: thousands of
    block arrays, freed only at the end, would stay resident as free heap.
    While a caller holds a group, the generator keeps only the group's
    first block besides, and the search's grid until every pair is found."""
    blocks = _candidate_blocks(points, reach, marked)
    for first in blocks:
        yield _joined(_gathered(first, blocks))


def _gathered(first, blocks) -> list:
    """`first` and the pair blocks that follow it in `blocks`, until they
    hold _GATHER pairs or `blocks` ends."""
    held, waiting = [first], first[0].size
    while waiting < _GATHER and (pair := next(blocks, None)) is not None:
        held.append(pair)
        waiting += pair[0].size
    return held


def _candidate_blocks(points, reach: float, marked=None):
    """The pairs of `_candidate_pairs`, handed out block by block.  The
    relative 1e-12 covers rounding in the point distances.

    The points go into a uniform cell grid (the linked-cell method of
    Hockney and Eastwood, "Computer Simulation Using Particles", 1981) of
    side h = (1 + _CELL_MARGIN) reach / 2, sorted by cell key, with the last
    axis of stride 1 and two cells of padding on each side of the others.
    Two points within reach then lie within 2 cells of each other along
    every axis, so a point's neighbours lie in the 5^(dim - 1) stencil rows
    of cells about its own along the first axes, and each row is one
    contiguous range of sorted points.  A plain query walks the half
    stencil from every point (its own row from the next point on, and the
    rows after it); a marked query, the full stencil from the marked points.
    Each row's range is cut to the cells along the last axis that a point
    within reach can occupy, given the gap from the query point to the row,
    and rows beyond reach are skipped.  One squared-distance test over the
    sorted coordinate rows keeps the pairs within reach.

    Rounding: a cell coordinate (x - lo) / h is off by at most 2^-52 of
    itself, and the grid has at most _CELLS_PER_POINT n + 8^dim cells, so for
    fewer than 2^26 points two coordinates differ from the exact difference
    by under 2^-21 cells; every gap is taken _CELL_MARGIN smaller and every
    width _CELL_MARGIN wider.  The grid holds O(n) cells whatever the
    extent: when the padded box would hold more at side h, the cells are
    widened, so no key overflows.  Candidates expand in blocks of about
    _GRID_BLOCK pairs, so working memory is the grid and one block.
    """
    reach = reach * (1.0 + 1e-12)
    x = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    dim, n = x.shape
    if n < 2:
        return
    lo = x.min(axis=1)
    extent = (x.max(axis=1) - lo).tolist()
    cap = _CELLS_PER_POINT * n + 8 ** dim
    cell = 0.5 * reach * (1.0 + _CELL_MARGIN)
    while cell == 0.0 or math.prod(e // cell + 5.0 for e in extent) > cap:
        cell = max(2.0 * cell, max(extent) / (cap ** (1.0 / dim) - 5.0),
                   1e-300)
    u = x - lo[:, None]
    u /= cell
    c = u.astype(np.int64)
    dims = (c.max(axis=1) + 5).tolist()
    dims[-1] -= 4
    strides = [math.prod(dims[k + 1 :]) for k in range(dim)]
    keys = c[-1] + 2 * sum(strides[:-1])
    for k in range(dim - 1):
        keys += c[k] * strides[k]
    order = np.argsort(keys)
    keys = keys.take(order)
    x, u, c = (v.take(order, axis=1) for v in (x, u, c))
    frac = u[:-1] - c[:-1]
    row = keys - c[-1]  # the key of cell 0 along the last axis in each row
    # start[k]: the first sorted point in cell key k or after it
    start = np.zeros(math.prod(dims) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=start.size - 1), out=start[1:])
    half = marked is None
    shifts = _stencil_rows(dim, half) @ np.array(strides[:-1], dtype=np.int64)
    shifts = shifts[:, None]
    query = (np.arange(n) if half else
             np.flatnonzero(np.asarray(marked).take(order)))
    # a row at offset o along one of the first axes lies max(o - f,
    # f - 1 - o) cells from a point at f in its own cell
    near = np.arange(-2.0, 3.0)[:, None] - _CELL_MARGIN
    far = near + (1.0 + 2.0 * _CELL_MARGIN)
    rr = (reach / cell) ** 2
    top = float(dims[-1] - 1)
    limit = reach * reach
    step = max(1, _GRID_BLOCK // shifts.size)
    for k in range(0, query.size, step):
        q = query[k : k + step]
        # the squared gap, in cells, from each query point to each row
        f = frac.take(q, axis=1)[:, None]
        gap = np.maximum(near - f, f - far)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        g2 = np.zeros((1, q.size))
        for sq in gap:
            g2 = (g2[:, None] + sq).reshape(-1, q.size)
        if half:
            g2 = g2[g2.shape[0] // 2 :]
        # each row's cells along the last axis within reach, as sorted ranges
        np.subtract(rr, g2, out=g2)
        empty = g2 < 0.0
        wide = np.sqrt(np.maximum(g2, 0.0, out=g2), out=g2)
        wide += _CELL_MARGIN
        ul = u[-1].take(q)
        span = np.empty((2,) + wide.shape)
        np.subtract(ul, wide, out=span[0])
        np.add(ul, wide, out=span[1])
        bounds = np.clip(span, 0.0, top, out=span).astype(np.int64)
        bounds[1] += 1
        bounds += row.take(q) + shifts
        first, end = start.take(bounds)
        if half:
            first[0] = q + 1
        count = end - first
        count[empty] = 0
        # query by query, in blocks of about _GRID_BLOCK candidates
        count, first = count.T, first.T
        per = count.sum(axis=1)
        total = np.cumsum(per)
        cuts = [0, q.size]
        if total[-1] > _GRID_BLOCK:
            cuts[1:1] = (np.flatnonzero(np.diff(total // _GRID_BLOCK))
                         + 1).tolist()
        for s, e in zip(cuts, cuts[1:]):
            cnt = count[s:e].ravel()
            b = np.repeat(first[s:e].ravel() - (np.cumsum(cnt) - cnt), cnt)
            b += np.arange(b.size)
            a = np.repeat(q[s:e], per[s:e])
            gap, other = _scratch(2 * dim * b.size).reshape(2, dim, b.size)
            x.take(a, axis=1, out=gap, mode="clip")
            x.take(b, axis=1, out=other, mode="clip")
            np.subtract(gap, other, out=gap)
            np.multiply(gap, gap, out=gap)
            d2 = gap[0]
            for sq in gap[1:]:
                d2 += sq
            keep = d2 <= limit
            a, b = order.take(a.compress(keep)), order.take(b.compress(keep))
            if half:
                yield np.minimum(a, b), np.maximum(a, b)
            else:
                keep = a < b
                yield a.compress(keep), b.compress(keep)


def _joined(parts) -> tuple:
    """The (i, j) arrays of pair parts (i, j), joined in order."""
    if len(parts) < 2:
        return parts[0] if parts else (np.empty(0, dtype=np.int64),
                                       np.empty(0, dtype=np.int64))
    return tuple(np.concatenate(side) for side in zip(*parts))


def _lowest_first(soup, units, ia, ib) -> np.ndarray:
    """The orbit condition of `_may_count`, for segments or stretches ia[k]
    and ib[k] (`units` as there).  A stretch is tested with its least
    representative (`_SegmentSoup.next_rep`, after its last: none) and
    the other's largest orbit minimum."""
    if units is None:
        low = soup.orbit_min
        return (low.take(ia) == ia) & (low.take(ib) >= ia)
    first, last, top = units
    lead = soup.next_rep.take(first).take(ia)
    return (lead <= last.take(ia)) & (top.take(ib) >= lead)


def _widest(pos, units, ia, ib, fold) -> np.ndarray:
    """The widest folded separation of units ia and ib (`_may_count`), in
    segments, or in arc lengths `pos`; single segments need no half."""
    if units is None:
        hi = ib - ia if pos is None else pos.take(ib) - pos.take(ia)
        return np.minimum(hi, fold - hi)
    first, last = units[:2]
    if pos is not None:
        first, last = pos.take(first), pos.take(last)
    hi = last.take(ib) - first.take(ia)
    wide = np.minimum(hi, fold - (first.take(ib) - last.take(ia)))
    return np.minimum(wide, fold // 2 if pos is None else 0.5 * fold, out=wide)


def _may_count(soup, units, ia, ib, inter, intra, arc_windows) -> np.ndarray:
    """The pair-exclusion rule, stated once for segment pairs, run pairs and
    whole components: whether some segment pair of units ia[k] and ib[k]
    (ia[k] not after ib[k]; a unit is a segment when `units` is None, else a
    stretch of one component, `units` the (first, last, top) arrays, top
    the largest orbit minimum of each stretch, None without orbits) may count
    toward the distance measured.  A segment pair counts if

    - its segments are on distinct components and `inter`; or on one,
      `intra`, more than _SKIP_WINDOW segments and (with `arc_windows`, one
      per component) more than its window of arc between midpoints apart,
      each separation x folded to min(x, total - x) on a closed component;
    - with orbits (`_SegmentSoup.orbit_min`), the lower segment a is the
      lowest of its orbit and the other's orbit has no index below a: one
      pair of each orbit of segment pairs, or a few where an element fixes
      a segment (`_lowest_first`).

    A stretch is tested at its widest: separations over [lo, hi],
    lo = pos(b.first) - pos(a.last), hi = pos(b.last) - pos(a.first), fold
    to at most min(hi, total - lo, half) (hi if open), half n // 2 segments
    or half the length.  The answer is exact for single segments and for
    distinct stretches' orbit condition, never false where a pair counts,
    and for a component with itself exact under an infinite window, or
    without orbits if open or without windows."""
    if soup.orbit_min is not None:
        held = _lowest_first(soup, units, ia, ib)
        if not held.all():
            # separations only of the pairs the orbit condition keeps
            at = np.flatnonzero(held)
            held[at] = _apart(soup, units, ia.take(at), ib.take(at), inter,
                              intra, arc_windows)
            return held
    return _apart(soup, units, ia, ib, inter, intra, arc_windows)


def _apart(soup, units, ia, ib, inter, intra, arc_windows) -> np.ndarray:
    """The first condition of `_may_count`: distinct components, or one
    component and separations that clear the skip and arc windows."""
    labels = soup.labels if units is None else soup.labels.take(units[0])
    comp = labels.take(ia)
    same = comp == labels.take(ib)
    keep = ~same if inter else np.zeros(same.size, dtype=bool)
    if intra and same.any():
        ok = same & (_widest(None, units, ia, ib, soup.fold_nseg.take(comp))
                     > _SKIP_WINDOW)
        if arc_windows is not None:
            ok &= (_widest(soup.arc_mid, units, ia, ib, soup.fold_len.take(comp))
                   > arc_windows.take(comp))
        keep |= ok
    return keep


def _admissible_min(soup, ia, ib, inter, intra, arc_windows) -> float:
    """Minimum distance over the segment pairs among (ia, ib), ia[k] < ib[k],
    that `_may_count` keeps; inf when it keeps none."""
    best = np.inf
    for k in range(0, ia.size, _CHUNK):
        ca, cb = ia[k : k + _CHUNK], ib[k : k + _CHUNK]
        keep = _may_count(soup, None, ca, cb, inter, intra, arc_windows)
        if keep.any():
            # compress, not ca[keep]: on a scattered mask such as this one
            # numpy's boolean indexing ran about 4x slower (40,000 pairs)
            best = min(best, float(soup.pair_distances(
                ca.compress(keep), cb.compress(keep)).min()))
    return best


def _pairs(sizes, lower=None) -> tuple:
    """(i, j): every index pair i < j within each block of consecutive
    items, for blocks of `sizes` items in order; np.triu_indices(n, 1) for
    one block of n.  With `lower`, a mask over the items, only the pairs
    whose i it marks."""
    sizes = np.asarray(sizes)
    n = int(sizes.sum())
    after = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, n + 1)
    if lower is not None:
        after *= lower
    i = np.repeat(np.arange(n), after)
    j = np.arange(i.size) - np.repeat(np.cumsum(after) - after
                                      - np.arange(1, n + 1), after)
    return i, j


def _sampled_bound(soup, inter, intra, arc_windows, per=None) -> float:
    """Where a search starts: the closest pair that `_may_count` keeps
    among `per[k]` segments spread evenly along each component k, by
    default up to _BOUND_SAMPLES over all components; without `inter`, only
    samples of one component are paired.  It is the distance of a searched
    pair, so a true upper bound, or inf when no sampled pair is kept."""
    ncomp = len(soup.comp_nseg)
    if per is None:
        per = np.minimum(max(1, _BOUND_SAMPLES // ncomp), soup.comp_nseg)
    lab = np.repeat(np.arange(ncomp), per)
    rank = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    seg = soup.first[lab] + rank * soup.comp_nseg[lab] // per[lab]
    # a kept pair's lower segment represents its orbit
    lead = None if soup.orbit_min is None else soup.orbit_min.take(seg) == seg
    ia, ib = _pairs([seg.size] if inter else per, lead)
    return _admissible_min(soup, seg[ia], seg[ib], inter, intra, arc_windows)


def _widened(radius: float) -> float:
    """A query radius just above `radius`, so a pair at exactly that
    distance is certified."""
    return radius * (1.0 + 1e-12) + 1e-300


def _run_starts(counts) -> np.ndarray:
    """First segment of every run, for components of `counts` segments in
    order: runs of _RUN consecutive segments of one component, of which
    the last holds the rest of its component."""
    counts = np.asarray(counts)
    per = -(-counts // _RUN)
    local = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    return np.repeat(np.cumsum(counts) - counts, per) + _RUN * local


def _members(first, size, runs):
    """(segments, k): every segment of the runs `runs`, of `size` segments
    from segment `first`, run after run and in order within a run, and the
    position in `runs` of its run."""
    count = size.take(runs)
    k = np.repeat(np.arange(runs.size), count)
    before = np.cumsum(count) - count
    return np.arange(k.size) + np.repeat(first.take(runs) - before, count), k


def _expand(first, size, ra, rb):
    """The segment pairs (i, j) with i in run ra[k] and j in run rb[k], k
    in order; i < j when every ra[k] precedes rb[k]."""
    i, k = _members(first, size, ra)
    j, at = _members(first, size, rb.take(k))
    return i.take(at), j


class _Runs:
    """The runs of a _SegmentSoup (`_run_starts`), each bounded by a
    capsule: its chord, from its first vertex to its last, or its first
    segment where that chord is shorter than _DEGENERATE of the run's
    length (a closed component of at most _RUN segments has a chord of
    length 0), and `dev`, a bound on the distance of its vertices (its
    last end included) from the chord plus the rounding allowances.  A
    segment lies within dev of the chord when both its ends do, so every
    point of the run does.  `mids` (n, 3) are the chord midpoints, and `radius`,
    half the chord plus dev, the radius about them that holds the run.
    With orbits, `top` is each run's largest orbit minimum, and `marked`
    the runs that hold an orbit's representative, from which the run query
    starts (`_candidate_pairs` with `marked`); else both are None."""

    def __init__(self, soup):
        n = len(soup)
        self.first = _run_starts(soup.comp_nseg)
        self.size = np.diff(self.first, append=n)
        self.last = self.first + self.size - 1
        starts, dirs = soup.rows[:3], soup.rows[3:6]
        a = starts[:, self.first]
        chord = starts[:, self.last] + dirs[:, self.last] - a
        span = np.sqrt(_dot(chord, chord))
        short = span < _DEGENERATE * np.add.reduceat(2.0 * soup.half, self.first)
        chord[:, short] = dirs[:, self.first[short]]
        self.rows = _segment_rows(a.T, chord.T)
        length = np.sqrt(self.rows[6])
        # each vertex but the run's last against its run's chord; the last
        # is the chord's end, or within `span` of the first vertex where
        # the first segment stands in for the chord
        run = np.repeat(np.arange(self.first.size), self.size)
        offset = starts - a[:, run]
        along = chord[:, run]
        t = np.clip(_dot(offset, along) / self.rows[6][run], 0.0, 1.0)
        gap = offset - t * along
        far = np.sqrt(np.maximum.reduceat(_dot(gap, gap), self.first))
        self.dev = (np.maximum(far, np.where(short, span, 0.0))
                    + _CHORD_ROUNDING * length + soup.slack)
        self.mids = (a + 0.5 * chord).T
        self.radius = 0.5 * length + self.dev
        self.marked = self.top = None
        if soup.orbit_min is not None:
            self.top = np.maximum.reduceat(soup.orbit_min, self.first)
            self.marked = soup.next_rep.take(self.first) <= self.last

    def lower_bounds(self, ra, rb) -> np.ndarray:
        """A lower bound on the kernel distance of every segment pair of run
        ra[k] and run rb[k]: the chords' kernel distance minus both
        deviations."""
        return _pair_distances(self.rows, ra, rb) - self.dev[ra] - self.dev[rb]


def _near_min(soup, runs, ra, rb, radius, inter, intra, arc_windows) -> float:
    """Minimum distance over the segment pairs of run pairs (ra, rb) that
    `_may_count` keeps and whose midpoints lie within radius plus both
    half-lengths, in passes of at most _KERNEL_PAIRS pairs; inf if none."""
    best = np.inf
    step = _KERNEL_PAIRS // (_RUN * _RUN)
    for k in range(0, ra.size, step):
        ia, ib = _expand(runs.first, runs.size, ra[k : k + step], rb[k : k + step])
        keep = _may_count(soup, None, ia, ib, inter, intra, arc_windows)
        gap = soup.mids.take(ia, axis=1) - soup.mids.take(ib, axis=1)
        reach = radius + soup.half[ia] + soup.half[ib] + soup.slack
        keep &= _dot(gap, gap) <= reach * reach
        if keep.any():
            best = min(best, float(soup.pair_distances(
                ia.compress(keep), ib.compress(keep)).min()))
    return best


def _run_pairs(soup, at, radius, inter, intra, arc_windows,
               sizes=None) -> tuple:
    """The run pairs among the runs `at` (None: every run) that
    `_may_count` keeps and whose capsule bound lies within `radius`: every
    pair within each block of `sizes` consecutive runs of `at`, by index
    (with orbits, those whose lower run holds a representative), or without
    `sizes` those that one query returns at `radius` plus twice their
    largest radius."""
    runs = soup.runs
    if sizes is not None:
        # a kept pair's lower run holds a representative
        lead = None if soup.orbit_min is None else (
            soup.next_rep.take(runs.first.take(at)) <= runs.last.take(at))
        ra, rb = _pairs(sizes, lead)
    else:
        mids, marked, reach = runs.mids, runs.marked, runs.radius
        if at is not None:
            mids, reach = mids.take(at, axis=0), reach.take(at)
            marked = None if marked is None else marked.take(at)
        ra, rb = _candidate_pairs(mids, radius + 2.0 * reach.max(), marked)
    if at is not None:
        ra, rb = at.take(ra), at.take(rb)
    keep = _may_count(soup, (runs.first, runs.last, runs.top), ra, rb, inter,
                      intra, arc_windows)
    ra, rb = ra.compress(keep), rb.compress(keep)
    keep = runs.lower_bounds(ra, rb) <= radius
    return ra.compress(keep), rb.compress(keep)


def _search(soup, intra, arc_windows) -> float:
    """The search of `_certified_min` over two or more components: inter
    pairs, and self pairs with `intra`, from one query over the runs at the
    sampled bound.  That bound holds a counted inter pair: segment 0 is
    sampled and is the lowest of its orbit, and no orbit lies below it, so
    it pairs with every sampled segment of another component."""
    radius = _widened(_sampled_bound(soup, True, intra, arc_windows))
    ra, rb = _run_pairs(soup, None, radius, True, intra, arc_windows)
    return _near_min(soup, soup.runs, ra, rb, radius, True, intra,
                     arc_windows)


def _self_min(soup, arc_windows) -> float:
    """Exact minimum over the self pairs that `_may_count` keeps (intra
    alone, under `arc_windows`), over the runs of the components that may
    keep one, at the closest kept pair among up to _SELF_SAMPLES segments
    spread evenly along each (inf when none is kept: every pair counts).

    A component has every pair of its runs enumerated by index when that
    radius plus twice its largest run radius, the reach of a query at that
    radius, covers its extent, the largest distance of a run midpoint from
    the centre of their bounding box: such a query would return a fixed
    share of its run pairs at least (on a built helix or planar loop, all
    or nearly all of them), so enumerating them costs at most a constant
    times the query.  They are enumerated in blocks of whole components,
    a new block starting once _INDEXED_PAIRS run pairs are out, so a link
    of many classes holds about one component's pairs at a time.  The other
    components go through one query, so no input turns quadratic."""
    q = soup.first.size
    runs = soup.runs
    start = np.searchsorted(runs.first, soup.first)  # each component's runs
    count = np.diff(start, append=runs.first.size)
    top = None if runs.top is None else np.maximum.reduceat(runs.top, start)
    whole = (soup.first, soup.first + soup.comp_nseg - 1, top)
    searched = _may_count(soup, whole, np.arange(q), np.arange(q), False, True,
                          arc_windows)
    if not searched.any():
        return np.inf
    per = np.where(searched, np.minimum(_SELF_SAMPLES, soup.comp_nseg), 0)
    radius = _widened(_sampled_bound(soup, False, True, arc_windows, per))
    lo = np.minimum.reduceat(runs.mids, start)
    hi = np.maximum.reduceat(runs.mids, start)
    centre = np.repeat(0.5 * (lo + hi), count, axis=0)
    extent = np.maximum.reduceat(_length(runs.mids - centre), start)
    wide = searched & (radius + 2.0 * np.maximum.reduceat(runs.radius, start)
                       >= extent)
    comps = np.flatnonzero(wide)
    size = count.take(comps) * (count.take(comps) - 1) // 2
    block = (np.cumsum(size) - size) // _INDEXED_PAIRS
    found = [_run_pairs(soup, _members(start, count, at)[0], radius, False,
                        True, arc_windows, count.take(at))
             for at in np.split(comps, np.flatnonzero(np.diff(block)) + 1)]
    queried = np.flatnonzero(searched & ~wide)
    if queried.size:
        found.append(_run_pairs(soup, _members(start, count, queried)[0],
                                radius, False, True, arc_windows))
    ra, rb = (np.concatenate(side) for side in zip(*found))
    return _near_min(soup, runs, ra, rb, radius, False, True, arc_windows)


def _certified_min(curves, inter, intra, arc_windows, orbit_min=None,
                   split=False, soup=None):
    """Exact minimum distance over the segment pairs of `curves` that
    `_may_count` keeps: pairs of distinct components when `inter`, self
    pairs outside the skip window and (with `arc_windows`, one per
    component) the arc window when `intra`, and with `orbit_min`, the
    lowest index of each segment's orbit under a symmetry of all curves in
    order (`measure._symmetry`), one pair per orbit of segment pairs; inf
    when it keeps none.  Inter pairs of two or more components are one
    search over the runs (`_search`, self pairs included with `intra`);
    self pairs alone, or one component, go to `_self_min`.

    With `split` (`inter` and `intra` both set, else ValueError), the pair
    (inter minimum, self minimum) from one segment table and one set of
    runs: the inter pairs from `_search` (inf for one component, without a
    search), the self pairs from `_self_min`.  It is a flag here rather
    than a function of its own so that perfbench/tracing.py, which wraps
    `measure._certified_min`, sees the call.  `soup`, the curves'
    `_SegmentSoup` with `orbit_min`, is passed by a caller that has built
    it."""
    soup = _SegmentSoup(curves, orbit_min) if soup is None else soup
    searched = inter and len(curves) > 1
    if split:
        if not (inter and intra):
            raise ValueError("split needs both inter and intra pairs")
        return (_search(soup, False, None) if searched else np.inf,
                _self_min(soup, arc_windows))
    if searched:
        return _search(soup, intra, arc_windows)
    return _self_min(soup, arc_windows) if intra else np.inf


def mutual_min_distance(curves) -> float:
    """Exact minimum distance over all pairs of distinct components."""
    return _certified_min(curves, inter=True, intra=False, arc_windows=None)


def min_distance_brute(a: PolyCurve, b: PolyCurve) -> float:
    """Reference O(n*m) scan; used to validate the run search."""
    soup = _SegmentSoup([a, b])
    na = a.n_segments
    ia, ib = np.meshgrid(np.arange(na), np.arange(na, len(soup)), indexing="ij")
    return _admissible_min(soup, ia.ravel(), ib.ravel(), True, False, None)


def min_self_distance_brute(a: PolyCurve, arc_window: float | None = None) -> float:
    """Reference all-pairs self distance with the same exclusion rules."""
    soup = _SegmentSoup([a])
    ia, ib = np.triu_indices(len(soup), 1)
    windows = None if arc_window is None else np.array([float(arc_window)])
    return _admissible_min(soup, ia, ib, False, True, windows)
