"""Minimum distances of polygonal curves; the package's one near-pair search.

`_candidate_pairs` is one KD-tree query for every pair of points within a
reach, which each caller (this module and `linking`) sizes to hold every
pair it needs.  Both callers query runs, not segments: each component is cut
into runs of _RUN consecutive segments (`_run_starts`), a quarter of the
points.  Here a run is bounded by a capsule, a line-swept sphere (Larsen,
Gottschalk, Lin and Manocha, "Fast proximity queries with swept sphere
volumes", 2000): its chord, from its first vertex to its last, swept by a
ball whose radius is the largest distance of its vertices from the chord,
padded for rounding (a ball about the chord midpoint where the chord
degenerates).  The points are the chord midpoints and the reach is the query
radius plus twice the largest radius about them that holds a run.

Which segment pairs count is one rule, `_may_count`, asked of segment
pairs, run pairs and whole components.  The query radius is a sampled upper
bound: the closest counted pair among a hundred-odd segments spread evenly
along the components (at most 32 per component when only self pairs
count), which on planar rings lies within a small factor of the true
minimum and which the one search certifies.  When no sampled pair counts,
the search runs at the scene diameter, or not at all when no pair of whole
components may count (a circle under its bending window).  With orbit
representatives (from `measure`) the query runs from the runs that hold
one.  Run pairs are dropped before any segment pair is formed when the rule
drops them or their capsule bound (the kernel distance of the chords minus
both radii) exceeds the query radius.  The survivors expand, _KERNEL_PAIRS
segment pairs at most at a time, to the counted pairs whose midpoints lie
within the query radius plus both half-lengths, which reach the kernel.
Results are exactly those of the brute-force scan over the pairs counted:
both routes use the same kernel with the lower segment index first, and no
bound drops the optimal pair.

`_candidate_pairs` builds its trees by sliding-midpoint splits
(`balanced_tree=False`), which build and search faster here than median
splits and return the same pair sets.  `_SegmentSoup` keeps its segments as
one contiguous table of coordinate rows (start x, y, z, direction x, y, z,
squared length).  The segment-pair kernel runs _KERNEL_PAIRS pairs at a
time: a pass gathers its pairs' columns from the table with one `take` per
side and computes on (3, m) rows, every step a ufunc that writes into the
calling thread's workspace, so a pass allocates nothing.  Its dot products
are summed x, z, y, the order `np.einsum("ij,ij->i")` sums an (m, 3) array
in, so the distances are those of the einsum formulation bit for bit.
`segment_pair_distances` takes (m, 3) arrays and runs the same kernel.
"""

from __future__ import annotations

import threading

import numpy as np

from .curves import PolyCurve

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
# by a ball, since the kernel needs segments of positive length.
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
    """Flattened segments of one or more curves, with component bookkeeping.
    `reps`, when given, marks the segments of which every searched pair has
    at least one (the representatives of a symmetry's orbits); None, or a
    mask of all segments, searches every pair.  `next_rep[i]` is the first
    representative at or after segment i (n after the last), and a
    separation x on component k folds to min(x, fold - x) for `fold_nseg[k]`
    and `fold_len[k]` (an open one's, 2n and inf, never do)."""

    def __init__(self, curves, reps=None):
        starts, dirs, labels = [], [], []
        arc_mid, comp_nseg, comp_len, closed = [], [], [], []
        for k, c in enumerate(curves):
            s = c.segment_starts()
            d = c.segment_ends() - s
            lens = np.linalg.norm(d, axis=1)
            cum = np.concatenate(([0.0], np.cumsum(lens)))
            starts.append(s)
            dirs.append(d)
            labels.append(np.full(len(s), k))
            arc_mid.append(cum[:-1] + 0.5 * lens)
            comp_nseg.append(len(s))
            comp_len.append(cum[-1])
            closed.append(c.closed)
        starts = np.concatenate(starts)
        dirs = np.concatenate(dirs)
        self.rows = _segment_rows(starts, dirs)
        # midpoints and half-lengths, as (3, n) and (n,) rows
        self.mids = self.rows[:3] + 0.5 * self.rows[3:6]
        self.half = 0.5 * np.sqrt(self.rows[6])
        self.labels = np.concatenate(labels)
        self.arc_mid = np.concatenate(arc_mid)
        self.comp_nseg = np.asarray(comp_nseg)
        self.first = np.cumsum(self.comp_nseg) - self.comp_nseg
        self.fold_nseg = np.where(closed, self.comp_nseg, 2 * self.comp_nseg)
        self.fold_len = np.where(closed, comp_len, np.inf)
        self.max_seg = 2.0 * float(self.half.max())
        # what each bound test allows for rounding: the geometry is known to
        # a few ulps of its largest coordinate
        self.slack = _ROUNDING * (float(np.abs(self.mids).max()) + self.max_seg)
        self.next_rep = (None if reps is None or np.all(reps) else
                         np.minimum.accumulate(np.where(
                             reps, np.arange(len(reps)), len(reps))[::-1])[::-1])

    def __len__(self):
        return self.rows.shape[1]

    def scene_diameter(self) -> float:
        lo = self.mids.min(axis=1)
        hi = self.mids.max(axis=1)
        return float(np.linalg.norm(hi - lo)) + 2.0 * self.max_seg

    def pair_distances(self, ia, ib) -> np.ndarray:
        """Distances of the segment pairs (ia[k], ib[k])."""
        return _pair_distances(self.rows, ia, ib)


# Segments sampled for the upper bound that seeds the search radius: at most
# _BOUND_SAMPLES over all components together (8128 segment pairs), and at
# most _SELF_SAMPLES per component in a pass of self pairs alone: on a torus
# helix, 128 samples cost more than their tighter start saves.
_BOUND_SAMPLES = 128
_SELF_SAMPLES = 32


def _candidate_pairs(points, reach: float, marked=None):
    """All index pairs (i < j) of `points` (rows, any dimension) that lie
    within `reach` of each other, from one KD-tree query; with `marked`, a
    mask over the points, the query runs from the marked points and keeps
    the pairs with one.  The relative 1e-12 covers rounding in the point
    distances.  scipy.spatial is imported here, so commands that never
    search (sweep, correction, bounds) do not pay for it."""
    from scipy.spatial import cKDTree

    reach = reach * (1.0 + 1e-12)
    tree = cKDTree(points, balanced_tree=False)
    if marked is None:
        pairs = tree.query_pairs(reach, output_type="ndarray")
        # contiguous rows: callers gather and compress along them
        return np.ascontiguousarray(pairs.T)
    rows = np.flatnonzero(marked)
    found = cKDTree(points[rows], balanced_tree=False).sparse_distance_matrix(
        tree, reach, output_type="ndarray"
    )
    i, j = rows[found["i"]], found["j"]
    # a pair of two marked points is found from both ends: keep it once
    keep = (i < j) | ((i > j) & ~marked[j])
    i, j = i.compress(keep), j.compress(keep)
    return np.minimum(i, j), np.maximum(i, j)


def _holds_rep(next_rep, first, last) -> np.ndarray:
    """Whether each stretch of segments [first, last] holds a representative."""
    return next_rep.take(first) <= last


def _widest(pos, units, ia, ib, fold) -> np.ndarray:
    """The widest folded separation of units ia and ib (`_may_count`), in
    segments, or in arc lengths `pos`; single segments need no half."""
    if units is None:
        hi = ib - ia if pos is None else pos.take(ib) - pos.take(ia)
        return np.minimum(hi, fold - hi)
    first, last = units if pos is None else (pos.take(u) for u in units)
    hi = last.take(ib) - first.take(ia)
    wide = np.minimum(hi, fold - (first.take(ib) - last.take(ia)))
    return np.minimum(wide, fold // 2 if pos is None else 0.5 * fold, out=wide)


def _may_count(soup, units, ia, ib, inter, intra, arc_windows) -> np.ndarray:
    """The pair-exclusion rule, stated once for segment pairs, run pairs and
    whole components: whether some segment pair of units ia[k] and ib[k]
    (ia[k] not after ib[k]; a unit is a segment when `units` is None, else a
    stretch of one component, `units` the (first, last) arrays) may count
    toward the distance measured.  A segment pair counts if

    - its segments are on distinct components and `inter`; or on one,
      `intra`, more than _SKIP_WINDOW segments and (with `arc_windows`, one
      per component) more than its window of arc between midpoints apart,
      each separation x folded to min(x, total - x) on a closed component;
    - with representatives (`_SegmentSoup.next_rep`), one segment is one.

    A stretch is tested at its widest: separations over [lo, hi],
    lo = pos(b.first) - pos(a.last), hi = pos(b.last) - pos(a.first), fold
    to at most min(hi, total - lo, half) (hi if open), half n // 2 segments
    or half the length; it holds a representative if the first one from its
    first segment on is not after its last.  The answer is exact for single
    segments, never false where a pair counts, and for a component with
    itself exact under an infinite window, or without representatives if
    open or without windows."""
    if soup.next_rep is not None:
        if units is None:
            held = (_holds_rep(soup.next_rep, ia, ia)
                    | _holds_rep(soup.next_rep, ib, ib))
        else:
            holds = _holds_rep(soup.next_rep, *units)
            held = holds.take(ia) | holds.take(ib)
        if not held.all():
            # separations only of the pairs with a representative
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


def _sampled_bound(soup, inter, intra, arc_windows) -> float:
    """Where the search starts: the closest pair that `_may_count` keeps
    among up to _BOUND_SAMPLES segments spread evenly along the components
    (at most _SELF_SAMPLES per component in a pass of self pairs alone).
    It is the distance of a searched pair, so a true upper bound, or inf
    when no sampled pair is kept."""
    ncomp = len(soup.comp_nseg)
    per = max(1, _BOUND_SAMPLES // ncomp)
    if not inter:
        per = min(per, _SELF_SAMPLES)
    per = np.minimum(per, soup.comp_nseg)
    lab = np.repeat(np.arange(ncomp), per)
    rank = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    seg = soup.first[lab] + rank * soup.comp_nseg[lab] // per[lab]
    ia, ib = np.triu_indices(len(seg), 1)
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
    capsule: its chord, from its first vertex to its last, and `dev`, the
    largest distance of its vertices from the chord plus the rounding
    allowances.  A segment lies within dev of the chord when both its ends
    do, so every point of the run does.  A run whose chord degenerates (a
    closed component of at most _RUN segments has a chord of length 0) is
    a ball: dev is then measured from its first vertex, and the run lies
    within `radius` of its chord midpoint.  `mids` (n, 3) are the chord
    midpoints, and `radius`, half the chord plus dev, the radius about them
    that holds the run."""

    def __init__(self, soup):
        n = len(soup)
        self.first = _run_starts(soup.comp_nseg)
        self.size = np.diff(self.first, append=n)
        self.last = self.first + self.size - 1
        starts = soup.rows[:3]
        a = starts[:, self.first]
        chord = starts[:, self.last] + soup.rows[3:6, self.last] - a
        self.rows = _segment_rows(a.T, chord.T)
        length = np.sqrt(self.rows[6])
        self.ball = length < _DEGENERATE * np.add.reduceat(2.0 * soup.half,
                                                           self.first)
        # each vertex but the run's last (an end of its chord) against its
        # run's chord, a ball's vertices against its first vertex
        run = np.repeat(np.arange(self.first.size), self.size)
        offset = starts - a[:, run]
        along = chord[:, run]
        t = _dot(offset, along) / np.where(self.ball, 1.0, self.rows[6])[run]
        t = np.where(self.ball[run], 0.0, np.clip(t, 0.0, 1.0))
        gap = offset - t * along
        self.dev = (np.sqrt(np.maximum.reduceat(_dot(gap, gap), self.first))
                    + _CHORD_ROUNDING * length + soup.slack)
        self.mids = (a + 0.5 * chord).T
        self.radius = 0.5 * length + self.dev
        self.marked = (None if soup.next_rep is None
                       else _holds_rep(soup.next_rep, self.first, self.last))

    def lower_bounds(self, ra, rb) -> np.ndarray:
        """A lower bound on the kernel distance of every segment pair of run
        ra[k] and run rb[k]: the chords' kernel distance minus both
        deviations, or the midpoint distance minus both radii where a run
        is a ball."""
        ball = self.ball[ra] | self.ball[rb]
        out = np.empty(ra.size)
        if ball.any():
            ka, kb = ra[ball], rb[ball]
            out[ball] = (np.linalg.norm(self.mids[ka] - self.mids[kb], axis=1)
                         - self.radius[ka] - self.radius[kb])
            ra, rb = ra[~ball], rb[~ball]
        out[~ball] = (_pair_distances(self.rows, ra, rb)
                      - self.dev[ra] - self.dev[rb])
        return out


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


def _certified_min(curves, inter, intra, arc_windows, reps=None) -> float:
    """Exact minimum distance over the segment pairs of `curves` that
    `_may_count` keeps: pairs of distinct components when `inter`, self
    pairs outside the skip window and (with `arc_windows`, one per
    component) the arc window when `intra`, and with `reps`, a mask over
    the segments of all curves in order, only pairs with a marked segment
    (the representatives of a symmetry's orbits, `measure._symmetry`); inf
    when it keeps none.  One search over the runs, at the sampled bound, or
    if no sampled pair was kept, at the scene diameter if it keeps a pair of
    whole components."""
    soup = _SegmentSoup(curves, reps)
    start = _sampled_bound(soup, inter, intra, arc_windows)
    if np.isfinite(start):
        radius = _widened(start)
    else:
        # each component with itself, and the first with every other one
        q = soup.first.size
        ca, cb = np.r_[:q, np.zeros(q - 1, dtype=int)], np.r_[:q, 1:q]
        whole = (soup.first, soup.first + soup.comp_nseg - 1)
        if not _may_count(soup, whole, ca, cb, inter, intra, arc_windows).any():
            return np.inf
        radius = soup.scene_diameter()
    runs = _Runs(soup)
    ra, rb = _candidate_pairs(runs.mids, radius + 2.0 * runs.radius.max(),
                              runs.marked)
    keep = _may_count(soup, (runs.first, runs.last), ra, rb, inter, intra,
                      arc_windows)
    ra, rb = ra.compress(keep), rb.compress(keep)
    keep = runs.lower_bounds(ra, rb) <= radius
    ra, rb = ra.compress(keep), rb.compress(keep)
    return _near_min(soup, runs, ra, rb, radius, inter, intra, arc_windows)


def mutual_min_distance(curves, reps=None) -> float:
    """Exact minimum distance over all pairs of distinct components (with
    `reps`, over the pairs with a marked segment; see _certified_min)."""
    return _certified_min(curves, inter=True, intra=False, arc_windows=None,
                          reps=reps)


def min_distance_brute(a: PolyCurve, b: PolyCurve) -> float:
    """Reference O(n*m) scan; used to validate the KD-tree route."""
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
