"""Minimum distances of polygonal curves; the package's one near-pair search.

`_candidate_pairs` is one KD-tree query for every pair of points within a
reach, which each caller (this module and `linking`) sizes to hold every
pair it needs.  Here the points are segment midpoints and the reach is
max(segment length) + query radius, which holds every segment pair closer
than the query radius.

The query radius is a sampled upper bound: the closest admissible pair
among a hundred-odd segments spread evenly along the components (at most 32
per component when only self pairs count), which on planar rings lies
within a small factor of the true minimum and keeps the candidate set
small.  Being an admissible pair's distance, it is certified by that one
search; when no sampled pair is admissible, the search runs at the scene
diameter and sees every pair.  When no pair can be admissible at all (a
single component whose arc window covers half its length, such as a circle
under its bending window), there is no search.  A search may be restricted
to the pairs with at least one segment among given representatives
(`measure` passes the representatives of the orbits of a link's rotation
group): the query then runs from those segments only, and the sampled bound
counts only such pairs.  Results are exactly those of the brute-force scan
over the pairs searched: both routes use the same segment-pair kernel with
the lower segment index first, and the candidate set always contains the
optimal pair.

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
    mask of all segments, searches every pair."""

    def __init__(self, curves, reps=None):
        starts, dirs, labels, index_in_comp = [], [], [], []
        arc_mid, comp_nseg, comp_len, comp_closed = [], [], [], []
        for k, c in enumerate(curves):
            s = c.segment_starts()
            d = c.segment_ends() - s
            lens = np.linalg.norm(d, axis=1)
            cum = np.concatenate(([0.0], np.cumsum(lens)))
            starts.append(s)
            dirs.append(d)
            labels.append(np.full(len(s), k))
            index_in_comp.append(np.arange(len(s)))
            arc_mid.append(cum[:-1] + 0.5 * lens)
            comp_nseg.append(len(s))
            comp_len.append(cum[-1])
            comp_closed.append(c.closed)
        starts = np.concatenate(starts)
        dirs = np.concatenate(dirs)
        self.mids = starts + 0.5 * dirs
        self.rows = _segment_rows(starts, dirs)
        self.labels = np.concatenate(labels)
        self.index_in_comp = np.concatenate(index_in_comp)
        self.arc_mid = np.concatenate(arc_mid)
        self.comp_nseg = np.asarray(comp_nseg)
        self.first = np.cumsum(self.comp_nseg) - self.comp_nseg
        self.comp_len = np.asarray(comp_len)
        self.comp_closed = np.asarray(comp_closed, dtype=bool)
        self.max_seg = float(np.linalg.norm(dirs, axis=1).max())
        self.reps = None if reps is None or np.all(reps) else np.asarray(reps)

    def __len__(self):
        return self.rows.shape[1]

    def scene_diameter(self) -> float:
        lo = self.mids.min(axis=0)
        hi = self.mids.max(axis=0)
        return float(np.linalg.norm(hi - lo)) + 2.0 * self.max_seg

    def pair_distances(self, ia, ib) -> np.ndarray:
        """Distances of the segment pairs (ia[k], ib[k]), gathered from the
        coordinate rows into a _Workspace, _KERNEL_PAIRS pairs at a time."""
        out = np.empty(ia.size)
        for k in range(0, out.size, _KERNEL_PAIRS):
            chunk = slice(k, k + _KERNEL_PAIRS)
            part = out[chunk]
            ws = _workspace(part.size)
            # mode="clip" writes straight into ws.g; "raise" would buffer it
            self.rows.take(ia[chunk], axis=1, out=ws.g, mode="clip")
            self.rows.take(ib[chunk], axis=1, out=ws.h, mode="clip")
            _kernel(ws.g, ws.h, ws, part)
        return out


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
        return pairs[:, 0], pairs[:, 1]
    rows = np.flatnonzero(marked)
    found = cKDTree(points[rows], balanced_tree=False).sparse_distance_matrix(
        tree, reach, output_type="ndarray"
    )
    i, j = rows[found["i"]], found["j"]
    # a pair of two marked points is found from both ends: keep it once
    keep = (i < j) | ((i > j) & ~marked[j])
    i, j = i.compress(keep), j.compress(keep)
    return np.minimum(i, j), np.maximum(i, j)


def _admissible(soup, ia, ib, inter, intra, arc_windows):
    """Mask of candidate pairs that participate in the distance being
    measured.  A component whose arc window is inf has no admissible self
    pair."""
    same = soup.labels[ia] == soup.labels[ib]
    keep = np.zeros(len(ia), dtype=bool)
    if inter:
        keep |= ~same
    if intra and same.any():
        lab = soup.labels[ia]
        di = np.abs(soup.index_in_comp[ia] - soup.index_in_comp[ib])
        nseg = soup.comp_nseg[lab]
        cyc = soup.comp_closed[lab]
        di = np.where(cyc, np.minimum(di, nseg - di), di)
        ok = same & (di > _SKIP_WINDOW)
        if arc_windows is not None:
            da = np.abs(soup.arc_mid[ia] - soup.arc_mid[ib])
            total = soup.comp_len[lab]
            da = np.where(cyc, np.minimum(da, total - da), da)
            ok &= da > arc_windows[lab]
        keep |= ok
    return keep


def _self_pairs_possible(soup, arc_windows) -> np.ndarray:
    """Per component, whether `_admissible` can keep any of its self pairs:
    the widest separations it can compute must clear its thresholds.  On a
    closed component the folded separations are at most half the segments
    and half the length; on an open one they are those of its first and
    last segments."""
    closed = soup.comp_closed
    ok = np.where(closed, soup.comp_nseg // 2, soup.comp_nseg - 1) > _SKIP_WINDOW
    if arc_windows is not None:
        last = soup.first + soup.comp_nseg - 1
        span = soup.arc_mid[last] - soup.arc_mid[soup.first]
        ok &= np.where(closed, 0.5 * soup.comp_len, span) > arc_windows
    return ok


def _admissible_min(soup, ia, ib, inter, intra, arc_windows) -> float:
    """Minimum distance over the admissible pairs among (ia, ib); inf when
    none is admissible."""
    best = np.inf
    for k in range(0, ia.size, _CHUNK):
        ca, cb = ia[k : k + _CHUNK], ib[k : k + _CHUNK]
        keep = _admissible(soup, ca, cb, inter, intra, arc_windows)
        if keep.any():
            # compress, not ca[keep]: on a scattered mask such as this one
            # numpy's boolean indexing ran about 4x slower (40,000 pairs)
            best = min(best, float(soup.pair_distances(
                ca.compress(keep), cb.compress(keep)).min()))
    return best


def _sampled_bound(soup, inter, intra, arc_windows) -> float:
    """Where the search starts: the closest admissible pair among up to
    _BOUND_SAMPLES segments spread evenly along the components (at most
    _SELF_SAMPLES per component in a pass of self pairs alone), counting
    only pairs with a segment in `soup.reps`.  It is the distance of
    a searched pair, so a true upper bound, or inf when no sampled pair is
    admissible."""
    ncomp = len(soup.comp_nseg)
    per = max(1, _BOUND_SAMPLES // ncomp)
    if not inter:
        per = min(per, _SELF_SAMPLES)
    per = np.minimum(per, soup.comp_nseg)
    lab = np.repeat(np.arange(ncomp), per)
    rank = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    seg = soup.first[lab] + rank * soup.comp_nseg[lab] // per[lab]
    ia, ib = np.triu_indices(len(seg), 1)
    ia, ib = seg[ia], seg[ib]
    if soup.reps is not None:
        touch = soup.reps[ia] | soup.reps[ib]
        ia, ib = ia.compress(touch), ib.compress(touch)
    return _admissible_min(soup, ia, ib, inter, intra, arc_windows)


def _widened(radius: float) -> float:
    """A query radius just above `radius`, so a pair at exactly that
    distance is certified."""
    return radius * (1.0 + 1e-12) + 1e-300


def _certified_min(curves, inter, intra, arc_windows, reps=None) -> float:
    """Exact minimum distance over the admissible segment pairs of `curves`:
    pairs of distinct components when `inter`, self pairs more than
    _SKIP_WINDOW segments and (with `arc_windows`, one per component) more
    than that arc length apart when `intra`; inf when no pair is admissible.
    With `reps`, a mask over the segments of all curves in order, only
    pairs with at least one marked segment count (the representatives of a
    symmetry's orbits, `measure._symmetry`).  No candidate search when no
    pair can be admissible, else one: at the sampled bound, or at the scene
    diameter when no sampled pair was admissible."""
    soup = _SegmentSoup(curves, reps)
    if not ((inter and len(soup.comp_nseg) > 1)
            or (intra and _self_pairs_possible(soup, arc_windows).any())):
        return np.inf
    start = _sampled_bound(soup, inter, intra, arc_windows)
    radius = _widened(start) if np.isfinite(start) else soup.scene_diameter()
    ia, ib = _candidate_pairs(soup.mids, soup.max_seg + radius, soup.reps)
    return _admissible_min(soup, ia, ib, inter, intra, arc_windows)


def mutual_min_distance(curves, reps=None) -> float:
    """Exact minimum distance over all pairs of distinct components (with
    `reps`, over the pairs with a marked segment; see _certified_min)."""
    curves = list(curves)
    if len(curves) < 2:
        return np.inf
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
