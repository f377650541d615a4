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
"""

from __future__ import annotations

import numpy as np

from .curves import PolyCurve

__all__ = [
    "segment_pair_distances",
    "mutual_min_distance",
    "min_distance_brute",
    "min_self_distance_brute",
]

_CHUNK = 1 << 20

# Self pairs within this many segments along a curve are never admissible
# (adjacent segments share a vertex).
_SKIP_WINDOW = 5


def segment_pair_distances(p1, d1, p2, d2) -> np.ndarray:
    """Exact distances between segments [p1, p1+d1] and [p2, p2+d2], batched.

    Standard clamped closest-point computation; segments must have positive
    length.  All arrays are (m, 3).
    """
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    b = np.einsum("ij,ij->i", d1, d2)
    c = np.einsum("ij,ij->i", d1, r)
    f = np.einsum("ij,ij->i", d2, r)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s_low = np.clip(-c / a, 0.0, 1.0)
        s_high = np.clip((b - c) / a, 0.0, 1.0)
    s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
    t = np.clip(t, 0.0, 1.0)
    diff = r + s[:, None] * d1 - t[:, None] * d2
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
        self.starts = np.concatenate(starts)
        self.dirs = np.concatenate(dirs)
        self.mids = self.starts + 0.5 * self.dirs
        self.labels = np.concatenate(labels)
        self.index_in_comp = np.concatenate(index_in_comp)
        self.arc_mid = np.concatenate(arc_mid)
        self.comp_nseg = np.asarray(comp_nseg)
        self.first = np.cumsum(self.comp_nseg) - self.comp_nseg
        self.comp_len = np.asarray(comp_len)
        self.comp_closed = np.asarray(comp_closed, dtype=bool)
        self.max_seg = float(np.linalg.norm(self.dirs, axis=1).max())
        self.reps = None if reps is None or np.all(reps) else np.asarray(reps)

    def __len__(self):
        return len(self.starts)

    def scene_diameter(self) -> float:
        lo = self.mids.min(axis=0)
        hi = self.mids.max(axis=0)
        return float(np.linalg.norm(hi - lo)) + 2.0 * self.max_seg

    def pair_distances(self, ia, ib) -> np.ndarray:
        return segment_pair_distances(
            self.starts[ia], self.dirs[ia], self.starts[ib], self.dirs[ib]
        )


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
    tree = cKDTree(points)
    if marked is None:
        pairs = tree.query_pairs(reach, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]
    rows = np.flatnonzero(marked)
    found = cKDTree(points[rows]).sparse_distance_matrix(
        tree, reach, output_type="ndarray"
    )
    i, j = rows[found["i"]], found["j"]
    # a pair of two marked points is found from both ends: keep it once
    keep = (i < j) | ((i > j) & ~marked[j])
    i, j = i[keep], j[keep]
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
            best = min(best, float(soup.pair_distances(ca[keep], cb[keep]).min()))
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
        ia, ib = ia[touch], ib[touch]
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
