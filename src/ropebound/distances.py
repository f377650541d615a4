"""Minimum distances between polygonal curves.

Candidate segment pairs come from one KD-tree ball query over segment
midpoints with radius max(segment length) + query radius, which is
guaranteed to contain every segment pair closer than the query radius.  The
first radius is the smaller of a fixed default and a vertex-vertex upper
bound on the minimum: for distances between components, the closest pair
among a few hundred vertices spread evenly along all of them, which on
planar rings lies within a small factor of the true minimum and keeps the
candidate set small.  A pass returns a certified exact minimum whenever the
candidate minimum is at most the query radius; otherwise the radius is
enlarged to the candidate minimum (or the vertex bound, when a pass found no
candidates) and one more pass certifies.
Results are exactly those of the brute-force scan: both routes use the same
segment-pair kernel with the lower segment index first, and the candidate
set always contains the optimal pair.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .curves import PolyCurve

__all__ = [
    "segment_pair_distances",
    "min_distance",
    "min_self_distance",
    "mutual_min_distance",
    "min_distance_brute",
    "min_self_distance_brute",
]

_CHUNK = 1 << 20


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
    """Flattened segments of one or more curves, with component bookkeeping."""

    def __init__(self, curves):
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
        self.comp_len = np.asarray(comp_len)
        self.comp_closed = np.asarray(comp_closed, dtype=bool)
        self.max_seg = float(np.linalg.norm(self.dirs, axis=1).max())

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


# Vertices sampled, over all components together, for the inter-component
# upper bound that seeds the search radius (a 256 x 256 distance matrix).
_BOUND_SAMPLES = 256


def _candidate_pairs(soup: _SegmentSoup, reach: float):
    """All segment index pairs (i < j) whose midpoints lie within `reach` of
    each other, from a KD tree over the midpoints.  Two segments at distance
    r have midpoints at most r + max_seg apart, so a ball of radius
    max_seg + r holds every pair closer than r; the relative 1e-12 covers
    rounding in the midpoint distances."""
    pairs = cKDTree(soup.mids).query_pairs(
        reach * (1.0 + 1e-12), output_type="ndarray"
    )
    return pairs[:, 0], pairs[:, 1]


def _admissible(soup, ia, ib, inter, intra, skip_window, arc_windows):
    """Mask of candidate pairs that participate in the distance being measured."""
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
        ok = same & (di > skip_window)
        if arc_windows is not None:
            da = np.abs(soup.arc_mid[ia] - soup.arc_mid[ib])
            total = soup.comp_len[lab]
            da = np.where(cyc, np.minimum(da, total - da), da)
            ok &= da > arc_windows[lab]
        keep |= ok
    return keep


def _vertex_upper_bound(soup, inter, intra, skip_window):
    """Cheap true upper bound on the measured minimum: the closest pair among
    up to _BOUND_SAMPLES vertices spread evenly along the components, taken
    over distinct components (inter), or well-separated vertices of a single
    component (intra).  Every component contributes its first vertex, so the
    inter bound is never looser than the first-vertex distances."""
    best = np.inf
    ncomp = len(soup.comp_nseg)
    if inter and ncomp > 1:
        first = np.concatenate(([0], np.cumsum(soup.comp_nseg)[:-1]))
        per = np.minimum(max(1, _BOUND_SAMPLES // ncomp), soup.comp_nseg)
        lab = np.repeat(np.arange(ncomp), per)
        rank = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
        pts = soup.starts[first[lab] + rank * soup.comp_nseg[lab] // per[lab]]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d[lab[:, None] == lab[None, :]] = np.inf
        best = min(best, float(d.min()))
    if intra:
        for k in range(ncomp):
            n = soup.comp_nseg[k]
            if n > 2 * skip_window + 1:
                pts = soup.starts[soup.labels == k]
                best = min(best, float(np.linalg.norm(pts[0] - pts[n // 2])))
    return best


def _certified_min(
    curves,
    inter=True,
    intra=False,
    skip_window=5,
    arc_windows=None,
    initial_radius=2.5,
):
    soup = _SegmentSoup(curves)
    if len(soup) < 2:
        return np.inf
    radius = float(initial_radius)
    diam = soup.scene_diameter()
    used_ub = False
    # Any point-pair distance upper-bounds the minimum, so when the scene is
    # smaller than the default radius, start at that bound: the first pass is
    # then guaranteed to certify, from far fewer candidates.
    ub = _vertex_upper_bound(soup, inter, intra, skip_window)
    if np.isfinite(ub) and ub < radius:
        radius = ub * (1.0 + 1e-12) + 1e-300
        used_ub = True
    for _ in range(64):
        ia, ib = _candidate_pairs(soup, soup.max_seg + radius)
        best = np.inf  # stays inf when no candidate is admissible
        for k in range(0, ia.size, _CHUNK):
            ca, cb = ia[k : k + _CHUNK], ib[k : k + _CHUNK]
            keep = _admissible(soup, ca, cb, inter, intra, skip_window, arc_windows)
            if keep.any():
                d = soup.pair_distances(ca[keep], cb[keep])
                best = min(best, float(d.min()))
        if best < np.inf:
            if best <= radius:
                return best
            radius = best * (1.0 + 1e-12) + 1e-300
        else:
            if radius > diam:
                return np.inf  # no admissible pairs exist at all
            if not used_ub:
                used_ub = True
                if np.isfinite(ub):
                    radius = max(ub * (1.0 + 1e-12), radius)
                    continue
            radius *= 4.0
    raise RuntimeError("distance search failed to certify")  # pragma: no cover


def min_distance(a: PolyCurve, b: PolyCurve) -> float:
    """Exact minimum distance between two polygonal curves."""
    return _certified_min([a, b], inter=True, intra=False)


def min_self_distance(
    a: PolyCurve, skip_window: int = 5, arc_window: float | None = None
) -> float:
    """Exact minimum self distance of one curve, skipping local pairs.

    Pairs within `skip_window` segments along the curve are always excluded
    (adjacent segments share a vertex).  `arc_window` additionally excludes
    pairs closer than that arc length along the curve; measure_link passes
    pi times the curve's minimal curvature radius.
    """
    if skip_window < 1:
        raise ValueError("skip_window must be >= 1")
    windows = None if arc_window is None else np.array([float(arc_window)])
    return _certified_min(
        [a], inter=False, intra=True, skip_window=skip_window, arc_windows=windows
    )


def mutual_min_distance(curves) -> float:
    """Exact minimum distance over all pairs of distinct components."""
    curves = list(curves)
    if len(curves) < 2:
        return np.inf
    return _certified_min(curves, inter=True, intra=False)


def min_distance_brute(a: PolyCurve, b: PolyCurve) -> float:
    """Reference O(n*m) scan; used to validate the KD-tree route."""
    soup = _SegmentSoup([a, b])
    na = a.n_segments
    ia, ib = np.meshgrid(np.arange(na), np.arange(na, len(soup)), indexing="ij")
    ia, ib = ia.ravel(), ib.ravel()
    best = np.inf
    for k in range(0, ia.size, _CHUNK):
        d = soup.pair_distances(ia[k : k + _CHUNK], ib[k : k + _CHUNK])
        best = min(best, float(d.min()))
    return best


def min_self_distance_brute(
    a: PolyCurve, skip_window: int = 5, arc_window: float | None = None
) -> float:
    """Reference all-pairs self distance with the same exclusion rules."""
    soup = _SegmentSoup([a])
    n = len(soup)
    ia, ib = np.triu_indices(n, 1)
    windows = None if arc_window is None else np.array([float(arc_window)])
    keep = _admissible(soup, ia, ib, False, True, skip_window, windows)
    ia, ib = ia[keep], ib[keep]
    if not ia.size:
        return np.inf
    best = np.inf
    for k in range(0, ia.size, _CHUNK):
        d = soup.pair_distances(ia[k : k + _CHUNK], ib[k : k + _CHUNK])
        best = min(best, float(d.min()))
    return best
