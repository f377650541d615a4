"""Linking numbers of closed polygonal curves.

`linking_matrix` counts projected crossings (Qu & James, "Fast Linking
Numbers for Topology Verification of Loopy Structures", ACM TOG 40(4), 2021)
along the integer direction d = (1, 2, 3), and half the signed count between
two components is their linking number.  Every decision is the exact sign of
a 3x3 determinant in the input coordinates:

- segments AB and CD cross in the projection when C and D lie on opposite
  sides of AB and A and B on opposite sides of CD, each side the sign of
  det[Q - P, R - P, d] for the segment PQ and the point R;
- a crossing counts with the sign of det[B - A, D - C, A - C] (the turn of
  the projected tangents times which strand lies on top), which does not
  depend on d.

Each determinant is evaluated in floating point, in the order of
Shewchuk's orient3d ("Adaptive precision floating-point arithmetic and fast
robust geometric predicates", Discrete Comput. Geom. 18, 1997), and decided
where it clears his forward error bound, _ERR times its permanent (plus
_UNDERFLOW).  The few that do not are evaluated again in Python integers
(`_exact`).  An exact zero on a side is broken by simulation of simplicity
(Edelsbrunner and Mücke, ACM TOG 9, 1990) on d, perturbed by
e*e1 + e^2*e2 + e^3*e3: the side is the first non-zero of the determinant
and the x, y and z of (Q - P) x (R - P).  If all four vanish, P, Q and R
are collinear in space: R touches the segment when it lies on it, and
otherwise the pair does not cross.  Projected along the perturbed d, curves
that do not touch are then in general position, so each signed count is
even and no pair needs a second method.  The linking is undefined, and
`linking_matrix` returns None, only when two curves touch exactly: a vertex
on the other curve's segment, or a crossing of zero volume.

The candidates are the segment pairs of different components whose
projected bounding boxes overlap (`_overlapping_boxes`), on the plane of
_PLANE, whose rows are orthogonal to d and to each other; each box is
padded past the rounding of the projection, so it holds its segment's
exact projection.  They are found by the package's one near-pair search,
`distances._candidate_groups`, over the runs of `distances`: the boxes of
runs of _RUN consecutive segments, whose overlapping pairs of different
components expand to their segment pairs.  Each group of run pairs the
search hands out is filtered and expanded as it comes, so only candidate
segment pairs are kept.  The side tests of a chunk of candidates gather
their columns from one table of segment vectors and one of points.
"""

from __future__ import annotations

import numpy as np

from .distances import _candidate_groups, _joined, _members, _run_starts

__all__ = ["linking_matrix"]

# Candidate pairs per chunk: their four side tests are (3, 4 * _CHUNK)
# columns, a few MiB of temporaries.
_CHUNK = 1 << 14

# The projection direction d, as a column, and two rows orthogonal to it and
# to each other, of lengths 2.24 and 2.09, exact in binary: projected boxes
# nearly as square as an orthonormal frame's.
_D = np.array([[1], [2], [3]])
_PLANE = np.array([[2.0, -1.0, 0.0], [0.75, 1.5, -1.25]])

# Shewchuk's orient3d error bound relative to the permanent (u = 2^-53),
# and an absolute term for underflow: a product that underflows is off by
# at most 2^-1075, and the third column (coordinate differences, at most
# 2e75, since curves keep coordinates within 1e75) scales that by at most
# 6e75 in all, which stays below 2^-800.
_ERR = (7.0 + 56.0 * 2.0**-53) * 2.0**-53
_UNDERFLOW = 2.0**-800


def _det(x, y, z):
    """det[x, y, z] of (3, n) columns, floats or exact integers, summed in
    orient3d's order: its value, the cross product x × y and the
    permanent."""
    c, m = [], []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        s, t = x[i] * y[j], x[j] * y[i]
        c.append(s - t)
        m.append(abs(s) + abs(t))
    det = (z[0] * c[0] + z[1] * c[1]) + z[2] * c[2]
    perm = (abs(z[0]) * m[0] + abs(z[1]) * m[1]) + abs(z[2]) * m[2]
    return det, c, perm


def _signs(x, y, z):
    """The signs of det[x, y, z] in floating point, and the indices of
    those that do not clear the error bound (their signs are to be
    replaced)."""
    det, _, perm = _det(x, y, z)
    unsure = np.abs(det) <= _ERR * perm + _UNDERFLOW
    return np.sign(det), np.flatnonzero(unsure)


def _exact(v):
    """Float array v in Python integers, each value times 2^1074 (every
    double is an integer multiple of 2^-1074)."""
    return np.array([n << (1075 - d.bit_length()) for n, d in
                     map(float.as_integer_ratio, v.ravel().tolist())],
                    dtype=object).reshape(v.shape)


def _exact_sides(p, q, r):
    """Exact sides of r against the segments pq ((3, n) float columns) under
    the perturbed d, 0 where p, q and r are collinear; None when some r
    lies on its closed segment pq."""
    p, q, r = (_exact(v) for v in (p, q, r))
    x, y = q - p, r - p
    det, c, _ = _det(x, y, _D)
    side = np.sign(c[2])
    for key in (c[1], c[0], det):
        side = np.where(key != 0, np.sign(key), side)
    if np.any((side == 0) & ((y * (y - x)).sum(axis=0) <= 0)):
        return None
    return side


def _overlapping(a, b, lo, hi, lo_b=None, hi_b=None):
    """The index pairs (a[k], b[k]) whose boxes overlap on both axes: box i
    of a spans rows lo[:, i] to hi[:, i] (2, n), box j of b rows lo_b[:, j]
    to hi_b[:, j] (by default the same boxes)."""
    if lo_b is None:
        lo_b, hi_b = lo, hi
    for k in range(2):
        keep = (lo[k].take(a) <= hi_b[k].take(b)) & (lo_b[k].take(b) <= hi[k].take(a))
        a, b = a.compress(keep), b.compress(keep)
    return a, b


def _overlapping_boxes(lo, hi, labels):
    """Index pairs (i < j) of different labels whose boxes [lo, hi] overlap
    on both axes.  Segments are grouped in the runs of `distances` (labels
    run in order, one per component), and a run's box is the union of its
    segments' boxes.  The run pairs of different labels whose boxes overlap
    are found among the run box centres within the largest run box diagonal
    (at least any two half-diagonals; the pad covers rounding far out),
    one group of the search at a time.  Each segment of the first run of
    such a pair whose box overlaps the second run's box is paired with the
    second run's segments, and those pairs are filtered by their own
    boxes."""
    first = _run_starts(np.bincount(labels))
    size = np.diff(first, append=labels.size)
    run_lo = np.minimum.reduceat(lo, first)
    run_hi = np.maximum.reduceat(hi, first)
    centres = 0.5 * (run_lo + run_hi)
    pad = 4.0 * np.spacing(np.abs(centres).max())
    reach = np.hypot(*(run_hi - run_lo).T).max() + pad
    lo, hi, run_lo, run_hi = (x.T.copy() for x in (lo, hi, run_lo, run_hi))
    run_labels = labels[first]
    found = []
    for ra, rb in _candidate_groups(centres, reach):
        ra, rb = _overlapping(ra, rb, run_lo, run_hi)
        keep = run_labels.take(ra) != run_labels.take(rb)
        ra, rb = ra.compress(keep), rb.compress(keep)
        a, k = _members(first, size, ra)
        a, k = _overlapping(a, k, lo, hi, run_lo.take(rb, axis=1),
                            run_hi.take(rb, axis=1))
        b, at = _members(first, size, rb.take(k))
        found.append(_overlapping(a.take(at), b, lo, hi))
    return _joined(found)


def _candidates(points, labels):
    """The segment pairs of different components (`_overlapping_boxes`)
    whose boxes on the plane of _PLANE overlap, each box padded to hold its
    segment's exact projection; `points` holds the segments' starts, then
    their ends, as (3, 2m) columns."""
    m = labels.size
    # with M the largest coordinate magnitude and u = 2^-53, a projected
    # coordinate (three products summed, at most 3.5 M) is off by at most
    # about 3u * 3.5 M and the padding rounds by u * 3.5 M more: 14u M in
    # all, within 2^-48 M
    pad = 2.0**-48 * max(float(points.max()), -float(points.min()))
    flat = _PLANE @ points
    lo = np.minimum(flat[:, :m], flat[:, m:]).T - pad
    hi = np.maximum(flat[:, :m], flat[:, m:]).T + pad
    return _overlapping_boxes(lo, hi, labels)


def _crossing_counts(curves) -> np.ndarray | None:
    """The symmetric matrix of signed crossing counts between the closed
    curves (two or more), or None when two of them touch."""
    q = len(curves)
    labels = np.repeat(np.arange(q), [c.n_segments for c in curves])
    m = labels.size
    # the segments' starts, then their ends, as (3, 2m) columns
    points = np.concatenate([c.segment_starts() for c in curves]
                            + [c.segment_ends() for c in curves]).T
    pairs_a, pairs_b = _candidates(points, labels)
    vectors = points[:, m:] - points[:, :m]

    signs = np.zeros((q, q), dtype=int)
    for k in range(0, pairs_a.size, _CHUNK):
        a, b = pairs_a[k : k + _CHUNK], pairs_b[k : k + _CHUNK]
        # sides of C, D against AB and of A, B against CD, for AB in a, CD in b
        at = np.concatenate((a, a, b, b))
        to = np.concatenate((b, b + m, a, a + m))
        x = vectors.take(at, axis=1)
        y = points.take(to, axis=1)
        y -= points.take(at, axis=1)
        side, unsure = _signs(x, y, _D)
        if unsure.size:
            exact = _exact_sides(*(points.take(i.take(unsure), axis=1)
                                   for i in (at, at + m, to)))
            if exact is None:
                return None
            side[unsure] = exact
        sc, sd, sa, sb = side.reshape(4, -1)
        cross = np.flatnonzero((sc * sd < 0) & (sa * sb < 0))
        # crossing signs: det[B - C, D - C, A - C] = det[B - A, D - C, A - C]
        x, y = x.reshape(3, 4, -1), y.reshape(3, 4, -1)
        turn, unsure = _signs(y[:, 3].take(cross, axis=1),
                              x[:, 2].take(cross, axis=1),
                              y[:, 2].take(cross, axis=1))
        if unsure.size:
            i, j = a.take(cross.take(unsure)), b.take(cross.take(unsure))
            pa, pb, pc, pd = (_exact(points.take(v, axis=1))
                              for v in (i, i + m, j, j + m))
            exact = _det(pb - pc, pd - pc, pa - pc)[0]
            if np.any(exact == 0):
                return None
            turn[unsure] = np.sign(exact)
        np.add.at(signs, (labels.take(a.take(cross)),
                          labels.take(b.take(cross))), turn.astype(int))
    return signs + signs.T


def linking_matrix(curves) -> np.ndarray | None:
    """Pairwise linking numbers of a list of closed curves.

    Returns an integer matrix with zeros on the diagonal, or None when the
    linking is undefined because two curves touch.  Raises ValueError if a
    curve is open.
    """
    curves = list(curves)
    if not all(c.closed for c in curves):
        raise ValueError("linking number requires closed curves")
    if len(curves) < 2:
        return np.zeros((len(curves), len(curves)), dtype=int)
    counts = _crossing_counts(curves)
    return None if counts is None else counts // 2
