"""Linking numbers of closed polygonal curves.

`linking_matrix` counts projected crossings (Qu & James, "Fast Linking
Numbers for Topology Verification of Loopy Structures", ACM TOG 40(4), 2021).
Every segment of every component is projected along one fixed direction
that is not axis-aligned.  The candidates are the segment pairs of different
components whose projected bounding boxes overlap, found by the package's
one near-pair search, `distances._candidate_pairs` (`_overlapping_boxes`).
Each candidate that crosses in the projection contributes the sign of its
crossing, and half the signed count between two components is their linking
number, an exact integer with no tolerance involved.  The crossing test
reads each chunk of candidates from a (6, n) table of projected coordinate
rows (start u, v, d, end u, v, d) by one `take` per side.

A component pair is degenerate when one of its candidates is nearly
parallel in the projection or crosses within _EPS of a segment end (or when
its signed count is odd).  Only such pairs fall back to the Gauss sum
`_gauss_linking_number`, which is also the reference the fast count is
tested against: the sum of signed solid angles of all segment pairs, each
pair contributing the quadrilateral solid angle spanned by its endpoints,
divided by 4*pi.  The linking is undefined, and `linking_matrix` returns
None, when two curves touch: at a crossing whose over/under heights agree to
within _EPS of the link's extent (the Gauss sum is not asked, since it can
round such a pair to an integer), or where a degenerate pair's Gauss sum is
farther than _GAUSS_TOL from an integer.
"""

from __future__ import annotations

import numpy as np

from .curves import PolyCurve
from .distances import _candidate_pairs

__all__ = ["linking_matrix"]

_CHUNK = 1 << 18

# Relative tolerance of the three degeneracy tests.
_EPS = 1e-9

# A Gauss sum farther than this from an integer means the curves touch.
_GAUSS_TOL = 0.1


def _projection_frame() -> np.ndarray:
    """Rows u, v, d: an orthonormal frame whose d (the projection direction)
    is not aligned with any axis or coordinate plane."""
    d = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
    d /= np.linalg.norm(d)
    u = np.cross(d, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    return np.array([u, np.cross(d, u), d])


_FRAME = _projection_frame()


def _quad_solid_angles(a, b, c, d):
    """Signed solid angle of the spherical quadrilateral with vertex
    directions a, b, c, d (rows), where a - b + c - d = 0 guarantees the two
    triangle fans share one numerator."""
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    ld = np.linalg.norm(d, axis=1)
    p = np.einsum("ij,ij->i", a, np.cross(b, c))
    ab = np.einsum("ij,ij->i", a, b)
    bc = np.einsum("ij,ij->i", b, c)
    ca = np.einsum("ij,ij->i", c, a)
    cd = np.einsum("ij,ij->i", c, d)
    da = np.einsum("ij,ij->i", d, a)
    ac = ca
    den1 = la * lb * lc + ab * lc + bc * la + ca * lb
    den2 = la * lc * ld + ac * ld + cd * la + da * lc
    return 2.0 * (np.arctan2(p, den1) + np.arctan2(p, den2))


def _gauss_linking_number(a: PolyCurve, b: PolyCurve) -> int | None:
    """Gauss linking number of two closed polygonal curves, or None when the
    sum is farther than _GAUSS_TOL from an integer (the curves touch, or
    the geometry is numerically degenerate)."""
    s1 = a.segment_starts()
    e1 = a.segment_ends()
    s2 = b.segment_starts()
    e2 = b.segment_ends()
    n = len(s1) * len(s2)
    total = 0.0
    for k in range(0, n, _CHUNK):
        i, j = np.divmod(np.arange(k, min(k + _CHUNK, n)), len(s2))
        va = s1[i] - s2[j]
        vb = s1[i] - e2[j]
        vc = e1[i] - e2[j]
        vd = e1[i] - s2[j]
        total += float(_quad_solid_angles(va, vb, vc, vd).sum())
    value = total / (4.0 * np.pi)
    nearest = round(value)
    return int(nearest) if abs(value - nearest) <= _GAUSS_TOL else None


def _overlapping_boxes(lo, hi, labels):
    """Index pairs (i < j) of different labels whose boxes [lo, hi] overlap
    on both axes, found among the centres within the largest diagonal (at
    least any two half-diagonals; the pad covers rounding far out)."""
    centres = 0.5 * (lo + hi)
    pad = 4.0 * np.spacing(np.abs(centres).max())
    a, b = _candidate_pairs(centres, np.hypot(*(hi - lo).T).max() + pad)
    keep = labels[a] != labels[b]
    for lo_k, hi_k in zip(lo.T, hi.T):
        keep &= (lo_k[a] <= hi_k[b]) & (lo_k[b] <= hi_k[a])
    return a.compress(keep), b.compress(keep)


def linking_matrix(curves) -> np.ndarray | None:
    """Pairwise linking numbers of a list of closed curves.

    Returns an integer matrix with zeros on the diagonal, or None when the
    linking is undefined because two curves touch.  Raises ValueError if a
    curve is open.
    """
    curves = list(curves)
    if not all(c.closed for c in curves):
        raise ValueError("linking number requires closed curves")
    q = len(curves)
    if q < 2:
        return np.zeros((q, q), dtype=int)
    labels = np.repeat(np.arange(q), [c.n_segments for c in curves])
    p0 = np.concatenate([c.segment_starts() for c in curves]) @ _FRAME.T
    p1 = np.concatenate([c.segment_ends() for c in curves]) @ _FRAME.T
    margin = _EPS * float(np.ptp(p0, axis=0).max())
    lo = np.minimum(p0[:, :2], p1[:, :2]) - margin
    hi = np.maximum(p0[:, :2], p1[:, :2]) + margin
    # coordinate rows (start u, v, d, end u, v, d), gathered per pair chunk
    rows = np.concatenate((p0.T, p1.T))

    pairs_a, pairs_b = _overlapping_boxes(lo, hi, labels)
    signs = np.zeros((q, q), dtype=int)
    degenerate = np.zeros((q, q), dtype=bool)
    for k in range(0, pairs_a.size, _CHUNK):
        a, b = pairs_a[k : k + _CHUNK], pairs_b[k : k + _CHUNK]
        ga, gb = rows.take(a, axis=1), rows.take(b, axis=1)
        r = ga[3:] - ga[:3]
        s = gb[3:] - gb[:3]
        w = gb[:2] - ga[:2]
        den = r[0] * s[1] - r[1] * s[0]
        parallel = np.abs(den) <= _EPS * np.hypot(r[0], r[1]) * np.hypot(s[0], s[1])
        den = np.where(parallel, 1.0, den)
        t = (w[0] * s[1] - w[1] * s[0]) / den
        u = (w[0] * r[1] - w[1] * r[0]) / den
        near = ~parallel & (np.abs(t - 0.5) <= 0.5 + _EPS) & (
            np.abs(u - 0.5) <= 0.5 + _EPS
        )
        gap = (ga[2] + t * r[2]) - (gb[2] + u * s[2])
        if np.any(near & (np.abs(gap) <= margin)):
            return None
        at_end = (np.abs(t - 0.5) >= 0.5 - _EPS) | (np.abs(u - 0.5) >= 0.5 - _EPS)
        bad = parallel | (near & at_end)
        degenerate[labels[a[bad]], labels[b[bad]]] = True
        cross = near & ~bad
        # Crossing sign: turn of the projected tangents times which strand
        # is on top; with this frame it agrees with the Gauss sum's sign.
        np.add.at(
            signs,
            (labels[a[cross]], labels[b[cross]]),
            (np.sign(den[cross]) * np.sign(gap[cross])).astype(int),
        )

    signs += signs.T
    degenerate |= degenerate.T | (signs % 2 == 1)
    out = signs // 2
    for i, j in zip(*np.nonzero(np.triu(degenerate, 1))):
        lk = _gauss_linking_number(curves[i], curves[j])
        if lk is None:
            return None
        out[i, j] = out[j, i] = lk
    return out
