"""The search for a link's symmetry group behind `measure._symmetry`: the
rotations about the centroid of its vertices, half-turns included, that map
every vertex within eps of a vertex, found from its coordinates
(`_generators`), and each segment's orbit under them (`_orbits`).

`measure._symmetry` imports this module at its first call, so commands that
never measure a link (sweep, correction, bounds) do not load it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distances import _dot, _scratch

# Eigenvalues of the vertices' second-moment tensor within this fraction of
# the largest count as equal: a link symmetric within eps (1e-12 of its
# extent) splits equal ones by about 2e-11 of the largest.
_ISOTROPIC = 1e-9

# Perpendicular half-turns tried at most (`_Frame.perpendicular` offers one
# per near vertex of its reference peak: a few on a helix, every vertex of a
# circle about the axis, each of which fits), so no link tries hundreds.
_PERPENDICULAR_TRIES = 32


def _generators(stacks, axes: np.ndarray, order: int, eps: float) -> tuple:
    """Generators of the link's group of proper isometries about the
    centroid of its vertices: (r, k, s, f), the index maps (3, q) (see
    _Frame.images) of a rotation r of order k, of the half-turn s about its
    axis and of a half-turn f about an axis perpendicular to it, each None
    when not found (k = 1 without r).  `axes` (3, N), the vertices in stack
    order, is centred in place.

    The candidates come from the second-moment tensor of the vertices
    about their centroid: about its principal axis n whose eigenvalue lies
    farthest from the other two (none when all three agree), they are

    - the rotation r by 2 pi / k, for the divisors k of `order` (from the
      chord classes, see `measure._symmetry`), largest first;
    - the half-turn s, when the k found is odd (1 when none is);
    - the half-turns about axes through the centroid perpendicular to n
      (`_Frame.perpendicular`), until one is accepted.

    Each is accepted when it maps every vertex within a tolerance of its
    image under an index map (`_Frame.images`): eps / (2 max(1, k // 2))
    for r, eps / 4 for each half-turn.  Every element of the group they
    generate is then a word r^j s^a f^b with |j| <= k // 2 (`_dihedral`),
    which moves every vertex within eps."""
    x = axes
    x -= x.mean(axis=1)[:, None]
    lam, vec = np.linalg.eigh(np.einsum("ij,kj->ik", x, x))
    low, high = lam[1] - lam[0], lam[2] - lam[1]
    if max(low, high) <= _ISOTROPIC * lam[2]:
        return None, 1, None, None
    n = vec[:, 0] if low >= high else vec[:, 2]
    # a sign of its own, so that a link's rotation keeps one direction
    n = n if n[np.abs(n).argmax()] > 0.0 else -n
    frame = _Frame(stacks, x, 2.0 * eps)
    rotation, k = None, 1
    for d in range(order, 1, -1):
        if order % d == 0:
            rotation = frame.images(_turn(n, 2.0 * math.pi / d),
                                    eps / (2 * (d // 2)))
            if rotation is not None:
                k = d
                break
    spin = frame.images(_turn(n, math.pi), eps / 4.0) if k % 2 else None
    flip = None
    for u in frame.perpendicular(n)[:_PERPENDICULAR_TRIES]:
        flip = frame.images(_turn(u, math.pi), eps / 4.0)
        if flip is not None:
            break
    return rotation, k, spin, flip


def _turn(u: np.ndarray, angle: float) -> np.ndarray:
    """The rotation by `angle` about the unit vector u (Rodrigues), a
    half-turn with no sine term.  `curves.rotation_about_axis` gives the
    same rotation, but its normalizing and stacking made one matrix take
    about six times as long."""
    x, y, z = u.tolist()
    c = math.cos(angle)
    s = 0.0 if angle == math.pi else math.sin(angle)
    t = 1.0 - c
    return np.array([[c + t * x * x, t * x * y - s * z, t * x * z + s * y],
                     [t * x * y + s * z, c + t * y * y, t * y * z - s * x],
                     [t * x * z - s * y, t * y * z + s * x, c + t * z * z]])


def _compose(g: np.ndarray, h: np.ndarray, nvert: np.ndarray) -> np.ndarray:
    """The index maps of each element of g after the element h: g (..., 3,
    q) rows image, sign, shift, h (3, q); `nvert` the components' vertex
    counts.  h maps component i to h[0, i], vertex v to h[1, i] v + h[2, i];
    g then maps that on."""
    out = g[..., h[0]]
    out[..., 2, :] += out[..., 1, :] * h[2]
    out[..., 2, :] %= nvert
    out[..., 1, :] *= h[1]
    return out


def _orbits(stacks, rotation, k: int, spin, flip) -> tuple:
    """(group, orbit_min): the index maps of the elements that the
    generators generate (`_dihedral`) and each segment's orbit minimum
    (`_orbit_min`), (None, None) for the identity alone.  Both follow from
    the generators' index maps and the stacks' layout, so they are
    remembered for the last such pair of inputs: an optimizer's evaluations
    of one family share them."""
    layout = tuple((st.idx.tobytes(), st.vertices.shape[1], st.closed)
                   for st in stacks)
    maps = tuple(None if g is None else g.tobytes()
                 for g in (rotation, spin, flip))
    return _orbits_of(layout, k, maps)


@functools.lru_cache(maxsize=1)
def _orbits_of(layout: tuple, k: int, maps: tuple) -> tuple:
    """_orbits from its key: the layout's (indices, vertex count,
    closedness) per stack and the generators' index maps, as bytes.  The
    arrays returned are read-only."""
    idx = [np.frombuffer(b, dtype=np.int64) for b, _, _ in layout]
    q = sum(i.size for i in idx)
    nvert = np.empty(q, dtype=np.int64)
    nseg = np.empty(q, dtype=np.int64)
    for i, (_, n, closed) in zip(idx, layout):
        nvert[i], nseg[i] = n, n if closed else n - 1
    rotation, spin, flip = (None if b is None else
                            np.frombuffer(b, dtype=np.int64).reshape(3, q)
                            for b in maps)
    group = _dihedral(rotation, k, spin, flip, nvert)
    if group is None:
        return None, None
    orbit_min = _orbit_min(group, idx, nseg)
    for array in (group, orbit_min):
        array.flags.writeable = False
    return group, orbit_min


def _dihedral(rotation, k: int, spin, flip, nvert: np.ndarray):
    """The index maps of the words r^j s^a f^b (0 <= j < k; a, b 0 or 1)
    of the rotation r of order k, the half-turn s about its axis and the
    half-turn f about an axis perpendicular to it, each (3, q) or None
    when not found: (e, 3, q), the identity first; None when that is all.
    They are the group the three generate when r^k, s^2 and f^2 are the
    identity, s commutes with r and f, and f r f = r^-1, which is checked
    on the index maps: r is dropped when its order fails, a half-turn when
    its relations do."""
    one = np.array((np.arange(nvert.size), np.ones_like(nvert),
                    np.zeros_like(nvert)))
    words = one[None]
    if rotation is not None:
        powers = [one, rotation]
        while len(powers) <= k:
            powers.append(_compose(powers[-1], rotation, nvert))
        if np.array_equal(powers[k], one):
            words = np.array(powers[:k])
    r, back = words[1 % len(words)], words[-1]
    kept = []
    for turn, inverse in ((spin, False), (flip, True)):
        if turn is None or not np.array_equal(_compose(turn, turn, nvert), one):
            continue
        if not np.array_equal(_compose(_compose(turn, r, nvert), turn, nvert),
                              back if inverse else r):
            continue
        if any(not np.array_equal(_compose(turn, other, nvert),
                                  _compose(other, turn, nvert))
               for other in kept):
            continue
        kept.append(turn)
        words = np.concatenate((words, _compose(words, turn, nvert)))
    return words if len(words) > 1 else None


class _Frame:
    """A link's vertices about their centroid, one row per axis, in stack
    order (`x`, (3, N)), and what testing a rotation about the centroid
    needs.  Each component has a vertex count, a first vertex in `x`
    (`base`), whether it is open (`ends`), and a peak, its first vertex
    farthest from the centroid (`peak_at` along it; `peaks` and `after`,
    the coordinates of the peaks and of their successors).  A rotation
    about the centroid that maps a component within reach / 2 of another
    maps its peak near a vertex of the other's top, the vertices within
    `reach` of its largest distance from the centroid, which must match
    the peak's: the near pairs are those, grouped by peak (`near_peak`),
    with each vertex's coordinates, those of its successor, its component
    and its index along it.  `shapes` holds each stack's indices, first
    vertex in `x`, size and index tables (`_folds`).  Two (3, N) buffers,
    cut from the distance kernel's (`distances._scratch`), take a full
    test's rows."""

    def __init__(self, stacks, x: np.ndarray, reach: float):
        q = sum(st.idx.size for st in stacks)
        self.x = x
        self.reach = reach
        self.ids = np.arange(q)
        self.count = np.empty(q, dtype=np.int64)
        self.base = np.empty(q, dtype=np.int64)
        self.peak_at = np.empty(q, dtype=np.int64)
        self.all_closed = all(st.closed for st in stacks)
        self.ends = np.zeros(q, dtype=bool)  # open components
        self.shapes = []
        self.moved, self.target = _scratch(6 * x.shape[1]).reshape(2, 3, -1)
        square = _dot(x, x, self.moved)
        pairs = []
        at = 0
        for st in stacks:
            m, n = st.vertices.shape[:2]
            r2 = square[at:at + m * n].reshape(m, n)
            top = r2.argmax(axis=1)
            self.count[st.idx] = n
            self.base[st.idx] = at + n * np.arange(m)
            self.peak_at[st.idx] = top
            self.ends[st.idx] = not st.closed
            self.shapes.append((st.idx, at, m, n, _folds(n, 0)))
            far = np.sqrt(r2[np.arange(m), top])
            tops = np.flatnonzero(r2 >= (np.maximum(far - reach, 0.0) ** 2)[:, None])
            row, along = np.divmod(tops, n)
            # each peak against the tops of the components as far out
            count = np.bincount(row, minlength=m)
            i, j = np.nonzero(np.abs(far[:, None] - far) <= reach)
            size = count.take(j)
            k = np.arange(size.sum()) + np.repeat(
                (np.cumsum(count) - count).take(j) - np.cumsum(size) + size, size)
            i, row, along = np.repeat(i, size), row.take(k), along.take(k)
            start = at + row * n
            pairs.append((st.idx.take(i), st.idx.take(row), along, start + along,
                          start + (along + 1) % n))
            at += m * n
        if len(pairs) == 1:
            peak, comp, along, vertex, after = pairs[0]
        else:
            peak, comp, along, vertex, after = (np.concatenate(part)
                                                for part in zip(*pairs))
            order = np.argsort(peak, kind="stable")
            peak, comp, along, vertex, after = (
                part.take(order) for part in (peak, comp, along, vertex, after))
        self.near_peak, self.near_comp, self.near_at = peak, comp, along
        self.near_x = x.take(vertex, axis=1)
        self.near_next = x.take(after, axis=1)
        peak = self.base + self.peak_at
        self.peaks = x.take(peak, axis=1)
        self.after = x.take(peak + 1 - self.count * (self.peak_at + 1 == self.count),
                            axis=1)

    def images(self, turn: np.ndarray, tol: float) -> np.ndarray | None:
        """The rows image, sign and shift, (3, q), when the rotation `turn`
        about the centroid maps every vertex v of every component within
        `tol` of vertex sign v + shift (cyclically; 0 or n - 1 reversed on
        an open component) of its image component, the images a
        permutation; None otherwise.  The peaks are tested first
        (`_Frame.peak_images`), every vertex only after they pass
        (`_Frame.fits`)."""
        maps = self.peak_images(turn, tol)
        return maps if maps is not None and self.fits(turn, maps, tol) else None

    def peak_images(self, turn: np.ndarray, tol: float) -> np.ndarray | None:
        """The index maps that `turn` must have, from the peaks alone: the
        first near vertex within tol of each peak's image fixes the image
        and, with the sign, the shift; the sign is 1 when the peak's
        successor lands within tol of that vertex's.  None when a peak has
        no such vertex, two components share an image, or an open
        component would not map end to end."""
        gap = (turn @ self.peaks).take(self.near_peak, axis=1)
        gap -= self.near_x
        fit = np.flatnonzero(_dot(gap, gap) <= tol * tol)
        who = self.near_peak.take(fit)
        first = np.searchsorted(who, self.ids)
        if not who.size or not (who.take(first, mode="clip") == self.ids).all():
            return None
        hit = fit.take(first)
        image = self.near_comp.take(hit)
        if (np.bincount(image, minlength=self.ids.size) != 1).any():
            return None
        ahead = turn @ self.after
        ahead -= self.near_next.take(hit, axis=1)
        sign = np.where(_dot(ahead, ahead) <= tol * tol, 1, -1)
        n = self.count
        shift = (self.near_at.take(hit) - sign * self.peak_at) % n
        if not self.all_closed and (self.ends & (shift != np.where(
                sign > 0, 0, n - 1))).any():
            return None
        return np.array((image, sign, shift))

    def fits(self, turn: np.ndarray, maps: np.ndarray, tol: float) -> bool:
        """Whether `turn` maps every vertex within tol of its image under
        the index maps `maps` (rows image, sign, shift)."""
        x, start = self.x, self.base.take(maps[0])
        for idx, at, m, size, (ways, wrap) in self.shapes:
            index = ways.take(maps[1].take(idx) < 0, axis=0)
            index += (maps[2].take(idx) + size)[:, None]
            index = wrap.take(index)
            index += start.take(idx)[:, None]
            rows = slice(at, at + m * size)
            miss, target = self.moved[:, rows], self.target[:, rows]
            np.matmul(turn, x[:, rows], out=miss)
            # mode="clip" writes straight into target; "raise" would buffer
            x.take(index.ravel(), axis=1, out=target, mode="clip")
            np.subtract(miss, target, out=miss)
            if _dot(miss, miss, miss, target[0]).max() > tol * tol:
                return False
        return True

    def perpendicular(self, n: np.ndarray) -> np.ndarray:
        """Unit axes, through the centroid and perpendicular to the unit
        vector n, of the half-turns that map a reference peak onto one of
        its near vertices opposite it along n (within reach): every
        half-turn of the link about such an axis is among them.  The
        reference has the fewest such vertices among the peaks at least
        half as far from the n axis as the farthest, so that the axes are
        known to within rounding of the link's extent.  Empty when some
        peak has no such vertex."""
        along = n @ self.peaks
        opposite = np.abs(n @ self.near_x + along.take(self.near_peak)) <= self.reach
        count = np.bincount(self.near_peak.compress(opposite),
                            minlength=along.size)
        off = np.einsum("ij,ij->j", self.peaks, self.peaks) - along * along
        if count.min() == 0 or off.max() <= 0.0:
            return np.empty((0, 3))
        ref = int(np.lexsort((count, off < 0.25 * off.max()))[0])
        w = self.near_x.compress(opposite & (self.near_peak == ref), axis=1)
        p = self.peaks[:, ref:ref + 1]
        # the axis through p + w off n, or n x (p - w): the longer is known
        # the better
        x, y, z = n.tolist()
        plus = (np.eye(3) - np.outer(n, n)) @ (p + w)
        cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]) @ (p - w)
        square = np.einsum("ij,ij->j", plus, plus)
        other = np.einsum("ij,ij->j", cross, cross)
        axes = np.where(square >= other, plus, cross)
        length = np.sqrt(np.maximum(square, other))
        keep = length > 0.0
        return (axes[:, keep] / length[keep]).T


@functools.lru_cache(maxsize=16)
def _folds(n: int, back: int) -> tuple:
    """Index tables of the maps t -> sign t + shift (mod n) of n points,
    read-only: rows t and -back - t (sign 1 and -1), and t mod n over
    [0, 3n), which folds a row plus shift + n back to [0, n) for shift in
    [0, n).  `back` is 1 for segments, whose reversed image starts one
    vertex back."""
    t = np.arange(n)
    tables = np.array((t, -back - t)), np.arange(3 * n) % n
    for table in tables:
        table.flags.writeable = False
    return tables


def _orbit_min(group: np.ndarray, stacks: list, nseg: np.ndarray) -> np.ndarray:
    """The lowest segment index of every segment's orbit under the group
    `group` (`_dihedral`'s index maps), for components of `nseg` segments whose
    indices, one array per stack, are `stacks`.  A component's orbit starts
    at its lowest image, whose segments come first; the elements that map
    the component there map its segment t to t + shift, or to shift - 1 - t
    where they reverse it (modulo the segment count), and its segments'
    minima are the least of those."""
    image = group[:, 0]
    head = image.min(axis=0)
    first = np.cumsum(nseg) - nseg
    low = np.empty(int(nseg.sum()), dtype=np.int64)
    for idx in stacks:
        n = int(nseg[idx[0]])
        row, g = np.nonzero((image[:, idx] == head.take(idx)).T)
        sign, shift = group[g, 1:, idx.take(row)].T
        ways, wrap = _folds(n, 1)
        seg = ways.take(sign < 0, axis=0)
        seg += (shift + n)[:, None]
        seg = wrap.take(seg)
        t = ways[0]
        # the least of each component's rows, one rank of rows at a time
        size = np.bincount(row, minlength=idx.size)
        start = np.cumsum(size) - size
        least = seg.take(start, axis=0)
        for rank in range(1, int(size.max())):
            more = np.flatnonzero(size > rank)
            least[more] = np.minimum(least.take(more, axis=0),
                                     seg.take(start.take(more) + rank, axis=0))
        least += first.take(head.take(idx))[:, None]
        if idx[-1] - idx[0] == idx.size - 1:  # consecutive components
            low[first[idx[0]]:first[idx[0]] + least.size] = least.ravel()
        else:
            low[(first.take(idx)[:, None] + t).ravel()] = least.ravel()
    return low
