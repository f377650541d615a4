"""Geometry serialization: VECT, CSV, and JSON.

VECT is the plain-text polyline format consumed by standard knot-tightening
pipelines: a `VECT` magic line, `<n_components> <n_vertices> <n_colors>`,
per-component vertex counts (negated to mark closed loops), per-component
color counts (always 0 here; read back, they must be non-negative and sum to
n_colors), then one `x y z` line per vertex with components concatenated in
order.  The vertex block is read in one `np.loadtxt` call; when that call
refuses the block or reads it to another shape, the line-by-line parser
reads it again and reports the first fault at its line and column.  Both
parse a field as float() does, so an accepted file gives the same bits
either way.  CSV uses a `component,vertex,x,y,z` header and has no field
for closedness, so it holds closed components only: `export_geometry`
refuses CSV for a link with an open component.  JSON stores the full
configuration with provenance.

VECT and CSV coordinates are written as `'%.17g'` writes them, byte for
byte, so round trips reproduce them exactly.  One array formatter,
`_format_rows`, writes them in chunks of 2048 rows: a value with
1e-4 <= |x| < 1e14 takes the array path (its 17 digits from an exact
product with a power of ten, laid out in fixed notation), and every other
value (0, -0, subnormals, smaller or larger magnitudes, nan, inf) is
formatted by `'%.17g' % v` on its own and spliced in.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from .curves import PolyCurve
from .measure import LinkConfiguration

__all__ = ["export_geometry", "import_geometry", "FormatError"]

_JSON_FORMAT = "ropebound-link/1"


class FormatError(ValueError):
    """Malformed geometry file; message carries line/column diagnostics."""


def _require(cond: bool, path: str, line: int, message: str):
    if not cond:
        raise FormatError(f"{path}:{line}: {message}")


def _curve(vertices, closed: bool, path: str, line: int, k: int) -> PolyCurve:
    """PolyCurve of one parsed component; its rejections become diagnostics
    at the component's first line."""
    try:
        return PolyCurve(vertices, closed=closed)
    except ValueError as exc:
        raise FormatError(f"{path}:{line}: component {k}: {exc}")


# The array formatter.  For 1e-4 <= |x| < 1e14, '%.17g' writes fixed
# notation from the decimal exponent D in [-4, 13] and the digits of
# N = round-half-even(|x| * 10**(16-D)), an integer in [10**16, 10**17)
# that is computed exactly here.  Its tables are built at its first call,
# so importing the module runs no numpy loop.  It uses only numpy loops that
# measuring a link loads anyway (np.log rather than np.log10, int64
# arithmetic, no sort), so writing a file adds no code pages to the peak
# resident memory of a build or a check.
_SLOT = 25  # bytes per value: any '%.17g' text fits in 24, the last is a separator
_ROWS = 2048  # rows per chunk, which bounds the scratch arrays
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_LOG10_E = math.log10(math.e)


def _split(a):
    """(high, low) halves of a with high + low == a, each of at most 26
    significant bits, so that a product of two halves is exact."""
    high = _SPLIT * a
    high -= high - a
    return high, a - high


@functools.cache
def _pow10_halves():
    """10**k for k = 0..20, exact doubles, and its two halves."""
    pow10 = np.array([float(10**k) for k in range(21)])
    return pow10, *_split(pow10)


@functools.cache
def _digit_quads():
    """The 4 ASCII digits of 0..9999 as little-endian uint32, then the same
    with trailing zeros as NUL (0 -> four NULs)."""
    i = np.arange(10000)
    quads = np.empty((2, 10000, 4), np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        digit = i // p % 10 + 48
        quads[0, :, j] = digit
        quads[1, :, j] = digit * (i % (10 * p) != 0)
    return quads.view("<u4").ravel()


def _times_pow10(a, k):
    """(hi, lo) with hi + lo == a * 10**k exactly: Dekker's TwoProduct, with
    10**k split ahead of time."""
    pow10, high, low = _pow10_halves()
    hi = a * pow10[k]
    ah, al = _split(a)
    bh, bl = high[k], low[k]
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    al *= bl
    lo += al
    return hi, lo


def _g17_slots(x) -> np.ndarray:
    """(len(x), _SLOT) bytes: the '%.17g' text of each value of the 1-D
    float64 array x, padded with NUL, with the last byte NUL."""
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e14)
    a[~fast] = 1.0
    # near a power of ten this D can be one off; the exact product, which
    # must lie in [10**16, 10**17), moves it
    d = np.clip(np.floor(np.log(a) * _LOG10_E), -4, 13).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - d)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    moved = np.flatnonzero(low | high)
    if moved.size:
        d[moved] += high[moved].astype(np.intp) - low[moved]
        hi[moved], lo[moved] = _times_pow10(a[moved], 16 - d[moved])
    # rows grouped by D, in order, so that each layout below is a static slice
    exponents = np.flatnonzero(np.bincount(d + 4)) - 4
    rows_by_d = [np.flatnonzero(d == e) for e in exponents]
    order = np.concatenate(rows_by_d)
    # hi >= 1e16 > 2**53 is an even integer and |lo| <= 8, so rounding lo
    # half to even rounds hi + lo so.  N stays below 10**17: the largest
    # double below each 10**(D+1) is more than 8 units of N below it.
    num = hi[order].astype(np.int64) + np.rint(lo[order]).astype(np.int64)
    # the first digit and four 4-digit groups of N
    top = num // 10**8
    bottom = num - top * 10**8
    mid = top // 10**4
    groups = np.empty((5, n), np.int64)
    groups[0] = top // 10**8
    groups[1] = mid - groups[0] * 10**4
    groups[2] = top - mid * 10**4
    groups[3] = bottom // 10**4
    groups[4] = bottom - groups[3] * 10**4
    # a group is read from the stripped half of the quads when every later
    # group is zero: N's trailing zeros become NUL
    zero = groups[4] == 0
    for j in (3, 2, 1):
        np.add(groups[j], 10000, out=groups[j], where=zero)
        zero &= groups[j] == 10000
    groups[4] += 10000
    # 3 bytes of padding keep the groups 4-byte aligned: the 17 digits of N
    # are digits[:, 3:]
    digits = np.empty((n, 20), np.uint8)
    words = digits.view("<u4")
    words[:, 0] = (groups[0] + 48) << 24
    quads = _digit_quads()
    for j in range(1, 5):
        words[:, j] = quads[groups[j]]
    digits = digits[:, 3:]
    # one static layout per D: sign, then "<D+1 digits>.<16-D digits>" or
    # "0.<-D-1 zeros><17 digits>"
    out = np.zeros((n, _SLOT), np.uint8)
    j = 0
    for e, rows in zip(exponents.tolist(), rows_by_d):
        i, j = j, j + rows.size
        slot, dig = out[i:j], digits[i:j]
        if e >= 0:
            # the zeros of an integer part stay; an all-zero fraction goes
            # with its point
            slot[:, 1:e + 2] = np.maximum(dig[:, :e + 1], 48)
            slot[:, e + 2] = 46 * (dig[:, e + 1] != 0)
            slot[:, e + 3:19] = dig[:, e + 1:]
        else:
            slot[:, 1:2 - e] = 48
            slot[:, 2] = 46
            slot[:, 2 - e:19 - e] = dig
    back = np.empty_like(order)
    back[order] = np.arange(n)
    out = out.view(f"V{_SLOT}").ravel().take(back).view(np.uint8).reshape(n, _SLOT)
    out[:, 0] = 45 * (x < 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        padded = np.array(text, dtype=f"S{_SLOT - 1}")  # NUL-padded
        out[slow, :-1] = padded.view(np.uint8).reshape(-1, _SLOT - 1)
    return out


def _format_rows(values, sep: str) -> str:
    """The rows of the 2-D float array `values`, each value as '%.17g'
    formats it, values joined by `sep` and each row ended by a newline."""
    values = np.asarray(values, dtype=np.float64)
    parts = []
    for i in range(0, len(values), _ROWS):
        chunk = np.ascontiguousarray(values[i : i + _ROWS])
        slots = _g17_slots(chunk.ravel())
        slots[:, -1] = ord(sep)
        slots.reshape(*chunk.shape, _SLOT)[:, -1, -1] = ord("\n")
        parts.append(slots.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _to_vect(link: LinkConfiguration) -> str:
    comps = link.components
    lines = ["VECT"]
    total = sum(c.n_vertices for c in comps)
    lines.append(f"{len(comps)} {total} 0")
    lines.append(" ".join(
        str(-c.n_vertices if c.closed else c.n_vertices) for c in comps
    ))
    lines.append(" ".join("0" for _ in comps))
    coords = np.concatenate([c.vertices for c in comps])
    return "\n".join(lines) + "\n" + _format_rows(coords, " ")


def _from_vect(text: str, path: str) -> LinkConfiguration:
    lines = text.splitlines()
    _require(len(lines) >= 4, path, 1, "truncated file: need at least 4 lines")
    _require(lines[0].strip() == "VECT", path, 1,
             f"expected literal 'VECT', got {lines[0]!r}")
    header = lines[1].split()
    _require(len(header) == 3, path, 2,
             "expected '<n_components> <n_vertices> <n_colors>'")
    try:
        n_comp, n_vert, n_col = (int(v) for v in header)
    except ValueError:
        raise FormatError(f"{path}:2: non-integer header field in {header}")
    _require(n_comp >= 1, path, 2, f"need at least one component, got {n_comp}")
    _require(n_col >= 0, path, 2, f"need a non-negative color total, got {n_col}")
    counts = _count_line(lines[2], n_comp, path, 3, "vertex")
    _require(sum(abs(c) for c in counts) == n_vert, path, 3,
             "vertex counts do not sum to the header total")
    colors = _count_line(lines[3], n_comp, path, 4, "color")
    _require(min(colors) >= 0 and sum(colors) == n_col, path, 4,
             "color counts must be non-negative and sum to the header total")
    # the whole vertex block in one parse, when the file holds it; None
    # leaves each component to the line parser, which reports the fault
    verts = None
    if 4 + n_vert <= len(lines):
        verts = _bulk_vertices(lines[4 : 4 + n_vert])
    comps = []
    row = 4
    for k, count in enumerate(counts):
        n = abs(count)
        _require(n >= 2, path, 3, f"component {k} has fewer than 2 vertices")
        # checked before allocating: a count the file cannot hold is refused
        _require(row + n <= len(lines), path, len(lines) + 1,
                 "unexpected end of file inside vertex block")
        first = row + 1
        if verts is None:
            vertices = _vertex_lines(lines[row : row + n], path, first)
        else:
            vertices = verts[row - 4 : row - 4 + n]
        comps.append(_curve(vertices, count < 0, path, first, k))
        row += n
    return LinkConfiguration(comps, description=os.path.basename(path))


def _count_line(line: str, n_comp: int, path: str, number: int, what: str):
    """The n_comp integers of a VECT count line (vertex or color counts)."""
    raw = line.split()
    _require(len(raw) == n_comp, path, number,
             f"expected {n_comp} {what} counts, got {len(raw)}")
    try:
        return [int(v) for v in raw]
    except ValueError:
        raise FormatError(f"{path}:{number}: non-integer {what} count in {raw}")


def _bulk_vertices(lines):
    """The (len(lines), 3) coordinates of a VECT vertex block from one
    `np.loadtxt` call, or None when that call refuses the block or reads it
    to another shape (a blank line, a line of other than 3 fields), so that
    `_vertex_lines` finds and reports the fault.  Both parse each field as
    float() does, so an accepted block gives the same bits either way."""
    # an empty or all-blank block would only make loadtxt warn; the loop
    # reports it
    if not lines or not lines[0].split():
        return None
    try:
        verts = np.loadtxt(lines, comments=None, ndmin=2)
    except ValueError:
        return None
    return verts if verts.shape == (len(lines), 3) else None


def _vertex_lines(lines, path: str, first: int) -> np.ndarray:
    """The coordinates of VECT vertex lines, parsed line by line: the first
    line of other than 3 fields, or the first non-numeric coordinate before
    it, is reported at its line (and column)."""
    block = [ln.split() for ln in lines]
    for i, fields in enumerate(block):
        if len(fields) != 3:
            # a non-numeric coordinate on an earlier line is reported first
            _locate_non_numeric(block[:i], path, first)
            raise FormatError(f"{path}:{first + i}: expected 3 coordinates, "
                              f"got {len(fields)}")
    try:
        return np.array(block, dtype=float)
    except ValueError:
        _locate_non_numeric(block, path, first)
        raise


def _locate_non_numeric(block, path: str, first: int):
    """Raise the FormatError of the first coordinate in `block` (the fields
    of consecutive lines from line `first` on) that is not a number."""
    for i, fields in enumerate(block):
        try:
            [float(v) for v in fields]
        except ValueError as exc:
            col = next(j + 1 for j, v in enumerate(fields) if not _is_float(v))
            raise FormatError(
                f"{path}:{first + i}:{col}: non-numeric coordinate ({exc})"
            )


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _to_csv(link: LinkConfiguration) -> str:
    rows = np.concatenate([
        np.column_stack((np.full(c.n_vertices, k), np.arange(c.n_vertices),
                         c.vertices))
        for k, c in enumerate(link.components)
    ])
    # component and vertex indices are integers, which '%.17g' writes as '%d'
    return "component,vertex,x,y,z\n" + _format_rows(rows, ",")


def _from_csv(text: str, path: str) -> LinkConfiguration:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(bool(lines), path, 1, "empty file")
    header = [h.strip().lower() for h in lines[0].split(",")]
    _require(header == ["component", "vertex", "x", "y", "z"], path, 1,
             f"expected header 'component,vertex,x,y,z', got {lines[0]!r}")
    by_comp: dict = {}
    for idx, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        _require(len(fields) == 5, path, idx,
                 f"expected 5 comma-separated fields, got {len(fields)}")
        try:
            comp = int(fields[0])
            vert = int(fields[1])
        except ValueError:
            raise FormatError(f"{path}:{idx}:1: non-integer component/vertex index")
        try:
            xyz = [float(v) for v in fields[2:]]
        except ValueError:
            col = 3 + next(
                (j for j, v in enumerate(fields[2:]) if not _is_float(v)), 0
            )
            raise FormatError(f"{path}:{idx}:{col}: non-numeric coordinate")
        by_comp.setdefault(comp, []).append((vert, xyz, idx))
    comps = []
    for k in sorted(by_comp):
        rows = sorted(by_comp[k])
        _require([r[0] for r in rows] == list(range(len(rows))), path, 1,
                 f"component {k} vertex indices are not 0..n-1")
        first = min(r[2] for r in rows)
        comps.append(_curve(np.array([r[1] for r in rows]), True, path, first, k))
    return LinkConfiguration(comps, description=os.path.basename(path))


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _to_json(link: LinkConfiguration) -> str:
    payload = {
        "format": _JSON_FORMAT,
        "description": link.description,
        "crossing_number": link.crossing_number,
        "metadata": link.metadata,
        "components": [
            {
                "closed": bool(c.closed),
                "vertices": c.vertices.tolist(),
            }
            for c in link.components
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True, default=_json_default) + "\n"


def _from_json(text: str, path: str) -> LinkConfiguration:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise FormatError(f"{path}:1: invalid JSON ({exc})")
    except RecursionError:
        raise FormatError(f"{path}:1: invalid JSON (nested too deeply)")
    _require(isinstance(payload, dict), path, 1, "top-level JSON value must be an object")
    _require(payload.get("format") == _JSON_FORMAT, path, 1,
             f"unrecognized format tag {payload.get('format')!r}")
    raw = payload.get("components")
    _require(isinstance(raw, list) and raw, path, 1, "missing components array")
    comps = []
    for k, entry in enumerate(raw):
        _require(isinstance(entry, dict) and "vertices" in entry, path, 1,
                 f"component {k} lacks a vertices array")
        try:
            verts = np.array([[float(x) for x in v] for v in entry["vertices"]])
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"{path}:1: component {k} has malformed vertices")
        _require(verts.ndim == 2 and verts.shape[1] == 3, path, 1,
                 f"component {k} vertices are not Nx3")
        closed = entry.get("closed", True)
        _require(isinstance(closed, bool), path, 1,
                 f"component {k}: closed must be true or false, got {closed!r}")
        comps.append(_curve(verts, closed, path, 1, k))
    crossings = payload.get("crossing_number")
    _require(crossings is None or _is_int(crossings, 0), path, 1,
             f"crossing_number must be an integer in [0, {_INT64_MAX}], "
             f"got {crossings!r}")
    metadata = payload.get("metadata")
    metadata = {} if metadata is None else metadata
    _require(isinstance(metadata, dict), path, 1,
             f"metadata must be an object, got {type(metadata).__name__}")
    doubled = metadata.get("doubled", False)
    _require(isinstance(doubled, bool), path, 1,
             f"metadata.doubled must be true or false, got {doubled!r}")
    if metadata.get("family") == "torus":
        spec = metadata.get("spec")
        p = spec.get("p") if isinstance(spec, dict) else None
        _require(_is_int(p, 1), path, 1,
                 f"torus metadata needs a spec with an integer p in "
                 f"[1, {_INT64_MAX}]")
    return LinkConfiguration(
        comps,
        crossing_number=crossings,
        description=payload.get("description", ""),
        metadata=metadata,
    )


# Largest integer the linking pattern (an int64 array) holds; crossing
# numbers share the bound, which keeps them convertible to float.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _is_int(value, lowest: int) -> bool:
    """Whether `value` is an integer (not a bool) in [lowest, _INT64_MAX]."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and lowest <= value <= _INT64_MAX)


_WRITERS = {"vect": _to_vect, "csv": _to_csv, "json": _to_json}
_SUFFIXES = {".vect": "vect", ".csv": "csv", ".json": "json"}


def export_geometry(link: LinkConfiguration, fmt: str | None = None,
                    path: str = "") -> str:
    """Write a configuration to `path` in the given format ("vect", "csv",
    or "json"; inferred from the suffix when omitted).  Returns the path.
    CSV rows carry no closedness and read back closed, so a link with an
    open component is refused in CSV (ValueError) and no file is written."""
    if fmt is None:
        fmt = _SUFFIXES.get(os.path.splitext(path)[1].lower())
        if fmt is None:
            raise ValueError(f"cannot infer format from {path!r}; pass fmt")
    fmt = fmt.lower()
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}; choose vect, csv, or json")
    if fmt == "csv":
        opened = [k for k, c in enumerate(link.components) if not c.closed]
        if opened:
            raise ValueError(f"CSV holds closed components only, and component "
                             f"{opened[0]} is open; write VECT or JSON")
    text = _WRITERS[fmt](link)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def import_geometry(path: str) -> LinkConfiguration:
    """Read a geometry file in any supported format, detected from content."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("VECT"):
        return _from_vect(text, path)
    if stripped.startswith("{"):
        return _from_json(text, path)
    if stripped.lower().startswith("component"):
        return _from_csv(text, path)
    raise FormatError(
        f"{path}:1: unrecognized geometry format "
        "(expected VECT magic, JSON object, or CSV header)"
    )
