"""Geometry file round-trips and malformed-input diagnostics."""

import math

import numpy as np
import pytest

from ropebound.construct import realize_torus
from ropebound.curves import PolyCurve, rotation_about_axis, sample_planar_curve
from ropebound.io_formats import (
    FormatError,
    _bulk_vertices,
    _format_rows,
    _to_csv,
    _to_vect,
    export_geometry,
    import_geometry,
)
from ropebound.measure import LinkConfiguration, _symmetry, measure_link
from ropebound.specs import build_increment_spec


def _hopf(n=100):
    a = sample_planar_curve("circle", {"radius": 2.0}, n_points=n)
    rot = rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi)
    b = a.transformed(rot, np.array([2.0, 0.0, 0.0]))
    return LinkConfiguration([a, b], crossing_number=2, description="hopf",
                             metadata={"family": "test"})


def _mixed_link():
    rng = np.random.default_rng(3)
    open_arc = PolyCurve(np.cumsum(rng.normal(size=(8, 3)), axis=0), closed=False)
    link = _hopf(50)
    return LinkConfiguration([*link.components, open_arc], description="mixed")


def test_vect_header_layout(tmp_path):
    path = export_geometry(_hopf(1000), path=str(tmp_path / "hopf.vect"))
    lines = open(path).read().splitlines()
    assert lines[0] == "VECT"
    assert lines[1] == "2 2000 0"
    assert lines[2] == "-1000 -1000"
    assert lines[3] == "0 0"
    assert len(lines) == 4 + 2000


def test_vect_round_trip_exact(tmp_path):
    link = _mixed_link()
    path = export_geometry(link, path=str(tmp_path / "mixed.vect"))
    back = import_geometry(path)
    assert back.n_components == 3
    assert [c.closed for c in back.components] == [True, True, False]
    for orig, again in zip(link.components, back.components):
        assert np.array_equal(orig.vertices, again.vertices)
    assert back.description == "mixed.vect"


def test_csv_round_trip_exact(tmp_path):
    link = _hopf(60)
    path = export_geometry(link, path=str(tmp_path / "hopf.csv"))
    lines = open(path).read().splitlines()
    assert lines[0] == "component,vertex,x,y,z"
    assert len(lines) == 1 + 120
    back = import_geometry(path)
    assert back.n_components == 2
    for orig, again in zip(link.components, back.components):
        assert np.array_equal(orig.vertices, again.vertices)


def test_json_round_trip_keeps_metadata(tmp_path):
    link = _hopf(40)
    path = export_geometry(link, path=str(tmp_path / "hopf.json"))
    back = import_geometry(path)
    assert back.crossing_number == 2
    assert back.description == "hopf"
    assert back.metadata == {"family": "test"}
    for orig, again in zip(link.components, back.components):
        assert np.array_equal(orig.vertices, again.vertices)


def test_json_round_trip_drops_orbits(tmp_path):
    # neither a built link nor a file declares a symmetry: both prove the
    # one their coordinates hold, the same one (D4 with four congruent
    # helices), and measure alike
    link = realize_torus(build_increment_spec(1, 4), n_points=40, check=False)
    back = import_geometry(export_geometry(link, path=str(tmp_path / "t.json")))
    assert not hasattr(link, "orbits") and not hasattr(back, "orbits")
    assert back.metadata == link.metadata
    built, read = _symmetry(link.components), _symmetry(back.components)
    assert built.classes.tolist() == read.classes.tolist() == [0, 1, 1, 1, 1]
    assert read.orbit_min is not None and np.array_equal(built.orbit_min,
                                                         read.orbit_min)
    assert measure_link(back) == measure_link(link)


def _per_float(x) -> str:
    return format(float(x), ".17g")


def test_writers_match_a_per_float_reference():
    link = _mixed_link()
    # extreme values PolyCurve would refuse, set after construction
    link.components[0].vertices[:3] = [
        [-0.0, 5e-324, 1.7976931348623157e308],
        [-1.7976931348623157e308, -5e-324, 0.0],
        [0.1, 1.0 / 3.0, -2.5e-300],
    ]
    comps = link.components
    vect = ["VECT", f"3 {sum(c.n_vertices for c in comps)} 0",
            " ".join(str(-c.n_vertices if c.closed else c.n_vertices)
                     for c in comps),
            "0 0 0"]
    csv = ["component,vertex,x,y,z"]
    for k, c in enumerate(comps):
        for i, v in enumerate(c.vertices):
            vect.append(" ".join(_per_float(x) for x in v))
            csv.append(f"{k},{i}," + ",".join(_per_float(x) for x in v))
    assert _to_vect(link) == "\n".join(vect) + "\n"
    assert _to_csv(link) == "\n".join(csv) + "\n"
    assert "\n-0 4.9406564584124654e-324 1.7976931348623157e+308\n" in _to_vect(link)


def _g17_cases(rng) -> np.ndarray:
    """About 1,050,000 float64 values, both signs, for the array formatter:
    every decimal exponent of its fixed-notation range, the edges of that
    range, values beyond it, and exact decimal ties."""
    n = 220_000
    # ties: c / 2**(17-D) with c odd, in [10**D, 10**(D+1)), has 18
    # significant digits, the last a 5, which '%.17g' rounds half to even
    ties = []
    for d in range(-4, 14):
        j = 17 - d
        c = rng.integers(math.ceil(10.0**d * 2**j / 2),
                         math.floor(10.0 ** (d + 1) * 2**j / 2), 1000)
        ties.append(np.ldexp(2 * c + 1, -j))
    # powers of ten and their 200 neighbours on either side
    near_powers = [10.0 ** np.arange(-6, 17)]
    for to in (0.0, np.inf):
        step = near_powers[0]
        for _ in range(200):
            step = np.nextafter(step, to)
            near_powers.append(step)
    edges = np.array([1e-4, 1e14])
    values = np.concatenate([
        rng.uniform(-20.0, 20.0, n),
        10.0 ** rng.uniform(-6.0, 16.0, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2**64, 25_000, dtype=np.uint64).view(np.float64),
        *near_powers,
        *ties,
        np.arange(2**15) / 1024 + 12345678,
        2.0**53 + np.arange(64) / 2,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, 5e-324],
    ])
    return np.concatenate([values, -values])


def test_array_formatter_matches_format_17g():
    values = _g17_cases(np.random.default_rng(20))
    assert values.size >= 10**6 and values.size % 3 == 0
    # three to a row, as VECT writes them; split() takes both separators
    got = _format_rows(values.reshape(-1, 3), " ").split()
    want = [format(v, ".17g") for v in values.tolist()]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"{values[i]!r}: wrote {got[i]!r}, '%.17g' gives {want[i]!r}")


def test_vect_import_keeps_the_bits_of_extreme_values(tmp_path):
    # the writer's 17 digits and the bulk vertex parse give back every
    # float64 bit, signed zero and subnormals included
    link = _mixed_link()
    link.components[0].vertices[:3] = [
        [-0.0, 5e-324, 1e75],
        [-1e75, -5e-324, 0.0],
        [0.1, 1.0 / 3.0, -2.5e-300],
    ]
    back = import_geometry(export_geometry(link, path=str(tmp_path / "x.vect")))
    for orig, again in zip(link.components, back.components):
        assert orig.vertices.tobytes() == again.vertices.tobytes()
    # PolyCurve refuses coordinates beyond 1e75, so the largest floats are
    # checked at the parse, against float() on each field
    link.components[0].vertices[:3] = [
        [-0.0, 5e-324, 1.7976931348623157e308],
        [-1.7976931348623157e308, -5e-324, 0.0],
        [0.1, 1.0 / 3.0, -2.5e-300],
    ]
    path = export_geometry(link, path=str(tmp_path / "max.vect"))
    lines = open(path).read().splitlines()[4:]
    per_field = np.array([[float(v) for v in ln.split()] for ln in lines])
    assert _bulk_vertices(lines).tobytes() == per_field.tobytes()
    with pytest.raises(FormatError, match=r":5: component 0: vertices must be finite"):
        import_geometry(path)


def test_format_inference_and_overrides(tmp_path):
    link = _hopf(20)
    with pytest.raises(ValueError):
        export_geometry(link, path=str(tmp_path / "geometry.dat"))
    with pytest.raises(ValueError):
        export_geometry(link, fmt="yaml", path=str(tmp_path / "geometry.yaml"))
    # explicit format wins over the suffix; import detects by content
    path = export_geometry(link, fmt="json", path=str(tmp_path / "odd.vect"))
    back = import_geometry(path)
    assert back.crossing_number == 2


def _expect_error(tmp_path, name, text, fragment):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        import_geometry(str(path))
    assert fragment in str(err.value), str(err.value)


def test_vect_diagnostics(tmp_path):
    _expect_error(tmp_path, "a.vect", "VECT\n1 2 0\n", ":1: truncated")
    _expect_error(tmp_path, "b.vect", "VECTOR\n1 2 0\n-2\n0\n",
                  "expected literal 'VECT'")
    _expect_error(tmp_path, "c.vect", "VECT\n2 x 0\n-2 -2\n0 0\n",
                  ":2: non-integer header")
    _expect_error(
        tmp_path, "d.vect",
        "VECT\n1 4 0\n-3\n0\n0 0 0\n1 0 0\n0 1 0\n",
        "do not sum",
    )
    _expect_error(
        tmp_path, "e.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 banana 0\n0 1 0\n",
        ":6:2: non-numeric coordinate",
    )
    _expect_error(
        tmp_path, "f.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 0 0\n",
        ":7: unexpected end of file",
    )
    _expect_error(
        tmp_path, "g.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 nan 0\n0 1 0\n",
        ":5: component 0: vertices must be finite",
    )
    # the first bad line is reported, whichever check it fails
    _expect_error(
        tmp_path, "h.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 x 0\n0 1\n",
        ":6:2: non-numeric coordinate",
    )
    _expect_error(
        tmp_path, "i.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 0\n0 x 0\n",
        ":6: expected 3 coordinates, got 2",
    )
    # line 4 holds one color count per component, summing to the header's
    # n_colors: without it the first vertex line would be read as colors
    _expect_error(
        tmp_path, "j.vect",
        "VECT\n1 3 0\n-3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n",
        ":4: expected 1 color counts, got 3",
    )
    _expect_error(
        tmp_path, "k.vect",
        "VECT\n2 6 7\n-3 -3\n7 x\n" + "0 0 0\n1 0 0\n0 1 0\n" * 2,
        ":4: non-integer color count",
    )
    _expect_error(
        tmp_path, "l.vect",
        "VECT\n2 6 0\n-3 -3\n1 -1\n" + "0 0 0\n1 0 0\n0 1 0\n" * 2,
        ":4: color counts must be non-negative and sum to the header total",
    )
    _expect_error(
        tmp_path, "m.vect",
        "VECT\n1 3 -1\n-3\n-1\n0 0 0\n1 0 0\n0 1 0\n",
        ":2: need a non-negative color total, got -1",
    )
    _expect_error(
        tmp_path, "n.vect",
        "VECT\n1 3 2\n-3\n1\n0 0 0\n1 0 0\n0 1 0\n",
        ":4: color counts must be non-negative and sum to the header total",
    )
    # the bulk vertex parse refuses each of these blocks (a comment, a blank
    # line, 4 fields), and the line parser reports the fault
    _expect_error(
        tmp_path, "o.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n1 0 0 # corner\n0 1 0\n",
        ":6: expected 3 coordinates, got 5",
    )
    _expect_error(
        tmp_path, "p.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0\n\n1 0 0\n0 1 0\n",
        ":6: expected 3 coordinates, got 0",
    )
    _expect_error(
        tmp_path, "q.vect",
        "VECT\n1 3 0\n-3\n0\n0 0 0 1\n1 0 0\n0 1 0\n",
        ":5: expected 3 coordinates, got 4",
    )
    _expect_error(
        tmp_path, "r.vect",
        "VECT\n1 3 0\n-3\n0\n" + "0 0 0 0\n" * 3,
        ":5: expected 3 coordinates, got 4",
    )
    _expect_error(
        tmp_path, "s.vect",
        "VECT\n2 6 0\n-3 -3\n0 0\n0 0 0\n1 0 0\n0 1 0\n\n\n\n",
        ":8: expected 3 coordinates, got 0",
    )
    _expect_error(
        tmp_path, "t.vect", "VECT\n1 0 0\n0\n0\n",
        ":3: component 0 has fewer than 2 vertices",
    )
    crlf = tmp_path / "crlf.vect"
    crlf.write_bytes(b"VECT\r\n1 3 0\r\n-3\r\n0\r\n0 0 0\r\n1 0.5 0\r\n0 1 0\r\n")
    back = import_geometry(str(crlf))
    assert back.components[0].vertices.tolist() == [[0, 0, 0], [1, 0.5, 0], [0, 1, 0]]


def test_csv_diagnostics(tmp_path):
    _expect_error(tmp_path, "a.csv", "component,x,y,z\n0,1,2,3\n",
                  "expected header")
    _expect_error(
        tmp_path, "b.csv",
        "component,vertex,x,y,z\n0,0,0,0,0\n0,2,1,1,1\n",
        "not 0..n-1",
    )
    _expect_error(
        tmp_path, "c.csv",
        "component,vertex,x,y,z\n0,0,0,zero,0\n",
        ":2:4: non-numeric",
    )
    _expect_error(
        tmp_path, "d.csv",
        "component,vertex,x,y,z\n0,0,0,0,0\n0,1,1,nan,0\n0,2,0,1,0\n",
        ":2: component 0: vertices must be finite",
    )
    _expect_error(
        tmp_path, "e.csv",
        "component,vertex,x,y,z\n0,0,0,0,0\n0,1,1,0,0\n0,2,0,1,0\n"
        "1,0,0,0,1\n1,1,1,0,1\n1,2,inf,1,1\n",
        ":5: component 1: vertices must be finite",
    )


def test_json_diagnostics(tmp_path):
    _expect_error(tmp_path, "a.json", "{not valid json\n", "invalid JSON")
    _expect_error(tmp_path, "b.json",
                  '{"format": "other/1", "components": []}\n',
                  "unrecognized format tag")


def test_unrecognized_content(tmp_path):
    _expect_error(tmp_path, "a.txt", "plain words\n", "unrecognized geometry format")
