"""Geometry file round-trips and malformed-input diagnostics."""

import math

import numpy as np
import pytest

from ropebound.construct import build_increment_spec, realize_torus
from ropebound.curves import PolyCurve, rotation_about_axis, sample_planar_curve
from ropebound.io_formats import (
    FormatError,
    _to_csv,
    _to_vect,
    export_geometry,
    import_geometry,
)
from ropebound.measure import LinkConfiguration, _symmetry, measure_link


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
    # one their coordinates hold, the same one (C4 with four congruent
    # helices), and measure alike
    link = realize_torus(build_increment_spec(1, 4), n_points=40, check=False)
    back = import_geometry(export_geometry(link, path=str(tmp_path / "t.json")))
    assert not hasattr(link, "orbits") and not hasattr(back, "orbits")
    assert back.metadata == link.metadata
    built, read = _symmetry(link.components), _symmetry(back.components)
    assert built.classes.tolist() == read.classes.tolist() == [0, 1, 1, 1, 1]
    assert read.reps is not None and np.array_equal(built.reps, read.reps)
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
