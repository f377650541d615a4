"""End-to-end CLI behavior: payloads, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import ropebound
from ropebound import cli, construct, distances, helices, measure
from ropebound.bounds import lower_bound_report
from ropebound.cli import main
from ropebound.construct import (
    TorusSpec,
    build_increment_spec,
    build_optimal_spec,
    construction_report,
    increment_tori,
)
from ropebound.curves import (
    PolyCurve,
    rotation_about_axis,
    sample_planar_curve,
)
from ropebound.helices import toroidal_correction
from ropebound.io_formats import export_geometry, import_geometry
from ropebound.measure import LinkConfiguration

from conftest import mirrored_double


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bounds_payload(capsys):
    code, payload = _run_json(capsys, ["bounds", "--q", "3"])
    assert code == 0
    assert payload["bounds"]["best_bound"] == float(f"{49.69911184307752:.12g}")
    assert payload["bounds"]["rigor_flag"] == "rigorous"
    assert payload["run"]["version"]
    assert payload["run"]["flags"]["q"] == 3


def test_bounds_asymptotic(capsys):
    code, payload = _run_json(capsys, ["bounds", "--q", "4", "--asymptotic"])
    assert code == 0
    limit = math.sqrt(8.0 * math.pi) * 3.0 ** 0.25
    assert payload["asymptotic"]["alpha_w_limit"] == float(f"{limit:.12g}")


def test_bounds_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bounds"])
    assert err.value.code == 2
    assert main(["bounds", "--q", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_correction_scalar(capsys):
    code, payload = _run_json(capsys, ["correction", "--ratio", "2"])
    assert code == 0
    assert payload["correction"] == float(f"{1.0112292664185119:.12g}")
    code, payload = _run_json(
        capsys, ["correction", "--ratio", "1.5", "--p", "2"]
    )
    assert payload["correction"] == float(f"{1.0261469994820882:.12g}")


def test_correction_degenerate_ratio_rejected():
    with pytest.raises(SystemExit) as err:
        main(["correction", "--ratio", "0.9", "--p", "2"])
    assert err.value.code == 2


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


@pytest.mark.parametrize("p", ["1", "2"])
@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_correction_non_finite_ratio_exits_2(capsys, ratio, p):
    # "--ratio=-inf": argparse reads a separate "-inf" as an option
    assert _exit_code(["correction", f"--ratio={ratio}", "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_correction_huge_ratio_is_valid_json(capsys):
    assert main(["correction", "--ratio", "1e300"]) == 0

    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["correction"] == 1.0


def test_correction_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["correction", "--table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ropebound ")
    assert lines[1].startswith("# seed=0 ")
    assert lines[2] == "ratio,p=1,p=2,p=3"
    rows = lines[3:]
    assert len(rows) == 32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in rows:
            fields = row.split(",")
            ratio = float(fields[0])
            for p, cell in zip((1, 2, 3), fields[1:]):
                assert float(cell) == pytest.approx(
                    toroidal_correction(ratio, p), abs=1e-9
                )


def test_build_increment_report(capsys, tmp_path):
    geom = tmp_path / "link.vect"
    code, payload = _run_json(
        capsys,
        ["build", "inc4", "--t", "1", "--points", "400", "--out", str(geom)],
    )
    assert code == 0
    assert payload["construction"]["crossing_number"] == 20
    assert payload["verification"]["linking_ok"] is True
    assert payload["verification"]["passed"] is True
    assert payload["metrics"]["min_overall_distance"] >= 2.0 - 0.01
    assert geom.exists()
    # the verified file also passes the standalone checker
    assert main(["check", str(geom)]) == 0
    check = json.loads(capsys.readouterr().out)
    assert check["components"] == 5
    # a VECT file carries no spec, so check has no pattern to compare with
    assert set(check["verification"]) == {
        "min_distance_ok", "curvature_ok", "passed"}
    lm = np.array(check["linking_matrix"])
    assert np.all(np.abs(lm[np.triu_indices(5, 1)]) == 1)


def test_check_judges_a_planar_json_file_scale_free(capsys, tmp_path):
    # a planar link is built in loop units: the JSON file names its family,
    # so check asks for embeddability as build did; CSV and VECT files name
    # none and are checked absolutely
    code, built = _run_json(capsys, ["build", "circles", "--q", "5", "--points",
                                     "200", "--out", str(tmp_path / "c5.json")])
    assert code == 0 and built["verification"]["embeddable"] is True
    code, checked = _run_json(capsys, ["check", str(tmp_path / "c5.json")])
    assert code == 0
    assert checked["verification"] == {"embeddable": True, "passed": True}
    assert checked["metrics"] == built["metrics"]
    main(["export", str(tmp_path / "c5.json"), "--out", str(tmp_path / "c5.csv")])
    code, checked = _run_json(capsys, ["check", str(tmp_path / "c5.csv")])
    assert code == 1 and checked["verification"]["min_distance_ok"] is False


def test_build_failing_verification_reports_metrics(capsys, tmp_path):
    # a negative tolerance demands clearance 2.5, which no tight torus has
    geom = tmp_path / "link.vect"
    code, payload = _run_json(
        capsys,
        ["build", "inc4", "--t", "1", "--points", "200", "--tolerance", "-0.5",
         "--out", str(geom)],
    )
    assert code == 1
    assert payload["verification"]["min_distance_ok"] is False
    assert payload["verification"]["passed"] is False
    assert payload["metrics"]["min_overall_distance"] < 2.5
    assert "error" not in payload
    assert geom.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("subcommand", ["build", "check", "config"])
def test_non_finite_tolerance_exits_2(capsys, tmp_path, subcommand, tolerance):
    # inf would pass any clearance (2 - inf), nan would fail every check:
    # both are usage errors, found before any geometry is built or read
    if subcommand == "config":
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"tolerance": float(tolerance)}))
        argv = ["--config", str(cfg), "build", "inc4", "--t", "1"]
    else:
        target = ["inc4", "--t", "1"] if subcommand == "build" else ["missing.vect"]
        argv = [subcommand, *target, "--points", "100",
                f"--tolerance={tolerance}"]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tolerance must be finite")
    assert captured.out == ""


def test_build_searches_component_clearance_once(capsys, searches):
    # build measures its link once, in one search over the 5 components
    # (core and 4 congruent helices) whose self pairs are searched on
    # helix 1 alone, the first of its class (the core has no self pair)
    assert main(["build", "inc4", "--t", "1", "--points", "200"]) == 0
    capsys.readouterr()
    assert searches == [(5, {1}, {1})]


# One valid triangle; the malformed JSON rows below append one field to it.
_TRIANGLE_JSON = (
    '{"format": "ropebound-link/1", "components": [{"closed": true,'
    ' "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}]'
)


def _json_component(closed, vertices="[[0, 0, 0], [1, 0, 0], [0, 1, 0]]"):
    return ('{"format": "ropebound-link/1", "components": [{"closed": %s,'
            ' "vertices": %s}]}\n' % (closed, vertices))


# Every row is a corrupt or hostile file: `check` must exit 2 with a
# `path:line` message, never a traceback and never exit 1 (verification
# failed).  (file name, content, test id)
_CORRUPT_FILES = [
    ("truncated.vect", "VECT\n1 3 0\n-3\n0\n0 0 0\n1 0 0\n", "truncated-vect"),
    ("nan.csv", "component,vertex,x,y,z\n0,0,0,0,0\n0,1,1,nan,0\n0,2,0,1,0\n",
     "nan-csv"),
    ("empty.vect", "", "empty-file"),
    ("magic.vect", "VECTX\n1 3 0\n-3\n0\n0 0 0\n1 0 0\n0 1 0\n", "vectx-magic"),
    ("repeated.vect", "VECT\n1 4 0\n-4\n0\n0 0 0\n1 0 0\n1 0 0\n0 1 0\n",
     "repeated-vertices"),
    ("inf.csv", "component,vertex,x,y,z\n0,0,0,0,0\n0,1,1,inf,0\n0,2,0,1,0\n",
     "inf-csv"),
    ("two.vect", "VECT\n1 2 0\n-2\n0\n0 0 0\n1 0 0\n", "two-vertex-closed"),
    ("word.vect", "VECT\n1 3 0\n-3\n0\n0 0 0\n1 x 0\n0 1 0\n",
     "non-numeric-vect"),
    ("untagged.json",
     '{"components": [{"closed": true,'
     ' "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}]}\n', "untagged-json"),
    ("list.json", _TRIANGLE_JSON + ', "metadata": [1]}\n', "metadata-list"),
    ("nospec.json", _TRIANGLE_JSON + ', "metadata": {"family": "torus"}}\n',
     "torus-metadata-without-spec"),
    ("nullspec.json",
     _TRIANGLE_JSON + ', "metadata": {"family": "torus", "spec": null}}\n',
     "torus-metadata-null-spec"),
    ("stringp.json",
     _TRIANGLE_JSON + ', "metadata": {"family": "torus", "spec": {"p": "2"}}}\n',
     "torus-spec-string-p"),
    ("zerop.json",
     _TRIANGLE_JSON + ', "metadata": {"family": "torus", "spec": {"p": 0}}}\n',
     "torus-spec-p-0"),
    ("crossings.json", _TRIANGLE_JSON + ', "crossing_number": "12"}\n',
     "string-crossing-number"),
    # a string flag is not a boolean: "false" would read as closed
    ("closed.json", _json_component('"false"'), "string-closed-flag"),
    ("doubled.json",
     _TRIANGLE_JSON + ', "metadata": {"family": "torus", "doubled": "false",'
     ' "spec": {"p": 1}}}\n', "string-doubled-flag"),
    # beyond int64, the linking pattern and the crossing count overflow
    ("hugep.json",
     _TRIANGLE_JSON + ', "metadata": {"family": "torus",'
     ' "spec": {"p": 100000000000000000000}}}\n', "torus-spec-p-beyond-int64"),
    ("hugecrossings.json",
     _TRIANGLE_JSON + ', "crossing_number": 1%s}\n' % ("0" * 400),
     "crossing-number-beyond-int64"),
    ("deep.json",
     '{"format": "ropebound-link/1", "x": %s%s}\n' % ("[" * 100000, "]" * 100000),
     "deeply-nested-json"),
    ("hugeint.json", _json_component("true", "[[0, 0, 0], [1%s, 0, 0], [0, 1, 0]]"
                                     % ("0" * 400)), "json-integer-beyond-float"),
    ("digits.json", _json_component("true", "[[0, 0, 0], [1%s, 0, 0], [0, 1, 0]]"
                                    % ("0" * 5000)), "json-integer-beyond-digit-limit"),
    # finite coordinates whose segment lengths overflow
    ("big.vect", "VECT\n1 3 0\n-3\n0\n1e308 0 0\n-1e308 0 0\n0 1 0\n",
     "overflowing-segment-vect"),
    ("big.csv",
     "component,vertex,x,y,z\n0,0,1e308,0,0\n0,1,-1e308,0,0\n0,2,0,1,0\n",
     "overflowing-segment-csv"),
    ("big.json", _json_component("true", "[[1e308, 0, 0], [-1e308, 0, 0], [0, 1, 0]]"),
     "overflowing-segment-json"),
    # finite coordinates whose fourth powers (curvature, distances) overflow
    ("huge.vect", "VECT\n1 3 0\n-3\n0\n1e150 0 0\n0 1e150 0\n0 0 1e150\n",
     "overflowing-curvature-vect"),
    ("huge.csv",
     "component,vertex,x,y,z\n0,0,1e150,0,0\n0,1,0,1e150,0\n0,2,0,0,1e150\n",
     "overflowing-curvature-csv"),
    ("huge.json", _json_component("true", "[[1e150, 0, 0], [0, 1e150, 0], [0, 0, 1e150]]"),
     "overflowing-curvature-json"),
    ("far.vect", "VECT\n2 6 0\n-3 -3\n0 0\n0 0 0\n1 0 0\n0 1 0\n"
     "1e160 0 0\n1e160 1 0\n1e160 0 1\n", "overflowing-scene-diameter-vect"),
    ("zero.vect", "VECT\n0 0 0\n\n\n", "vect-without-components"),
    # no color-count line: the first vertex line must not be read as one
    ("nocolor.vect", "VECT\n1 3 0\n-3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n",
     "vect-without-color-counts"),
    # a vertex total the file cannot hold is refused before any allocation
    ("alloc.vect",
     "VECT\n1 100000000000000000000 0\n-100000000000000000000\n0\n0 0 0\n",
     "vect-vertex-total-beyond-the-file"),
]


@pytest.mark.parametrize("name, text", [row[:2] for row in _CORRUPT_FILES],
                         ids=[row[2] for row in _CORRUPT_FILES])
def test_check_malformed_input_exits_2(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert re.match(rf"error: {re.escape(str(path))}:\d+", captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_build_requires_shell_count():
    with pytest.raises(SystemExit) as err:
        main(["build", "inc4"])
    assert err.value.code == 2


def test_build_planar_family(capsys):
    code, payload = _run_json(
        capsys, ["build", "circles", "--q", "3", "--points", "300"]
    )
    assert code == 0
    assert payload["verification"] == {"embeddable": True, "passed": True}
    assert payload["metrics"]["normalized_length"] > 0


def test_check_fails_thin_geometry(capsys, tmp_path):
    # planar families are scale-free, so their unit-scale files do not meet
    # the absolute clearance-2 standard the checker applies
    circle = sample_planar_curve("circle", {"radius": 1.0}, n_points=100)
    rot = rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi)
    other = circle.transformed(rot, np.array([1.0, 0.0, 0.0]))
    path = tmp_path / "thin.vect"
    export_geometry(LinkConfiguration([circle, other]), path=str(path))
    assert main(["check", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verification"]["passed"] is False


def test_check_of_intersecting_components_fails_verification(capsys, tmp_path):
    # the two circles share the vertices (+-1, 0, 0), so no linking number
    # is defined: a failed verification (exit 1), not an input error
    circle = sample_planar_curve("circle", {"radius": 1.0}, n_points=100)
    other = circle.transformed(rotation_about_axis((1.0, 0.0, 0.0), 0.5 * math.pi),
                               (0.0, 0.0, 0.0))
    path = tmp_path / "crossing.vect"
    export_geometry(LinkConfiguration([circle, other]), path=str(path))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.err == ""
    assert payload["linking_matrix"] is None
    assert payload["verification"]["linking_ok"] is False
    assert payload["verification"]["passed"] is False


@pytest.mark.parametrize("text, code", [
    ("VECT\n1 2 0\n2\n0\n0 0 0\n1 0 0\n", 0),
    ("VECT\n2 4 0\n2 2\n0 0\n0 0 0\n1 0 0\n0 3 0\n1 3 0\n", 0),
    # two open components 1 apart: clearance fails
    ("VECT\n2 4 0\n2 2\n0 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n", 1),
], ids=["one open", "two open", "two open too close"])
def test_check_of_open_components_judges_clearance_and_curvature(
        capsys, tmp_path, text, code):
    # a positive VECT vertex count is an open polyline: it is measured, and
    # has no linking number, so check reports none and judges no linking
    path = tmp_path / "open.vect"
    path.write_text(text)
    assert main(["check", str(path)]) == code
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.err == ""
    assert payload["linking_matrix"] is None
    assert set(payload["verification"]) == {
        "min_distance_ok", "curvature_ok", "passed"}
    assert payload["verification"]["passed"] is (code == 0)


def test_export_of_open_components_to_csv_exits_2_and_writes_nothing(
        capsys, tmp_path):
    # CSV rows carry no closedness and read back closed, so an open
    # component would come back closed; VECT and JSON keep it
    path = tmp_path / "open.vect"
    path.write_text("VECT\n1 3 0\n3\n0\n0 0 0\n1 0 0\n1 1 0\n")
    out = tmp_path / "open.csv"
    assert main(["export", str(path), "--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "component 0 is open" in err and "VECT or JSON" in err
    assert not out.exists()
    for fmt in ("vect", "json"):
        again = tmp_path / f"open.{fmt}"
        assert main(["export", str(path), "--format", fmt, "--out", str(again)]) == 0
        assert [c.closed for c in import_geometry(str(again)).components] == [False]


@pytest.mark.parametrize("extra", [[], ["--double"]])
def test_build_torus_verifies_linking_pattern(capsys, monkeypatch, extra):
    seen = []
    linking_matrix = cli.linking_matrix

    def recording(curves):
        seen.append(linking_matrix(curves))
        return seen[-1]

    monkeypatch.setattr(cli, "linking_matrix", recording)
    code, payload = _run_json(
        capsys, ["build", "inc4", "--t", "1", "--points", "200"] + extra)
    assert code == 0
    assert len(seen) == 1
    q = len(seen[0])
    assert q == (10 if extra else 5)
    assert np.all(np.abs(seen[0][np.triu_indices(q, 1)]) == 1)
    assert payload["verification"]["linking_ok"] is True


def test_build_torus_expects_spec_p(capsys, monkeypatch):
    # inc4 packs its shell for --p 2 (a hole twice the rectangle rule's), so
    # the build verifies, and every pair links twice
    argv = ["build", "inc4", "--t", "1", "--points", "200", "--p", "2"]
    code, payload = _run_json(capsys, argv)
    assert code == 0
    assert payload["verification"]["linking_ok"] is True
    assert payload["verification"]["min_distance_ok"] is True
    assert payload["construction"]["spec"]["p"] == 2
    # the expected pattern is |lk| = 2 for every pair: once fails
    monkeypatch.setattr(cli, "linking_matrix",
                        lambda curves: 1 - np.eye(len(curves), dtype=int))
    code, payload = _run_json(capsys, argv)
    assert code == 1
    assert payload["verification"]["linking_ok"] is False


@pytest.mark.parametrize("method", ["inc4", "inc5", "optimal"])
def test_build_torus_refuses_p_below_one(capsys, method):
    assert _exit_code(["build", method, "--t", "1", "--p", "0",
                       "--points", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need p >= 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("p", ["2", "3"])
def test_build_inc5_refuses_p_above_one(capsys, p):
    # inc5's rectangle-rule hole overfills its shells, which for p > 1
    # leaves helices closer than 2: a usage error, not a failed build
    assert _exit_code(["build", "inc5", "--t", "1", "--p", p,
                       "--points", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "p > 1" in captured.err
    assert captured.out == ""


def test_build_torus_with_wrong_linking_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "linking_matrix",
                        lambda curves: np.zeros((len(curves),) * 2, dtype=int))
    code, payload = _run_json(
        capsys, ["build", "inc4", "--t", "1", "--points", "200"])
    assert code == 1
    assert payload["verification"]["linking_ok"] is False
    assert payload["verification"]["min_distance_ok"] is True
    assert payload["verification"]["passed"] is False


def test_build_no_check_and_planar_skip_linking(capsys, monkeypatch):
    def failing(_curves):
        raise AssertionError("linking computed")

    monkeypatch.setattr(cli, "linking_matrix", failing)
    code, payload = _run_json(
        capsys, ["build", "inc4", "--t", "1", "--points", "200", "--no-check"])
    assert code == 0
    assert "verification" not in payload
    code, payload = _run_json(
        capsys, ["build", "circles", "--q", "3", "--points", "200"])
    assert code == 0
    assert payload["verification"] == {"embeddable": True, "passed": True}


@pytest.mark.parametrize("argv", [
    ["optimize", "--family", "gibbous", "--q", "3", "--maxfev", "-3"],
    ["optimize", "--family", "gibbous", "--q", "3", "--maxfev", "0"],
    ["build", "gibbous", "--q", "3", "--optimize", "--maxfev", "0"],
])
def test_an_empty_evaluation_budget_exits_2(capsys, argv):
    assert _exit_code(argv + ["--points", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need maxfev >= 1")
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["circles", "--q", "3", "--double"], "--double applies to torus"),
    (["gibbous", "--q", "3", "--double"], "--double applies to torus"),
    (["inc4", "--t", "1", "--optimize"], "--optimize applies to planar"),
    (["optimal", "--t", "1", "--double", "--optimize"],
     "--optimize applies to planar"),
    (["circles", "--q", "3", "--t", "4"], "--t applies to torus"),
    (["inc4", "--t", "1", "--q", "7"], "--q applies to planar"),
    (["optimal", "--t", "1", "--q", "7"], "--q applies to planar"),
    (["circles", "--q", "3", "--p", "2"], "--p applies to torus"),
    (["gibbous", "--q", "3", "--p", "0"], "--p applies to torus"),
    (["inc4", "--t", "1", "--restarts", "3"], "--restarts tunes --optimize"),
    (["inc4", "--t", "1", "--count-mode", "approx"],
     "--count-mode applies to the optimal method"),
    (["inc5", "--t", "1", "--double", "--count-mode", "approx"],
     "--count-mode applies to the optimal method"),
    (["circles", "--q", "3", "--maxfev", "7"], "--maxfev tunes --optimize"),
    (["gibbous", "--q", "3", "--count-mode", "approx"],
     "--count-mode applies to the optimal method"),
])
def test_build_rejects_flags_that_do_not_apply(capsys, argv, message):
    # a flag the method would silently drop is a usage error, not a build
    # whose report describes something else
    assert _exit_code(["build", *argv, "--points", "50"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["inc4", "--t", "1", "--points", "50", "--format", "csv"],
    ["gibbous", "--q", "3", "--points", "50", "--report", "{dir}/r.json",
     "--format", "json"],
])
def test_build_rejects_format_without_out(capsys, tmp_path, argv):
    # --format chooses the format of --out: without it there is no geometry
    # to write, so the flag would be dropped; no report is written either
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert _exit_code(["build", *argv]) == 2
    captured = capsys.readouterr()
    assert "--format chooses the format of --out" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, argv, recorded", [
    ({}, ["inc4", "--t", "1", "--restarts", "1", "--count-mode", "exact",
          "--maxfev", "400"], {"restarts": 1, "count_mode": "exact"}),
    ({}, ["circles", "--q", "3", "--p", "1", "--count-mode", "exact"],
     {"p": 1}),
    ({"q": 5}, ["inc4", "--t", "1"], {"q": 5}),
    ({"p": 2, "t": 4, "restarts": "3"}, ["circles", "--q", "3"],
     {"p": 2, "t": 4, "restarts": 3}),
    ({"count_mode": "approx", "maxfev": 7}, ["inc5", "--t", "1", "--double"],
     {"count_mode": "approx", "maxfev": 7}),
])
def test_build_accepts_default_and_config_values(capsys, tmp_path, config,
                                                 argv, recorded):
    # only a flag whose value differs from its default (or from its --config
    # default) is judged: a config file preloads defaults for every
    # subcommand, and a flag given its default value changes nothing; the
    # report records every flag as before
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(config))
    code, payload = _run_json(capsys, ["--config", str(cfg), "build", *argv,
                                       "--points", "50", "--no-check"])
    assert code == 0
    flags = payload["run"]["flags"]
    assert {key: flags[key] for key in recorded} == recorded


def test_check_searches_self_distance_once_per_class(capsys, searches,
                                                     tmp_path):
    # a VECT file declares no symmetry; its coordinates prove one, so the
    # 13 components of inc4 T=2 (core, 4 and 8 helices) take one search
    # whose self pairs are those of the first helix of each shell (the core
    # has no self pair)
    path = str(tmp_path / "inc4.vect")
    assert main(["build", "inc4", "--t", "2", "--points", "200",
                 "--out", path]) == 0
    capsys.readouterr()
    searches.clear()
    code, payload = _run_json(capsys, ["check", path])
    assert code == 0 and payload["components"] == 13
    (count, searched, held), = searches
    assert count == 13 and searched == {1, 5}
    assert held and held <= searched


@pytest.mark.parametrize("nudge, passed", [(0.0, True), (0.1, False)])
def test_check_judges_the_curvature_of_every_copy(capsys, tmp_path, nudge,
                                                  passed):
    # inc4 T=2 moved to x = 1e12, with one vertex of helix 3 of shell 2
    # pushed `nudge` out of the torus: a move below 1e-12 of the
    # coordinates, yet that helix now bends far tighter than its twin, the
    # helix opposite it (component 7), and check must report its radius.
    # The linking numbers stay defined far from the origin, so the
    # curvature alone decides the exit code
    spec = build_increment_spec(2, 4)
    link = construct.realize_torus(spec, n_points=200, check=False)
    comps = [c.vertices + (1e12, 0.0, 0.0) for c in link.components]
    vertex = link.components[11].vertices[17]
    centre = spec.major_radius * np.array([*vertex[:2], 0.0]) / np.hypot(
        *vertex[:2])
    comps[11][17] += nudge * (vertex - centre) / np.linalg.norm(vertex - centre)
    path = str(tmp_path / "far.vect")
    export_geometry(measure.LinkConfiguration([PolyCurve(v) for v in comps]),
                    path=path)
    code, payload = _run_json(capsys, ["check", path])
    radius = payload["metrics"]["min_curvature_radius"]
    assert payload["linking_matrix"] is not None
    assert payload["verification"]["curvature_ok"] is passed
    assert (radius > 5.0) if passed else (radius < 0.7)
    assert code == (0 if passed else 1)
    assert payload["verification"]["passed"] is passed


def test_optimize_family_guard():
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--family", "toroidal_pair", "--q", "13"])
    assert err.value.code == 2


def test_optimize_rejects_too_few_points(capsys):
    # a loop needs 3 points; the objective must not turn that into +inf
    assert main(["optimize", "--family", "circles", "--q", "3",
                 "--points", "2"]) == 2
    assert "n_points must be >= 3, got 2" in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "inc4", "--tmin", "1", "--tmax", "3", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "T,Q,C,alpha_best,alpha_worst,alpha_over_lower_bound"
    rows = [line.split(",") for line in lines[3:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    assert float(rows[0][4]) == float(f"{13.489186019606151:.12g}")
    ratios = [float(r[5]) for r in rows]
    assert all(r > 1.0 for r in ratios)
    # T = 1 has a single shell, so both conventions coincide
    assert rows[0][3] == rows[0][4]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep", "inc4", "--tmin", "101", "--tmax", "120"],
         "378733a1b6b3636a9d5521b6de5160ac8e0640477b652ad61c629367fa46b297"),
        (["sweep", "optimal", "--tmin", "1", "--tmax", "40"],
         "c6aed663859c4c0debeb77321d6d5c3ce57717195e6ad4e29147f7ebaea21db0"),
        # T = 1 (one shell) and the partly filled outer shell of alpha_best
        (["sweep", "inc4", "--tmin", "1", "--tmax", "30"],
         "da8d2997c158a90cbf1688ba34e18fe167b6543690053de1044ad4e2ff6f83c9"),
        (["sweep", "inc5", "--tmin", "1", "--tmax", "30"],
         "c21c08c57d1854ab97f74d8857024c5f860c97206cf82099822effcc2bf605fb"),
        # the three sweeps of the benchmark's alpha_sweep workload
        (["sweep", "optimal", "--tmin", "1", "--tmax", "100"],
         "4386102ad31ab9d79e9ce44065b93292b95f3e2688352ba77d6787d1e83d1345"),
        (["sweep", "inc4", "--tmin", "101", "--tmax", "200"],
         "df542d93042b7a51d1de6656e6077c64ad504e1fad6f0e9a62559e75e6532b47"),
        (["sweep", "inc5", "--tmin", "101", "--tmax", "150"],
         "0318b4d95ceda9a556f9a6ac954698ed1e618cc4d4928ffdb34ea611c6155486"),
    ],
    ids=["inc4", "optimal", "inc4-from-1", "inc5-from-1", "bench-optimal",
         "bench-inc4", "bench-inc5"],
)
def test_sweep_csv_is_pinned(capsys, argv, digest):
    # sha256 of the whole CSV (header included): packing, hole radii and
    # corrected lengths may not move by one bit
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _increment_spec(t, inc, n_outer):
    """build_increment_spec(t, inc) with n_outer helices on its outer shell:
    `increment_tori` of this one T."""
    batch = increment_tori([t], inc, [n_outer])
    return TorusSpec(batch.radii, batch.counts, has_core=True,
                     major_radius=float(batch.majors[0]))


def _one_spec_sweep_row(method, t):
    """A sweep row computed one spec at a time, from construction_report."""
    if method == "optimal":
        worst = best = build_optimal_spec(t)
    else:
        inc = int(method[3:])
        worst = build_increment_spec(t, inc)
        best = _increment_spec(t, inc, inc * (t - 1)) if t > 1 else worst
    a_worst = construction_report(worst, doubled=True).alpha_predicted
    a_best = construction_report(best, doubled=True).alpha_predicted
    q2 = 2 * worst.q
    c2 = q2 * (q2 - 1)
    ratio = a_worst / (lower_bound_report(1, q2).best_bound / c2 ** 0.75)
    return f"{t},{q2},{c2},{a_best:.12g},{a_worst:.12g},{ratio:.12g}"


@pytest.mark.parametrize("chunk_shells", [None, 64], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize("method", ["inc4", "inc5", "optimal"])
def test_sweep_rows_equal_construction_reports(capsys, monkeypatch, method,
                                               chunk_shells):
    # every alpha the sweep's array passes compute equals construction_report
    # of the spec it stands for, bit for bit; inc5's best and worst specs
    # have different major radii for T >= 4.  With 64 shells a chunk, the
    # increment sweeps run T >= 32 one T at a time.
    if chunk_shells is not None:
        monkeypatch.setattr(cli, "_SWEEP_CHUNK_SHELLS", chunk_shells)
    alphas = {}

    def recording(batch):
        qs, batch_alphas = cli_doubled_alphas(batch)
        outer = np.cumsum(batch.sizes) - 1
        for t, n_outer, alpha in zip(batch.sizes.tolist(),
                                     batch.counts[outer].tolist(), batch_alphas):
            alphas[t, n_outer] = alpha
        return qs, batch_alphas

    cli_doubled_alphas = cli.doubled_alphas
    monkeypatch.setattr(cli, "doubled_alphas", recording)
    assert main(["sweep", method, "--tmin", "1", "--tmax", "40"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert rows == [_one_spec_sweep_row(method, t) for t in range(1, 41)]
    for (t, n_outer), alpha in alphas.items():
        if method == "optimal":
            spec = build_optimal_spec(t)
        else:
            spec = _increment_spec(t, int(method[3:]), n_outer)
        assert alpha == construction_report(spec, doubled=True).alpha_predicted
    assert {t for t, _ in alphas} == set(range(1, 41))
    assert len(alphas) == (40 if method == "optimal" else 79)


def test_sweep_passes_stay_within_the_chunk_cap(capsys, monkeypatch):
    # T = 1..300 is 45,150 shells; no packing or correction pass sees more
    # shells than one chunk holds.  The chunk bounds the per-shell arrays
    # only: the passes run in blocks of helices._BLOCK shells
    # (test_helices.py)
    largest = {"_min_gap": 0, "_correction": 0}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(first, *args):
            largest[name] = max(largest[name], len(first))
            return real(first, *args)

        monkeypatch.setattr(module, name, wrapper)

    spy(helices, "_min_gap")
    spy(construct, "_correction")
    assert main(["sweep", "optimal", "--tmin", "1", "--tmax", "300"]) == 0
    capsys.readouterr()
    assert cli._SWEEP_CHUNK_SHELLS == 8192
    # the largest chunk is T = 128..180: 8162 shells, whose ratios R0/r
    # take 8004 distinct values
    assert largest == {"_min_gap": 8162, "_correction": 8004}


def test_no_command_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked from import,
    # every command runs, and none loads a scipy module; a built link's
    # linking numbers need no exact arithmetic either
    vect = str(tmp_path / "f.vect")
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        sys.modules["scipy"] = None
        from ropebound.cli import main
        commands = [
            ["sweep", "inc5", "--tmin", "1", "--tmax", "5"],
            ["correction", "--table"],
            ["bounds", "--q", "5"],
            ["build", "inc4", "--t", "1", "--points", "200", "--out", {vect!r}],
            ["check", {vect!r}],
            ["optimize", "--family", "gibbous", "--q", "3", "--restarts", "1",
             "--maxfev", "6", "--points", "100"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0, argv
            if argv[0] in ("build", "check"):
                assert '"passed": true' in out.getvalue(), argv
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
        assert "fractions" not in sys.modules and "decimal" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(ropebound.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_sweep_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "inc4", "--tmin", "4", "--tmax", "2"])
    assert err.value.code == 2
    for method in ("inc4", "optimal"):
        assert main(["sweep", method, "--tmin", "0", "--tmax", "3"]) == 2


def test_export_and_import_summary(capsys, tmp_path):
    circle = sample_planar_curve("circle", {"radius": 2.0}, n_points=60)
    src = tmp_path / "one.vect"
    export_geometry(LinkConfiguration([circle]), path=str(src))
    dst = tmp_path / "one.json"
    assert main(["export", str(src), "--out", str(dst)]) == 0
    capsys.readouterr()
    code, payload = _run_json(capsys, ["import", str(dst)])
    assert code == 0
    assert payload["components"] == 1
    assert payload["vertices"] == [60]
    assert payload["closed"] == [True]
    assert payload["total_length"] == pytest.approx(
        2 * 60 * 2.0 * math.sin(math.pi / 60), rel=1e-9
    )


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["correction", "--table", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"points": 150}))
    code, payload = _run_json(
        capsys, ["--config", str(cfg), "bounds", "--q", "3"]
    )
    assert code == 0
    assert payload["run"]["flags"]["points"] == 150
    # explicit flags beat config-file defaults
    code, payload = _run_json(
        capsys,
        ["--config", str(cfg), "bounds", "--q", "3", "--points", "220"],
    )
    assert payload["run"]["flags"]["points"] == 220
    # config defaults last one call: the next parses with the built-in ones
    code, payload = _run_json(capsys, ["bounds", "--q", "3"])
    assert payload["run"]["flags"]["points"] == 1000


@pytest.mark.parametrize(
    "text, argv",
    [
        (None, ["bounds", "--q", "3"]),  # missing file
        ('{"points": ', ["bounds", "--q", "3"]),
        ('{"points": [3]}', ["build", "circles", "--q", "3"]),
        ('{"points": 150.5}', ["bounds", "--q", "3"]),
        ('{"double": "yes"}', ["build", "inc4", "--t", "1"]),
    ],
    ids=["missing-file", "invalid-json", "list-for-int", "float-for-int",
         "string-for-switch"],
)
def test_config_file_errors_exit_2(capsys, tmp_path, text, argv):
    cfg = tmp_path / "defaults.json"
    if text is not None:
        cfg.write_text(text)
    assert _exit_code(["--config", str(cfg)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --config")
    assert captured.out == ""


def test_config_file_unknown_key_exits_2(capsys, tmp_path):
    # a misspelt key would otherwise be ignored; a key that some other
    # subcommand takes stays a default (test_build_accepts_default_and_config_values)
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"points": 150, "tolerence": 0.5}))
    assert _exit_code(["--config", str(cfg), "bounds", "--q", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --config {cfg}: unknown key 'tolerence'\n"
    assert captured.out == ""


@pytest.mark.parametrize("tampered", [False, True])
def test_check_asserts_the_linking_pattern_of_a_json_spec(capsys, tmp_path,
                                                          tampered):
    # a JSON file keeps its torus spec, so check verifies the pattern the
    # spec promises; a file whose spec was edited to p = 2 fails
    geom = tmp_path / "link.json"
    assert main(["build", "inc4", "--t", "1", "--points", "200",
                 "--out", str(geom)]) == 0
    capsys.readouterr()
    if tampered:
        payload = json.loads(geom.read_text())
        payload["metadata"]["spec"]["p"] = 2
        geom.write_text(json.dumps(payload))
    code, check = _run_json(capsys, ["check", str(geom)])
    assert code == (1 if tampered else 0)
    assert check["verification"]["linking_ok"] is not tampered
    assert check["verification"]["min_distance_ok"] is True
    assert check["verification"]["passed"] is not tampered


def test_check_fails_a_mirrored_double(capsys, tmp_path):
    # a double whose second copy is reflected links every pair once, as a
    # doubled torus does, but with two chiralities: written as JSON with a
    # doubled torus's metadata, its check fails on linking alone
    link = mirrored_double(build_increment_spec(1, 4), 200)
    assert link.metadata["family"] == "torus" and link.metadata["doubled"]
    geom = export_geometry(link, path=str(tmp_path / "mirrored.json"))
    code, check = _run_json(capsys, ["check", geom])
    assert code == 1
    lk = np.array(check["linking_matrix"])
    assert np.array_equal(np.abs(lk), 1 - np.eye(10, dtype=int))
    assert check["verification"] == {"min_distance_ok": True,
                                     "curvature_ok": True,
                                     "linking_ok": False, "passed": False}


@pytest.mark.parametrize("argv, message", [
    (["inc4", "--t", "1", "--double", "--mirror"],
     "unrecognized arguments: --mirror"),
    (["inc4", "--t", "1", "--p", "2", "--double"],
     "no crossing number is derived"),
    (["optimal", "--t", "2", "--p", "2", "--double"],
     "no crossing number is derived"),
])
def test_build_refuses_a_double_of_no_derived_type(capsys, argv, message):
    # the mirrored double and doubles of p > 1 are no torus links of a
    # derived crossing number, so neither is built: exit 2, and nothing on
    # stdout
    assert _exit_code(["build", *argv, "--points", "50"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "argv, name",
    [
        ("build gibbous --q 20 --points 200", "build-gibbous-q20.json"),
        ("build hybrid_square --q 5 --points 200", "build-hybrid_square-q5.json"),
        ("build circles --q 8 --points 200", "build-circles-q8.json"),
        ("optimize --family gibbous --q 3 --restarts 1 --maxfev 6 --points 200",
         "optimize-gibbous-q3.json"),
    ],
    ids=["gibbous", "hybrid_square", "circles", "optimize"],
)
def test_planar_reports_are_golden(capsys, argv, name):
    # the whole report, byte for byte, as these commands printed it before
    # the ring was placed in one batch and each link was measured from one
    # segment table per shape of component
    assert main(argv.split()) == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
