"""Workload job lists, their inputs, and the checks of every answer.

A job is one in-process ``ropebound`` command.  Each workload has a fixed
multiset of jobs (one *round*); the seed only decides the order of the jobs
in each round, so every seed does the same work and the timing of a round
does not depend on the seed.  Answers are checked against references
recorded from the seed commit (``references.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

TORUS_BUILD_POINTS = 400
TORUS_CHECK_POINTS = 200
PLANAR_POINTS = 200
PLANAR_MAXFEV = 6


@dataclass(frozen=True)
class Job:
    """One command.  `torus` carries (method, T, doubled) for torus jobs."""

    id: str
    kind: str  # "build", "check", "optimize" or "csv"
    argv: tuple
    torus: tuple | None = None
    file: str | None = None  # input (check) or output (build) VECT name

    def command(self, workdir: str) -> list:
        return [a.replace("{dir}", workdir) for a in self.argv]


def _torus_tag(method, t, double):
    return f"{method}-T{t}{'-double' if double else ''}"


def _build_job(method, t, double):
    tag = _torus_tag(method, t, double)
    argv = ("build", method, "--t", str(t), "--points", str(TORUS_BUILD_POINTS),
            "--out", f"{{dir}}/{tag}.vect") + (("--double",) if double else ())
    return Job(f"build {tag}", "build", argv, (method, t, double), f"{tag}.vect")


def _check_job(method, t, double):
    tag = _torus_tag(method, t, double)
    return Job(f"check {tag}", "check", ("check", f"{{dir}}/{tag}.vect"),
               (method, t, double), f"{tag}.vect")


def _optimize_job(family, q):
    argv = ("optimize", "--family", family, "--q", str(q), "--restarts", "1",
            "--maxfev", str(PLANAR_MAXFEV), "--points", str(PLANAR_POINTS))
    return Job(f"optimize {family} q={q}", "optimize", argv)


def _csv_job(*argv):
    return Job(" ".join(argv), "csv", tuple(argv))


# A round costs 4-8 s on 2 CPUs.  T and --double are spread so that every
# method appears at one and two shells and both single and doubled tori occur.
ROUNDS = {
    "torus_build": (
        _build_job("inc4", 3, False),
        _build_job("inc4", 1, True),
        _build_job("inc5", 1, True),
        _build_job("optimal", 2, False),
        _build_job("optimal", 1, False),
    ),
    # Tori of 12+ components: on smaller ones the distance search is a
    # quarter of a check and would blur the linking signal.
    "torus_check": (
        _check_job("inc4", 2, False),
        _check_job("inc5", 1, True),
        _check_job("optimal", 2, False),
    ),
    "planar_optimize": (
        _optimize_job("gibbous", 3),
        _optimize_job("hybrid_square", 5),
        _optimize_job("circles", 8),
        _optimize_job("gibbous", 20),
    ),
    "alpha_sweep": (
        _csv_job("sweep", "optimal", "--tmin", "1", "--tmax", "100"),
        _csv_job("sweep", "inc4", "--tmin", "101", "--tmax", "200"),
        _csv_job("sweep", "inc5", "--tmin", "101", "--tmax", "150"),
        _csv_job("correction", "--table"),
    ),
}

WORKLOADS = tuple(ROUNDS)


def job_rounds(workload: str, seed: int):
    """The seeded job list, one round at a time: each round is a shuffle of
    the workload's fixed multiset of jobs."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        jobs = list(ROUNDS[workload])
        rng.shuffle(jobs)
        yield jobs


def prepare_inputs(workload: str, workdir: str):
    """Write the input files a workload reads (torus_check's VECT files)."""
    if workload != "torus_check":
        return
    from ropebound.construct import (
        build_increment_spec, build_optimal_spec, donut_double, realize_torus,
    )
    from ropebound.io_formats import export_geometry

    for job in ROUNDS[workload]:
        method, t, double = job.torus
        if method == "optimal":
            spec = build_optimal_spec(t)
        else:
            spec = build_increment_spec(t, int(method[3:]))
        realize = donut_double if double else realize_torus
        link = realize(spec, n_points=TORUS_CHECK_POINTS, check=False)
        export_geometry(link, "vect", os.path.join(workdir, job.file))


@dataclass
class Outcome:
    """What one job returned: its exit code, its answer, or what went wrong."""

    code: int | None
    error: str | None = None
    answer: dict = field(default_factory=dict)


def execute(job: Job, workdir: str) -> Outcome:
    """Run one job through ``ropebound.cli.main`` in this process."""
    from ropebound import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.command(workdir))
    except SystemExit as exc:  # argparse and usage errors exit
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises counts as failed
        return Outcome(None, f"{type(exc).__name__}: {exc}")
    out = Outcome(code)
    try:
        out.answer = answer_of(job, buf.getvalue(), workdir)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        out.error = f"unreadable output: {exc}"
    return out


def answer_of(job: Job, stdout: str, workdir: str) -> dict:
    """The part of a job's output that is checked against its reference."""
    if job.kind == "csv":
        return {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    report = json.loads(stdout)
    if job.kind == "optimize":
        return {"best_value": report["best_value"],
                "evaluations": report["evaluations"]}
    answer = {
        "normalized_length": report["metrics"]["normalized_length"],
        "passed": report["verification"]["passed"],
    }
    if job.kind == "build":
        answer["components"] = _vect_components(os.path.join(workdir, job.file))
    else:
        answer["components"] = report["components"]
        # Every torus job is p = 1.
        answer["linking_ok"] = linking_pattern_ok(
            report["linking_matrix"], doubled=job.torus[2], p=1)
    return answer


def _vect_components(path: str) -> int:
    """Component count from the header of the VECT file a build wrote."""
    with open(path) as fh:
        fh.readline()
        return int(fh.readline().split()[0])


def linking_pattern_ok(matrix, doubled: bool, p: int) -> bool:
    """|lk| = p for every pair within one torus, and 1 across the two copies
    of a doubled torus (copy 1 first, then copy 2)."""
    n = len(matrix)
    half = n // 2 if doubled else n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_copy = (i < half) == (j < half)
            expected = p if same_copy else 1
            if abs(matrix[i][j]) != expected:
                return False
    return True


def check(job: Job, outcome: Outcome, reference: dict | None) -> bool:
    """True when the job ran cleanly and its answer matches the reference."""
    if outcome.error or outcome.code != 0 or reference is None:
        return False
    a = outcome.answer
    if job.kind == "csv":
        return a["sha256"] == reference["sha256"]
    if job.kind == "optimize":
        v, ref = a["best_value"], reference["best_value"]
        return math.isfinite(v) and v <= ref + 1e-9 * abs(ref)
    ok = (
        a["passed"] is True
        and a["components"] == reference["components"]
        and math.isclose(a["normalized_length"], reference["normalized_length"],
                         rel_tol=1e-9, abs_tol=0.0)
    )
    if job.kind == "check":
        ok = ok and a["linking_ok"]
    return ok


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
