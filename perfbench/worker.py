"""One workload process: set up, run rounds of jobs for a fixed time, report.

Started by ``run.py``; prints one JSON object on its last stdout line.  With
``--setup-only`` it stops once its inputs are ready, so ``run.py`` can time
set-up several times per run.  With ``--trace 1`` the first half of the time
runs untraced and the second half traced, so the tracing overhead is the
difference of the two halves' median round times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import ropebound.cli  # noqa: E402,F401  (set-up includes the package import)

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_phase(rounds, seconds, workdir, refs, tracer=None):
    """Run whole rounds until `seconds` have passed (at least one round).

    Returns the wall time of each round and (job, outcome, ok) per job.
    Answers are checked after the round, outside its timing.
    """
    walls, results = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        jobs = next(rounds)
        gc.collect()
        outcomes = []
        t0 = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{len(walls)}/{job.id}"
            outcomes.append(workloads.execute(job, workdir))
        walls.append(time.perf_counter() - t0)
        results.extend(
            (job, out, workloads.check(job, out, refs.get(job.id)))
            for job, out in zip(jobs, outcomes)
        )
    return walls, results


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, results) -> dict:
    from ropebound.parallel import thread_count

    answers = {}
    for job, out, ok in results:
        answers.setdefault(job.id, {"answer": out.answer, "ok": ok})
    failures = [
        {"job": job.id, "code": out.code, "error": out.error, "answer": out.answer}
        for job, out, ok in results if not ok
    ]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "ROPEBOUND_THREADS": os.environ.get("ROPEBOUND_THREADS"),
        "parallel_workers": thread_count(),
        "jobs_per_round": len(workloads.ROUNDS[args.workload]),
        "jobs_run": len(results),
        "answers": answers,
        "failures": failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.prepare_inputs(args.workload, workdir)
        refs = workloads.load_references()
        rounds = workloads.job_rounds(args.workload, args.seed)
        ready_at = time.time()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        half = args.seconds / 2 if args.trace else args.seconds
        walls, results = run_phase(rounds, half, workdir, refs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {
            "ready_at": ready_at,
            "round_walls": walls,
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls, traced = run_phase(rounds, half, workdir, refs, tracer)
            finally:
                tracer.uninstall()
            results += traced
            layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
            layers["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls))
            layers["distances.kernel_ns_per_pair"] = (
                tracing.kernel_ns_per_pair(tracer.sample_curves, args.seed)
                if tracer.sample_curves else 0.0)
            layers["distances.kernel_computed_bytes_per_pair"] = (
                tracing.KERNEL_BYTES_PER_PAIR if tracer.sample_curves else 0)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
            report["traced_round_walls"] = traced_walls
            report["layers"] = layers
        report["attempted"] = len(results)
        report["failed"] = sum(not ok for _, _, ok in results)
        report["provenance"] = provenance(args, results)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
