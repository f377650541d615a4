"""ropebound benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload torus_build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  A closed loop: one client runs one job at a time, in one worker
process; the only extra threads are ``parallel_map``'s pool at its default
size.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance block.  ``--trace 0`` reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``), ``--trace 1`` the per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("torus_build", "torus_check", "planar_optimize", "alpha_sweep")
# Set-up-only processes timed before and after the main worker; with the
# main worker's own set-up that is five samples spread over the run, so one
# slow spell of the machine does not move the median.
SETUP_PROBES = 2
DEADLINE_S = 170.0  # every run must end within 180 s


def _worker(args, extra, timeout, env) -> tuple:
    """Start a worker, wait for it, and return (spawn time, its JSON report)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no report")
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ropebound", "cli.py")):
        print(f"error: no ropebound sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ)
    env.pop("ROPEBOUND_THREADS", None)  # parallel_map's pool at default size
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # no BLAS threads beside that pool

    def probe_setup():
        spawned, probe = _worker(args, ["--setup-only"], 60, env)
        return probe["ready_at"] - spawned

    probes = 0 if args.trace else SETUP_PROBES  # setup_s is end-to-end only
    setups = [probe_setup() for _ in range(probes)]
    remaining = DEADLINE_S - (time.monotonic() - started) - 10 * probes
    spawned, rep = _worker(args, [], remaining, env)
    setups.append(rep["ready_at"] - spawned)
    setups += [probe_setup() for _ in range(probes)]

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(rep["layers"].items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rep["round_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MiB"},
        }
    prov = dict(rep["provenance"])
    prov.update(
        round_walls_s=rep["round_walls"],
        traced_round_walls_s=rep.get("traced_round_walls"),
        setup_samples_s=setups,
        fail_ratio=rep["failed"] / rep["attempted"],
    )
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "ns_per_" in name:
        return "ns"
    if "bytes" in name:
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "pct"
    if name.endswith(("_ratio", ".share", "cpu_per_wall")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
