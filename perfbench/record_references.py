"""Record the reference answer of every benchmark job into references.json.

    python3 perfbench/record_references.py

Run it only on a commit whose answers are trusted (the references in this
directory were recorded on the commit that added the benchmark); the
benchmark then counts any job whose answer departs from them as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    workdir = tempfile.mkdtemp(prefix="refs-", dir=os.path.dirname(HERE))
    try:
        for name in workloads.WORKLOADS:
            workloads.prepare_inputs(name, workdir)
            for job in workloads.ROUNDS[name]:
                out = workloads.execute(job, workdir)
                if out.error or out.code != 0:
                    print(f"{job.id}: code {out.code} {out.error}", file=sys.stderr)
                    return 1
                refs[job.id] = out.answer
                print(job.id, out.answer, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
