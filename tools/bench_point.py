#!/usr/bin/env python3
"""Record one point of the benchmark trajectory.

Usage, from the repository root:

    python3 tools/bench_point.py

Runs the benchmark command of ``BENCHMARK.json`` on each of its
workloads for its ``run_seconds``, with seed 0, first with ``--trace 0``
(end-to-end metrics) and then with ``--trace 1`` (per-layer metrics),
one run at a time. It writes the environment record and the result
line of every run to ``BENCH_<date>_<commit>.json`` in the repository
root and prints that file's name. The date is the UTC date; the commit
is ``git describe --always --dirty`` of HEAD, so a point measured on
uncommitted changes says so. Points share the seed and run length, so
that they can be compared; a point takes about eight runs of 30 s.
"""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def _describe() -> str:
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def run_point() -> dict:
    """Run every workload at both trace settings; returns the point."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    runs = []
    for trace in (0, 1):
        for workload in (w["name"] for w in bench["workloads"]):
            proc = subprocess.run(
                command + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            env, result = proc.stdout.splitlines()[-2:]
            runs.append({"workload": workload, "trace": trace,
                         "env": json.loads(env)["env"],
                         "result": json.loads(result)})
    return {"commit": _describe(), "seed": SEED, "seconds": seconds,
            "runs": runs}


def main() -> int:
    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    point = run_point()
    point["date"] = date
    out = ROOT / f"BENCH_{date}_{point['commit']}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
