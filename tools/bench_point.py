#!/usr/bin/env python3
"""Record one point of the benchmark trajectory.

Usage, from the repository root:

    python3 tools/bench_point.py [--base REV]

Runs the benchmark command of ``BENCHMARK.json`` on each of its
workloads for its ``run_seconds``, with seed 0, first with ``--trace 0``
(end-to-end metrics) and then with ``--trace 1`` (per-layer metrics),
one run at a time. It writes the environment record and the result
line of every run to ``BENCH_<date>_<commit>.json`` in the repository
root and prints that file's name. The date is the UTC date; the commit
is ``git describe --always --dirty`` of HEAD, so a point measured on
uncommitted changes says so. Points share the seed and run length, so
that they can be compared; a point takes about eight runs of 30 s.

Single runs drift with the load of the host, often by more than a
change moves them. ``--base REV`` also measures the change against
REV: it extracts ``git archive REV`` into a temporary directory and
runs each workload there and in the working tree, ``PAIRS`` pairs at
seed 0 with ``--trace 0``, the side that runs first alternating from
pair to pair so that a drifting host favours neither. The point then
records REV, both sides of every pair, and each pair's ratio
head / base of every metric value. The pairs add 2 x ``PAIRS`` runs
per workload to the point.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
PAIRS = 3


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def _run(command: list, seconds: float, cwd: Path, workload: str,
         trace: int) -> dict:
    """One benchmark run in ``cwd``: its environment record and result."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(SEED),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=True,
    )
    env, result = proc.stdout.splitlines()[-2:]
    return {"env": json.loads(env)["env"], "result": json.loads(result)}


def _pairs(command: list, seconds: float, workloads: list, rev: str
           ) -> list:
    """``PAIRS`` paired ``--trace 0`` runs per workload in ``git archive``
    of ``rev`` and in the working tree; the base runs first in even
    pairs, the working tree in odd ones."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        dirs = {"base": Path(tmp), "head": ROOT}
        for workload in workloads:
            for k in range(PAIRS):
                pair = {"workload": workload}
                for side in ("base", "head")[::-1 if k % 2 else 1]:
                    pair[side] = _run(command, seconds, dirs[side],
                                      workload, 0)
                old, new = (pair[side]["result"]["metrics"]
                            for side in ("base", "head"))
                pair["ratio"] = {name: new[name]["value"] / old[name]["value"]
                                 for name in new}
                pairs.append(pair)
    return pairs


def run_point(base: str | None = None) -> dict:
    """Run every workload at both trace settings, and the pairs against
    ``base`` if one is given; returns the point."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for trace in (0, 1):
        for workload in workloads:
            runs.append({"workload": workload, "trace": trace,
                         **_run(command, seconds, ROOT, workload, trace)})
    point = {"commit": _git("describe", "--always", "--dirty", "--abbrev=7"),
             "seed": SEED, "seconds": seconds, "runs": runs}
    if base is not None:
        point["base"] = {"rev": base,
                         "commit": _git("rev-parse", "--short=7", base)}
        point["pairs"] = _pairs(command, seconds, workloads, base)
    return point


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also run paired against git archive REV")
    args = parser.parse_args(argv)
    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    point = run_point(args.base)
    point["date"] = date
    out = ROOT / f"BENCH_{date}_{point['commit']}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
