#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-d2 --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment. ``--trace 0`` measures the end-to-end
metrics with tracing off. ``--trace 1`` alternates untraced and traced
stretches of about half a second, reports the per-layer metrics of the
traced ones and the tracing overhead between the two, and writes the
spans to ``.perfbench/``. Workloads, metrics and their meaning are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process on a small machine: BLAS must not start its own threads.
# Set before numpy is first imported, here and in the set-up probes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("scan-d2", "scan-d3", "detect-single", "certify")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_RUNS = 4
#: Share of ``--seconds`` run untimed first, so lazy set-up is done.
WARMUP_SHARE = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("chessboard.sample_us", "us"),
    ("chessboard.build_rho_us", "us"),
    ("chessboard.pauli_coeffs_us", "us"),
    ("tensorops.is_ppt_us", "us"),
    ("tensorops.eigh_calls_per_state", "count"),
    ("witnesses.family_minima_us", "us"),
    ("witnesses.catalog_entries_per_row", "count"),
    ("witnesses.substituted_coeffs_us", "us"),
    ("witnesses.detection_conditions_us", "us"),
    ("witnesses.detect_self_us", "us"),
    ("witnesses.build_witness_ms", "ms"),
    ("witnesses.seesaw_ms", "ms"),
    ("witnesses.seesaw_calls", "count"),
    ("frgeom.feasible_region_check_ms", "ms"),
    ("frgeom.product_states_per_s", "1/s"),
    ("frgeom.product_states_sampled", "count"),
    ("frgeom.boundary_curve_check_ms", "ms"),
    ("optimality.is_optimal_ms", "ms"),
    ("mcharness.run_scan_self_us_per_row", "us"),
    ("mcharness.write_csv_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _import_package() -> None:
    """Make ``chesswit`` (from ``src/``) and ``perfbench`` importable."""
    if not (ROOT / "src" / "chesswit" / "__init__.py").is_file():
        sys.exit("perfbench: package source src/chesswit not found")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


#: Untraced and traced stretches of a traced run last this long each.
STRETCH_S = 0.5
#: Kernel runs timed after each set-up probe.
SETUP_REFERENCE_RUNS = 9


@dataclass
class Stats:
    """Operations of one phase, with every time also at the reference
    speed (``perfbench/reference.py``): each operation's times are
    scaled by the calibration kernel run right after it."""

    ops: int = 0
    units: int = 0
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0
    failed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    scaled_latencies_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    detail: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, res, reference_s: float, ref_s: float) -> None:
        """Add one operation, followed by a kernel run of ``reference_s``
        seconds that takes ``ref_s`` at the reference speed."""
        scale = ref_s / reference_s
        self.ops += 1
        self.units += res.units
        self.busy_s += res.busy_s
        self.scaled_busy_s += res.busy_s * scale
        self.failed += res.failed
        self.latencies_s.extend(res.latencies_s)
        self.scaled_latencies_s.extend(x * scale for x in res.latencies_s)
        self.reference_s.append(reference_s)
        for key, values in res.detail.items():
            self.detail.setdefault(key, []).extend(values)

    @property
    def ops_per_s(self) -> float:
        """Units per second spent in the package, at the reference speed."""
        return self.units / self.scaled_busy_s if self.scaled_busy_s else 0.0


def run_loop(workload, start: int, seconds: float, stats: Stats) -> int:
    """Run operations from index ``start`` for ``seconds`` (at least one),
    each followed by one run of the calibration kernel."""
    from perfbench import reference

    i = start
    deadline = perf_counter() + seconds
    while True:
        res = workload.op(i)
        stats.add(res, reference.timed(), reference.REF_S)
        i += 1
        if perf_counter() >= deadline:
            return i


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe(name: str, seed: int, size: str) -> float:
    """Import the package and finish the workload's first call; the time
    is given at the reference speed, measured right after."""
    t0 = perf_counter()
    import chesswit.cli  # noqa: F401  (the import is what is timed)
    imported = perf_counter() - t0
    from perfbench import workloads
    workload = workloads.make(name, seed, WORKDIR, size)
    t1 = perf_counter()
    workload.first_call()
    elapsed = imported + perf_counter() - t1
    from perfbench import reference
    speed = statistics.median(reference.timed()
                              for _ in range(SETUP_REFERENCE_RUNS))
    workload.finish()
    return elapsed * reference.REF_S / speed


def measure_setup(name: str, seed: int, size: str, runs: int) -> float:
    """Median set-up time of ``runs`` fresh processes."""
    values = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed), "--size", size,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        values.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(values)


def _per_state(n: float, states: int) -> float:
    return n / states if states else 0.0


def layer_metrics(tracer, stats: Stats, workload) -> Dict[str, float]:
    """Per-layer numbers from one traced phase."""
    from chesswit.witnesses import witness_ids
    from perfbench import reference

    summary = tracer.summary()
    # span times are given at the reference speed of the traced phase
    speed = reference.REF_S / statistics.median(stats.reference_s)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def mean(name, scale):
        entry = summary.get(name)
        return (entry["total_s"] / entry["calls"] * scale * speed
                if entry else 0.0)

    def self_per(name, per, scale):
        entry = summary.get(name)
        return entry["self_s"] / per * scale * speed if entry and per else 0.0

    # states: rows for the scans, requests for detect-single, 0 for certify
    states = 0 if workload.unit == "item" else stats.units
    fr = summary.get("frgeom.feasible_region_check")
    product_states = tracer.count("product_states",
                                  "frgeom.feasible_region_check")
    return {
        "chessboard.sample_us": mean("chessboard.sample", 1e6),
        "chessboard.build_rho_us": mean("chessboard.build_rho", 1e6),
        "chessboard.pauli_coeffs_us": mean("chessboard.pauli_coeffs", 1e6),
        "tensorops.is_ppt_us": mean("tensorops.is_ppt", 1e6),
        "tensorops.eigh_calls_per_state": _per_state(
            tracer.count("eigh_calls", "tensorops.is_ppt"), states),
        "witnesses.family_minima_us": mean("witnesses.family_minima", 1e6),
        "witnesses.catalog_entries_per_row": _per_state(
            calls("witnesses.family_minima") * len(witness_ids(2)), states),
        "witnesses.substituted_coeffs_us": mean(
            "witnesses.substituted_coeffs", 1e6),
        "witnesses.detection_conditions_us": mean(
            "witnesses.detection_conditions", 1e6),
        "witnesses.detect_self_us": self_per(
            "witnesses.detect", calls("witnesses.detect"), 1e6),
        "witnesses.build_witness_ms": mean("witnesses.build_witness", 1e3),
        "witnesses.seesaw_ms": mean("witnesses.seesaw", 1e3),
        "witnesses.seesaw_calls": _per_state(
            calls("witnesses.seesaw"), calls("witnesses.validate_witness")),
        "frgeom.feasible_region_check_ms": mean(
            "frgeom.feasible_region_check", 1e3),
        "frgeom.product_states_per_s": (
            product_states / (fr["total_s"] * speed) if fr else 0.0),
        "frgeom.product_states_sampled": _per_state(
            product_states, calls("frgeom.feasible_region_check")),
        "frgeom.boundary_curve_check_ms": mean("frgeom.boundary_curve_check",
                                               1e3),
        "optimality.is_optimal_ms": mean("optimality.is_optimal", 1e3),
        "mcharness.run_scan_self_us_per_row": self_per(
            "mcharness.run_scan", states, 1e6),
        "mcharness.write_csv_ms": mean("mcharness.write_csv", 1e3),
        "cli.main_self_ms": self_per("cli.main", calls("cli.main"), 1e3),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name: str, seed: int, seconds: float, trace: bool,
                workload, stats: Stats) -> Dict[str, object]:
    import numpy
    import chesswit
    from perfbench import reference

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chesswit": chesswit.__version__,
        "commit": _git_commit(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "workload": name,
        "size": workload.size(),
        "seconds": seconds,
        "trace": int(trace),
        "timed_ops": stats.ops,
        "timed_units": stats.units,
        "reference_s": reference.REF_S,
        "reference_ms": latency_summary(stats.reference_s),
        "ops_per_s_as_measured": (stats.units / stats.busy_s
                                  if stats.busy_s > 0 else 0.0),
        "latency_ms_as_measured": {
            key: latency_summary(values) for key, values
            in [("call", stats.latencies_s)] + sorted(stats.detail.items())},
    }


def latency_summary(values: List[float]) -> Dict[str, float]:
    """Median and tail of a latency sample, in ms, with its size.

    Informational only: on a shared two-core machine the tail moves by
    more than any bound a comparison could use, so it is not a metric.
    """
    return {"samples": len(values),
            "p50": percentile(values, 50) * 1e3,
            "p90": percentile(values, 90) * 1e3}


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", setup_runs: int = SETUP_RUNS):
    """Run one workload; returns (environment record, result object)."""
    from perfbench import workloads
    from perfbench.tracing import Tracer

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, WORKDIR, size)
    warm = Stats()
    index = run_loop(workload, 0, WARMUP_SHARE * seconds, warm)
    stats = Stats()
    if not trace:
        run_loop(workload, index, seconds, stats)
    else:
        # Untraced and traced stretches alternate, so both meet the same
        # machine speed and their difference is the cost of tracing.
        untraced, tracer = Stats(), Tracer()
        end = perf_counter() + seconds
        while perf_counter() < end:
            index = run_loop(workload, index, STRETCH_S, untraced)
            with tracer:
                index = run_loop(workload, index, STRETCH_S, stats)
    failed = warm.failed + stats.failed + workload.finish()
    attempted = warm.units + stats.units
    if trace:
        failed += untraced.failed
        attempted += untraced.units
        values = layer_metrics(tracer, stats, workload)
        base = untraced.ops_per_s
        values["trace.overhead_pct"] = (
            100.0 * (base - stats.ops_per_s) / base if base else 0.0)
        units = dict(PER_LAYER)
    else:
        values = {
            "ops_per_s": stats.ops_per_s,
            "call_ms_p50": percentile(stats.scaled_latencies_s, 50) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": measure_setup(name, seed, size, setup_runs),
        }
        units = dict(END_TO_END)
    env = environment(name, seed, seconds, trace, workload, stats)
    if trace:
        out = WORKDIR / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({
            "env": env,
            "summary": tracer.summary(),
            "counts": {f"{k[0]}@{k[1]}": v for k, v in tracer.counts.items()},
            "spans": tracer.spans,
        }))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_package()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed,
                                                 args.size)}))
        return 0
    env, result = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.size)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
