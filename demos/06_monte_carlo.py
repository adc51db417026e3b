#!/usr/bin/env python3
"""Run detection-rate scans and the deterministic comparison curve.

Two experiments:

1. A Monte Carlo scan draws random chessboard states and records which
   witness groups detect each one.  Rows depend only on (seed, index),
   so the CSV output is byte-identical for any worker count.

2. A one-parameter family of states traces out a detection curve whose
   minimum is found by golden-section search and cross-checked against
   a dense matrix-expectation route.
"""

import io
import time

from chesswit.chessboard import sample_params_222, sample_params_22d
from chesswit.mcharness import (
    reproduce_section6,
    run_scan,
    section6_curve,
    summarize,
    write_csv,
)


def main():
    print("=== Counter-based sampling ===")
    print("Sample `index` of stream `seed` depends on (seed, index) alone,")
    print("so equal streams give equal draws:")
    p1 = sample_params_222(99, 7)
    p2 = sample_params_222(99, 7)
    print(f"  draw twice at (99, 7): identical = {p1 == p2}")
    p3 = sample_params_22d(99, 7, 3)
    print(f"  same stream, qutrit third party: d={p3.dim}, "
          f"pair=({p3.alpha},{p3.beta})")

    print("\n=== Scan: 2000 qubit-third-party states ===")
    t0 = time.perf_counter()
    result = run_scan(2_000, seed=31, workers=2)
    dt = time.perf_counter() - t0
    summary = summarize(result)
    print(f"completed in {dt:.2f}s")
    for name, entry in summary["detected"].items():
        print(f"  {name:4s}: {entry['count']:4d} states "
              f"({entry['percent']:5.2f}%)")
    batch = summary["batch"]["any"]
    print(f"batch stability: any-detection "
          f"{batch['mean']:.2f}% +/- {batch['std']:.2f}% "
          f"over {batch['batches']} batches of {batch['batch_size']}")
    pair = summary["pairs"]["poly&con"]
    print(f"overlap poly&con: both={pair['11']:.1f}%, "
          f"poly-only={pair['10']:.1f}%, con-only={pair['01']:.1f}%, "
          f"neither={pair['00']:.1f}%")

    print("\n=== Worker-count determinism ===")
    bufs = {}
    for workers in (1, 4):
        buf = io.StringIO()
        write_csv(run_scan(500, seed=31, workers=workers), buf)
        bufs[workers] = buf.getvalue()
    print(f"500-row CSV at 1 worker == at 4 workers: "
          f"{bufs[1] == bufs[4]}")
    print("first two rows:")
    for line in bufs[1].splitlines()[:3]:
        print(f"  {line[:76]}...")

    print("\n=== The deterministic comparison curve ===")
    print("f(t) samples (coefficient route):")
    for i in range(9):
        t = 0.1 + i * 0.2
        print(f"  t = {t:.3f}:  f = {section6_curve(t):+.6f}")
    out = reproduce_section6()
    print(f"\ngolden-section minimum: f({out['argmin']:.10f}) = "
          f"{out['min_value']:+.10f}")
    print(f"matrix-expectation route agrees to "
          f"{out['matrix_route_gap']:.2e}")
    print(f"second marked point: f({out['second_case_t']}) = "
          f"{out['second_case_value']:+.10f}")
    checks = out["separability_checks"]
    for name, entry in checks.items():
        print(f"  separability check [{name}]: detected={entry['detected']}")


if __name__ == "__main__":
    main()
