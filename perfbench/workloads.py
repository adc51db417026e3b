"""The benchmark's workloads.

Each workload runs operations one after another in a closed loop with
a single caller. ``op(i)`` runs operation ``i``, times only the calls
into the package, checks their outputs outside the timed region, and
returns an :class:`OpResult`. ``first_call()`` is the first user call
of a fresh process, timed by the set-up probe. ``finish()`` runs the
expensive reference checks on a seeded sample of the outputs kept
during the loop. All inputs derive from the workload seed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from chesswit import cli, frgeom, optimality, witnesses

from .checks import DetectCheck, ScanCheck, sample_state

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

#: Scan call ``i`` of a run with seed ``s`` uses scan seed
#: ``s * SCAN_SEED_STRIDE + i``, so seed 0 starts with ``--seed 0``.
SCAN_SEED_STRIDE = 1_000_000

#: Outputs kept for the reference checks, and rows checked per kept CSV.
KEEP = 4
ORACLE_ROWS = 3


@dataclass
class OpResult:
    units: int                      # rows, calls or certified items
    busy_s: float                   # time spent inside the package
    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    detail: Dict[str, List[float]] = field(default_factory=dict)


class Reservoir:
    """Uniform seeded sample of at most ``k`` of the items offered."""

    def __init__(self, k: int, rng: np.random.Generator):
        self.k, self.rng = k, rng
        self.items: list = []
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append(item)
        else:
            j = int(self.rng.integers(self.seen))
            if j < self.k:
                self.items[j] = item


def _report_error(where: str, exc: BaseException) -> None:
    print(f"perfbench: {where} raised {type(exc).__name__}: {exc}",
          file=sys.stderr)


class ScanWorkload:
    """``chesswit scan`` in-process: ``pairs=all``, one worker, CSV to a file.

    Every call scans ``n`` rows with its own scan seed; the CSV's
    structure is checked for every row, its bytes against the pinned
    sha256 where one exists (seed 0), and a seeded sample of rows
    against the reference oracle.
    """

    unit = "row"

    def __init__(self, name: str, d: int, n: int, seed: int, workdir: Path):
        self.name, self.d, self.n, self.seed = name, int(d), int(n), int(seed)
        self.path = workdir / f"{name}-{os.getpid()}.csv"
        self.check = ScanCheck(self.d, self.n)
        self.rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1)))
        self.kept = Reservoir(KEEP, self.rng)
        pins = PINNED[name]
        self.pins = pins["sha256"] if pins["n"] == self.n else []

    def size(self) -> Dict[str, object]:
        return {"rows_per_call": self.n, "d": self.d, "pairs": "all",
                "workers": 1}

    def _argv(self, i: int) -> List[str]:
        return ["scan", "--n", str(self.n),
                "--seed", str(self.seed * SCAN_SEED_STRIDE + i),
                "--d", str(self.d), "--pairs", "all", "--workers", "1",
                "--out", str(self.path)]

    def first_call(self) -> None:
        cli.main(self._argv(0))

    def op(self, i: int) -> OpResult:
        t0 = perf_counter()
        try:
            rc = cli.main(self._argv(i))
        except Exception as exc:  # a crash fails the call, the run goes on
            _report_error(f"scan call {i}", exc)
            return OpResult(self.n, perf_counter() - t0, failed=self.n)
        busy = perf_counter() - t0
        if rc != 0:
            return OpResult(self.n, busy, [busy], failed=self.n)
        text = self.path.read_text()
        pinned = self.pins[i] if self.seed == 0 and i < len(self.pins) else ""
        failed = self.check.failures(self.seed * SCAN_SEED_STRIDE + i, text,
                                     rows=(), pinned=pinned)
        if not failed:
            self.kept.offer((i, text))
        return OpResult(self.n, busy, [busy], failed)

    def finish(self) -> int:
        failed = 0
        for i, text in self.kept.items:
            rows = self.rng.choice(self.n, size=min(ORACLE_ROWS, self.n),
                                   replace=False)
            failed += self.check.failures(self.seed * SCAN_SEED_STRIDE + i,
                                          text, rows=sorted(rows))
        self.path.unlink(missing_ok=True)
        return failed


class DetectWorkload:
    """``witnesses.detect(params)`` plus ``json.dumps(report.to_json())``.

    Operation ``i`` is one caller's two requests, each on one sampled
    state: state ``i`` at d = 2, then state ``i`` at d = 3 (all pairs).
    The pair's latency is the call latency; each dimension's latency is
    kept apart in the detail record. At d = 2 every report's verdicts
    are checked against the closed-form detection conditions; a seeded
    sample of reports of both dimensions is checked in full against the
    reference oracle.
    """

    unit = "call"
    DIMS = (2, 3)

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, int(seed)
        self.check = {d: DetectCheck(d) for d in self.DIMS}
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        self.kept = {d: Reservoir(KEEP, rng) for d in self.DIMS}

    def size(self) -> Dict[str, object]:
        return {"states_per_call": len(self.DIMS), "d": list(self.DIMS),
                "pairs": "all"}

    def first_call(self) -> None:
        json.dumps(witnesses.detect(sample_state(self.seed, 0, 2)).to_json())

    def op(self, i: int) -> OpResult:
        result = OpResult(len(self.DIMS), 0.0)
        for d in self.DIMS:
            params = sample_state(self.seed, i, d)
            t0 = perf_counter()
            try:
                report = witnesses.detect(params)
                text = json.dumps(report.to_json())
            except Exception as exc:  # a crash fails the call, the run goes on
                _report_error(f"detect call {i} at d={d}", exc)
                result.busy_s += perf_counter() - t0
                result.failed += 1
                continue
            busy = perf_counter() - t0
            result.busy_s += busy
            result.detail[f"d{d}"] = [busy]
            if self.check[d].verdicts(params, report.families):
                self.kept[d].offer((params, text))
            else:
                result.failed += 1
        if len(result.detail) == len(self.DIMS):
            result.latencies_s.append(result.busy_s)
        return result

    def finish(self) -> int:
        return sum(not self.check[d].report(params, text)
                   for d in self.DIMS for params, text in self.kept[d].items)


# See-saw time depends mostly on the witness angles, alike for every
# catalog id: a psi near a multiple of pi/2 can take 10-30 times longer
# than elsewhere, and (eta, zeta) has similar ridges with period pi in
# zeta. Angles are therefore quasi-random rather than independent: the
# validate calls of a run, counted by k across rounds, step through
# golden-ratio (psi) and R2 (eta, zeta) sequences from a seeded offset.
# The steps are chosen so that the periodic phase (4 psi / 2 pi and
# 2 zeta / 2 pi modulo 1) itself advances by 1/phi, 1/rho^2, which
# spreads the calls of every round, and of the run, evenly over the
# slow and fast angles; rounds and seeds then differ little in cost.
_PHI_STEP = (math.sqrt(5.0) - 1.0) / 2.0          # 1/phi
_RHO = 1.324717957244746                            # plastic number
_PSI_STEP = (2.0 + _PHI_STEP) / 4.0
_ETA_STEP = 1.0 / _RHO
_ZETA_STEP = (1.0 + 1.0 / (_RHO * _RHO)) / 2.0

OPTIMAL_CONICAL = ("con:333:122:0:+", "con:333:122:0:-")


class CertifyWorkload:
    """Catalog certification, in rounds of a fixed composition.

    A round validates one catalog witness per family at d = 2 and at
    d = 3 by see-saw search, checks all four feasible regions and their
    boundary sweeps, and runs the optimality test on one polygonal id
    and on the two conical ids at a generic angle and at a degenerate
    one. Operation ``i`` is one item of a round, and the unit of work
    is a certified item; the call whose latency is reported is one
    ``validate-witness`` (build plus validate).
    """

    unit = "item"

    def __init__(self, name: str, seed: int, fr_samples: int,
                 families: Tuple[str, ...] = witnesses.FAMILY_NAMES):
        self.name, self.seed = name, int(seed)
        self.fr_samples = int(fr_samples)
        self.families = tuple(families)
        self.ids = {
            d: {f: [w for w in witnesses.witness_ids(d)
                    if w.split(":", 1)[0] == f] for f in self.families}
            for d in (2, 3)
        }
        self.poly_ids = [w for w in witnesses.witness_ids(2)
                         if w.startswith("poly")]
        self.offset = np.random.default_rng(
            np.random.SeedSequence((self.seed, 3))).uniform(size=3)
        self.round = (0, self._round_items(0))

    def size(self) -> Dict[str, object]:
        return {"validate_per_round": 2 * len(self.families),
                "validate_starts": 64,
                "fr_geometries": len(frgeom.GEOMETRIES),
                "fr_samples": self.fr_samples,
                "optimality_per_round": 4}

    def _angles(self, family: str, k: int) -> Dict[str, float]:
        """Angles of validate call ``k`` (counted over the whole run)."""
        u = self.offset
        if family.startswith(("con", "cyl")):
            return {"psi": 2 * math.pi * ((u[0] + k * _PSI_STEP) % 1.0)}
        if family.startswith("sph"):
            return {"eta": math.pi * ((u[1] + k * _ETA_STEP) % 1.0),
                    "zeta": 2 * math.pi * ((u[2] + k * _ZETA_STEP) % 1.0)}
        return {}

    def _round_items(self, r: int) -> List[Tuple[str, tuple]]:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 4, r)))
        items: List[Tuple[str, tuple]] = []
        k = r * 2 * len(self.families)
        for d in (2, 3):
            for f in self.families:
                ids = self.ids[d][f]
                wid = ids[int(rng.integers(len(ids)))]
                items.append(("validate", (wid, d, self._angles(f, k),
                                           int(rng.integers(2**31)))))
                k += 1
        for g in frgeom.GEOMETRIES:
            items.append(("fr", (g, int(rng.integers(2**31)))))
            items.append(("boundary", (g,)))
        quarter = math.pi / 4
        k = int(rng.integers(4))
        generic = quarter + k * 2 * quarter + rng.uniform(0.1, 2 * quarter - 0.1)
        items.append(("optimal", (self.poly_ids[int(rng.integers(32))], None,
                                  True)))
        for wid in OPTIMAL_CONICAL:
            items.append(("optimal", (wid, generic, True)))
        items.append(("optimal", (OPTIMAL_CONICAL[0],
                                  quarter + k * 2 * quarter, False)))
        return items

    def _validate(self, wid: str, d: int, angles: Dict[str, float],
                  seed: int) -> bool:
        w = witnesses.build_witness(wid, d=d, **angles)
        ok, value, _ = witnesses.validate_witness(
            w, dims=(2, 2, d), tol=1e-7, starts=64, seed=seed)
        return bool(ok) and value >= -1e-7

    def _item(self, kind: str, args: tuple) -> bool:
        if kind == "validate":
            return self._validate(*args)
        if kind == "fr":
            geometry, seed = args
            out = frgeom.feasible_region_check(geometry, n=self.fr_samples,
                                               seed=seed)
            return out["violations"] == 0 and out["samples"] == self.fr_samples
        if kind == "boundary":
            return frgeom.boundary_curve_check(*args)["max_residual"] <= 1e-9
        wid, psi, expected = args
        return optimality.is_optimal(wid, psi=psi)[0] == expected

    def first_call(self) -> None:
        kind, args = self.round[1][0]
        self._item(kind, args)

    def op(self, i: int) -> OpResult:
        r, slot = divmod(i, len(self.round[1]))
        if r != self.round[0]:
            self.round = (r, self._round_items(r))
        kind, args = self.round[1][slot]
        t0 = perf_counter()
        try:
            ok = self._item(kind, args)
        except Exception as exc:  # a crash fails the item, the run goes on
            _report_error(f"certify {kind}{args}", exc)
            ok = False
        elapsed = perf_counter() - t0
        return OpResult(1, elapsed, [elapsed] if kind == "validate" else [],
                        failed=0 if ok else 1, detail={kind: [elapsed]})

    def finish(self) -> int:
        return 0


#: Benchmark sizes: full for measurement, tiny for the smoke tests.
SIZES = {
    "full": {"scan-d2": 16, "scan-d3": 12, "certify": 20_000},
    "tiny": {"scan-d2": 4, "scan-d3": 2, "certify": 200},
}


def make(name: str, seed: int, workdir: Path, size: str = "full"):
    """Construct the workload ``name`` at the given size."""
    sizes = SIZES[size]
    if name == "scan-d2":
        return ScanWorkload(name, 2, sizes[name], seed, workdir)
    if name == "scan-d3":
        return ScanWorkload(name, 3, sizes[name], seed, workdir)
    if name == "detect-single":
        return DetectWorkload(name, seed)
    if name == "certify":
        families = witnesses.FAMILY_NAMES if size == "full" else ("cyl",)
        return CertifyWorkload(name, seed, sizes[name], families)
    raise ValueError(f"unknown workload {name!r}")
