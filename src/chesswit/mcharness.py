"""Monte Carlo detection scans and deterministic curve reproduction.

``run_scan`` samples chessboard states (two-qubit-pair times qubit or
qudit third party) a chunk at a time and takes the chunk through the
layers as arrays, with no per-row parameter objects: its parameter
columns (``chessboard.sample_chunk``, where only the seeding and the
raw draws run per row), its rho entries (``rho_entries_222`` or
``rho_entries_22d``), one PPT guard on them (the least eigenvalue of
every partial transpose in closed form, ``_x_least_eigenvalues``, read
through a block map compiled per level structure: no matrix is built
and no eigensolver runs), its (N, P, 15) catalog coefficients
(``pauli_coeff_stack``, the closed forms of ``pauli_coeffs`` on the
columns, at d = 2; one ``_pair_coeffs`` gather of the same entries over
every row and level pair at d >= 3), and one ``family_minima`` and
``group_minima`` call on that stack for the minima of every row. At
d >= 3 the entries and the coefficients come from
``witnesses._qudit_chunk``, the helper ``detect`` uses. Only the CSV
formatting (``_format_rows``) runs per row, one row per sample, from
the columns' floats. ``_GUARD_ENTRIES`` sizes the chunks, which bounds
each chunk's catalog stack at any d.
Positivity of rho itself is proven, not computed: every coupled 2x2
block has diagonal product 1, and the sampler zeroes a colliding
gamma's gamma-gamma moduli (see ``chesswit.chessboard``); the guard's
proper-subset transposes do not include rho. Rows depend only on
``(seed, index)``, so output is byte-identical for any worker count.
``summarize`` turns the detection flags into percentages, 20-batch
mean/std statistics, and joint detection tables for every ordered pair
of family groups.

``reproduce_section6`` takes the minimum of the closed-form detection
curve

    f(t) = 2 (3t - 3) / (2 + 3t + 3/t),

the expectation of the polygonal witness ``poly1:1101`` on the
one-parameter chessboard family (a, b, c, d) = (1, t, t, 1/t) with a
single unit coupling, at its exact minimizer t* = (2 sqrt(6) - 3) / 5,
and cross-checks the minimum against the honest matrix-trace route.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chessboard import (
    COUPLING_POSITIONS,
    ChessParams222,
    ParamColumns,
    SLOT_ORDER,
    _check_seed,
    build_rho_222,
    coupling_cells,
    pauli_coeff_stack,
    pauli_coeffs,
    qudit_levels,
    rho_entries_222,
    sample_chunk,
)
from .tensorops import (PPT_SUBSETS, _check_dim, _check_integer, _check_tol,
                        _x_blocks, _x_least_eigenvalues)
from .witnesses import (
    DETECT_MARGIN,
    GROUP_NAMES,
    _check_pairs,
    _qudit_chunk,
    build_witness,
    family_minima,
    group_minima,
)

__all__ = [
    "ScanResult",
    "csv_header",
    "run_scan",
    "write_csv",
    "summarize",
    "section6_curve",
    "reproduce_section6",
    "SECOND_CASE_T",
]

#: Alternative parameter value whose curve value is recorded alongside
#: the true minimizer for reference.
SECOND_CASE_T = 0.3460

_FLAG_COLUMNS = tuple(f"det_{g}" for g in GROUP_NAMES + ("any",))
_MIN_COLUMNS = tuple(f"min_{g}" for g in GROUP_NAMES)


def _levels(d: int, alpha: Optional[int], beta: Optional[int],
            gamma: Optional[int]) -> Optional[Tuple[int, int, int, int]]:
    """``sample_chunk``'s ``levels`` for third-party dimension d >= 2: None
    at d = 2, else (d, alpha, beta, gamma), the levels not given taking
    ``qudit_levels``' defaults.

    Raises ValueError for any level given at d = 2 and, at d >= 3, for
    levels that ``qudit_levels`` rejects.
    """
    given = {k: v for k, v in (("alpha", alpha), ("beta", beta),
                               ("gamma", gamma)) if v is not None}
    if d == 2:
        if given:
            raise ValueError(
                f"alpha, beta and gamma need d >= 3; got "
                f"{', '.join(given)} at d = 2"
            )
        return None
    return (d,) + qudit_levels(d, **given)


def csv_header(dim: int = 2) -> str:
    """The scan CSV header for qubit (dim=2) or qudit third party;
    ValueError unless ``dim`` is an integer >= 2."""
    dim = _check_dim(dim, "dim")
    if dim == 2:
        cols = ["index", "a", "b", "c", "d",
                "r1", "r2", "r3", "r4",
                "phi1", "phi2", "phi3", "phi4"]
    else:
        cols = ["index"]
        cols += [f"a0_{k}" for k in range(dim)]
        cols += [f"a1_{k}" for k in range(dim)]
        cols += [f"r_{j}_{slot}" for j, slot in SLOT_ORDER]
        cols += [f"phi_{j}_{slot}" for j, slot in SLOT_ORDER]
    cols += ["ppt"] + list(_MIN_COLUMNS) + list(_FLAG_COLUMNS)
    return ",".join(cols)


#: Sizes the scan chunks: at most 2**18 // (6 (4d)**2) rows, as many as
#: six (4d) x (4d) transposes of 2**18 entries hold (682 rows at d = 2,
#: 303 at d = 3, 109 at d = 5). The guard builds no transposes; the
#: bound keeps each chunk's (N, P, 15) catalog stack, P = C(d, 2) level
#: pairs, under 1,366 x 15 entries at any d, while spreading the
#: per-call overhead over hundreds of rows.
_GUARD_ENTRIES = 2 ** 18


def _ppt_guard(start: int, columns: ParamColumns,
               entries: Tuple[np.ndarray, ...], cells: tuple,
               dims: Tuple[int, ...], tol: float = 1e-10) -> None:
    """Abort the scan unless every sampled state of a chunk is PPT.

    ``entries`` are the rho entries of the chunk's ``columns``, whose
    first row is sample ``start``, with the couplings at ``cells``. Each
    row's least eigenvalue over the partial transposes, in closed form
    (``_x_least_eigenvalues``), must be >= -tol, so a NaN fails, and
    blocks larger than 2 x 2 fail the chunk. No matrix is built and no
    eigensolver runs. The constructed states are PPT by design; a
    failure indicates a construction or sampling bug, so the error names
    the first failing row by its sample index, the CSV ``index`` and the
    ``i`` of ``(seed, i)``, and gives its parameter columns, read as
    floats, so that no parameter check can raise first.
    """
    lowest = _x_least_eigenvalues(entries, cells, dims)
    if lowest is not None and (lowest >= -tol).all():
        return
    if lowest is None:
        rows = (entries[1] != 0).tolist()
        k = next((k for k, row in enumerate(rows) if _x_blocks(
            dims, tuple(c for c, z in zip(cells, row) if z)) is None), None)
        reason = "couplings make partial-transpose blocks larger than 2 x 2"
    else:
        k = int(np.flatnonzero(~(lowest >= -tol))[0])
        reason = (f"least partial-transpose eigenvalue {float(lowest[k])!r}"
                  f" < -tol = {-tol!r}")
    where = "the chunk" if k is None else (
        f"sample {start + k} (diag={columns.diag[k].tolist()} "
        f"r={columns.r[k].tolist()} phi={columns.phi[k].tolist()})")
    raise RuntimeError(
        f"sampled chessboard state failed the PPT check: {where}: {reason}")


def _chunk_rows(args) -> Tuple[List[str], np.ndarray]:
    (seed, start, stop, levels, pairs, tol) = args
    columns = sample_chunk(seed, start, stop, levels)
    if columns.levels is None:
        dim, cells = 2, COUPLING_POSITIONS
        entries = rho_entries_222(columns)
        coeffs = pauli_coeff_stack(columns)[:, None]
    else:
        dim, cells = columns.levels[0], coupling_cells(*columns.levels)
        entries, _, _, coeffs = _qudit_chunk(columns, pairs)
    _ppt_guard(start, columns, entries, cells, (2, 2, dim), tol)
    # one catalog call for the whole (N, P, 15) stack, looked up in this
    # module at each call: the benchmark's tracer and its wrong-minima
    # check patch mcharness.family_minima
    groups = group_minima(family_minima(coeffs))
    minima = np.stack([groups[g] for g in GROUP_NAMES], axis=1)
    # a function of its own, so that a tracer can time the CSV layer by
    # patching mcharness._format_rows
    return _format_rows(start, columns, minima), minima


def _format_rows(start: int, columns: ParamColumns, minima: np.ndarray
                 ) -> List[str]:
    """The CSV rows of a chunk whose first row is sample ``start``: its
    parameter columns, the ppt flag and its (N, 4) group ``minima``."""
    values = np.concatenate((columns.diag, columns.r, columns.phi), axis=1)
    # index, parameters, ppt, minima, flags: "%.17g" % x is
    # format(x, ".17g"), with the whole row in one formatting call
    line = ",".join(["%d"] + ["%.17g"] * values.shape[1] + ["1"]
                    + ["%.17g"] * len(_MIN_COLUMNS)
                    + ["%d"] * len(_FLAG_COLUMNS))
    rows = []
    for index, (vals, mi) in enumerate(zip(values.tolist(), minima.tolist()),
                                       start):
        flags = [m < 0.0 for m in mi]
        rows.append(line % (index, *vals, *mi, *flags, any(flags)))
    return rows


@dataclass
class ScanResult:
    """In-memory scan output: CSV lines plus detection flags/minima."""

    header: str
    rows: List[str]
    flags: np.ndarray   # (n, 5) bool, columns _FLAG_COLUMNS
    minima: np.ndarray  # (n, 4) float, columns _MIN_COLUMNS
    config: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.rows)


def run_scan(
    n: int,
    seed: int = 0,
    dim: int = 2,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
    gamma: Optional[int] = None,
    pairs: str = "all",
    workers: int = 1,
    tol: float = 1e-10,
) -> ScanResult:
    """Sample, certify, and evaluate ``n`` chessboard states.

    Every sample is PPT-verified (RuntimeError on failure). ``workers``
    is clamped to the cores, and each gets an equal share of the rows:
    the chunks are equal, a multiple of ``workers`` in number, and each
    of at most ``_GUARD_ENTRIES // (6 (4 dim)**2)`` rows. The output
    depends only on ``(seed, index)`` per row, never on ``workers``.
    Arguments, the seed and the qudit levels included, are checked
    before any row is drawn (ValueError; the counts, ``dim``, the seed
    and the levels must be integers, not merely integral floats), so
    ``n = 0`` rejects what ``n = 1`` rejects.
    """
    n = _check_integer("n", n, 0)
    seed = _check_seed(seed)
    dim = _check_dim(dim, "dim")
    workers = _check_integer("workers", workers, 1)
    levels = _levels(dim, alpha, beta, gamma)
    _check_pairs(pairs)
    tol = _check_tol("tol", float(tol))
    # the pool forks every worker up front, so it never gets more
    # processes than there are cores or chunks
    workers = min(workers, os.cpu_count() or 1)
    cap = max(1, _GUARD_ENTRIES // (len(PPT_SUBSETS) * (4 * dim) ** 2))
    count = min(n, workers * -(-n // (workers * cap)))
    tasks = [(seed, k * n // count, (k + 1) * n // count, levels, pairs, tol)
             for k in range(count)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        results = list(map(_chunk_rows, tasks))
    else:
        # imported here: multiprocessing would add to every import of
        # the package, and a serial scan never needs it
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_chunk_rows, tasks))
        finally:
            executor.shutdown()
    rows = [row for chunk_rows, _ in results for row in chunk_rows]
    minima = np.concatenate([np.empty((0, len(_MIN_COLUMNS)))]
                            + [chunk_minima for _, chunk_minima in results])
    flags = minima < 0.0
    # the levels the scan ran, defaults resolved; None at d = 2
    alpha, beta, gamma = levels[1:] if levels else (None, None, None)
    config = {"n": n, "seed": seed, "dim": dim, "pairs": pairs,
              "alpha": alpha, "beta": beta, "gamma": gamma, "tol": tol}
    return ScanResult(
        header=csv_header(dim),
        rows=rows,
        flags=np.column_stack((flags, flags.any(axis=1))),
        minima=minima,
        config=config,
    )


def write_csv(result: ScanResult, path_or_file) -> None:
    """Write a scan result as CSV (header + one line per sample)."""
    text = result.header + "\n" + "".join(r + "\n" for r in result.rows)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", newline="") as fh:
            fh.write(text)


#: Contiguous batches of a scan's rows that ``summarize`` reports the
#: mean and spread of the detection percentage over.
_BATCHES = 20


def summarize(result: ScanResult) -> Dict[str, object]:
    """Detection-rate summary of a scan.

    Reports per-group and overall detection percentages, mean and
    population standard deviation of the percentage over ``_BATCHES``
    contiguous batches (when the scan has that many rows), and the joint
    detection table (percentages of the four boolean combinations) for
    every ordered pair of family groups.
    """
    flags = result.flags
    n = flags.shape[0]
    names = list(GROUP_NAMES) + ["any"]
    out: Dict[str, object] = {"n": n, "config": dict(result.config)}
    counts = flags.sum(axis=0)
    out["detected"] = {
        name: {"count": int(counts[k]),
               "percent": 100.0 * counts[k] / n if n else 0.0}
        for k, name in enumerate(names)
    }
    batch_stats: Dict[str, Dict[str, float]] = {}
    if n >= _BATCHES:
        size = n // _BATCHES
        used = size * _BATCHES
        per_batch = flags[:used].reshape(_BATCHES, size, 5).mean(axis=1) * 100
        for k, name in enumerate(names):
            batch_stats[name] = {
                "mean": float(per_batch[:, k].mean()),
                "std": float(per_batch[:, k].std()),  # population std
                "batches": _BATCHES,
                "batch_size": size,
            }
    out["batch"] = batch_stats
    pairs: Dict[str, Dict[str, float]] = {}
    for i, g1 in enumerate(GROUP_NAMES):
        for j, g2 in enumerate(GROUP_NAMES):
            if i == j:
                continue
            f1, f2 = flags[:, i], flags[:, j]
            combo = {}
            for b1 in (1, 0):
                for b2 in (1, 0):
                    mask = (f1 == bool(b1)) & (f2 == bool(b2))
                    combo[f"{b1}{b2}"] = 100.0 * int(mask.sum()) / n if n \
                        else 0.0
            pairs[f"{g1}&{g2}"] = combo
    out["pairs"] = pairs
    return out


# --- deterministic curve reproduction -------------------------------------------


def section6_curve(t: float) -> float:
    """f(t) = 2(3t-3)/(2+3t+3/t): the polygonal expectation on the
    one-parameter chessboard family (1, t, t, 1/t) with one coupling."""
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    return 2.0 * (3.0 * t - 3.0) / (2.0 + 3.0 * t + 3.0 / t)


def _curve_params(t: float) -> ChessParams222:
    return ChessParams222(a=1.0, b=t, c=t, d=1.0 / t,
                          r=(1.0, 0.0, 0.0, 0.0), phi=(0.0, 0.0, 0.0, 0.0))


def reproduce_section6() -> Dict[str, object]:
    """The closed-form curve's minimum, confirmed via the matrix route.

    Returns the minimizer t* = (2 sqrt(6) - 3) / 5, the positive root of
    f'(t) = 6 (5t^2 + 6t - 3) / (3t^2 + 2t + 3)^2, and the minimum
    f(t*), the independent matrix-trace value of the same witness
    expectation at the minimizer, the curve value at the reference
    parameter ``SECOND_CASE_T``, and detection facts for three
    diagnostic states with unit diagonal: couplings (1, 1, 0, 0) and
    (1, 1, 0.6, 0.6) sit on the detection boundary (all family minima
    vanish up to rounding), while (1, 1, 0.6, 0.3) is detected by the
    conical and spherical families.
    """
    argmin_t = (2.0 * math.sqrt(6.0) - 3.0) / 5.0
    min_value = section6_curve(argmin_t)
    w = build_witness("poly1:1101")
    rho = build_rho_222(_curve_params(argmin_t))
    matrix_value = float(np.trace(rho @ w).real)
    gap = abs(matrix_value - min_value)

    def _facts(r) -> Dict[str, object]:
        params = ChessParams222(a=1, b=1, c=1, d=1, r=r, phi=(0, 0, 0, 0))
        minima = group_minima(family_minima(pauli_coeffs(params)))
        # two of these fixed configurations have true minima exactly 0;
        # the margin keeps their verdicts independent of rounding noise
        return {"group_minima": minima,
                "detected": any(m < -DETECT_MARGIN for m in minima.values()),
                "max_negative": max(0.0, -min(minima.values()))}

    return {
        "argmin": argmin_t,
        "min_value": min_value,
        "matrix_route_value": matrix_value,
        "matrix_route_gap": gap,
        "second_case_t": SECOND_CASE_T,
        "second_case_value": section6_curve(SECOND_CASE_T),
        "separability_checks": {
            "two_couplings": _facts((1.0, 1.0, 0.0, 0.0)),
            "equal_extra_couplings": _facts((1.0, 1.0, 0.6, 0.6)),
            "unequal_extra_couplings": _facts((1.0, 1.0, 0.6, 0.3)),
        },
    }
