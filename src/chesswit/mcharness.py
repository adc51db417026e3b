"""Monte Carlo detection scans and deterministic curve reproduction.

``run_scan`` samples chessboard states (two-qubit-pair times qubit or
qudit third party) a chunk at a time and takes the chunk through the
layers as arrays, with no per-row parameter objects: its parameter
columns (``chessboard.sample_chunk``, where only the seeding and the
raw draws run per row), its rho stack (one ``rho_stack_222`` scatter
at d = 2; at d >= 3 one ``rho_stack_22d`` scatter of the entries
``rho_entries_22d`` computes once for the chunk), one PPT guard on
that stack (the closed-form rule on its 2x2 blocks, and one ``is_ppt``
call only for a chunk the rule cannot pass), its (N, P, 15) catalog
coefficients (``pauli_coeff_stack``, the closed forms of
``pauli_coeffs`` on the columns, at d = 2; one ``_pair_coeffs`` gather
of the same entries over every row and level pair at d >= 3), and one
``family_minima`` and ``group_minima`` call on that stack for the
minima of every row. Only the CSV formatting runs per row, one row per
sample, from the columns' floats. Each chunk is as large as the memory
bound ``_GUARD_ENTRIES`` of the guard's fallback allows.
Positivity of rho itself is proven, not computed, wherever the
construction proves it: at d = 2 every coupled 2x2 block has diagonal
product 1 (and the guard's proper-subset transposes do not include
rho); at d >= 3 ``chessboard.positivity_proven`` judges the chunk's
columns, one bool per row. A parameter object is built only for the
guard's error message and for a row that ``positivity_proven``
rejects, which ``build_rho_22d`` builds and checks by its eigenvalues
(NonPositiveError). Rows depend only on ``(seed, index)``, so output is
byte-identical for any worker count.
``summarize`` turns the detection flags into percentages, 20-batch
mean/std statistics, and joint detection tables for every ordered pair
of family groups.

``reproduce_section6`` minimizes the closed-form detection curve

    f(t) = 2 (3t - 3) / (2 + 3t + 3/t),

the expectation of the polygonal witness ``poly1:1101`` on the
one-parameter chessboard family (a, b, c, d) = (1, t, t, 1/t) with a
single unit coupling, via golden-section search, and cross-checks the
minimum against the honest matrix-trace route.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chessboard import (
    ChessParams222,
    SLOT_ORDER,
    _check_seed,
    build_rho_222,
    build_rho_22d,
    pauli_coeff_stack,
    pauli_coeffs,
    params_to_json,
    positivity_proven,
    qudit_levels,
    rho_entries_22d,
    rho_stack_222,
    rho_stack_22d,
    sample_chunk,
    sample_params_222,
    sample_params_22d,
)
from .tensorops import (PPT_SUBSETS, _check_integer, _check_tol,
                        _ppt_blocks_pass, is_ppt)
from .witnesses import (
    DETECT_MARGIN,
    GROUP_NAMES,
    _level_pairs,
    _pair_coeffs,
    build_witness,
    family_minima,
    group_minima,
)

__all__ = [
    "ScanResult",
    "csv_header",
    "sample_params",
    "run_scan",
    "write_csv",
    "summarize",
    "golden_section_minimize",
    "section6_curve",
    "reproduce_section6",
    "SECOND_CASE_T",
]

#: Alternative parameter value whose curve value is recorded alongside
#: the true minimizer for reference.
SECOND_CASE_T = 0.3460

_FLAG_COLUMNS = ("det_poly", "det_con", "det_cyl", "det_sph", "det_any")
_MIN_COLUMNS = ("min_poly", "min_con", "min_cyl", "min_sph")


def sample_params(
    stream,
    d: int = 2,
    *,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
    gamma: Optional[int] = None,
):
    """Draw one chessboard parameter set from a counter-based stream.

    ``stream`` names a per-sample RNG stream: a ``(seed, index)`` pair,
    or a bare integer seed (meaning index 0); seed and index must be
    non-negative integers (ValueError). ``d`` is the third-party
    dimension: 2 draws a ``ChessParams222``, larger values draw a
    tied-diagonal ``ChessParams22d`` (PPT by construction) whose
    subspace levels ``alpha``/``beta`` and third level ``gamma`` may be
    fixed; at d = 2 giving any of them raises ValueError. Diagonal
    magnitudes are log-uniform on [0.1, 10], couplings uniform on
    [0, 1] and phases uniform on [0, 2*pi). Identical ``(stream, d)``
    arguments give byte-identical parameters on every run and platform.
    """
    if isinstance(stream, numbers.Integral):
        seed, index = stream, 0
    else:
        try:
            seed, index = stream
        except (TypeError, ValueError) as exc:
            raise ValueError(
                "stream must be an integer seed or a (seed, index) pair"
            ) from exc
    d = _check_integer("d", d)
    if d < 2:
        raise ValueError("d must be at least 2")
    levels = _levels(d, alpha, beta, gamma)
    if levels is None:
        return sample_params_222(seed, index)
    return sample_params_22d(seed, index, *levels)


def _levels(d: int, alpha: Optional[int], beta: Optional[int],
            gamma: Optional[int]) -> Optional[Tuple[int, int, int, int]]:
    """The sampler's ``levels`` for third-party dimension d >= 2: None
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
    dim = _check_integer("dim", dim)
    if dim < 2:
        raise ValueError("dim must be at least 2")
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


#: Most transpose entries in one scan chunk, which sizes the chunks and
#: bounds the memory of the guard's fallback ``is_ppt`` call. 2**18
#: entries (4 MB) hold 682 rows at d = 2, 303 at d = 3 and 109 at d = 5,
#: so each chunk spreads the per-call overhead over hundreds of rows at
#: any d.
_GUARD_ENTRIES = 2 ** 18


def _ppt_guard(params: Sequence[object], rhos: np.ndarray,
               dims: Tuple[int, ...], tol: float = 1e-10) -> None:
    """Abort the scan unless every sampled state of a chunk is PPT.

    ``rhos`` is the ``(N, n, n)`` stack of the states built from
    ``params``, a ``ParamColumns`` or a list of parameter objects;
    ``params[k]`` is only taken for a failing row k. The closed-form 2x2 block rule ``_ppt_blocks_pass``
    passes the chunk with no eigensolve when it shows that ``is_ppt``
    would accept every row. Otherwise one ``is_ppt`` call checks the
    whole chunk, so the verdict and every error are ``is_ppt``'s;
    ``run_scan`` sizes each chunk to at most ``_GUARD_ENTRIES`` transpose
    entries. The constructed states are PPT by design; a failure
    indicates a construction or sampling bug, so the error names the
    first failing state's parameters and its six minimum eigenvalues.
    """
    if _ppt_blocks_pass(rhos, dims, tol):
        return
    ok, min_eigs = is_ppt(rhos, dims=dims, tol=tol)
    if not all(ok):
        k = ok.index(False)
        raise RuntimeError(
            "sampled chessboard state failed the PPT check; "
            f"params={json.dumps(params_to_json(params[k]))} "
            "min_eigenvalues="
            f"{json.dumps({label: v[k] for label, v in min_eigs.items()})}"
        )


def _chunk_rows(args) -> Tuple[List[str], np.ndarray]:
    (seed, start, stop, levels, pairs, tol) = args
    columns = sample_chunk(seed, start, stop, levels)
    if columns.levels is None:
        dim = 2
        rhos = rho_stack_222(columns)
        coeffs = pauli_coeff_stack(columns)[:, None]
    else:
        dim = columns.levels[0]
        for k in np.flatnonzero(~positivity_proven(columns)):
            build_rho_22d(columns[k])    # raises NonPositiveError
        entries = rho_entries_22d(columns)
        rhos = rho_stack_22d(entries, columns.levels)
        pair_list, _ = _level_pairs(columns.levels, pairs)
        coeffs = _pair_coeffs(entries, columns.levels, pair_list)
    _ppt_guard(columns, rhos, (2, 2, dim), tol)
    # one catalog call for the whole (N, P, 15) stack, looked up in this
    # module at each call: the benchmark's tracer and its wrong-minima
    # check patch mcharness.family_minima
    groups = group_minima(family_minima(coeffs))
    minima = np.stack([groups[g] for g in GROUP_NAMES], axis=1)
    values = np.concatenate((columns.diag, columns.r, columns.phi), axis=1)
    # index, parameters, ppt, minima, flags: "%.17g" % x is
    # format(x, ".17g"), with the whole row in one formatting call
    line = ",".join(["%d"] + ["%.17g"] * values.shape[1] + ["1"]
                    + ["%.17g"] * len(_MIN_COLUMNS)
                    + ["%d"] * len(_FLAG_COLUMNS))
    rows = []
    for index, vals, mi in zip(range(start, stop), values.tolist(),
                               minima.tolist()):
        flags = [m < 0.0 for m in mi]
        rows.append(line % (index, *vals, *mi, *flags, any(flags)))
    return rows, minima


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
    within ``_GUARD_ENTRIES`` transpose entries. The output depends only
    on ``(seed, index)`` per row, never on ``workers``. Arguments, the
    seed and the qudit levels included, are checked before any row is
    drawn (ValueError; the counts, ``dim``, the seed and the levels must
    be integers, not merely integral floats), so ``n = 0`` rejects what
    ``n = 1`` rejects.
    """
    n = _check_integer("n", n)
    seed = _check_seed(seed)
    dim = _check_integer("dim", dim)
    workers = _check_integer("workers", workers)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    levels = _levels(dim, alpha, beta, gamma)
    if pairs not in ("all", "own"):
        raise ValueError(f"pairs must be 'all' or 'own', got {pairs!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
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
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_chunk_rows, tasks))
        finally:
            executor.shutdown()
    rows = [row for chunk_rows, _ in results for row in chunk_rows]
    minima = np.concatenate([np.empty((0, len(_MIN_COLUMNS)))]
                            + [chunk_minima for _, chunk_minima in results])
    flags = minima < 0.0
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


def summarize(result: ScanResult, batches: int = 20) -> Dict[str, object]:
    """Detection-rate summary of a scan.

    Reports per-group and overall detection percentages, mean and
    population standard deviation of the percentage over contiguous
    batches, and the joint detection table (percentages of the four
    boolean combinations) for every ordered pair of family groups.
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
    if n >= batches > 0:
        size = n // batches
        used = size * batches
        per_batch = flags[:used].reshape(batches, size, 5).mean(axis=1) * 100
        for k, name in enumerate(names):
            batch_stats[name] = {
                "mean": float(per_batch[:, k].mean()),
                "std": float(per_batch[:, k].std()),  # population std
                "batches": batches,
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


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    iters: int = 90,
) -> Tuple[float, float]:
    """Golden-section search for a unimodal minimum on [lo, hi]."""
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(
            f"need finite bounds with lo < hi, got lo={lo!r}, hi={hi!r}"
        )
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(int(iters)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _curve_params(t: float) -> ChessParams222:
    return ChessParams222(a=1.0, b=t, c=t, d=1.0 / t,
                          r=(1.0, 0.0, 0.0, 0.0), phi=(0.0, 0.0, 0.0, 0.0))


def reproduce_section6() -> Dict[str, object]:
    """Minimize the closed-form curve and confirm via the matrix route.

    Returns the golden-section minimizer and minimum, the independent
    matrix-trace value of the same witness expectation at the
    minimizer, the curve value at the reference parameter
    ``SECOND_CASE_T``, and detection facts for three diagnostic states
    with unit diagonal: couplings (1, 1, 0, 0) and (1, 1, 0.6, 0.6)
    sit on the detection boundary (all family minima vanish up to
    rounding), while (1, 1, 0.6, 0.3) is detected by the conical and
    spherical families.
    """
    argmin_t, min_value = golden_section_minimize(section6_curve, 0.01, 2.0)
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
