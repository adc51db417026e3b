"""Tests for the Monte Carlo scan harness and the deterministic
curve reproduction."""

import concurrent.futures
import hashlib
import io
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chesswit import chessboard, frgeom, tensorops
from chesswit.chessboard import (
    COUPLING_POSITIONS,
    ChessParams222,
    ChessParams22d,
    ParamColumns,
    coupling_cells,
    rho_entries_222,
    rho_entries_22d,
    sample_chunk,
    sample_params_222,
    sample_params_22d,
)
from chesswit import mcharness, witnesses
from chesswit.mcharness import (
    SECOND_CASE_T,
    ScanResult,
    _ppt_guard,
    csv_header,
    reproduce_section6,
    run_scan,
    section6_curve,
    summarize,
    write_csv,
)
from chesswit.tensorops import PPT_SUBSETS, is_ppt

HEADER_222 = ("index,a,b,c,d,r1,r2,r3,r4,phi1,phi2,phi3,phi4,"
              "ppt,min_poly,min_con,min_cyl,min_sph,"
              "det_poly,det_con,det_cyl,det_sph,det_any")


def test_csv_header_222_frozen():
    assert csv_header(2) == HEADER_222


@pytest.mark.parametrize("dim, message", [
    (3.7, "dim must be an integer, got 3.7"),
    ("3", "dim must be an integer"),
    (1, "dim must be >= 2, got 1"),
])
def test_csv_header_rejects_bad_dims(dim, message):
    with pytest.raises(ValueError, match=message):
        csv_header(dim)


@pytest.mark.parametrize("call", [
    lambda: witnesses.witness_ids(1),
    lambda: chessboard.qudit_levels(1),
    lambda: chessboard.sample_params_22d(0, 0, 1),
    lambda: csv_header(1),
    lambda: run_scan(0, dim=1),
    lambda: frgeom.sample_factors(3, d=1),
    lambda: frgeom.region_points("sphere", 3, d=1),
    lambda: witnesses.build_witness("poly1:0000", d=1),
    lambda: tensorops.gen_gellmann(1),
    lambda: frgeom.qset("sphere", 1),
    lambda: tensorops.qudit_substitute((1, 1, 1), 1, 0, 1),
    lambda: witnesses.substituted_coeffs(np.eye(4), 1, 0, 1),
], ids=["witness_ids", "qudit_levels", "sample_params_22d", "csv_header",
        "run_scan", "sample_factors", "region_points", "build_witness",
        "gen_gellmann", "qset", "qudit_substitute", "substituted_coeffs"])
def test_third_party_dimension_must_be_at_least_two(call):
    # every entry names its own dimension argument in the one message form
    with pytest.raises(ValueError, match=r"^(d|dim) must be >= 2, got 1$"):
        call()


def test_csv_header_qudit():
    h = csv_header(3)
    assert h.startswith("index,a0_0,a0_1,a0_2,a1_0,a1_1,a1_2,"
                        "r_0_ab,r_0_ba,r_0_gg,r_1_ab,r_1_ba,r_1_gg,"
                        "phi_0_ab,phi_0_ba,phi_0_gg,"
                        "phi_1_ab,phi_1_ba,phi_1_gg,ppt,")
    assert h.endswith("det_any")


def test_run_scan_basic():
    res = run_scan(200, seed=7)
    assert res.header == HEADER_222
    assert res.n == 200
    assert res.flags.shape == (200, 5)
    assert res.minima.shape == (200, 4)
    ncols = len(HEADER_222.split(","))
    for k, row in enumerate(res.rows):
        fields = row.split(",")
        assert len(fields) == ncols
        assert fields[0] == str(k)
        assert fields[13] == "1"  # ppt column
    # row values round-trip exactly to the sampled parameters
    fields = res.rows[5].split(",")
    params = sample_params_222(7, 5)
    assert float(fields[1]) == params.a
    assert float(fields[4]) == params.d
    assert tuple(float(x) for x in fields[5:9]) == params.r
    assert tuple(float(x) for x in fields[9:13]) == params.phi
    # flags match minima signs and det_any aggregates
    mins = np.array([[float(x) for x in r.split(",")[14:18]]
                     for r in res.rows])
    np.testing.assert_allclose(mins, res.minima, rtol=0, atol=0)
    np.testing.assert_array_equal(res.flags[:, :4], res.minima < 0)
    np.testing.assert_array_equal(res.flags[:, 4], res.flags[:, :4].any(axis=1))


def test_run_scan_worker_and_chunk_invariance(monkeypatch):
    # _GUARD_ENTRIES sizes the chunks: at most 64, 37 and 32 rows
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 64 * 6 * 64)
    base = run_scan(150, seed=3, workers=1)
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 37 * 6 * 64)
    alt_chunk = run_scan(150, seed=3, workers=1)
    assert base.rows == alt_chunk.rows
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 32 * 6 * 64)
    multi = run_scan(150, seed=3, workers=4)
    assert base.rows == multi.rows
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(base, buf1)
    write_csv(multi, buf2)
    assert buf1.getvalue() == buf2.getvalue()


# sha256 of the seed-0 CSV text: a change to sampling, the PPT guard,
# catalog evaluation or row formatting that moves any byte fails here
@pytest.mark.parametrize("kwargs,digest", [
    (dict(n=64, dim=2),
     "ec78092be160386ae2ddbc6917a0eb159adb164e4cb2ead3929398a8d07e1a11"),
    (dict(n=24, dim=3, pairs="all"),
     "06b6d881eefbd4b1fc9abf75ac8f8f389395a8aaa44938223269a879170d97fb"),
    (dict(n=24, dim=3, pairs="own"),
     "0040b8e2cdee6e93b6534b7c3d4f721227ef50d0abf06564b7b3a81057ff7df3"),
])
def test_run_scan_csv_bytes_pinned(kwargs, digest):
    buf = io.StringIO()
    write_csv(run_scan(seed=0, **kwargs), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def _serial_pool(monkeypatch):
    """The pool sizes run_scan asks for, from a pool that maps in this
    process."""
    created = []

    class SerialPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    return created


def test_importing_the_cli_loads_no_process_pool():
    # a serial scan never forks, so the pool is imported only when a scan
    # asks for workers
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chesswit.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_run_scan_clamps_workers(monkeypatch):
    created = _serial_pool(monkeypatch)
    monkeypatch.setattr(mcharness.os, "cpu_count", lambda: 4)
    base = run_scan(6, seed=1)
    assert run_scan(6, seed=1, workers=5000).rows == base.rows
    assert run_scan(3, seed=1, workers=5000).rows == base.rows[:3]
    assert created == [4, 3]  # cores, then chunks of one row each
    monkeypatch.setattr(mcharness.os, "cpu_count", lambda: None)
    assert run_scan(6, seed=1, workers=5000).rows == base.rows
    assert created == [4, 3]  # unknown core count: no pool at all


@pytest.mark.parametrize("n, workers, cap, sizes", [
    (600, 2, None, [300, 300]),
    (1400, 8, None, [350] * 4),  # 2 workers after the clamp to 2 cores
    (25, 2, 10, [6, 6, 6, 7]),
    (40, 1, 16, [13, 13, 14]),
    (0, 2, None, []),
])
def test_run_scan_gives_each_worker_an_equal_share(n, workers, cap, sizes,
                                                    monkeypatch):
    # workers * ceil(n / (workers * cap)) equal chunks of at most cap
    # rows, with workers clamped to the cores first
    chunks = []

    def guard(start, columns, entries, cells, dims, tol):
        assert len(PPT_SUBSETS) * entries[0].shape[1] ** 2 * len(columns) \
            <= mcharness._GUARD_ENTRIES
        chunks.append(len(columns))
        return _ppt_guard(start, columns, entries, cells, dims, tol)

    created = _serial_pool(monkeypatch)
    monkeypatch.setattr(mcharness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mcharness, "_ppt_guard", guard)
    if cap:
        monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", cap * 6 * 64)
    assert run_scan(n, seed=5, workers=workers).n == n
    assert chunks == sizes
    assert created == ([min(workers, 2)] if n and workers > 1 else [])


def test_run_scan_validation():
    with pytest.raises(ValueError):
        run_scan(-1)
    with pytest.raises(ValueError):
        run_scan(10, dim=1)
    with pytest.raises(ValueError):
        run_scan(10, pairs="some")
    with pytest.raises(ValueError):
        run_scan(10, workers=0)


@pytest.mark.parametrize("dim,levels", [
    (2, dict(gamma=7)),
    (3, dict(gamma=9)),
    (3, dict(alpha=1, beta=1)),
])
def test_run_scan_checks_levels_before_any_row(dim, levels):
    # the levels used to be checked only when a row was drawn
    with pytest.raises(ValueError):
        run_scan(0, dim=dim, **levels)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_run_scan_checks_tol_before_any_row(n, tol, monkeypatch):
    # n = 0 used to return an empty result, n = 1 to raise from is_ppt
    # only after the first chunk was sampled
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        run_scan(n, tol=tol)


@pytest.mark.parametrize("n", [0, 1])
def test_run_scan_checks_pairs_before_any_row(n, monkeypatch):
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match="^pairs must be 'all' or 'own', "
                       "got 'bogus'$"):
        run_scan(n, pairs="bogus")


@pytest.mark.parametrize("n", [0, 1])
def test_run_scan_checks_seed_before_any_row(n, monkeypatch):
    # n = 0 used to return an empty result, n = 1 to fail inside numpy
    # with a message that named neither the argument nor its value
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                       "integer, got -1$"):
        run_scan(n, seed=-1)


def test_run_scan_rejects_qudit_levels_at_d2(monkeypatch):
    # a qubit third party has no levels to fix; they used to be ignored
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    for level in ("alpha", "beta", "gamma"):
        with pytest.raises(ValueError, match=f"^alpha, beta and gamma need "
                           f"d >= 3; got {level} at d = 2$"):
            run_scan(2, dim=2, **{level: 1})


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=1.9), "n must be an integer, got 1.9"),
    (dict(n=2, dim=3.7), "dim must be an integer, got 3.7"),
    (dict(n=2, dim=3, alpha=0.0), "alpha must be an integer, got 0.0"),
    (dict(n=2, workers=2.5), "workers must be an integer, got 2.5"),
    (dict(n=2, seed=1.0), "seed must be a non-negative integer, got 1.0"),
    (dict(n=2, dim=3, gamma=1.0), "gamma must be an integer, got 1.0"),
    (dict(n=2, seed=True), "seed must be a non-negative integer, got True"),
])
def test_run_scan_rejects_non_integers(kwargs, message, monkeypatch):
    # int() used to truncate these: n = 1.9 scanned one row
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scan(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=True), "n must be an integer, got True"),
    (dict(n=3, dim=3, alpha=False, beta=True, gamma=2),
     "alpha must be an integer, got False"),
    (dict(n=2, workers=True), "workers must be an integer, got True"),
    (dict(n=2, dim=True), "dim must be an integer, got True"),
])
def test_run_scan_rejects_bools_as_integers(kwargs, message, monkeypatch):
    # these ran as 1 and 0: n = True scanned one row
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scan(**kwargs)


def test_run_scan_accepts_numpy_integers():
    want = run_scan(3, seed=2, dim=3)
    got = run_scan(np.int64(3), seed=np.uint32(2), dim=np.int8(3),
                   workers=np.int64(1))
    assert got.rows == want.rows and got.config == want.config


def _repeated(params):
    """A chunk sampler that gives ``params`` for every row."""
    return lambda seed, start, stop, levels: ParamColumns.of(
        [params] * (stop - start))


def _forbid_matrices(monkeypatch):
    """Make every eigensolver and ``rho_stack`` raise, patched on the
    modules that own them."""
    def fail(*args, **kwargs):
        raise AssertionError("a matrix was built or eigensolved")

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (tensorops, "hermitian_eigenvalues"),
                         (chessboard, "rho_stack")):
        monkeypatch.setattr(module, name, fail)


@pytest.mark.parametrize("kwargs, levels", [
    (dict(dim=2), (None, None, None)),
    (dict(dim=3), (0, 2, 1)),
    (dict(dim=4, beta=np.int64(3), gamma=3), (0, 3, 3)),
])
def test_run_scan_config_records_the_levels_it_ran(kwargs, levels):
    # the defaults resolved, as ints: d = 3 recorded None, None, None
    config = run_scan(3, seed=1, **kwargs).config
    got = (config["alpha"], config["beta"], config["gamma"])
    assert got == levels
    assert [type(v) for v in got] == [type(v) for v in levels]


def test_run_scan_qudit():
    res = run_scan(40, seed=5, dim=3)
    assert res.header == csv_header(3)
    assert res.n == 40
    fields = res.rows[7].split(",")
    params = sample_params_22d(5, 7, 3)
    assert tuple(float(x) for x in fields[1:4]) == params.diag[0]
    assert tuple(float(x) for x in fields[4:7]) == params.diag[1]
    assert tuple(float(x) for x in fields[7:13]) == params.r
    assert tuple(float(x) for x in fields[13:19]) == params.phi
    assert res.config["dim"] == 3 and res.config["pairs"] == "all"
    # own-pair evaluation can only be weaker or equal
    own = run_scan(40, seed=5, dim=3, pairs="own")
    assert (own.minima >= res.minima - 1e-12).all()


def _entries(columns):
    """A chunk's columns, the entries of its rho and their cells, as
    ``_chunk_rows`` takes them."""
    if columns.levels is None:
        return columns, rho_entries_222(columns), COUPLING_POSITIONS
    return columns, rho_entries_22d(columns), coupling_cells(*columns.levels)


def _ghz(entries, row):
    """Row ``row`` of 2x2x2 entries set to (|000> + |111>)/sqrt(2)."""
    diag, couplings, trace = entries
    diag[row] = [0.5, 0, 0, 0, 0, 0, 0, 0.5]
    couplings[row] = [0, 0, 0, 0.5]    # at (0, 7)
    trace[row] = 1.0


def _names_row(msg, columns, k, start=0):
    """Whether a guard error names row k of a chunk whose first row is
    sample ``start`` by its sample index and its columns."""
    return (f"sample {start + k} (diag={columns.diag[k].tolist()} "
            f"r={columns.r[k].tolist()} phi={columns.phi[k].tolist()})"
            in msg)


def test_ppt_guard_trips_on_crafted_state():
    params = ChessParams222(a=1, b=1, c=1, d=1, r=(0, 0, 0, 0),
                            phi=(0, 0, 0, 0))
    chunk = _entries(ParamColumns.of([params]))
    _ghz(chunk[1], 0)
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(0, *chunk, (2, 2, 2))
    msg = str(err.value)
    assert _names_row(msg, chunk[0], 0)
    assert msg.endswith("least partial-transpose eigenvalue -0.5 "
                        "< -tol = -1e-10")


def _chunk(seed, n):
    return _entries(sample_chunk(seed, 0, n))


@pytest.mark.parametrize("rows_per_call", [None, 2])
def test_ppt_guard_names_the_failing_row_of_a_chunk(rows_per_call,
                                                     monkeypatch):
    # one closed-form call on the whole chunk, whatever _GUARD_ENTRIES
    # says: run_scan sizes the chunks to it, the guard does not slice
    # them
    if rows_per_call:
        monkeypatch.setattr(mcharness, "_GUARD_ENTRIES",
                            rows_per_call * 6 * 64)
    shapes = []

    def counted(entries, cells, dims):
        shapes.append(entries[0].shape)
        return tensorops._x_least_eigenvalues(entries, cells, dims)

    monkeypatch.setattr(mcharness, "_x_least_eigenvalues", counted)
    chunk = _chunk(18, 5)
    _ppt_guard(0, *chunk, (2, 2, 2))
    _ghz(chunk[1], 2)
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(0, *chunk, (2, 2, 2))
    assert shapes == [(5, 8)] * 2
    msg = str(err.value)
    assert _names_row(msg, chunk[0], 2)
    assert not _names_row(msg, chunk[0], 0)
    assert "least partial-transpose eigenvalue -0.5 " in msg


@pytest.mark.parametrize("dim", [2, 3])
def test_scan_guard_names_the_sample_index_of_a_later_chunk(dim,
                                                            monkeypatch):
    # sample 20 is row 7 of the second of three chunks (13, 13, 14
    # rows); the error names it as the CSV index and (seed, i) do
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES",
                        16 * 6 * (4 * dim) ** 2)
    failing = []

    def sampler(seed, start, stop, levels):
        columns = sample_chunk(seed, start, stop, levels)
        if start <= 20 < stop:
            columns.r[20 - start] = 3.0    # moduli above 1 break PPT
            failing.append((columns, start))
        return columns

    monkeypatch.setattr(mcharness, "sample_chunk", sampler)
    with pytest.raises(RuntimeError) as err:
        run_scan(40, seed=3, dim=dim)
    [(columns, start)] = failing
    assert start == 13
    assert _names_row(str(err.value), columns, 7, start)
    assert "sample 20 (diag=" in str(err.value)


def test_ppt_guard_fails_a_nan_minimum():
    chunk = _chunk(19, 4)
    chunk[1][0][3, 1] = math.nan
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(0, *chunk, (2, 2, 2))
    msg = str(err.value)
    assert _names_row(msg, chunk[0], 3)
    assert "least partial-transpose eigenvalue nan " in msg


def test_ppt_guard_names_a_row_whose_couplings_chain_blocks():
    # unit moduli at every slot of a colliding gamma, which no parameter
    # object takes: the error reads the columns' floats, so it is the
    # guard's RuntimeError, not the ValueError of ChessParams22d
    columns = sample_chunk(21, 0, 3, (3, 0, 2, 0))
    columns.r[:] = 1.0
    chunk = _entries(columns)
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(0, *chunk, (2, 2, 3))
    msg = str(err.value)
    assert _names_row(msg, columns, 0)
    assert msg.endswith("blocks larger than 2 x 2")
    # no row chains blocks alone: an alpha-beta coupling in row 0 and a
    # gamma-gamma one in row 1, each a 2 x 2 block
    columns.r[:] = 0.0
    columns.r[0, 0] = columns.r[1, 2] = 0.5
    chunk = _entries(columns)
    for cell in chunk[2][0], chunk[2][2]:
        assert tensorops._x_blocks((2, 2, 3), (cell,)) is not None
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(0, *chunk, (2, 2, 3))
    assert "failed the PPT check: the chunk: couplings" in str(err.value)


def _guard_outcome(monkeypatch, chunk, dims, tol=1e-10):
    """What ``_ppt_guard`` does with a chunk: None, or the type and text
    of what it raises; it builds no matrix and solves nothing."""
    with monkeypatch.context() as patch:
        _forbid_matrices(patch)
        try:
            _ppt_guard(0, *chunk, dims, tol)
        except Exception as exc:
            return type(exc), str(exc)
    return None


def _oracle(chunk, dims, tol=1e-10):
    """``is_ppt``'s verdict on each row of a chunk's stack."""
    _, entries, cells = chunk
    return is_ppt(chessboard.rho_stack(entries, cells), dims=dims,
                  tol=tol)[0]


def _sampled(d, levels, seed, n):
    """n sampled states as a guard's chunk."""
    if d == 2:
        return _chunk(seed, n)
    return _entries(ParamColumns.of(
        [sample_params_22d(seed, k, d, *levels) for k in range(n)]))


@pytest.mark.parametrize("d, levels", [
    (2, ()), (3, (0, 2, 1)), (3, (0, 1, 1)), (4, (1, 3, 2)),
    (4, (0, 3, 3)), (5, (2, 4, 0)), (5, (0, 4, 4)),
])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_block_guard_passes_sampled_chunks_without_is_ppt(d, levels, tol,
                                                          monkeypatch):
    # colliding gamma included (0, 1, 1 and so on)
    for seed in range(3):
        chunk = _sampled(d, levels, seed, 12)
        assert _guard_outcome(monkeypatch, chunk, (2, 2, d), tol) is None


@pytest.mark.parametrize("d", [3, 4, 5])
def test_block_guard_agrees_with_is_ppt_on_untied_states(d, monkeypatch):
    # sampled entries with one 1-branch diagonal no longer the reciprocal
    # of its partner's: a quarter of it, so that a transposed block with
    # that diagonal fails where its coupling's modulus exceeds 1/2
    columns = sample_chunk(7, 0, 40, (d, 0, 2, 1))
    cells, dims = coupling_cells(*columns.levels), (2, 2, d)

    def untied(columns):
        diag, couplings, _ = rho_entries_22d(columns)
        diag[:, cells[0][1]] *= 0.25
        return columns, (diag, couplings, diag.sum(axis=1).real), cells

    outcomes = [_guard_outcome(monkeypatch, untied(ParamColumns.of(
        [columns[k]])), dims) for k in range(len(columns))]
    assert [o is None for o in outcomes] == _oracle(untied(columns), dims)
    assert None in outcomes
    k = next(k for k, o in enumerate(outcomes) if o)
    got = _guard_outcome(monkeypatch, untied(columns), dims)
    assert got[0] is RuntimeError and _names_row(got[1], columns, k)
    assert got[1].split("): ")[1] == outcomes[k][1].split("): ")[1]


@pytest.mark.parametrize("d, row, i, j, value", [
    (2, 3, 1, 1, math.nan),
    (2, 0, 0, 7, complex(0.0, math.nan)),
    (2, 2, 5, 5, math.inf),
    (3, 1, 11, 0, -math.inf),
    (3, 2, 4, 4, math.nan),
    (4, 1, 3, 3, math.inf),    # a 1 x 1 block, as in _negative_single_level
    (3, 0, None, None, 0.0),   # a zero trace
    (3, 3, None, None, math.nan),
    (3, 2, None, None, math.inf),  # entries / trace all 0, but no state
])
def test_block_guard_defers_non_finite_stacks(d, row, i, j, value,
                                              monkeypatch):
    # the stack's entry (i, j) of one row: a diagonal or a coupling, or
    # else the row's trace; that row's least eigenvalue is NaN, which
    # fails the guard, with no warning
    chunk = _sampled(d, (0, 2, 1), 19, 4)
    diag, couplings, trace = chunk[1]
    if i is None:
        trace[row] = value
    elif i == j:
        diag[row, i] = value
    else:
        k = [set(cell) for cell in chunk[2]].index({i, j})
        couplings[row, k] = value if chunk[2][k] == (i, j) \
            else np.conj(value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lowest = tensorops._x_least_eigenvalues(chunk[1], chunk[2], (2, 2, d))
        got = _guard_outcome(monkeypatch, chunk, (2, 2, d))
    assert [str(w.message) for w in caught] == []
    assert np.isnan(lowest).tolist() == [k == row for k in range(4)]
    assert got[0] is RuntimeError and _names_row(got[1], chunk[0], row)
    assert "least partial-transpose eigenvalue nan " in got[1]


def _x_state(d, shift):
    """Unit couplings z at every cell (k, 4d - 1 - k) of the default
    levels and diagonals 1 + shift: each transpose is a sum of blocks
    [[1 + shift, z], [z*, 1 + shift]] with |z| = 1 exactly, so its least
    eigenvalue is fl(1 + shift) - 1, within 1.2e-16 of shift."""
    columns, entries, cells = _sampled(d, (0, 2, 1), 0, 1)
    phases = (1, 1j, -1, -1j)
    assert all(row + col == 4 * d - 1 for row, col in cells)
    couplings = np.array([[phases[row % 4] for row, _ in cells]],
                         dtype=complex)
    diag = np.full((1, 4 * d), 1.0 + shift, dtype=complex)
    return columns, (diag, couplings, np.ones(1)), cells


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_block_guard_defers_states_on_the_tolerance(d, tol, monkeypatch):
    # least eigenvalues within 1e-15 of -tol: the closed form gives
    # fl(1 + shift) - 1 exactly, and the guard judges that value
    outcomes = []
    for delta in (-1e-15, -3e-16, 0.0, 3e-16, 1e-15):
        shift = delta - tol
        got = _guard_outcome(monkeypatch, _x_state(d, shift), (2, 2, d), tol)
        assert (got is None) == ((1.0 + shift) - 1.0 >= -tol)
        outcomes.append(got)
    assert outcomes[-1] is None and outcomes[0][0] is RuntimeError


def _negated(seed):
    columns, (diag, couplings, trace), cells = _chunk(seed, 4)
    return (columns, (diag, couplings, -trace), cells), (2, 2, 2)


def _negative_single_level(seed):
    # level 3 is coupled to no other at d = 4 with levels (0, 2, 1), so
    # its diagonal entries are 1 x 1 blocks of every transpose
    chunk = _sampled(4, (0, 2, 1), seed, 4)
    chunk[1][0][1, 3] = -1e-3
    return chunk, (2, 2, 4)


def _chain_chunk(seed):
    # gamma = alpha with unit couplings, gamma-gamma ones included, which
    # no parameter object carries: they chain the alpha-beta blocks into
    # larger ones, _x_blocks gives None, and is_ppt finds a negative
    # eigenvalue
    levels = (3, 0, 2, 0)
    chunk = _entries(sample_chunk(seed, 0, 3, levels))
    chunk[1][1][:] = 1.0
    assert tensorops._x_blocks((2, 2, 3), coupling_cells(*levels)) is None
    return chunk, (2, 2, 3)


@pytest.mark.parametrize("make", [_negated, _negative_single_level,
                                  _chain_chunk])
def test_block_guard_rejects_what_is_ppt_rejects(make, monkeypatch):
    # a negative 2 x 2 block, a negative 1 x 1 block, and blocks larger
    # than 2 x 2 (a negative determinant: the GHZ tests above)
    chunk, dims = make(21)
    assert not all(_oracle(chunk, dims))
    got = _guard_outcome(monkeypatch, chunk, dims)
    assert got[0] is RuntimeError


_SCAN_LEVELS = [None, (3, 0, 2, 1), (3, 0, 1, 0), (4, 1, 3, 3),
                (5, 0, 2, 1), (5, 4, 0, 4)]


@st.composite
def _least_eigenvalue_cases(draw):
    """A sampled chunk with its diagonals and couplings scaled, one row
    perhaps made NPT or not finite, and a tolerance."""
    levels = draw(st.sampled_from(_SCAN_LEVELS))
    n = draw(st.integers(1, 5))
    columns = sample_chunk(draw(st.integers(0, 2 ** 32 - 1)), 0, n, levels)
    chunk = _entries(columns)
    diag, couplings, _ = chunk[1]
    scale = st.floats(0.0, 3.0)
    diag *= draw(st.lists(scale, min_size=diag.shape[1],
                          max_size=diag.shape[1]))
    couplings *= draw(st.lists(scale, min_size=couplings.shape[1],
                               max_size=couplings.shape[1]))
    trace = diag.sum(axis=1).real
    row = draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "ghz", "negated", "negative level",
                                 "diag", "coupling", "trace"]))
    if edit == "ghz":
        # |i> + |j> over the first cell (i, j): in a transpose its
        # coupling pairs two zero diagonals
        i, j = chunk[2][0]
        diag[row], couplings[row], trace[row] = 0.0, 0.0, 1.0
        diag[row, [i, j]] = couplings[row, 0] = 0.5
    elif edit == "negated":
        trace[row] = -trace[row]
    elif edit == "negative level":
        free = sorted(set(range(diag.shape[1]))
                      - {i for cell in chunk[2] for i in cell})
        diag[row, draw(st.sampled_from(free or [0]))] = -1e-3
    elif edit != "none":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]))
        if edit == "trace":
            trace[row] = value
        elif value != 0.0:
            array = diag if edit == "diag" else couplings
            array[row, draw(st.integers(0, array.shape[1] - 1))] = value
    tol = draw(st.sampled_from([0.0, 1e-10, 1e-3]))
    return (columns, (diag, couplings, trace), chunk[2]), levels, tol


@settings(max_examples=300, deadline=None)
@given(_least_eigenvalue_cases())
def test_closed_form_least_eigenvalue_matches_is_ppt(case):
    chunk, levels, tol = case
    _, entries, cells = chunk
    dims = (2, 2, 2 if levels is None else levels[0])
    lowest = tensorops._x_least_eigenvalues(entries, cells, dims)
    kept = (entries[1] != 0).any(axis=0).tolist()
    if tensorops._x_blocks(dims, tuple(c for c, k in zip(cells, kept)
                                       if k)) is None:
        # a non-finite gamma-gamma coupling of a colliding gamma
        assert lowest is None
        with pytest.raises(RuntimeError):
            _ppt_guard(0, *chunk, dims, tol)
        return
    rho = chessboard.rho_stack(entries, cells)
    finite = np.isfinite(rho).all(axis=(1, 2)) & np.isfinite(entries[2])
    assert np.isnan(lowest).tolist() == (~finite).tolist()
    if not finite.all():
        with pytest.raises(RuntimeError):
            _ppt_guard(0, *chunk, dims, tol)
    if not finite.any():
        return
    ok, min_eigs = is_ppt(rho[finite], dims=dims, tol=tol)
    want = np.min(list(min_eigs.values()), axis=0)
    got = lowest[finite]
    bound = 1e-14 * np.abs(rho[finite]).max(axis=(1, 2))
    assert (np.abs(got - want) <= bound).all()
    clear = np.abs(got + tol) > bound
    assert ((got >= -tol) == np.array(ok))[clear].all()


def test_run_scan_guards_each_chunk_with_one_call(monkeypatch):
    shapes = []

    def counted(start, columns, entries, cells, dims, tol):
        shapes.append(entries[0].shape)
        return _ppt_guard(start, columns, entries, cells, dims, tol)

    monkeypatch.setattr(mcharness, "_ppt_guard", counted)
    res = run_scan(40, seed=3, dim=3)
    assert shapes == [(40, 12)]
    # equal chunks of at most 16 rows, then of at most 7
    shapes.clear()
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 144)
    assert run_scan(40, seed=3, dim=3).rows == res.rows
    assert shapes == [(13, 12), (13, 12), (14, 12)]
    shapes.clear()
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 7 * 6 * 144)
    assert run_scan(40, seed=3, dim=3).rows == res.rows
    assert shapes == [(6, 12), (7, 12), (7, 12)] * 2


@pytest.mark.parametrize("kwargs", [
    dict(dim=2), dict(dim=3), dict(dim=4), dict(dim=5),
    dict(dim=3, gamma=0), dict(dim=4, beta=3, gamma=3),
    dict(dim=5, alpha=4, beta=1, gamma=1),
    dict(dim=4, alpha=1, beta=3, gamma=3),
])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_sampled_scans_build_no_rho_stack_and_solve_nothing(kwargs, tol,
                                                            monkeypatch):
    # the sampler's states are positive by construction, so rho is never
    # built or eigensolved, and the guard's closed form solves nothing
    # either, in one chunk or in several (at most 16 rows at d = 3)
    want = run_scan(60, seed=6, tol=tol, **kwargs).rows
    _forbid_matrices(monkeypatch)
    assert run_scan(60, seed=6, tol=tol, **kwargs).rows == want
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 144)
    assert run_scan(60, seed=6, tol=tol, **kwargs).rows == want


def test_scan_guard_passes_a_chunk_on_the_psd_boundary(monkeypatch):
    # r = 1 on unit diagonals: blocks [[1, 1], [1, 1]] / 8, whose least
    # eigenvalue 0 the closed form gives exactly, so even tol = 0 passes
    # them, with no matrix built and no eigensolve
    monkeypatch.setattr(mcharness, "sample_chunk", _repeated(
        ChessParams222(1, 1, 1, 1, r=(1.0, 0.0, 0.0, 0.0))))
    _forbid_matrices(monkeypatch)
    for tol in (0.0, 1e-10):
        assert run_scan(5, seed=4, tol=tol).n == 5


def test_run_scan_evaluates_the_catalog_once_per_chunk_in_bounded_passes(
        monkeypatch):
    want = run_scan(512, seed=2, dim=5).rows
    calls, passes = [], []

    def minima(coeffs):
        calls.append(np.shape(coeffs))
        return witnesses.family_minima(coeffs)

    def spy(xx):
        passes.append(xx.shape[1])
        return catalog_values(xx)

    catalog_values = witnesses._catalog_values
    monkeypatch.setattr(mcharness, "family_minima", minima)
    monkeypatch.setattr(witnesses, "_catalog_values", spy)
    assert run_scan(512, seed=2, dim=5).rows == want
    # five equal chunks within _GUARD_ENTRIES (109 rows at d = 5)
    assert calls == [(102, 10, 15), (102, 10, 15), (103, 10, 15),
                     (102, 10, 15), (103, 10, 15)]
    cap = witnesses._CATALOG_TERMS // witnesses._table().slots.size
    assert sum(passes) == 512 * 10 and max(passes) <= cap
    # one compiled table serves every chunk size
    calls.clear()
    want = run_scan(40, seed=3).rows
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 64)
    assert run_scan(40, seed=3).rows == want
    assert calls == [(40, 1, 15), (13, 1, 15), (13, 1, 15), (14, 1, 15)]
    assert witnesses._table.cache_info().currsize == 1


def test_qudit_scan_takes_the_entries_of_rho_once_per_chunk(monkeypatch):
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 144)
    want = run_scan(30, seed=4, dim=3).rows
    calls = []
    entries = chessboard.rho_entries_22d

    def counted(states):
        calls.append(len(states))
        return entries(states)

    for module in (chessboard, witnesses):
        monkeypatch.setattr(module, "rho_entries_22d", counted)
    assert run_scan(30, seed=4, dim=3).rows == want
    assert calls == [15, 15]


# sha256 of the seed-0 CSV text of scans whose gamma collides with alpha
# (0) or beta (2 at d = 3, 3 at d = 4), as the per-row positivity check
# wrote it; zeroed gamma-gamma moduli make the first two the same states
@pytest.mark.parametrize("kwargs, digest", [
    (dict(dim=3, gamma=0),
     "81f83285749f6b8f021cdbd40f6c7bac844d825c6efe052115b9df14d2b5916b"),
    (dict(dim=3, gamma=2),
     "81f83285749f6b8f021cdbd40f6c7bac844d825c6efe052115b9df14d2b5916b"),
    (dict(dim=4, beta=3, gamma=3),
     "531be0d0f7436e0ba8389d27e2cd5a163a4f55c0eaf59cb3ebcc0c83e558ba28"),
], ids=["d3-gamma-alpha", "d3-gamma-beta", "d4-gamma-beta"])
def test_colliding_gamma_scan_builds_no_parameter_object(kwargs, digest,
                                                         monkeypatch):
    built = []
    check = ChessParams22d.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ChessParams22d, "__post_init__", counted)
    buf = io.StringIO()
    write_csv(run_scan(40, seed=0, **kwargs), buf)
    assert built == []
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_summarize_counts_and_pairs():
    flags = np.zeros((40, 5), dtype=bool)
    flags[:10, 0] = True           # poly detects 25%
    flags[5:15, 1] = True          # con detects 25%, overlap 5
    flags[:, 4] = flags[:, :4].any(axis=1)
    res = ScanResult(header=HEADER_222, rows=["x"] * 40, flags=flags,
                     minima=np.zeros((40, 4)), config={})
    s = summarize(res)
    assert s["n"] == 40
    assert s["detected"]["poly"]["count"] == 10
    assert s["detected"]["poly"]["percent"] == pytest.approx(25.0)
    assert s["detected"]["con"]["percent"] == pytest.approx(25.0)
    assert s["detected"]["any"]["percent"] == pytest.approx(37.5)
    combo = s["pairs"]["poly&con"]
    assert combo["11"] == pytest.approx(100 * 5 / 40)
    assert combo["10"] == pytest.approx(100 * 5 / 40)
    assert combo["01"] == pytest.approx(100 * 5 / 40)
    assert combo["00"] == pytest.approx(100 * 25 / 40)
    assert sum(combo.values()) == pytest.approx(100.0)
    # batch statistics: 20 batches of 2
    stats = s["batch"]["poly"]
    assert stats["batches"] == 20 and stats["batch_size"] == 2
    assert stats["mean"] == pytest.approx(25.0)
    assert stats["std"] == pytest.approx(
        float(np.std([100.0] * 5 + [0.0] * 15)))


def test_summarize_real_scan_consistency():
    res = run_scan(400, seed=12)
    s = summarize(res)
    total = res.flags[:, 4].sum()
    assert s["detected"]["any"]["count"] == int(total)
    for g, k in (("poly", 0), ("con", 1), ("cyl", 2), ("sph", 3)):
        assert s["detected"][g]["count"] == int(res.flags[:, k].sum())
    # cylindrical detections are impossible on this family
    assert s["detected"]["cyl"]["count"] == 0


def test_write_csv_to_path(tmp_path):
    res = run_scan(10, seed=1)
    path = tmp_path / "scan.csv"
    write_csv(res, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == HEADER_222
    assert len(lines) == 11
    assert text.endswith("\n")


# --- curve reproduction -----------------------------------------------------------


def test_section6_curve_values():
    assert section6_curve(1.0) == 0.0
    assert section6_curve(SECOND_CASE_T) == pytest.approx(
        -0.33514055768883294, abs=1e-15)
    with pytest.raises(ValueError):
        section6_curve(0.0)


def test_reproduce_section6():
    out = reproduce_section6()
    # the exact minimizer, the positive root of 5t^2 + 6t - 3
    tstar = out["argmin"]
    assert tstar == (2 * math.sqrt(6) - 3) / 5
    assert out["min_value"] == section6_curve(tstar)
    for t in (tstar - 1e-6, tstar + 1e-6):
        assert section6_curve(t) >= out["min_value"]
    assert out["min_value"] == pytest.approx(-0.3371173070873836, abs=1e-12)
    assert out["matrix_route_gap"] <= 1e-12
    assert out["second_case_value"] == pytest.approx(-0.33514055768883294,
                                                     abs=1e-12)
    sep = out["separability_checks"]
    assert sep["two_couplings"]["max_negative"] <= 1e-12
    assert sep["two_couplings"]["detected"] is False
    assert sep["equal_extra_couplings"]["max_negative"] <= 1e-12
    assert sep["equal_extra_couplings"]["detected"] is False
    assert sep["unequal_extra_couplings"]["detected"]
    assert sep["unequal_extra_couplings"]["group_minima"]["con"] < -1e-3


def test_sample_params_median_sanity():
    # log-uniform on [0.1, 10] has median 1; the rows' a are
    # sample_params_222(31337, k).a, bit for bit
    values = sample_chunk(31337, 0, 100_000).diag[:, 0]
    med = float(np.median(values))
    assert 0.95 <= med <= 1.05
