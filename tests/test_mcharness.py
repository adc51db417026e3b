"""Tests for the Monte Carlo scan harness and the deterministic
curve reproduction."""

import hashlib
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chesswit import chessboard, tensorops
from chesswit.chessboard import (
    ChessParams222,
    ChessParams22d,
    NonPositiveError,
    ParamColumns,
    build_rho_222,
    build_rho_22d,
    params_to_json,
    rho_entries_22d,
    rho_stack_22d,
    sample_params_222,
    sample_params_22d,
)
from chesswit import mcharness, witnesses
from chesswit.mcharness import (
    SECOND_CASE_T,
    ScanResult,
    _ppt_guard,
    csv_header,
    golden_section_minimize,
    reproduce_section6,
    run_scan,
    sample_params,
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
    (1, "dim must be at least 2"),
])
def test_csv_header_rejects_bad_dims(dim, message):
    with pytest.raises(ValueError, match=message):
        csv_header(dim)


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

    monkeypatch.setattr(mcharness, "ProcessPoolExecutor", SerialPool)
    return created


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

    def guard(params, rhos, dims, tol):
        assert len(PPT_SUBSETS) * rhos[0].size * len(rhos) \
            <= mcharness._GUARD_ENTRIES
        chunks.append(len(rhos))
        return _ppt_guard(params, rhos, dims, tol)

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
def test_run_scan_checks_seed_before_any_row(n, monkeypatch):
    # n = 0 used to return an empty result, n = 1 to fail inside numpy
    # with a message that named neither the argument nor its value
    monkeypatch.setattr("chesswit.mcharness.sample_chunk",
                        lambda *a, **k: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                       "integer, got -1$"):
        run_scan(n, seed=-1)


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


def _counting_guard(monkeypatch):
    """Counts of eigensolver calls made inside and outside the guard's
    calls during a scan."""
    calls = {"guard": 0, "other": 0}
    inside = []

    def guard(params, rhos, dims, tol):
        inside.append(True)
        try:
            return _ppt_guard(params, rhos, dims, tol)
        finally:
            inside.pop()

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls["guard" if inside else "other"] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mcharness, "_ppt_guard", guard)
    for module, name in ((chessboard, "hermitian_eigenvalues"),
                         (tensorops, "hermitian_eigenvalues"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


def test_qudit_scan_solves_eigenvalues_only_in_the_guard(monkeypatch):
    # the sampler's states are positive by construction, so rho is
    # scattered as one stack and never eigensolved outside the guard,
    # and the guard's block rule passes every sampled chunk with no
    # eigensolve at all; chunks of at most 16 rows at d = 3 and 9 at d = 4
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 144)
    want = [run_scan(30, seed=4, dim=3).rows,
            run_scan(10, seed=4, dim=4, alpha=1, beta=3, gamma=3).rows]
    calls = _counting_guard(monkeypatch)
    got = [run_scan(30, seed=4, dim=3).rows,
           run_scan(10, seed=4, dim=4, alpha=1, beta=3, gamma=3).rows]
    assert got == want
    assert calls == {"guard": 0, "other": 0}


def _chain_state():
    """A PPT qubit state whose couplings 0-1 and 1-2 join a 3 x 3 block
    in its transpose over party 1, where the block rule cannot decide."""
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = rho[1, 0] = rho[1, 2] = rho[2, 1] = 0.01
    return rho


def test_scan_guard_eigensolves_a_chunk_its_rule_cannot_pass(monkeypatch):
    want = run_scan(5, seed=4).rows
    monkeypatch.setattr(mcharness, "rho_stack_222",
                        lambda columns: np.array([_chain_state()]
                                                 * len(columns)))
    calls = _counting_guard(monkeypatch)
    assert run_scan(5, seed=4).rows == want
    assert calls["other"] == 0
    assert calls["guard"] >= 1


_DIAG = ((0.5, 1.0, 1.0), (1.0, 1.0, 2.0))


def _repeated(params):
    """A chunk sampler that gives ``params`` for every row."""
    return lambda seed, start, stop, levels: ParamColumns.of(
        [params] * (stop - start))


@pytest.mark.parametrize("params", [
    ChessParams22d(3, 0, 2, 1, _DIAG, r=(1.0,) + (0.0,) * 5, tied=False),
    ChessParams22d(
        3, 0, 2, 0,
        ((1.8789852661499484, 0.3463964459891802, 0.12076665792328141),
         (0.10790840445381386, 4.231949517477533, 6.691310059954052)),
        r=(1.0,) * 6),
], ids=["untied", "colliding-gamma"])
def test_run_scan_checks_positivity_it_cannot_prove(params, monkeypatch):
    monkeypatch.setattr(mcharness, "sample_chunk", _repeated(params))
    with pytest.raises(NonPositiveError):
        run_scan(3, dim=3)


def test_run_scan_builds_each_unproven_row_once(monkeypatch):
    # an untied state that is still PSD goes through the eigenvalue check
    mild = ChessParams22d(3, 0, 2, 1, _DIAG, r=(0.1,) + (0.0,) * 5,
                          tied=False)
    built = []

    def counted(p):
        built.append(p)
        return build_rho_22d(p)

    monkeypatch.setattr(mcharness, "sample_chunk", _repeated(mild))
    monkeypatch.setattr(mcharness, "build_rho_22d", counted)
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 3 * 6 * 144)  # 2 chunks
    assert run_scan(4, dim=3).n == 4
    assert built == [mild] * 4


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


def test_ppt_guard_trips_on_crafted_state():
    ghz = np.zeros((8, 8), dtype=complex)
    for i in (0, 7):
        for j in (0, 7):
            ghz[i, j] = 0.5
    params = ChessParams222(a=1, b=1, c=1, d=1, r=(0, 0, 0, 0),
                            phi=(0, 0, 0, 0))
    with pytest.raises(RuntimeError) as err:
        _ppt_guard([params], ghz[None], (2, 2, 2))
    msg = str(err.value)
    assert '"a":' in msg and "min_eigenvalues" in msg


def _chunk(seed, n):
    params = [sample_params_222(seed, k) for k in range(n)]
    return params, np.array([build_rho_222(p) for p in params])


@pytest.mark.parametrize("rows_per_call", [None, 2])
def test_ppt_guard_names_the_failing_row_of_a_chunk(rows_per_call,
                                                     monkeypatch):
    # the block rule passes a sampled chunk with no is_ppt call; a chunk
    # it cannot pass gets one is_ppt call, whatever _GUARD_ENTRIES says:
    # run_scan sizes the chunks to it, the guard does not slice them
    if rows_per_call:
        monkeypatch.setattr(mcharness, "_GUARD_ENTRIES",
                            rows_per_call * 6 * 64)
    shapes = []

    def counted(rhos, dims, tol):
        shapes.append(rhos.shape)
        return is_ppt(rhos, dims=dims, tol=tol)

    monkeypatch.setattr(mcharness, "is_ppt", counted)
    params, rhos = _chunk(18, 5)
    _ppt_guard(params, rhos, (2, 2, 2))
    assert shapes == []
    ghz = np.zeros((8, 8), dtype=complex)
    ghz[np.ix_((0, 7), (0, 7))] = 0.5
    rhos[2] = ghz
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(params, rhos, (2, 2, 2))
    assert shapes == [(5, 8, 8)]
    msg = str(err.value)
    assert f"params={json.dumps(params_to_json(params[2]))} " in msg
    assert json.dumps(params_to_json(params[0])) not in msg
    eigs = json.loads(msg.split("min_eigenvalues=")[1])
    assert list(eigs) == ["1", "2", "3", "12", "13", "23"]
    assert all(v == pytest.approx(-0.5, abs=1e-12) for v in eigs.values())


def test_ppt_guard_fails_a_nan_minimum():
    params, rhos = _chunk(19, 4)
    rhos[3, 1, 1] = math.nan
    with pytest.raises(RuntimeError) as err:
        _ppt_guard(params, rhos, (2, 2, 2))
    msg = str(err.value)
    assert json.dumps(params_to_json(params[3])) in msg
    assert '"1": NaN' in msg


def _guard_outcome(monkeypatch, params, rhos, dims, tol=1e-10):
    """What ``_ppt_guard`` does with a stack (None, or the type and text
    of what it raises) and whether it called ``is_ppt``; asserts that it
    does the same as its ``is_ppt`` route alone."""
    def outcome():
        try:
            _ppt_guard(params, rhos, dims, tol)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_ppt(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(mcharness, "is_ppt", counted)
        got = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(mcharness, "_ppt_blocks_pass", lambda *args: False)
        assert outcome() == got
    return got, bool(calls)


def _sampled(d, levels, seed, n, tied=True):
    """n sampled states and their rho stack; untied on request at d > 2."""
    if d == 2:
        return _chunk(seed, n)
    params = [replace(sample_params_22d(seed, k, d, *levels), tied=tied)
              for k in range(n)]
    columns = ParamColumns.of(params)
    return params, rho_stack_22d(rho_entries_22d(columns), columns.levels)


@pytest.mark.parametrize("d, levels", [
    (2, ()), (3, (0, 2, 1)), (3, (0, 1, 1)), (4, (1, 3, 2)),
    (4, (0, 3, 3)), (5, (2, 4, 0)), (5, (0, 4, 4)),
])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_block_guard_passes_sampled_chunks_without_is_ppt(d, levels, tol,
                                                          monkeypatch):
    # tied states, colliding gamma included (0, 1, 1 and so on)
    for seed in range(3):
        params, rhos = _sampled(d, levels, seed, 12)
        assert _guard_outcome(monkeypatch, params, rhos, (2, 2, d),
                              tol) == (None, False)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_block_guard_agrees_with_is_ppt_on_untied_states(d, monkeypatch):
    # 1 to 4 of the 40 rows are PPT
    params, rhos = _sampled(d, (0, 2, 1), 7, 40, tied=False)
    dims = (2, 2, d)
    outcomes = [_guard_outcome(monkeypatch, params[k:k + 1],
                               rhos[k:k + 1], dims)[0] for k in range(40)]
    assert None in outcomes
    assert any(o and o[0] is RuntimeError for o in outcomes)
    assert _guard_outcome(monkeypatch, params, rhos, dims)[0] \
        == next(o for o in outcomes if o)


@pytest.mark.parametrize("d, row, i, j, value", [
    (2, 3, 1, 1, math.nan),
    (2, 0, 0, 7, complex(0.0, math.nan)),
    (2, 2, 5, 5, math.inf),
    (3, 1, 11, 0, -math.inf),
    (3, 2, 4, 4, math.nan),
    (4, 1, 3, 3, math.inf),    # a 1 x 1 block, as in _negative_single_level
])
def test_block_guard_defers_non_finite_stacks(d, row, i, j, value,
                                              monkeypatch):
    # is_ppt used to warn "invalid value encountered" on an inf entry
    params, rhos = _sampled(d, (0, 2, 1), 19, 4)
    rhos[row, i, j] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, fell_back = _guard_outcome(monkeypatch, params, rhos, (2, 2, d))
    assert [str(w.message) for w in caught] == []
    assert got is not None and fell_back


@pytest.mark.parametrize("d", [2, 3])
def test_block_guard_defers_non_hermitian_stacks(d, monkeypatch):
    params, rhos = _sampled(d, (0, 2, 1), 20, 4)
    # a coupling, so that the pattern stays that of a sampled chunk
    i, j = np.argwhere(np.triu(rhos[2] != 0, 1))[0]
    rhos[2, i, j] += 1e-9
    got, fell_back = _guard_outcome(monkeypatch, params, rhos, (2, 2, d))
    assert fell_back
    assert got[0] is ValueError and got[1].startswith(
        "matrix is not Hermitian")


def _x_state(size, shift):
    """(1 + shift) I plus unit couplings z between k and size - 1 - k:
    each transpose is a sum of blocks [[1 + shift, z], [z*, 1 + shift]]
    with |z| = 1 exactly, so its least eigenvalue is fl(1 + shift) - 1,
    within 1.2e-16 of shift."""
    rho = np.eye(size, dtype=complex) * (1.0 + shift)
    for k, z in zip(range(size // 2), itertools.cycle((1, 1j, -1, -1j))):
        rho[k, size - 1 - k] = z
        rho[size - 1 - k, k] = np.conj(z)
    return rho


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_block_guard_defers_states_on_the_tolerance(d, tol, monkeypatch):
    # least eigenvalues within 1e-15 of -tol: inside the rule's band, so
    # is_ppt decides every one of them
    params, _ = _sampled(d, (0, 2, 1), 0, 1)
    outcomes = []
    for delta in (-1e-15, -3e-16, 0.0, 3e-16, 1e-15):
        rhos = _x_state(4 * d, delta - tol)[None]
        got, fell_back = _guard_outcome(monkeypatch, params, rhos,
                                        (2, 2, d), tol)
        assert fell_back
        outcomes.append(got)
    assert outcomes[-1] is None and outcomes[0][0] is RuntimeError


def _negated(seed):
    params, rhos = _chunk(seed, 4)
    return params, -rhos, (2, 2, 2)


def _negative_single_level(seed):
    # level 3 is coupled to no other at d = 4 with levels (0, 2, 1), so
    # its diagonal entries are 1 x 1 blocks of every transpose
    params, rhos = _sampled(4, (0, 2, 1), seed, 4)
    rhos[1, 3, 3] = -1e-3
    return params, rhos, (2, 2, 4)


def _chain_chunk(seed):
    params, rhos = _chunk(seed, 3)
    rhos[1] = _chain_state()
    # least eigenvalue 1/8 - 0.1 sqrt(2) < 0, 2 x 2 minors 1/64 - 0.01 > 0
    rhos[1, 0, 1] = rhos[1, 1, 0] = rhos[1, 1, 2] = rhos[1, 2, 1] = 0.1
    return params, rhos, (2, 2, 2)


@pytest.mark.parametrize("make", [_negated, _negative_single_level,
                                  _chain_chunk])
def test_block_guard_rejects_what_is_ppt_rejects(make, monkeypatch):
    # a negative 2 x 2 block, a negative 1 x 1 block, and a 3 x 3 block
    # whose 2 x 2 minors are positive (a negative determinant: the GHZ
    # tests above)
    params, rhos, dims = make(21)
    got, fell_back = _guard_outcome(monkeypatch, params, rhos, dims)
    assert fell_back and got[0] is RuntimeError


def test_run_scan_guards_each_chunk_with_one_call(monkeypatch):
    shapes = []

    def counted(params, rhos, dims, tol):
        shapes.append(rhos.shape)
        return _ppt_guard(params, rhos, dims, tol)

    monkeypatch.setattr(mcharness, "_ppt_guard", counted)
    res = run_scan(40, seed=3, dim=3)
    assert shapes == [(40, 12, 12)]
    # equal chunks of at most 16 rows, then of at most 7
    shapes.clear()
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 16 * 6 * 144)
    assert run_scan(40, seed=3, dim=3).rows == res.rows
    assert shapes == [(13, 12, 12), (13, 12, 12), (14, 12, 12)]
    shapes.clear()
    monkeypatch.setattr(mcharness, "_GUARD_ENTRIES", 7 * 6 * 144)
    assert run_scan(40, seed=3, dim=3).rows == res.rows
    assert shapes == [(6, 12, 12), (7, 12, 12), (7, 12, 12)] * 2


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

    for module in (mcharness, chessboard, witnesses):
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
    s = summarize(res, batches=4)
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
    # batch statistics: 4 batches of 10
    stats = s["batch"]["poly"]
    assert stats["batches"] == 4 and stats["batch_size"] == 10
    assert stats["mean"] == pytest.approx(25.0)
    assert stats["std"] == pytest.approx(
        float(np.std([100.0, 0.0, 0.0, 0.0])))


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


def test_golden_section_on_parabola():
    x, fx = golden_section_minimize(lambda t: (t - 1.3) ** 2 + 0.25,
                                    0.0, 4.0)
    # positional accuracy is limited to ~sqrt(eps) because the function
    # is flat to machine precision near the minimum; the value is tight
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-14)


def test_golden_section_rejects_bad_bounds():
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (-math.inf, 1.0),
                   (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t * t, lo, hi)


def test_reproduce_section6():
    out = reproduce_section6()
    tstar = (-3 + 2 * math.sqrt(6)) / 5
    assert out["argmin"] == pytest.approx(tstar, abs=1e-7)
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


# --- stream-addressed sampling dispatcher ------------------------------------


def test_sample_params_dispatch_and_determinism():
    p = sample_params((42, 0))
    assert isinstance(p, ChessParams222)
    assert p == sample_params((42, 0))
    assert p == sample_params_222(42, 0)
    # a bare integer seed names stream (seed, 0)
    assert sample_params(42) == p
    q = sample_params((42, 5), d=3)
    assert isinstance(q, ChessParams22d)
    assert q == sample_params_22d(42, 5, 3)
    assert q.dim == 3
    q2 = sample_params((42, 5), d=4, alpha=1, beta=3, gamma=0)
    assert (q2.alpha, q2.beta, q2.gamma) == (1, 3, 0)


def test_sample_params_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_params((1, 2), d=1)
    with pytest.raises(ValueError):
        sample_params(None)
    with pytest.raises(ValueError):
        sample_params((1,))
    # a third entry used to be ignored
    with pytest.raises(ValueError, match="^stream must be an integer seed "
                       r"or a \(seed, index\) pair$"):
        sample_params((0, 1, 9))


@pytest.mark.parametrize("stream, d, message", [
    ((0, -1), 2, "index must be a non-negative integer, got -1"),
    ((-1, 0), 3, "seed must be a non-negative integer, got -1"),
    (-2, 2, "seed must be a non-negative integer, got -2"),
    ((0, 1.5), 2, "index must be a non-negative integer, got 1.5"),
    ((1.0, 1), 3, "seed must be a non-negative integer, got 1.0"),
    ((0, 1), 2.5, "d must be an integer, got 2.5"),
    (True, 2, "seed must be a non-negative integer, got True"),
    ((True, 0), 3, "seed must be a non-negative integer, got True"),
    ((0, False), 2, "index must be a non-negative integer, got False"),
])
def test_sample_params_rejects_non_integer_streams(stream, d, message):
    # (0, 1.5) used to draw index 1, and d = 2.5 a d = 2 state; a negative
    # index failed inside numpy without naming it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_params(stream, d)
    assert sample_params((np.int64(42), np.uint8(5)), np.int32(3)) == \
        sample_params((42, 5), 3)


def test_sample_params_rejects_qudit_levels_at_d2():
    # a qubit third party has no levels to fix; they used to be ignored
    for kwargs in (dict(alpha=0), dict(beta=1), dict(gamma=1)):
        with pytest.raises(ValueError):
            sample_params((0, 0), d=2, **kwargs)


def test_sample_params_median_sanity():
    # log-uniform on [0.1, 10] has median 1
    values = [sample_params((31337, k)).a for k in range(100_000)]
    med = float(np.median(values))
    assert 0.95 <= med <= 1.05
