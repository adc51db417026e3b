"""Tests for the Monte Carlo scan harness and the deterministic
curve reproduction."""

import hashlib
import io
import math

import numpy as np
import pytest

from chesswit.chessboard import (
    ChessParams222,
    ChessParams22d,
    sample_params_222,
    sample_params_22d,
)
from chesswit import mcharness
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

HEADER_222 = ("index,a,b,c,d,r1,r2,r3,r4,phi1,phi2,phi3,phi4,"
              "ppt,min_poly,min_con,min_cyl,min_sph,"
              "det_poly,det_con,det_cyl,det_sph,det_any")


def test_csv_header_222_frozen():
    assert csv_header(2) == HEADER_222


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


def test_run_scan_worker_and_chunk_invariance():
    base = run_scan(150, seed=3, workers=1, chunk=64)
    alt_chunk = run_scan(150, seed=3, workers=1, chunk=37)
    assert base.rows == alt_chunk.rows
    multi = run_scan(150, seed=3, workers=4, chunk=32)
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


def test_run_scan_clamps_workers(monkeypatch):
    created = []

    class SerialPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(mcharness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(mcharness.os, "cpu_count", lambda: 4)
    base = run_scan(6, seed=1)
    assert run_scan(6, seed=1, workers=5000, chunk=1).rows == base.rows
    assert run_scan(6, seed=1, workers=5000, chunk=2).rows == base.rows
    assert created == [4, 3]  # cores, then chunks
    monkeypatch.setattr(mcharness.os, "cpu_count", lambda: None)
    assert run_scan(6, seed=1, workers=5000, chunk=1).rows == base.rows
    assert created == [4, 3]  # unknown core count: no pool at all


def test_run_scan_validation():
    with pytest.raises(ValueError):
        run_scan(-1)
    with pytest.raises(ValueError):
        run_scan(10, dim=1)
    with pytest.raises(ValueError):
        run_scan(10, pairs="some")
    with pytest.raises(ValueError):
        run_scan(10, workers=0)


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
        _ppt_guard(params, ghz, (2, 2, 2))
    msg = str(err.value)
    assert '"a":' in msg and "min_eigenvalues" in msg


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
