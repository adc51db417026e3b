"""End-to-end acceptance tests.

Each test pins one headline guarantee of the package at a stated
tolerance (and, where given, a runtime budget):

1.  the deterministic detection-curve minimum reported by the CLI,
2.  PPT universality of the sampled state families,
3.  nonnegativity of every catalog witness on optimized product states,
4.  closed-form curved minima versus an independent angle-grid search,
5.  closed-form detection verdicts versus functional signs,
6.  unsatisfiability of the cylindrical conditions,
7.  a PPT state missed by every linear witness but caught by a curved
    functional,
8.  the zero-state optimality dichotomy,
9.  generator recursion/closing identities,
10. feasible-region containment and boundary attainment,
11. byte-identical scan CSVs across worker counts,
12. observed detection rates logged against external reference numbers
    (reported, never gated — the reference sampling distribution is not
    documented, so agreement is not expected).
"""

import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from chesswit.chessboard import (
    ChessParams222,
    build_rho_222,
    build_rho_22d,
    pauli_coeffs,
    sample_params_222,
    sample_params_22d,
)
from chesswit.frgeom import (
    GEOMETRIES,
    boundary_curve_check,
    feasible_region_check,
)
from chesswit.mcharness import run_scan, summarize
from chesswit.optimality import is_optimal
from chesswit.tensorops import gellmann_su3, gen_gellmann, is_ppt
from chesswit.witnesses import (
    FAMILY_NAMES,
    build_witness,
    detection_conditions,
    expectation_closed,
    family_minima,
    functional,
    min_expectation_over_products,
    witness_ids,
)

SCAN_N = 10_000
SCAN_SEED = 20240601
STATE_SEED = 424242
N_STATES = 1_000


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "chesswit", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# --- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def cli_scan_pair(tmp_path_factory):
    """The same 10^4-state CLI scan run at 1 and at 8 workers."""
    base = tmp_path_factory.mktemp("scans")
    outs = {}
    for workers in (1, 8):
        path = base / f"w{workers}.csv"
        _run_cli("scan", "--n", str(SCAN_N), "--seed", str(SCAN_SEED),
                 "--workers", str(workers), "--out", str(path))
        outs[workers] = path.read_bytes()
    return outs


@pytest.fixture(scope="module")
def qudit_scan():
    """In-process 10^4-state scan with a qutrit third party."""
    return run_scan(SCAN_N, seed=SCAN_SEED, dim=3, workers=8)


@pytest.fixture(scope="module")
def random_states():
    """10^3 random chessboard states with their coefficient tables."""
    out = []
    for k in range(N_STATES):
        p = sample_params_222(STATE_SEED, k)
        out.append((p, pauli_coeffs(p)))
    return out


# --- 1: deterministic curve minimum ------------------------------------------


def test_curve_minimum_report_via_cli():
    t0 = time.perf_counter()
    proc = _run_cli("compare")
    elapsed = time.perf_counter() - t0
    report = json.loads(proc.stdout)
    assert report["min_value"] == pytest.approx(-0.3371, abs=1e-3)
    assert report["argmin"] == pytest.approx(0.3798, abs=1e-3)
    assert elapsed < 1.0, f"compare took {elapsed:.3f}s"


# --- 2: PPT universality ------------------------------------------------------


def test_sampled_states_are_all_ppt():
    t0 = time.perf_counter()
    for k in range(10_000):
        rho = build_rho_222(sample_params_222(SCAN_SEED, k))
        ok, _ = is_ppt(rho, dims=(2, 2, 2), tol=1e-10)
        assert ok, f"qubit draw {k} failed the PPT check"
    for k in range(1_000):
        rho = build_rho_22d(sample_params_22d(SCAN_SEED, k, 3))
        ok, _ = is_ppt(rho, dims=(2, 2, 3), tol=1e-10)
        assert ok, f"qutrit draw {k} failed the PPT check"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"PPT sweep took {elapsed:.1f}s"


# --- 3: catalog-wide witness validity ----------------------------------------


def test_every_catalog_witness_is_nonnegative_on_products():
    t0 = time.perf_counter()
    psis = np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False)
    etas = np.linspace(0.0, math.pi, 5)
    zetas = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    n_poly = n_curved = 0
    for wid in witness_ids(2):
        family = wid.split(":", 1)[0]
        if family in ("poly1", "poly2"):
            value, _ = min_expectation_over_products(build_witness(wid))
            assert value >= -1e-7, (wid, value)
            assert abs(value) <= 1e-6, (wid, value)
            n_poly += 1
        elif family in ("con", "conp", "cyl", "cylp"):
            for psi in psis:
                value, _ = min_expectation_over_products(
                    build_witness(wid, psi=psi))
                assert value >= -1e-7, (wid, psi, value)
            n_curved += 1
        else:
            for eta in etas:
                for zeta in zetas:
                    value, _ = min_expectation_over_products(
                        build_witness(wid, eta=eta, zeta=zeta))
                    assert value >= -1e-7, (wid, eta, zeta, value)
            n_curved += 1
    assert n_poly == 32 and n_curved == 204
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"validity sweep took {elapsed:.1f}s"


# --- 4: closed form versus angle-grid minimum ---------------------------------

GRID_1D = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)


def _refine_sinusoid(k0, k1, k2, centers, delta, iters=60):
    """Vectorized golden-section descent around per-state grid argmins."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(x):
        return k0 + k1 * np.cos(x) + k2 * np.sin(x)

    a = centers - delta
    b = centers + delta
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
    return f(0.5 * (a + b))


def test_single_angle_functionals_match_grid_minimum(random_states):
    ids = [w for w in witness_ids(2)
           if w.split(":", 1)[0] in ("con", "conp", "cyl", "cylp")]
    assert len(ids) == 168
    cos_g, sin_g = np.cos(GRID_1D), np.sin(GRID_1D)
    delta = float(GRID_1D[1] - GRID_1D[0])
    probes = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
    held_angle = 2.0 * math.pi / 3.0
    n = len(random_states)
    for wid in ids:
        k0 = np.empty(n)
        k1 = np.empty(n)
        k2 = np.empty(n)
        closed = np.empty(n)
        for s, (_, co) in enumerate(random_states):
            e = [expectation_closed(wid, co, psi=p) for p in probes]
            k0[s] = 0.5 * (e[0] + e[2])
            k1[s] = 0.5 * (e[0] - e[2])
            k2[s] = 0.5 * (e[1] - e[3])
            # a held-out probe pins the reconstructed sinusoid model
            held = expectation_closed(wid, co, psi=held_angle)
            model = (k0[s] + k1[s] * math.cos(held_angle)
                     + k2[s] * math.sin(held_angle))
            assert abs(held - model) <= 1e-10, (wid, s)
            closed[s] = functional(wid, co)[0]
        grid_min = np.empty(n)
        arg = np.empty(n)
        for lo in range(0, n, 250):
            hi = min(lo + 250, n)
            vals = (k0[lo:hi, None] + k1[lo:hi, None] * cos_g[None, :]
                    + k2[lo:hi, None] * sin_g[None, :])
            idx = vals.argmin(axis=1)
            grid_min[lo:hi] = vals[np.arange(hi - lo), idx]
            arg[lo:hi] = GRID_1D[idx]
        refined = np.minimum(grid_min,
                             _refine_sinusoid(k0, k1, k2, arg, delta))
        diff = np.abs(refined - closed)
        assert (diff <= 1e-6).all(), (wid, float(diff.max()))


def test_two_angle_functionals_match_grid_minimum(random_states):
    ids = [w for w in witness_ids(2)
           if w.split(":", 1)[0] in ("sph", "sphp")]
    assert len(ids) == 36
    n_eta, n_zeta = 100, 100
    etas = np.linspace(0.0, math.pi, n_eta)
    zetas = np.linspace(0.0, 2.0 * math.pi, n_zeta, endpoint=False)
    ee, zz = np.meshgrid(etas, zetas, indexing="ij")
    dirs = np.stack([np.sin(ee) * np.cos(zz),
                     np.sin(ee) * np.sin(zz),
                     np.cos(ee)]).reshape(3, -1)
    d_eta = float(etas[1] - etas[0])
    d_zeta = float(zetas[1] - zetas[0])
    half = 0.5 * math.pi
    offs = np.linspace(-1.0, 1.0, 21)
    n = len(random_states)
    for wid in ids:
        k0 = np.empty(n)
        kv = np.empty((n, 3))
        closed = np.empty(n)
        for s, (_, co) in enumerate(random_states):
            e_a0 = expectation_closed(wid, co, eta=half, zeta=0.0)
            e_a1 = expectation_closed(wid, co, eta=half, zeta=math.pi)
            e_b0 = expectation_closed(wid, co, eta=half, zeta=half)
            e_b1 = expectation_closed(wid, co, eta=half, zeta=1.5 * math.pi)
            e_c0 = expectation_closed(wid, co, eta=0.0, zeta=0.0)
            e_c1 = expectation_closed(wid, co, eta=math.pi, zeta=0.0)
            k0[s] = 0.5 * (e_a0 + e_a1)
            kv[s] = (0.5 * (e_a0 - e_a1), 0.5 * (e_b0 - e_b1),
                     0.5 * (e_c0 - e_c1))
            # held-out probes pin the reconstructed trig model
            for eta_h, zeta_h in ((1.1, 2.3), (2.4, 5.0)):
                u = (math.sin(eta_h) * math.cos(zeta_h),
                     math.sin(eta_h) * math.sin(zeta_h),
                     math.cos(eta_h))
                model = k0[s] + float(np.dot(kv[s], u))
                got = expectation_closed(wid, co, eta=eta_h, zeta=zeta_h)
                assert abs(got - model) <= 1e-10, (wid, s)
            closed[s] = functional(wid, co)[0]
        vals = k0[:, None] + kv @ dirs
        idx = vals.argmin(axis=1)
        best = vals[np.arange(n), idx]
        ie, iz = np.unravel_index(idx, (n_eta, n_zeta))
        cen_e, cen_z = etas[ie], zetas[iz]
        win_e, win_z = d_eta, d_zeta
        for _ in range(3):
            loc_e = cen_e[:, None, None] + win_e * offs[None, :, None]
            loc_z = cen_z[:, None, None] + win_z * offs[None, None, :]
            se = np.sin(loc_e)
            lv = (k0[:, None, None]
                  + kv[:, 0, None, None] * se * np.cos(loc_z)
                  + kv[:, 1, None, None] * se * np.sin(loc_z)
                  + kv[:, 2, None, None] * np.cos(loc_e))
            flat = lv.reshape(n, -1)
            li = flat.argmin(axis=1)
            best = np.minimum(best, flat[np.arange(n), li])
            oe, oz = np.unravel_index(li, (21, 21))
            cen_e = cen_e + win_e * offs[oe]
            cen_z = cen_z + win_z * offs[oz]
            win_e *= 0.1
            win_z *= 0.1
        # near either pole the (eta, zeta) chart degenerates (the azimuth
        # becomes unresolvable on the grid), so also descend in a Cartesian
        # disk chart around each pole; every probed direction is still a
        # genuine unit vector, so this can only tighten the minimum
        r0 = 4.0 * d_eta
        for sign in (1.0, -1.0):
            cx = np.zeros(n)
            cy = np.zeros(n)
            win = r0
            for _ in range(4):
                lx = cx[:, None, None] + win * offs[None, :, None]
                ly = cy[:, None, None] + win * offs[None, None, :]
                rsq = lx * lx + ly * ly
                uz = sign * np.sqrt(np.clip(1.0 - rsq, 0.0, None))
                lv = (k0[:, None, None]
                      + kv[:, 0, None, None] * lx
                      + kv[:, 1, None, None] * ly
                      + kv[:, 2, None, None] * uz)
                lv = np.where(rsq <= 1.0, lv, np.inf)
                flat = lv.reshape(n, -1)
                li = flat.argmin(axis=1)
                best = np.minimum(best, flat[np.arange(n), li])
                ox, oy = np.unravel_index(li, (21, 21))
                cx = cx + win * offs[ox]
                cy = cy + win * offs[oy]
                win *= 0.1
        diff = np.abs(best - closed)
        assert (diff <= 1e-6).all(), (wid, float(diff.max()))


# --- 5: condition verdicts equal functional signs ------------------------------


def test_condition_verdicts_match_functional_signs(random_states):
    margin = 1e-9
    disagreements = []
    for s, (params, co) in enumerate(random_states):
        verdicts = detection_conditions(params)["verdicts"]
        fam = family_minima(co)
        for family in FAMILY_NAMES:
            m = fam[family]["min"]
            if abs(m) <= margin:
                continue
            if bool(verdicts[family]) != (m < 0.0):
                disagreements.append((s, family, m))
    assert disagreements == []


# --- 6: cylindrical conditions never fire --------------------------------------


def test_cylindrical_conditions_never_fire(cli_scan_pair, qudit_scan):
    # the three diagonal products stay >= 16 (arithmetic-geometric mean
    # bound), which makes the cylindrical inequalities unsatisfiable
    floor = 16.0 - 1e-12
    for k in range(100_000):
        z = detection_conditions(sample_params_222(160316, k))["z"]
        assert min(z.values()) >= floor, k
    # and every scan records zero cylindrical detections
    header, *rows = cli_scan_pair[1].decode().splitlines()
    col = header.split(",").index("det_cyl")
    assert len(rows) == SCAN_N
    assert all(row.split(",")[col] == "0" for row in rows)
    assert not qudit_scan.flags[:, 2].any()


# --- 7: a curved functional beats every linear witness -------------------------


def test_curved_functional_detects_where_linear_witnesses_fail():
    params = ChessParams222(1.0, 1.0, 1.0, 1.0, r=(1.0, 1.0, 0.5, 0.0),
                            phi=(0.0, 0.0, 0.0, 0.0))
    rho = build_rho_222(params)
    ok, _ = is_ppt(rho, dims=(2, 2, 2), tol=1e-10)
    assert ok
    co = pauli_coeffs(params)
    fam = family_minima(co)
    assert fam["poly1"]["min"] >= 0.0
    assert fam["poly2"]["min"] >= 0.0
    value = functional("con:333:221:0:+", co)[0]
    assert value == pytest.approx(1.0 - math.sqrt(17.0) / 4.0, abs=1e-12)
    assert value == pytest.approx(-0.0308, abs=1e-3)
    assert value < 0.0


# --- 8: optimality dichotomy ----------------------------------------------------


def test_optimality_dichotomy():
    poly_ids = [w for w in witness_ids(2) if w.startswith("poly")]
    assert len(poly_ids) == 32
    for wid in poly_ids:
        optimal, sigma = is_optimal(wid)
        assert optimal, (wid, sigma)
    optimal, sigma = is_optimal("con:333:122:0:+", psi=0.3)
    assert optimal and sigma > 1e-6
    optimal, sigma = is_optimal("con:333:122:0:+", psi=math.pi / 4.0)
    assert not optimal
    assert sigma <= 1e-10


# --- 9: generator identities -----------------------------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_generator_recursion_and_closing_identity(d):
    bundle = gen_gellmann(d)
    e, diag = bundle["E"], bundle["diag"]
    for i in range(d - 1):
        rhs = (e[(i + 1, i + 1)]
               + math.sqrt((i + 2) / (2.0 * (i + 1))) * diag[i])
        if i > 0:
            rhs = rhs - math.sqrt(i / (2.0 * (i + 1))) * diag[i - 1]
        assert np.abs(e[(i, i)] - rhs).max() <= 1e-15, (d, i)
    closing = (np.eye(d, dtype=complex) / d
               - math.sqrt((d - 1) / (2.0 * d)) * diag[d - 2])
    assert np.abs(e[(d - 1, d - 1)] - closing).max() <= 1e-15, d


def test_su3_embedding_and_orthogonality():
    bundle = gen_gellmann(3)
    assert np.abs(math.sqrt(2.0) * bundle["plus"][(0, 2)]
                  - gellmann_su3(4)).max() <= 1e-15
    for a in range(1, 9):
        for b in range(1, 9):
            tr = float(np.trace(gellmann_su3(a) @ gellmann_su3(b)).real)
            want = 2.0 if a == b else 0.0
            assert abs(tr - want) <= 1e-15, (a, b)


# --- 10: feasible-region containment ----------------------------------------------


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_feasible_region_containment(geometry):
    out = feasible_region_check(geometry, n=1_000_000, seed=606, tol=1e-9)
    assert out["samples"] == 1_000_000
    assert out["violations"] == 0
    assert boundary_curve_check(geometry)["max_residual"] <= 1e-9


# --- 11: worker-count determinism ---------------------------------------------------


def test_scan_csv_identical_across_worker_counts(cli_scan_pair):
    assert cli_scan_pair[1] == cli_scan_pair[8]


# --- 12: detection rates, logged against external references -------------------------


def test_detection_rates_reported(cli_scan_pair, qudit_scan):
    header, *rows = cli_scan_pair[1].decode().splitlines()
    cols = header.split(",")
    idx = {name: cols.index(name)
           for name in ("det_poly", "det_con", "det_cyl", "det_sph",
                        "det_any")}
    counts = dict.fromkeys(idx, 0)
    for row in rows:
        parts = row.split(",")
        for name, i in idx.items():
            counts[name] += parts[i] == "1"
    rates = {name: 100.0 * c / len(rows) for name, c in counts.items()}
    # hard structural facts (everything else below is logged only)
    assert all(0.0 <= r <= 100.0 for r in rates.values())
    assert rates["det_any"] >= max(rates["det_poly"], rates["det_con"],
                                   rates["det_cyl"], rates["det_sph"])
    assert rates["det_cyl"] == 0.0
    summary = summarize(qudit_scan)
    any_pct = summary["detected"]["any"]["percent"]
    batch = summary["batch"]["any"]
    msg = (
        "soft detection-rate comparison (reported, not gated; the "
        "reference rates come from an undocumented sampling "
        "distribution, ours draws diagonals log-uniform on [0.1, 10], "
        "coupling moduli uniform on [0, 1], phases uniform on "
        f"[0, 2*pi)). qubit third party (n={SCAN_N}, seed={SCAN_SEED}): "
        f"polygonal {rates['det_poly']:.2f}% (reference 28.3), "
        f"conical {rates['det_con']:.2f}% (reference 18.3), "
        f"cylindrical {rates['det_cyl']:.3f}% (reference 0.047), "
        f"spherical {rates['det_sph']:.2f}% (reference 28.62). "
        f"qutrit third party: all-witness detection {any_pct:.2f}%, "
        f"batch mean {batch['mean']:.2f} +/- {batch['std']:.3f} over "
        f"{batch['batches']} batches (reference 85.45 +/- 3.336)."
    )
    print(msg)
    warnings.warn(msg)
