"""End-to-end tests for the command-line interface.

Every test drives the real interpreter via ``python -m chesswit`` so the
argument parsing, JSON/CSV serialization, exit codes, and --help text are
exercised exactly as a user would see them.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chesswit.frgeom import region_excess
from chesswit.tensorops import matrix_to_json

GOLDEN = Path(__file__).parent / "golden"

REFERENCE_PARAMS = {
    "kind": "222",
    "a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0,
    "r": [1.0, 1.0, 0.5, 0.0],
    "phi": [0.0, 0.0, 0.0, 0.0],
}

SUBCOMMANDS = ("rho", "ppt", "detect", "scan", "fr", "validate-witness",
               "optimality", "compare")


def run_cli(*args, check=True):
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "chesswit", *args],
        capture_output=True, text=True, env=env,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(REFERENCE_PARAMS))
    return path


# ----------------------------------------------------------------- help text

@pytest.mark.parametrize("name", ("main",) + SUBCOMMANDS)
def test_help_matches_golden(name):
    args = ["--help"] if name == "main" else [name, "--help"]
    proc = run_cli(*args)
    golden = (GOLDEN / f"help_{name}.txt").read_text()
    assert " ".join(proc.stdout.split()) == " ".join(golden.split())


def test_main_help_lists_all_subcommands():
    out = run_cli("--help").stdout
    for name in SUBCOMMANDS:
        assert name in out


@pytest.mark.parametrize("name,flags", [
    ("ppt", ["--params", "--matrix", "--tol", "--out"]),
    ("detect", ["--params", "--pairs", "--out"]),
    ("scan", ["--n", "--seed", "--d", "--alpha", "--beta", "--gamma",
              "--pairs", "--workers", "--summary", "--out"]),
    ("fr", ["--geometry", "--samples", "--seed", "--d", "--tol"]),
    ("validate-witness", ["--witness", "--psi", "--eta", "--zeta",
                          "--starts", "--seed", "--tol"]),
    ("optimality", ["--witness", "--psi", "--threshold"]),
])
def test_subcommand_help_flags(name, flags):
    out = run_cli(name, "--help").stdout
    for flag in flags:
        assert flag in out


def test_version():
    out = run_cli("--version").stdout
    assert out.startswith("chesswit ")


# -------------------------------------------------------------- rho and ppt

def test_rho_ppt_round_trip(params_file, tmp_path):
    rho_path = tmp_path / "rho.json"
    run_cli("rho", "--params", str(params_file), "--out", str(rho_path))

    obj = json.loads(rho_path.read_text())
    assert len(obj["re"]) == 8 and len(obj["re"][0]) == 8

    via_params = json.loads(
        run_cli("ppt", "--params", str(params_file)).stdout)
    via_matrix = json.loads(
        run_cli("ppt", "--matrix", str(rho_path)).stdout)
    assert via_params["ppt"] is True
    assert via_matrix["ppt"] is True
    assert via_params["dims"] == via_matrix["dims"] == [2, 2, 2]
    assert set(via_params["min_eigs"]) == {"1", "2", "3", "12", "13", "23"}
    for key, value in via_params["min_eigs"].items():
        assert math.isclose(value, via_matrix["min_eigs"][key],
                            rel_tol=0, abs_tol=1e-12)


def test_rho_prints_zero_couplings_as_positive_zeros(tmp_path):
    # the one scatter adds each coupling to a zero, so an exact-zero
    # coupling at a phase in (pi, 3 pi / 2) no longer prints -0.0, as
    # the 2x2x2 scatter that set the couplings printed it
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"a": 1, "b": 2, "c": 0.5, "d": 3,
                                "r": [0, 0.5, 0, 0], "phi": [4, 1, 4, 0]}))
    obj = json.loads(run_cli("rho", "--params", str(path)).stdout)
    zeros = [v for part in ("re", "im") for row in obj[part] for v in row
             if v == 0.0]
    assert len(zeros) == 2 * 64 - 8 - 4
    assert all(math.copysign(1.0, v) > 0 for v in zeros)
    for row, col in ((3, 4), (4, 3), (1, 6), (6, 1), (0, 7), (7, 0)):
        assert obj["re"][row][col] == obj["im"][row][col] == 0.0


def test_ppt_requires_exactly_one_input(params_file, tmp_path):
    rho_path = tmp_path / "rho.json"
    run_cli("rho", "--params", str(params_file), "--out", str(rho_path))

    both = run_cli("ppt", "--params", str(params_file),
                   "--matrix", str(rho_path), check=False)
    assert both.returncode == 1 and "error:" in both.stderr
    neither = run_cli("ppt", check=False)
    assert neither.returncode == 1 and "error:" in neither.stderr


def test_ppt_rejects_bad_matrix_dimension(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
         "im": [[0.0, 0.0], [0.0, 0.0]]}))
    proc = run_cli("ppt", "--matrix", str(bad), check=False)
    assert proc.returncode == 1
    assert "not 4*d" in proc.stderr


# ------------------------------------------------------------------- detect

def test_detect_reference_state(params_file):
    report = json.loads(
        run_cli("detect", "--params", str(params_file)).stdout)
    assert report["detected"] is True
    con = report["families"]["con"]["min"]
    assert math.isclose(con, 1.0 - math.sqrt(17.0) / 4.0,
                        rel_tol=0, abs_tol=1e-12)
    assert report["families"]["sph"]["min"] < 0.0
    assert report["families"]["poly1"]["min"] >= 0.0
    assert report["families"]["cyl"]["min"] >= 0.0
    assert report["group_minima"]["con"] < 0.0


def test_detect_missing_file_is_domain_error(tmp_path):
    proc = run_cli("detect", "--params", str(tmp_path / "nope.json"),
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_detect_malformed_json_is_domain_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("detect", "--params", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("params", [
    {"a": 1e-320, "b": 1, "c": 1, "d": 1},
    {"dim": 3, "alpha": 0, "beta": 2, "gamma": 1,
     "diag": [[1e-320, 1, 1], [1, 1, 1]], "couplings": []},
])
def test_detect_rejects_overflowing_diagonal(tmp_path, params):
    # 1/a overflowed and detect printed "min": NaN, which is not JSON
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    proc = run_cli("detect", "--params", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "must be finite" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["detect", "ppt", "rho"])
@pytest.mark.parametrize("field, value", [
    ("dim", 3.7), ("gamma", 1.9), ("tied", "false")])
def test_params_with_non_integral_levels_are_domain_errors(
        tmp_path, command, field, value):
    # these decoded as d = 3, gamma = 1 and tied=True and were acted on
    params = {"dim": 3, "alpha": 0, "beta": 2, "gamma": 1,
              "diag": [[1, 2, 1], [1, 0.5, 1]], "couplings": [], field: value}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    proc = run_cli(command, "--params", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {field} must be ")
    assert proc.stdout == ""


_QUDIT_PARAMS = {"dim": 3, "alpha": 0, "beta": 2, "gamma": 1,
                 "diag": [[1, 2, 1], [1, 0.5, 1]],
                 "couplings": [{"j": 0, "slot": "ab", "r": 0.5, "phi": 0}]}


def _coupling(**change):
    return [dict(_QUDIT_PARAMS["couplings"][0], **change)]


@pytest.mark.parametrize("command", ["detect", "ppt", "rho"])
@pytest.mark.parametrize("params, field", [
    (dict(_QUDIT_PARAMS, alpha=True), "alpha"),
    (dict(_QUDIT_PARAMS, couplings=_coupling(j=False)), "couplings[0].j"),
    (dict(_QUDIT_PARAMS, couplings=_coupling(r="0.5")), "couplings[0].r"),
    (dict(_QUDIT_PARAMS, couplings=_coupling(phi=True)), "couplings[0].phi"),
    (dict(_QUDIT_PARAMS, diag=[[1, "2", 1], [1, 0.5, 1]]), "diag[0][1]"),
    (dict(REFERENCE_PARAMS, a="2"), "a"),
    (dict(REFERENCE_PARAMS, b=True), "b"),
    (dict(REFERENCE_PARAMS, r=["0.5", False, 0, 0]), "r[0]"),
    (dict(REFERENCE_PARAMS, phi=[0, 0, False, 0]), "phi[2]"),
], ids=["alpha", "j", "coupling-r", "coupling-phi", "diag", "a", "b", "r",
        "phi"])
def test_params_json_takes_only_json_numbers(tmp_path, command, params,
                                             field):
    # these decoded as numbers, True as 1 and "2" as 2.0, and were acted on
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    proc = run_cli(command, "--params", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {field} must be ")
    assert proc.stdout == ""


_TIED_ABSENT = "tied must be absent: every 2x2xd state has tied reciprocals"


@pytest.mark.parametrize("command", ["detect", "ppt", "rho"])
@pytest.mark.parametrize("change, message", [
    ({"tied": True}, _TIED_ABSENT),
    ({"tied": False}, _TIED_ABSENT),
    ({"tied": "false"}, _TIED_ABSENT),
    ({"gamma": 2, "couplings": _QUDIT_PARAMS["couplings"] + [
        {"j": 1, "slot": "gg", "r": 0.5, "phi": 0}]},
     "r[5] must be 0 when gamma collides with alpha or beta, got 0.5"),
], ids=["tied-true", "tied-false", "tied-string", "colliding-gamma"])
def test_params_outside_the_chessboard_construction_are_domain_errors(
        tmp_path, command, change, message):
    # a "tied" key named a variant that no longer exists, and a colliding
    # gamma's gamma-gamma coupling would break the positivity proof
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dict(_QUDIT_PARAMS, **change)))
    proc = run_cli(command, "--params", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("change, message", [
    (dict(dim=8.9), "dim must be an integer, got 8.9"),
    (dict(dim=True), "dim must be an integer, got True"),
    (dict(re=[["0.125"] + [0.0] * 7] + [[0.0] * 8] * 7),
     "re[0][0] must be a JSON number, got '0.125'"),
    (dict(im=[[0.0] * 8, [0.0, 0.0, False] + [0.0] * 5] + [[0.0] * 8] * 6),
     "im[1][2] must be a JSON number, got False"),
    (dict(re=[[0.0] * 8] * 7 + [[0.125]]),
     "re[7] must have 8 entries (dim), got 1"),
], ids=["dim-float", "dim-bool", "re-string", "im-bool", "re-ragged"])
def test_ppt_matrix_takes_only_json_numbers(tmp_path, change, message):
    # "dim": 8.9 was truncated to 8, strings and bools decoded as numbers,
    # and a ragged row failed with numpy's "inhomogeneous shape"
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(dict(matrix_to_json(np.eye(8) / 8),
                                    **change)))
    proc = run_cli("ppt", "--matrix", str(path), check=False)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


# --------------------------------------------------------------------- scan

def test_scan_deterministic_and_summarized(tmp_path):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    proc_a = run_cli("scan", "--n", "30", "--seed", "11",
                     "--out", str(csv_a), "--summary")
    run_cli("scan", "--n", "30", "--seed", "11", "--out", str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()

    lines = csv_a.read_text().splitlines()
    assert len(lines) == 31
    assert lines[0].startswith("index,a,b,c,d,r1,")
    assert lines[0].endswith("det_any")

    summary = json.loads(proc_a.stdout)
    assert summary["n"] == 30
    assert summary["detected"]["cyl"]["count"] == 0
    det_cols = [line.split(",")[18:] for line in lines[1:]]
    poly_count = sum(int(cols[0]) for cols in det_cols)
    assert summary["detected"]["poly"]["count"] == poly_count


def test_scan_stdout_routes_summary_to_stderr():
    proc = run_cli("scan", "--n", "5", "--seed", "3", "--summary")
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and lines[0].startswith("index,")
    summary = json.loads(proc.stderr)
    assert summary["n"] == 5


def test_scan_rejects_bad_n():
    proc = run_cli("scan", "--n", "-1", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("command", [
    ("scan", "--n", "1"),
    ("fr", "--samples", "1"),
    ("validate-witness", "--witness", "poly1:0000"),
])
def test_dimension_flag_below_two_is_named_as_typed(command):
    # scan named run_scan's keyword: "dim must be >= 2, got 1"
    proc = run_cli(*command, "--d", "1", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: d must be >= 2, got 1\n"
    assert proc.stdout == ""


def test_scan_rejects_qudit_levels_at_d2():
    proc = run_cli("scan", "--n", "1", "--d", "2", "--gamma", "7",
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("levels", [("--d", "2", "--gamma", "7"),
                                    ("--d", "3", "--gamma", "9")])
def test_scan_rejects_bad_levels_without_rows(levels):
    proc = run_cli("scan", "--n", "0", *levels, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_scan_qudit(tmp_path):
    csv = tmp_path / "q.csv"
    run_cli("scan", "--n", "8", "--seed", "2", "--d", "3",
            "--out", str(csv))
    header = csv.read_text().splitlines()[0]
    assert header.startswith("index,a0_0,a0_1,a0_2,a1_0,a1_1,a1_2,")


# ----------------------------------------------------------------------- fr

def test_fr_single_geometry():
    report = json.loads(
        run_cli("fr", "--geometry", "cone", "--samples", "4000").stdout)
    assert set(report) == {"cone"}
    entry = report["cone"]
    assert entry["violations"] == 0
    assert entry["max_excess"] <= 0.0
    assert entry["boundary_max_residual"] <= 1e-9


def test_fr_all_geometries():
    report = json.loads(
        run_cli("fr", "--samples", "2000", "--seed", "5").stdout)
    assert set(report) == {"polygon", "cone", "cylinder", "sphere"}
    for entry in report.values():
        assert entry["violations"] == 0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_fr_rejects_empty_sample(samples):
    proc = run_cli("fr", "--geometry", "cone", "--samples", samples,
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "error: tol must be finite and >= 0, got nan\n"),
    ("--tol", "-1", "error: tol must be finite and >= 0, got -1.0\n"),
    ("--seed", "-1", "error: seed must be a non-negative integer, got -1\n"),
])
def test_fr_rejects_bad_tol_and_seed(flag, value, message):
    # --tol nan printed "tol": NaN (not JSON) with 0 violations, --tol -1
    # counted every state, and --seed -1 failed inside numpy
    proc = run_cli("fr", "--geometry", "cone", "--samples", "50",
                   flag, value, check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message


def test_fr_rejects_unknown_geometry():
    proc = run_cli("fr", "--geometry", "torus", check=False)
    assert proc.returncode == 2


def test_fr_points_csv(tmp_path):
    pts_path = tmp_path / "points.csv"
    run_cli("fr", "--geometry", "sphere", "--samples", "200",
            "--seed", "2", "--points", str(pts_path),
            "--out", str(tmp_path / "fr.json"))
    lines = pts_path.read_text().splitlines()
    assert lines[0] == "P1,P2,P3"
    assert len(lines) == 201
    triples = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    for p1, p2, p3 in triples:
        assert p1 * p1 + p2 * p2 + p3 * p3 <= 1.0 + 1e-9
    # deterministic for a fixed seed
    run_cli("fr", "--geometry", "sphere", "--samples", "200",
            "--seed", "2", "--points", str(pts_path),
            "--out", str(tmp_path / "fr2.json"))
    assert pts_path.read_text().splitlines() == lines


def test_fr_points_are_the_checked_states(tmp_path):
    # more states than one sampling chunk (65536): the points written are
    # the states whose largest excess the report gives
    pts_path = tmp_path / "points.csv"
    report = json.loads(run_cli(
        "fr", "--geometry", "cone", "--samples", "70000", "--seed", "7",
        "--points", str(pts_path)).stdout)
    pts = np.loadtxt(pts_path, delimiter=",", skiprows=1)
    assert pts.shape == (70000, 3)
    assert region_excess("cone", pts).max() == report["cone"]["max_excess"]


def test_fr_points_draws_the_sample_once(tmp_path, monkeypatch, capsys):
    # the points file used to come from a second draw of the same sample
    from chesswit import cli, frgeom

    draws, evaluated = [], []
    chunks, points = frgeom._factor_chunks, frgeom.functional_points

    def counted_chunks(*args):
        for chunk in chunks(*args):
            draws.append(chunk)
            yield chunk

    def counted_points(geometry, factors, *args):
        evaluated.append(factors)
        return points(geometry, factors, *args)

    monkeypatch.setattr(frgeom, "_factor_chunks", counted_chunks)
    monkeypatch.setattr(frgeom, "functional_points", counted_points)
    pts_path = tmp_path / "points.csv"
    assert cli.main(["fr", "--geometry", "cone", "--samples", "70000",
                     "--seed", "7", "--points", str(pts_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [offset for offset, _ in draws] == [0, 65536]
    # one evaluation per drawn chunk, through the module global
    assert [any(f is factors for _, factors in draws) for f in evaluated
            ].count(True) == 2
    assert report["cone"]["samples"] == 70000
    assert len(pts_path.read_text().splitlines()) == 70001


def test_fr_points_needs_single_geometry():
    proc = run_cli("fr", "--geometry", "all", "--points", "/tmp/x.csv",
                   check=False)
    assert proc.returncode == 1
    assert "single --geometry" in proc.stderr


# ----------------------------------------------------------- witness checks

def test_validate_witness_polygonal():
    out = json.loads(
        run_cli("validate-witness", "--witness", "poly1:0000",
                "--starts", "16").stdout)
    assert out["valid"] is True
    assert out["min"] >= -1e-7


def test_validate_witness_needs_angle():
    proc = run_cli("validate-witness", "--witness", "con:333:122:0:+",
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_validate_witness_conical():
    out = json.loads(
        run_cli("validate-witness", "--witness", "con:333:122:0:+",
                "--psi", "0.3", "--starts", "16").stdout)
    assert out["valid"] is True


def test_validate_witness_bad_id():
    proc = run_cli("validate-witness", "--witness", "bogus", check=False)
    assert proc.returncode == 1
    assert "malformed witness id" in proc.stderr


def test_validate_witness_rejects_a_non_decimal_pair():
    # "@0,1_0" used to read as the pair (0, 10), which d = 11 has
    proc = run_cli("validate-witness", "--witness", "poly1:0000@0,1_0",
                   "--d", "11", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-5"])
def test_bad_tol_is_domain_error(params_file, tol):
    # NaN used to turn a PPT state into "ppt": false and to print a
    # bare NaN (not JSON) from validate-witness
    for args in (("ppt", "--params", str(params_file)),
                 ("validate-witness", "--witness", "poly1:0000",
                  "--starts", "4")):
        proc = run_cli(*args, "--tol", tol, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: tol must be finite"), args


@pytest.mark.parametrize("n", ["0", "1"])
def test_scan_bad_tol_is_domain_error(n):
    # --n 0 --tol nan used to exit 0 with a bare CSV header
    proc = run_cli("scan", "--n", n, "--tol", "nan", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: tol must be finite and >= 0, got nan\n"


@pytest.mark.parametrize("n", ["0", "1"])
def test_scan_negative_seed_is_domain_error(n):
    # --n 0 --seed -1 used to exit 0 with a bare CSV header, and --n 1 to
    # fail inside numpy
    proc = run_cli("scan", "--n", n, "--seed", "-1", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


def test_validate_witness_rejects_negative_seed():
    # numpy's "expected non-negative integer" named neither option nor value
    proc = run_cli("validate-witness", "--witness", "poly1:0000",
                   "--seed", "-1", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("psi", ["nan", "inf"])
def test_validate_witness_non_finite_angle(psi):
    proc = run_cli("validate-witness", "--witness", "con:333:122:0:+",
                   "--psi", psi, "--starts", "4", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: angle psi must be finite")


@pytest.mark.parametrize("command, witness, angles, unused", [
    ("validate-witness", "poly1:0000", ("--psi", "0.3"), "--psi"),
    ("validate-witness", "con:333:122:0:+",
     ("--psi", "0.3", "--eta", "1", "--zeta", "2"), "--eta or --zeta"),
    ("validate-witness", "sph:300:122:0",
     ("--psi", "0.3", "--eta", "1", "--zeta", "2"), "--psi"),
    ("optimality", "poly1:0000", ("--psi", "0.3"), "--psi"),
])
def test_angle_flags_the_family_does_not_take_are_errors(command, witness,
                                                         angles, unused):
    # they used to be dropped without a word, and the JSON does not echo them
    proc = run_cli(command, "--witness", witness, *angles, check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: witness {witness!r} takes no {unused}\n"


def test_validate_witness_spherical_takes_both_angles():
    out = json.loads(
        run_cli("validate-witness", "--witness", "sph:300:122:0",
                "--eta", "1", "--zeta", "2", "--starts", "4").stdout)
    assert out["valid"] is True


def test_optimality_polygonal():
    out = json.loads(
        run_cli("optimality", "--witness", "poly1:0000").stdout)
    assert out["optimal"] is True
    assert math.isclose(out["sigma_min"], math.sqrt(1.0 - 1.0 / math.sqrt(2.0)),
                        rel_tol=0, abs_tol=1e-12)


def test_optimality_degenerate_angle():
    out = json.loads(
        run_cli("optimality", "--witness", "con:333:122:0:+",
                "--psi", repr(math.pi / 4)).stdout)
    assert out["optimal"] is False
    assert out["sigma_min"] <= 1e-10


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_optimality_bad_threshold_is_domain_error(threshold):
    # a NaN threshold would be echoed as "threshold": NaN, which is not JSON
    proc = run_cli("optimality", "--witness", "poly1:0000",
                   "--threshold", threshold, check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: threshold must be finite and >= 0")


def test_optimality_unsupported_id():
    proc = run_cli("optimality", "--witness", "cyl:300:122:00",
                   "--psi", "0.3", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


# ------------------------------------------------------------------ compare

def test_compare_reports_minimum(tmp_path):
    out_path = tmp_path / "compare.json"
    run_cli("compare", "--out", str(out_path))
    report = json.loads(out_path.read_text())
    assert math.isclose(report["argmin"], 0.3797958971132712,
                        rel_tol=0, abs_tol=1e-4)
    assert math.isclose(report["min_value"], -0.3371173070873836,
                        rel_tol=0, abs_tol=1e-4)
    assert report["matrix_route_gap"] <= 1e-9
    assert report["separability_checks"]["two_couplings"]["detected"] is False


# ----------------------------------------------------------- entry points

def test_console_script_installed():
    exe = shutil.which("chesswit")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("chesswit ")


def test_main_reuses_one_parser_without_leaking(tmp_path, capsys,
                                               monkeypatch):
    # one parser serves every in-process call; no flag of one call may
    # reach the next, and its help text stays the golden one
    from chesswit import cli
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["validate-witness", "--witness", "poly1:0000",
                     "--starts", "3", "--tol", "0.5", "--out", str(first)]) == 0
    assert cli.main(["validate-witness", "--witness", "poly1:0000",
                     "--out", str(second)]) == 0
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    assert (a["starts"], a["tol"]) == (3, 0.5)
    assert (b["starts"], b["tol"]) == (64, 1e-7)
    csv = tmp_path / "rows.csv"
    capsys.readouterr()
    assert cli.main(["scan", "--n", "2", "--d", "3", "--gamma", "2",
                     "--summary", "--out", str(csv)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2
    assert cli.main(["scan", "--n", "2", "--out", str(csv)]) == 0
    assert capsys.readouterr().out == ""
    assert csv.read_text() == run_cli("scan", "--n", "2").stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--help"])
    assert exc.value.code == 0
    golden = (GOLDEN / "help_scan.txt").read_text()
    assert " ".join(capsys.readouterr().out.split()) == " ".join(golden.split())


def test_usage_error_exit_code():
    proc = run_cli("scan", check=False)          # missing required --n
    assert proc.returncode == 2
    proc = run_cli("nosuchcommand", check=False)
    assert proc.returncode == 2
