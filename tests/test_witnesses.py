"""Tests for the witness catalog: enumeration, operator builds against
independent term-list oracles, closed-form expectations/functionals
against honest traces, detection tables, and the product-state
minimizer."""

import hashlib
import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chesswit.chessboard import (
    COEFF_TRIPLES,
    ChessParams222,
    ChessParams22d,
    NonPositiveError,
    ParamColumns,
    build_rho_222,
    build_rho_22d,
    params_222_to_22d,
    pauli_coeffs,
    rho_entries_22d,
    sample_params_222,
    sample_params_22d,
)
from chesswit.tensorops import hermitian_eigenvalues, qudit_substitute
from chesswit.witnesses import (
    _IDENTITY,
    DETECT_MARGIN,
    FAMILY_NAMES,
    GROUP_MEMBERS,
    GROUP_NAMES,
    build_witness,
    detect,
    detection_conditions,
    expectation,
    expectation_closed,
    family_minima,
    format_witness,
    functional,
    group_minima,
    min_expectation_over_products,
    parse_witness_id,
    phase_gate_conjugate,
    substituted_coeffs,
    validate_witness,
    witness_angles,
    witness_ids,
    _KIND,
    _catalog,
    _component_values,
    _initial_factors,
    _lowest_eigenpair_2x2,
    _minimize_components,
    _catalog_values,
    _coeff_columns,
    _level_pairs,
    _pair_coeffs,
    _table,
)


def _coeffs(states, pairs):
    """``_pair_coeffs`` of 2x2xd states of one level structure, through
    their columns as the scan takes them."""
    columns = ParamColumns.of(states)
    return _pair_coeffs(rho_entries_22d(columns), columns.levels, pairs)


# --- independent oracle machinery ---------------------------------------------

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (I2, SX, SY, SZ)


def okron3(triple):
    return np.kron(np.kron(PAULIS[triple[0]], PAULIS[triple[1]]),
                   PAULIS[triple[2]])


def oracle_from_terms(terms):
    """Explicit witness from {'kjl': coefficient} with string triples."""
    w = np.zeros((8, 8), dtype=np.complex128)
    for s, coef in terms.items():
        w += coef * okron3(tuple(int(ch) for ch in s))
    return w


def pauli_projection(w):
    """All 64 coefficients Tr(W O_t)/8 of an 8x8 operator."""
    out = {}
    for i in range(4):
        for j in range(4):
            for k in range(4):
                out[(i, j, k)] = complex(np.trace(w @ okron3((i, j, k)))) / 8
    return out


def random_params(index, seed=20240517):
    return sample_params_222(seed, index)


CRIT7 = ChessParams222(a=1, b=1, c=1, d=1, r=(1.0, 1.0, 0.5, 0.0),
                       phi=(0.0, 0.0, 0.0, 0.0))


# --- enumeration and parsing ----------------------------------------------------


def test_catalog_counts():
    ids = witness_ids()
    assert len(ids) == 236
    counts = {}
    for s in ids:
        counts[s.split(":", 1)[0]] = counts.get(s.split(":", 1)[0], 0) + 1
    assert counts == {"poly1": 16, "poly2": 16, "con": 48, "conp": 48,
                      "cyl": 36, "cylp": 36, "sph": 18, "sphp": 18}
    assert len(set(ids)) == 236


def test_catalog_qudit_counts():
    ids3 = witness_ids(3)
    assert len(ids3) == 236 * 3
    assert all("@" in s for s in ids3)
    pairs = {s.split("@")[1] for s in ids3}
    assert pairs == {"0,1", "0,2", "1,2"}
    assert len(witness_ids(4)) == 236 * 6


def test_parse_round_trip():
    for d in (2, 3, 4, 5):
        for s in witness_ids(d):
            assert parse_witness_id(s).base == s


@pytest.mark.parametrize("d", [0, 1, -3])
def test_witness_ids_rejects_d_below_two(d):
    with pytest.raises(ValueError, match="d must be >= 2"):
        witness_ids(d)


@pytest.mark.parametrize("d", [2.5, 3.0, "3", None])
def test_witness_ids_rejects_non_integer_d(d):
    # 2.5 used to fail inside range() with a TypeError
    with pytest.raises(ValueError, match="d must be an integer"):
        witness_ids(d)


def test_witness_ids_rejects_bools():
    # True used to read as 1 and report "got 1"
    with pytest.raises(ValueError, match="^d must be an integer, got True$"):
        witness_ids(True)


def test_witness_ids_accepts_numpy_integers():
    assert witness_ids(np.int64(3)) == witness_ids(3)
    assert witness_ids(np.uint8(2)) == witness_ids(2)


def test_parse_accepts_exactly_the_catalog():
    # every one-character insertion, substitution and deletion of a base
    # id parses iff the result is itself a catalog id
    catalog = set(witness_ids())
    alphabet = sorted(set("".join(catalog)) | set("24579ab_"))
    mutants = set()
    for s in catalog:
        for k in range(len(s) + 1):
            mutants.update(s[:k] + ch + s[k:] for ch in alphabet)
        for k in range(len(s)):
            mutants.add(s[:k] + s[k + 1:])
            mutants.update(s[:k] + ch + s[k + 1:] for ch in alphabet)
    accepted = set()
    for s in mutants:
        try:
            parse_witness_id(s)
        except ValueError as exc:
            assert str(exc) == f"malformed witness id {s!r}"
        else:
            accepted.add(s)
    assert accepted == mutants & catalog
    assert len(accepted) > 200   # substitutions reach other catalog ids


@pytest.mark.parametrize("bad", [
    "poly3:0000", "poly1:002", "poly1:00000", "poly1:00a0",
    "con:333:122:0", "con:331:122:0:+", "con:333:211:0:+",
    "conp:333:122:0:+", "con:333:122:2:+", "con:333:122:0:*",
    "cyl:333:122:00", "cyl:300:122:0", "cyl:300:122:02",
    "sph:333:122:0", "sph:300:211:0", "sphp:300:122:0",
    "blob", "", "con:333:122:0:+@2,1", "poly1:0000@a,b",
    "poly1:0000@1", "sph:300:122:0@-1,2",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_witness_id(bad)


def test_format_witness_appends_angles():
    assert format_witness("con:333:221:0:+", {"psi": 0.5}) == \
        "con:333:221:0:+:psi=0.500000"
    s = format_witness("sph:300:122:0", {"eta": 1.0, "zeta": 2.0})
    assert s == "sph:300:122:0:eta=1.000000:zeta=2.000000"


# --- operator builds against explicit term lists --------------------------------


POLY_TERM_CASES = {
    "poly1:0000": {"000": 1, "333": 1, "111": 1, "122": 1, "212": 1, "221": -1},
    "poly1:1101": {"000": 1, "333": -1, "111": -1, "122": 1, "212": -1, "221": -1},
    "poly1:0010": {"000": 1, "333": 1, "111": 1, "122": -1, "212": 1, "221": 1},
    "poly1:1111": {"000": 1, "333": -1, "111": -1, "122": -1, "212": -1, "221": 1},
}


@pytest.mark.parametrize("wid,terms", POLY_TERM_CASES.items())
def test_polygonal_builds_match_term_oracle(wid, terms):
    np.testing.assert_allclose(build_witness(wid), oracle_from_terms(terms),
                               atol=1e-14)


def test_all_polygonal_builds_by_formula():
    for n in range(16):
        bits = [(n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1]
        sg = lambda b: (-1.0) ** b
        terms = {
            "000": 1.0, "333": sg(bits[0]), "111": sg(bits[1]),
            "122": sg(bits[2]), "212": sg(bits[3]),
            "221": sg(bits[1] + bits[2] + bits[3] + 1),
        }
        wid = f"poly1:{bits[0]}{bits[1]}{bits[2]}{bits[3]}"
        np.testing.assert_allclose(build_witness(wid),
                                   oracle_from_terms(terms), atol=1e-14)


@pytest.mark.parametrize("psi", [0.0, 0.3, 2.1, 5.9])
def test_conical_build_term_oracle(psi):
    terms = {"000": 1, "333": 1, "111": math.cos(psi), "221": math.cos(psi),
             "122": math.sin(psi), "212": math.sin(psi)}
    np.testing.assert_allclose(build_witness("con:333:221:0:+", psi=psi),
                               oracle_from_terms(terms), atol=1e-14)
    terms2 = {"000": 1, "330": -1, "111": math.cos(psi),
              "122": -math.cos(psi), "212": math.sin(psi),
              "221": -math.sin(psi)}
    np.testing.assert_allclose(build_witness("con:330:122:1:-", psi=psi),
                               oracle_from_terms(terms2), atol=1e-14)


@pytest.mark.parametrize("psi", [0.0, 1.1, 4.4])
def test_cylindrical_build_term_oracle(psi):
    s, c = math.sin(psi), math.cos(psi)
    terms = {"000": 1, "300": c, "111": s, "122": s, "212": -s, "221": s}
    np.testing.assert_allclose(build_witness("cyl:300:122:01", psi=psi),
                               oracle_from_terms(terms), atol=1e-14)


@pytest.mark.parametrize("eta,zeta", [(0.4, 1.2), (2.0, 5.0)])
def test_spherical_build_term_oracle(eta, zeta):
    a = math.sin(eta) * math.cos(zeta)
    b = math.sin(eta) * math.sin(zeta)
    c = math.cos(eta)
    terms = {"000": 1, "003": a, "111": b, "212": -b, "221": c, "122": -c}
    np.testing.assert_allclose(build_witness("sph:003:212:1", eta=eta,
                                             zeta=zeta),
                               oracle_from_terms(terms), atol=1e-14)


def test_poly2_is_phase_conjugate_of_poly1():
    m = np.diag([1.0, 1j])
    u = np.kron(np.kron(m, I2), I2)
    for n in (0, 2, 9, 15):
        bits = f"{n >> 3 & 1}{n >> 2 & 1}{n >> 1 & 1}{n & 1}"
        w1 = build_witness(f"poly1:{bits}")
        w2 = build_witness(f"poly2:{bits}")
        np.testing.assert_allclose(w2, u @ w1 @ u.conj().T, atol=1e-14)


def test_poly2_term_structure():
    # poly2:0010 = conjugation of poly1:0010; its expansion contains
    # exactly the six mapped terms.
    proj = pauli_projection(build_witness("poly2:0010"))
    expected = {(0, 0, 0): 1, (3, 3, 3): 1, (2, 1, 1): 1, (2, 2, 2): -1,
                (1, 1, 2): -1, (1, 2, 1): -1}
    for t, val in proj.items():
        assert abs(val - expected.get(t, 0.0)) < 1e-13, t


@pytest.mark.parametrize("psi", [0.7, 3.3])
def test_primed_conical_term_structure(psi):
    proj = pauli_projection(build_witness("conp:333:211:0:+", psi=psi))
    expected = {(0, 0, 0): 1, (3, 3, 3): 1,
                (2, 2, 2): math.cos(psi), (2, 1, 1): math.cos(psi),
                (1, 2, 1): -math.sin(psi), (1, 1, 2): -math.sin(psi)}
    for t, val in proj.items():
        assert abs(val - expected.get(t, 0.0)) < 1e-13, t


def test_primed_cylindrical_term_structure():
    psi = 1.9
    s, c = math.sin(psi), math.cos(psi)
    # cylp:300:211:01 conjugates cyl:300:122:01, whose terms are
    # {000:1, 300:c, 111:s, 122:s, 212:-s, 221:s}.
    proj = pauli_projection(build_witness("cylp:300:211:01", psi=psi))
    expected = {(0, 0, 0): 1, (3, 0, 0): c, (2, 1, 1): s, (2, 2, 2): s,
                (1, 1, 2): s, (1, 2, 1): -s}
    for t, val in proj.items():
        assert abs(val - expected.get(t, 0.0)) < 1e-13, t


def test_primed_spherical_term_structure():
    eta, zeta = 0.9, 2.4
    a = math.sin(eta) * math.cos(zeta)
    b = math.sin(eta) * math.sin(zeta)
    c = math.cos(eta)
    # sphp:003:121:1 conjugates sph:003:212:0 (partner flips the bit):
    # sph terms {000:1, 003:a, 111:b, 212:b, 221:c, 122:c} map to
    # {000:1, 003:a, 211:b, 112:-b, 121:-c, 222:c}.
    proj = pauli_projection(build_witness("sphp:003:121:1", eta=eta,
                                          zeta=zeta))
    expected = {(0, 0, 0): 1, (0, 0, 3): a, (2, 1, 1): b, (1, 1, 2): -b,
                (1, 2, 1): -c, (2, 2, 2): c}
    for t, val in proj.items():
        assert abs(val - expected.get(t, 0.0)) < 1e-13, t


def test_phase_gate_conjugate_matches_explicit_unitary():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = np.diag([1.0, 1j])
    u = np.kron(np.kron(m, I2), I2)
    np.testing.assert_allclose(phase_gate_conjugate(w), u @ w @ u.conj().T,
                               atol=1e-14)
    # qudit shape
    w3 = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    u3 = np.kron(np.kron(m, I2), np.eye(3))
    np.testing.assert_allclose(phase_gate_conjugate(w3),
                               u3 @ w3 @ u3.conj().T, atol=1e-14)


def test_all_witnesses_hermitian():
    for wid in witness_ids():
        w = build_witness(wid, psi=0.83, eta=1.21, zeta=2.57)
        assert np.abs(w - w.conj().T).max() < 1e-13, wid
        assert w.shape == (8, 8)


def test_angle_requirements():
    with pytest.raises(ValueError):
        build_witness("con:333:221:0:+")
    with pytest.raises(ValueError):
        build_witness("cyl:300:122:00")
    with pytest.raises(ValueError):
        build_witness("sph:300:122:0", psi=1.0)
    with pytest.raises(ValueError):
        build_witness("sph:300:122:0", eta=1.0)
    # polygonal ids need no angles
    build_witness("poly1:0000")


def test_qudit_build_embeds_pauli_case():
    # At d=2 with the (0, 1) pair, the qudit build equals the qubit one.
    for wid in ["poly1:0110", "con:303:212:1:-", "sph:030:221:0"]:
        w2 = build_witness(wid, psi=0.9, eta=0.8, zeta=0.1)
        w2q = build_witness(wid + "@0,1", psi=0.9, eta=0.8, zeta=0.1, d=2)
        np.testing.assert_allclose(w2, w2q, atol=1e-14)


def test_qudit_build_term_oracle():
    # con:333:221:0:+@0,2 at d=3 equals the explicit substituted sum.
    psi = 1.3
    terms = {"000": 1, "333": 1, "111": math.cos(psi), "221": math.cos(psi),
             "122": math.sin(psi), "212": math.sin(psi)}
    expected = np.zeros((12, 12), dtype=np.complex128)
    for s, coef in terms.items():
        expected += coef * qudit_substitute(tuple(int(ch) for ch in s), 3, 0, 2)
    got = build_witness("con:333:221:0:+@0,2", psi=psi, d=3)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    assert got.shape == (12, 12)


# primed KJL -> (unprimed partner KJL, whether the conical/spherical I
# bit flips); the cylindrical families keep both bits
PRIMED_PARTNERS = {"211": ("122", False), "121": ("212", True),
                   "112": ("221", True)}


def partner_id(wid):
    family, *rest = wid.split(":")
    if family == "poly2":
        return "poly1:" + rest[0]
    kp, kjl, bits, *sign = rest
    partner, flip = PRIMED_PARTNERS[kjl]
    if flip and family != "cylp":
        bits = str(1 - int(bits))
    return ":".join([family[:-1], kp, partner, bits, *sign])


@pytest.mark.parametrize("d,suffix", [(2, ""), (3, "@0,2")],
                         ids=["d2", "d3"])
def test_primed_entries_conjugate_partner(d, suffix):
    primed = [w for w in witness_ids()
              if w.split(":")[0] in ("poly2", "conp", "cylp", "sphp")]
    assert len(primed) == 118
    rng = np.random.default_rng(40 + d)
    for wid in primed:
        psi, eta, zeta = rng.uniform(0.0, 2 * math.pi, size=3)
        angles = dict(psi=psi, eta=eta, zeta=zeta, d=d)
        partner = build_witness(partner_id(wid) + suffix, **angles)
        np.testing.assert_allclose(build_witness(wid + suffix, **angles),
                                   phase_gate_conjugate(partner),
                                   atol=1e-14, err_msg=wid)


# --- closed-form expectations ---------------------------------------------------


@pytest.mark.parametrize("index", range(4))
def test_expectation_closed_matches_trace(index):
    params = random_params(index)
    rho = build_rho_222(params)
    co = pauli_coeffs(params)
    rng = np.random.default_rng(index)
    for wid in witness_ids():
        psi = float(rng.uniform(0, 2 * math.pi))
        eta = float(rng.uniform(0, math.pi))
        zeta = float(rng.uniform(0, 2 * math.pi))
        w = build_witness(wid, psi=psi, eta=eta, zeta=zeta)
        honest = float(np.trace(rho @ w).real)
        closed = expectation_closed(wid, co, psi=psi, eta=eta, zeta=zeta)
        assert abs(honest - closed) < 1e-12, wid


def test_functional_stationarity_and_coarse_grid():
    params = random_params(21)
    co = pauli_coeffs(params)
    grid = np.linspace(0.0, 2 * math.pi, 181)
    for wid in ["con:333:221:0:+", "conp:330:121:1:-", "cyl:030:212:10",
                "cylp:003:112:01"]:
        value, angles = functional(wid, co)
        at_argmin = expectation_closed(wid, co, psi=angles["psi"])
        assert abs(at_argmin - value) < 1e-12
        grid_vals = [expectation_closed(wid, co, psi=p) for p in grid]
        assert value <= min(grid_vals) + 1e-12
        assert min(grid_vals) - value < 1e-3
    for wid in ["sph:300:122:0", "sphp:003:112:1"]:
        value, angles = functional(wid, co)
        at_argmin = expectation_closed(wid, co, eta=angles["eta"],
                                       zeta=angles["zeta"])
        assert abs(at_argmin - value) < 1e-12
        best = min(
            expectation_closed(wid, co, eta=e, zeta=z)
            for e in np.linspace(0, math.pi, 61)
            for z in np.linspace(0, 2 * math.pi, 121)
        )
        assert value <= best + 1e-12
        assert best - value < 2e-3


def test_polygonal_functional_matches_brute_force():
    params = random_params(33)
    co = pauli_coeffs(params)
    fam = family_minima(co)
    for family in ("poly1", "poly2"):
        values = {}
        for n in range(16):
            bits = f"{n >> 3 & 1}{n >> 2 & 1}{n >> 1 & 1}{n & 1}"
            values[f"{family}:{bits}"], _ = functional(f"{family}:{bits}", co)
        best_id = min(values, key=values.get)
        assert fam[family]["min"] == pytest.approx(values[best_id], abs=1e-15)
        assert fam[family]["best"] == best_id


def test_section6_curve_via_witness_trace():
    # Tr(W rho(t)) for poly1:1101 on the one-parameter diagonal family
    # equals 2(3t-3)/(2+3t+3/t).
    w = build_witness("poly1:1101")
    for t in (0.25, 0.3797958971132712, 0.5, 1.0, 2.0):
        params = ChessParams222(a=1, b=t, c=t, d=1 / t, r=(1, 0, 0, 0),
                                phi=(0, 0, 0, 0))
        rho = build_rho_222(params)
        honest = float(np.trace(rho @ w).real)
        closed = 2 * (3 * t - 3) / (2 + 3 * t + 3 / t)
        assert abs(honest - closed) < 1e-13
    tstar = (-3 + 2 * math.sqrt(6)) / 5
    assert abs(2 * (3 * tstar - 3) / (2 + 3 * tstar + 3 / tstar)
               - (-0.3371173070873836)) < 1e-12


def test_reference_state_conical_value():
    co = pauli_coeffs(CRIT7)
    value, angles = functional("con:333:221:0:+", co)
    assert value == pytest.approx(1 - math.sqrt(17) / 4, abs=1e-12)
    assert value == pytest.approx(-0.030776406404415137, abs=1e-12)
    # honest-trace confirmation at the reported argmin
    w = build_witness("con:333:221:0:+", psi=angles["psi"])
    rho = build_rho_222(CRIT7)
    assert float(np.trace(rho @ w).real) == pytest.approx(value, abs=1e-12)


# --- detection -----------------------------------------------------------------


def test_detection_tables_identities():
    for index in range(8):
        params = random_params(index, seed=918273)
        co = pauli_coeffs(params)
        tables = detection_conditions(params)
        n = tables["normalization"]
        # L identity: n (1 + s c_kp) = 2 L[kp, s]
        for kp in ("333", "330", "303", "033"):
            t = tuple(int(ch) for ch in kp)
            for s, sval in (("+", 1), ("-", -1)):
                assert abs(n * (1 + sval * co[t]) - 2 * tables["L"][kp + s]) \
                    < 1e-9 * n
        # u identity: n^2 (K1^2 + K2^2) = 16 u[kjl, i] for conical forms
        rot = {"122": ("212", "221"), "212": ("221", "122"),
               "221": ("122", "212")}
        for kjl in ("122", "212", "221"):
            lkj, jlk = rot[kjl]
            tk = tuple(int(ch) for ch in kjl)
            tl = tuple(int(ch) for ch in lkj)
            tj = tuple(int(ch) for ch in jlk)
            for i in (0, 1):
                sg = (-1.0) ** i
                k1 = co[(1, 1, 1)] + sg * co[tk]
                k2 = co[tl] + sg * co[tj]
                assert abs(n * n * (k1 * k1 + k2 * k2)
                           - 16 * tables["u"][f"{kjl}:{i}"]) < 1e-8 * n * n
        # z identity: n^2 (1 - c_kp^2) = 4 z[kp]
        for kp in ("300", "030", "003"):
            t = tuple(int(ch) for ch in kp)
            assert abs(n * n * (1 - co[t] ** 2) - 4 * tables["z"][kp]) \
                < 1e-8 * n * n


def test_z_values_at_least_sixteen():
    for index in range(200):
        tables = detection_conditions(random_params(index, seed=5150))
        for val in tables["z"].values():
            assert val >= 16.0 - 1e-12


def test_verdicts_match_functional_signs():
    for index in range(60):
        params = random_params(index, seed=264)
        fam = family_minima(pauli_coeffs(params))
        verdicts = detection_conditions(params)["verdicts"]
        for name in FAMILY_NAMES:
            m = fam[name]["min"]
            if abs(m) <= DETECT_MARGIN:
                continue
            assert verdicts[name] == (m < 0), (name, m, index)


def test_polygonal_closed_minima_match():
    for index in range(20):
        params = random_params(index, seed=777)
        fam = family_minima(pauli_coeffs(params))
        closed = detection_conditions(params)["poly_minima"]
        assert fam["poly1"]["min"] == pytest.approx(closed["poly1"], abs=1e-12)
        assert fam["poly2"]["min"] == pytest.approx(closed["poly2"], abs=1e-12)


def test_detect_reference_state():
    report = detect(CRIT7)
    assert report.detected
    assert report.group_minima["con"] == pytest.approx(
        -0.030776406404415137, abs=1e-12)
    assert report.families["con"]["best"].startswith("con:333:221:0:+")
    assert report.group_minima["poly"] >= 0
    assert report.group_minima["cyl"] >= 0
    # spherical also sees this state: min z = 16 < 4 max u = 17
    inter = report.intermediates
    assert min(inter["z"].values()) == pytest.approx(16.0, abs=1e-12)
    assert max(inter["u"].values()) == pytest.approx(4.25, abs=1e-12)
    assert report.group_minima["sph"] < 0
    payload = json.dumps(report.to_json())
    assert "group_minima" in payload


def test_detect_separable_point():
    params = ChessParams222(a=1, b=1, c=1, d=1, r=(1, 1, 0, 0),
                            phi=(0, 0, 0, 0))
    report = detect(params)
    assert not report.detected
    assert report.group_minima["poly"] == pytest.approx(0.0, abs=1e-12)
    # equal nonzero third/fourth couplings sit exactly on the family
    # boundary: all minima vanish up to rounding, so at most marginal
    # flags may appear
    params2 = ChessParams222(a=1, b=1, c=1, d=1, r=(1, 1, 0.6, 0.6),
                             phi=(0, 0, 0, 0))
    report2 = detect(params2)
    assert all(m >= -1e-12 for m in report2.group_minima.values())
    assert report2.group_minima["con"] == pytest.approx(0.0, abs=1e-12)
    if report2.detected:
        assert report2.marginal
    assert not detection_conditions(params2)["verdicts"]["con"]
    # ... but unequal ones are caught by the conical (and spherical) families
    params3 = ChessParams222(a=1, b=1, c=1, d=1, r=(1, 1, 0.6, 0.3),
                             phi=(0, 0, 0, 0))
    report3 = detect(params3)
    assert report3.detected
    assert report3.group_minima["con"] < 0
    assert report3.group_minima["sph"] < 0


def test_detect_marginal_band():
    report = detect(CRIT7)
    assert report.marginal == ()


def test_detect_checks_pairs_for_qubit_states_too():
    # the qubit family takes no pairs, but a misspelt one is still an error
    with pytest.raises(ValueError, match="pairs must be 'all' or 'own'"):
        detect(CRIT7, pairs="bogus")


def test_detect_qudit_reduces_to_qubit():
    params = random_params(5, seed=4242)
    q = params_222_to_22d(params)
    r222 = detect(params)
    r22d = detect(q, pairs="own")
    for name in FAMILY_NAMES:
        assert r22d.families[name]["min"] == pytest.approx(
            r222.families[name]["min"], abs=1e-10)


def test_detect_qudit_all_pairs():
    params = sample_params_22d(99, 0, dim=3)
    r_all = detect(params, pairs="all")
    r_own = detect(params, pairs="own")
    assert r_all.intermediates["pairs"] == [[0, 1], [0, 2], [1, 2]]
    assert r_own.intermediates["pairs"] == [[0, 2]]
    for name in FAMILY_NAMES:
        assert r_all.families[name]["min"] <= \
            r_own.families[name]["min"] + 1e-12
        assert "@" in r_all.families[name]["best"]
    with pytest.raises(ValueError):
        detect(params, pairs="some")


def _pin_states():
    states = [(f"d2-{k}", sample_params_222(0, k), "all") for k in range(8)]
    states.append(("crit7", CRIT7, "all"))
    # the diagnostic states of reproduce_section6; their phase-mapped
    # coefficients carry -0.0
    for r in ((1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.6, 0.6),
              (1.0, 1.0, 0.6, 0.3)):
        states.append((f"unit-{r[2]}-{r[3]}",
                       ChessParams222(a=1, b=1, c=1, d=1, r=r,
                                      phi=(0, 0, 0, 0)), "all"))
    q3 = sample_params_22d(0, 0, 3)
    states += [("d3-all", q3, "all"), ("d3-own", q3, "own")]
    states.append(("d4-130", sample_params_22d(0, 0, 4, alpha=1, beta=3,
                                               gamma=0), "all"))
    return states


# sha256 of the sorted-key detect JSON: a change that moves any family
# minimum, best id or angle fails here (the scan CSV pins see minima only)
DETECT_JSON_PINS = {
    "d2-0": "f908742c8223071e1f6d9d1461558241ecb04a055678a8fabf35fabfb24b980f",
    "d2-1": "34b9e406d276a73567a7aed86c2749e8c4d1157ed5b2bb5e24f4aa20a58ded36",
    "d2-2": "e91b770d3b501a6361cb2998f84fd23496f1d7cdfae173e0da3c1280f92f9646",
    "d2-3": "85cefdecd458a02b3b64a7928b3f03d65bc372ee26aa9b0a06f1a4e03450ef3f",
    "d2-4": "3bfc204462721409487ac11461df5fde70e004a0a22bc321cc7bd4281878eb20",
    "d2-5": "690ecda5098f80f3329008d8369a4f823402d04e96c2cbb15859058307962f8b",
    "d2-6": "10b3f5282d02b9b2c72f5fcabfc737f24c6b3a57752ded3d5b84579e21cae167",
    "d2-7": "047664c936cc74c08d46189af91afc791518a7a17e108094d2c46831e86424c6",
    "crit7": "c234e96c1406035045b653a786fd23c976bc2b146bcbc8d25408695e885cf720",
    "unit-0.0-0.0":
        "3ca7b5ebea926cd886492767da7e2060122bf7602d23d137ab7a11e4ec48ceac",
    "unit-0.6-0.6":
        "30fe41b8a84af23318951dc011e8e77ae435c1e1ff2e51342ff0f8f7612fd54f",
    "unit-0.6-0.3":
        "65802c92438818a488b71d59a26a73e222502aebc31216d473e91cbf6f9de22f",
    "d3-all": "b526ef5cde1141815fccaa81c1b76c5c2c7248d434293cfc7742ffdfc9da365f",
    "d3-own": "391c2f941389514a14eac36dc29f1de37bdd16e03bf63f7f81197f4757aebbbe",
    "d4-130": "e617139c42f07f34c6db12d83f33d0dc9bea441395593fd66a6409fc5c157311",
}


def _detect_oracle(params, pairs):
    """The per-pair route ``detect`` replaced: rho, the einsum and one
    ``family_minima`` call per pair, a later pair winning only with a
    strictly smaller minimum."""
    d = params.dim
    rho = build_rho_22d(params)
    if pairs == "own":
        pair_list = [tuple(sorted((params.alpha, params.beta)))]
    else:
        pair_list = list(itertools.combinations(range(d), 2))
    families = {}
    for a, b in pair_list:
        fam = family_minima(substituted_coeffs(rho, d, a, b),
                            suffix=f"@{a},{b}" if d > 2 else "")
        for name, entry in fam.items():
            cur = families.get(name)
            if cur is None or entry["min"] < cur["min"]:
                families[name] = entry
    return families


@pytest.mark.parametrize("pairs", ["all", "own"])
@pytest.mark.parametrize("d", [3, 4])
def test_detect_matches_per_pair_oracle(d, pairs):
    states = [sample_params_22d(31, k, d) for k in range(12)]
    states += [sample_params_22d(32, k, d, alpha=k % d, beta=(k + 1) % d,
                                 gamma=(k + 2 * (k % 2)) % d)
               for k in range(12)]
    # unit diagonals and no couplings tie families across pairs
    states.append(ChessParams22d(d, 0, 1, 2, ((1.0,) * d, (1.0,) * d)))
    states.append(ChessParams22d(d, 0, 1, 2, ((1.0,) * d, (1.0,) * d),
                                 r=(0.5,) * 6))
    for params in states:
        got = detect(params, pairs=pairs).families
        want = _detect_oracle(params, pairs)
        assert list(got) == list(want) == list(FAMILY_NAMES)
        for name, entry in want.items():
            assert got[name]["min"].hex() == entry["min"].hex(), name
            assert got[name]["best"] == entry["best"], name


def test_batched_family_minima_takes_angles_of_the_winners_only(monkeypatch):
    calls = []

    def counted(kind, k):
        calls.append(kind)
        return _minimize_components(kind, k)

    monkeypatch.setattr("chesswit.witnesses._minimize_components", counted)
    pairs = ((0, 1), (0, 2), (1, 2))
    for index in range(5):
        rows = _coeffs([sample_params_22d(9, index, 3)], pairs)[0]
        calls.clear()
        family_minima(rows, [f"@{a},{b}" for a, b in pairs])
        assert len(calls) == len(FAMILY_NAMES)


def test_family_minima_needs_one_suffix_per_row():
    rows = _coeffs([sample_params_22d(9, 0, 3)], ((0, 1), (0, 2)))[0]
    with pytest.raises(ValueError, match="one suffix per row"):
        family_minima(rows, ["@0,1"])
    with pytest.raises(ValueError, match="mapping or a"):
        family_minima(rows[:, :14])


def _counted(fn, counts, key):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("d,levels", [
    (3, {}),
    (4, dict(alpha=1, beta=3, gamma=0)),
    # a colliding gamma: the sampler zeroes the gamma-gamma moduli
    (3, dict(alpha=0, beta=2, gamma=2)),
])
def test_proven_positive_detect_builds_no_rho(monkeypatch, d, levels):
    counts = {"build_rho_22d": 0, "substituted_coeffs": 0, "eigen": 0}
    for target, original, key in (
            ("chesswit.witnesses.build_rho_22d", build_rho_22d,
             "build_rho_22d"),
            ("chesswit.witnesses.substituted_coeffs", substituted_coeffs,
             "substituted_coeffs"),
            ("chesswit.chessboard.hermitian_eigenvalues",
             hermitian_eigenvalues, "eigen"),
            ("numpy.linalg.eigh", np.linalg.eigh, "eigen"),
            ("numpy.linalg.eigvalsh", np.linalg.eigvalsh, "eigen")):
        monkeypatch.setattr(target, _counted(original, counts, key))
    for index in range(4):
        detect(sample_params_22d(3, index, d, **levels))
    assert counts == {"build_rho_22d": 0, "substituted_coeffs": 0, "eigen": 0}


def test_detect_checks_positivity_it_cannot_prove(monkeypatch):
    counts = {"build_rho_22d": 0}
    monkeypatch.setattr("chesswit.witnesses.build_rho_22d",
                        _counted(build_rho_22d, counts, "build_rho_22d"))
    diag = ((0.5, 1.0, 1.0), (1.0, 1.0, 2.0))
    detect(ChessParams22d(3, 0, 2, 1, diag, r=(0.1,) + (0.0,) * 5,
                          tied=False))
    assert counts == {"build_rho_22d": 1}
    # untied, not PSD
    with pytest.raises(NonPositiveError):
        detect(ChessParams22d(3, 0, 2, 1, diag, r=(1.0,) + (0.0,) * 5,
                              tied=False))
    # tied, gamma = alpha with nonzero gamma-gamma couplings
    with pytest.raises(NonPositiveError):
        detect(ChessParams22d(
            3, 0, 2, 0,
            ((1.8789852661499484, 0.3463964459891802, 0.12076665792328141),
             (0.10790840445381386, 4.231949517477533, 6.691310059954052)),
            r=(1.0,) * 6, tied=True))


def test_detect_json_pinned():
    got = {}
    for name, params, pairs in _pin_states():
        text = json.dumps(detect(params, pairs=pairs).to_json(),
                          sort_keys=True)
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DETECT_JSON_PINS


def _family_minima_loop(coeffs, suffix=""):
    """Oracle: the per-entry catalog loop that ``family_minima`` replaced.

    Every entry goes through the scalar route; the first strictly
    smaller value in catalog order wins.
    """
    co = {**coeffs, _IDENTITY: 1.0}
    out = {}
    for base_id, family, kind, components in _catalog():
        value, angles = _minimize_components(
            kind, _component_values(components, co))
        cur = out.get(family)
        if cur is None or value < cur["min"]:
            out[family] = {"min": value,
                           "best": format_witness(base_id + suffix, angles)}
    return out


@pytest.fixture(scope="module")
def catalog_inputs():
    """(coeffs, suffix): 1000 sampled d = 2 states, 1002 (state, pair)
    inputs at d = 3, and states with zero couplings, the diagnostic
    states of reproduce_section6 and equal-modulus couplings, whose
    families tie exactly."""
    inputs = [(pauli_coeffs(sample_params_222(4242, k)), "")
              for k in range(1000)]
    for k in range(334):
        rho = build_rho_22d(sample_params_22d(4242, k, 3))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            inputs.append((substituted_coeffs(rho, 3, a, b), f"@{a},{b}"))
    quarter = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    couplings = [
        ((0.0,) * 4, (0.0,) * 4),
        ((1.0, 1.0, 0.0, 0.0), (0.0,) * 4),
        ((1.0, 1.0, 0.6, 0.6), (0.0,) * 4),
        ((1.0, 1.0, 0.6, 0.3), (0.0,) * 4),
        ((0.5,) * 4, (0.0,) * 4),
        ((0.5,) * 4, (math.pi / 2,) * 4),
        ((1.0,) * 4, quarter),
        ((0.7, 0.7, 0.0, 0.0), (0.0,) * 4),
    ]
    for diag in ((1.0, 1.0, 1.0, 1.0), (2.0, 0.5, 3.0, 1.5)):
        for r, phi in couplings:
            params = ChessParams222(*diag, r=r, phi=phi)
            inputs.append((pauli_coeffs(params), ""))
    inputs.append(({}, ""))
    return inputs


def test_family_minima_matches_per_entry_loop(catalog_inputs):
    for co, suffix in catalog_inputs:
        got = family_minima(co, suffix=suffix)
        want = _family_minima_loop(co, suffix=suffix)
        assert list(got) == list(want)
        for family, entry in want.items():
            # float.hex tells -0.0 from 0.0
            assert got[family]["min"].hex() == entry["min"].hex(), family
            assert got[family]["best"] == entry["best"], family
    # the zero-coupling state ties every conical entry: the first wins
    co = pauli_coeffs(ChessParams222(1.0, 1.0, 1.0, 1.0))
    least = family_minima(co)["con"]
    ties = [w for w in witness_ids() if w.startswith("con:")
            and functional(w, co)[0] == least["min"]]
    assert len(ties) == 48 and least["best"].startswith(ties[0] + ":")


def test_catalog_values_bit_equal_functional(catalog_inputs):
    base_ids = witness_ids()
    xx = np.concatenate([_coeff_columns(co) for co, _ in catalog_inputs],
                        axis=1)
    # one pass over every input at once; entry e of input p is at [e, p]
    batch = _catalog_values(xx)[0].T
    for (co, _), values in zip(catalog_inputs, batch):
        want = [functional(w, co)[0].hex() for w in base_ids]
        single = _catalog_values(_coeff_columns(co))[0][:, 0]
        assert [v.hex() for v in single.tolist()] == want
        assert [v.hex() for v in values.tolist()] == want


def test_catalog_components_bit_equal_scalar_route(catalog_inputs):
    # K is the left-to-right sum of the scalar route, zero signs included
    table = _table()
    chosen = catalog_inputs[:200] + catalog_inputs[-17:]
    xx = np.concatenate([_coeff_columns(co) for co, _ in chosen], axis=1)
    k = _catalog_values(xx)[1]
    for p, (co, _) in enumerate(chosen):
        full = {**co, _IDENTITY: 1.0}
        for e, (_, _, _, components) in enumerate(_catalog()):
            rows = table.components[e, :len(components)]
            assert [v.hex() for v in k[rows, p].tolist()] == \
                [v.hex() for v in _component_values(components, full)], e


def _stacks(d):
    """(coefficient stack, pairs, suffixes) per level structure and
    ``pairs`` setting: sampled states, states whose families tie (zero
    and equal-modulus couplings) and, at d >= 3, every level triple,
    colliding gamma included, and untied states."""
    if d == 2:
        states = [sample_params_222(77, k) for k in range(40)]
        states += [ChessParams222(1.0, 1.0, 1.0, 1.0),
                   ChessParams222(1.0, 1.0, 1.0, 1.0, r=(0.5,) * 4),
                   ChessParams222(2.0, 0.5, 3.0, 1.5, r=(1.0, 1.0, 0.6, 0.6))]
        coeffs = [pauli_coeffs(p) for p in states]
        yield (np.array([[co.get(t, 0.0) for t in COEFF_TRIPLES]
                         for co in coeffs])[:, None], ((0, 1),), [""])
        return
    groups = itertools.groupby(_level_states(d, seed=41),
                               key=lambda p: (p.alpha, p.beta, p.gamma))
    for _, group in groups:
        states = list(group)
        levels = ParamColumns.of(states).levels
        for pairs in ("all", "own"):
            pair_list, suffixes = _level_pairs(levels, pairs)
            yield _coeffs(states, pair_list), pair_list, suffixes


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stack_minima_bit_equal_per_row(d):
    n_stacks = 0
    for stack, pairs, suffixes in _stacks(d):
        families = family_minima(stack)
        groups = group_minima(families)
        for i, rows in enumerate(stack):
            fam = family_minima(rows, suffixes)
            # float.hex tells -0.0 from 0.0
            assert [families[f]["min"][i].hex() for f in FAMILY_NAMES] == \
                [fam[f]["min"].hex() for f in FAMILY_NAMES], (d, pairs, i)
            assert [groups[g][i].hex() for g in GROUP_NAMES] == \
                [group_minima(fam)[g].hex() for g in GROUP_NAMES]
        assert set(families) == set(FAMILY_NAMES)
        assert all(set(e) == {"min"} and e["min"].shape == (len(stack),)
                   for e in families.values())
        n_stacks += 1
    assert n_stacks >= (1 if d == 2 else 2 * d * d * (d - 1))


def test_stack_minima_of_tied_entries():
    # the zero-coupling state ties 48 conical entries
    tied = pauli_coeffs(ChessParams222(1.0, 1.0, 1.0, 1.0))
    other = pauli_coeffs(sample_params_222(3, 0))
    stack = np.array([[[co.get(t, 0.0) for t in COEFF_TRIPLES]]
                      for co in (other, tied, other)])
    got = family_minima(stack)["con"]["min"]
    ties = [w for w in witness_ids() if w.startswith("con:")
            and functional(w, tied)[0] == got[1]]
    assert len(ties) == 48
    assert got[1].hex() == family_minima(tied)["con"]["min"].hex()
    assert got[0].hex() == got[2].hex() == \
        family_minima(other)["con"]["min"].hex()


def test_stack_minima_checks_its_input():
    stack = _coeffs([sample_params_22d(9, k, 3) for k in range(4)],
                    ((0, 1), (0, 2), (1, 2)))
    bad = stack.copy()
    bad[2, 1, 4] = math.nan
    with pytest.raises(ValueError, match="finite"):
        family_minima(bad)
    bad[2, 1, 4] = math.inf
    with pytest.raises(ValueError, match="finite"):
        family_minima(bad)
    with pytest.raises(ValueError, match="no id suffix"):
        family_minima(stack, "@0,1")
    with pytest.raises(ValueError, match="mapping or a"):
        family_minima(stack[:, :, :14])
    empty = family_minima(stack[:0])
    assert all(e["min"].shape == (0,) for e in empty.values())


def test_group_minima_of_arrays_keeps_the_first_of_a_tie():
    # Python's min keeps its first argument unless the second is smaller
    a, b = np.array([0.0, -0.0, 1.0, 2.0]), np.array([-0.0, 0.0, 1.0, 1.5])
    families = {f: {"min": a if f == GROUP_MEMBERS[_KIND[f]][0] else b}
                for f in FAMILY_NAMES}
    got = group_minima(families)["con"]
    want = [min(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_stack_minima_pass_is_bounded(monkeypatch):
    rows = []

    def spy(xx):
        rows.append(xx.shape[1])
        return _catalog_values(xx)

    stack = _coeffs([sample_params_22d(5, k, 5) for k in range(40)],
                    tuple(itertools.combinations(range(5), 2)))
    want = family_minima(stack)
    monkeypatch.setattr("chesswit.witnesses._catalog_values", spy)
    monkeypatch.setattr("chesswit.witnesses._CATALOG_TERMS", 7 * 3072)
    got = family_minima(stack)
    assert rows == [7] * 57 + [1]
    assert all(got[f]["min"].tobytes() == want[f]["min"].tobytes()
               for f in FAMILY_NAMES)


@pytest.mark.parametrize("d,pair", [(2, (0, 1)), (3, (0, 1)), (3, (1, 2))])
def test_family_minima_takes_angles_of_the_winners_only(monkeypatch, d, pair):
    calls = []

    def counted(kind, k):
        calls.append(kind)
        return _minimize_components(kind, k)

    monkeypatch.setattr("chesswit.witnesses._minimize_components", counted)
    for index in range(5):
        rho = build_rho_22d(sample_params_22d(9, index, d))
        calls.clear()
        family_minima(substituted_coeffs(rho, d, *pair))
        assert len(calls) == len(FAMILY_NAMES)


@pytest.mark.parametrize("coeffs", [
    {(1, 1, 1): math.nan},
    {(3, 0, 0): math.inf},
    {(1, 1, 1): -math.inf, (1, 2, 2): math.inf},
    # finite coefficients whose component sums overflow
    {(1, 1, 1): 1e308, (1, 2, 2): -1e308, (2, 1, 2): 1e308},
])
def test_family_minima_rejects_non_finite_values(coeffs):
    with pytest.raises(ValueError, match="finite"):
        family_minima(coeffs)


def test_family_minima_overflow_raises_value_error_under_warnings_as_errors():
    # the overflowing sums used to warn first, so -W error turned the
    # documented ValueError into a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            family_minima({(1, 1, 1): 1e308, (1, 2, 2): -1e308,
                           (2, 1, 2): 1e308})


def test_substituted_coeffs_bits_match_per_operator_trace():
    for d, alpha, beta, gamma in ((3, 0, 2, 1), (4, 1, 3, 0)):
        rho = build_rho_22d(sample_params_22d(5, 1, d, alpha=alpha,
                                              beta=beta, gamma=gamma))
        for a in range(d):
            for b in range(a + 1, d):
                co = substituted_coeffs(rho, d, a, b)
                for t, val in co.items():
                    q = qudit_substitute(t, d, a, b)
                    assert val.hex() == float(
                        np.einsum("ij,ji->", rho, q).real).hex()


def _level_states(d, seed=12):
    """Per level triple (alpha, beta, gamma): a sampled tied state, the
    same with zero couplings, and untied states, those that are PSD."""
    for alpha, beta, gamma in itertools.product(range(d), repeat=3):
        if alpha == beta:
            continue
        levels = dict(alpha=alpha, beta=beta, gamma=gamma)
        tied = sample_params_22d(seed, d, d, **levels)
        yield tied
        yield ChessParams22d(d, alpha, beta, gamma, tied.diag)
        for index in range(3):
            untied = dataclasses.replace(
                sample_params_22d(seed, 10 + index, d, **levels), tied=False)
            try:
                build_rho_22d(untied)
            except NonPositiveError:
                continue
            yield untied


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pair_coeffs_bit_equal_matrix_route(d):
    pairs = tuple(itertools.combinations(range(d), 2))
    untied = 0
    for params in _level_states(d):
        got = _coeffs([params], pairs)[0]
        assert got.shape == (len(pairs), len(COEFF_TRIPLES))
        rho = build_rho_22d(params)
        for row, (a, b) in zip(got.tolist(), pairs):
            want = substituted_coeffs(rho, d, a, b)
            # float.hex tells -0.0 from 0.0
            assert [v.hex() for v in row] == \
                [want[t].hex() for t in COEFF_TRIPLES], (params, a, b)
        untied += not params.tied
    assert untied >= d * (d - 1)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pair_coeffs_of_a_stack_bit_equal_per_state(d):
    # one (N, P, 15) gather over the states of one level structure is
    # the per-state gather and the matrix route, row by row
    pairs = tuple(itertools.combinations(range(d), 2))
    groups = itertools.groupby(_level_states(d, seed=31),
                               key=lambda p: (p.alpha, p.beta, p.gamma))
    for _, group in groups:
        states = list(group)
        got = _coeffs(states, pairs)
        assert got.shape == (len(states), len(pairs), len(COEFF_TRIPLES))
        for params, rows in zip(states, got.tolist()):
            alone = _coeffs([params], pairs)[0].tolist()
            rho = build_rho_22d(params)
            for row, row_alone, (a, b) in zip(rows, alone, pairs):
                want = substituted_coeffs(rho, d, a, b)
                assert [v.hex() for v in row] == \
                    [v.hex() for v in row_alone] == \
                    [want[t].hex() for t in COEFF_TRIPLES], (params, a, b)


def test_pair_coeffs_needs_one_level_structure():
    states = [sample_params_22d(1, 0, 3), sample_params_22d(1, 1, 3, beta=1)]
    with pytest.raises(ValueError, match="must share dim, alpha, beta"):
        ParamColumns.of(states)


def test_substituted_coeffs_match_trace():
    params = sample_params_22d(7, 3, dim=3)
    rho = build_rho_22d(params)
    co = substituted_coeffs(rho, 3, 0, 2)
    for t, val in co.items():
        honest = np.trace(rho @ qudit_substitute(t, 3, 0, 2))
        assert abs(val - honest.real) < 1e-12
        assert abs(honest.imag) < 1e-12


# --- product-state minimization -------------------------------------------------


def test_minimizer_pauli_triple_floor():
    value, factors = min_expectation_over_products(okron3((3, 3, 3)),
                                                   starts=16)
    assert value == pytest.approx(-1.0, abs=1e-9)
    s = np.kron(np.kron(factors[0], factors[1]), factors[2])
    honest = (s.conj() @ okron3((3, 3, 3)) @ s).real
    assert honest == pytest.approx(value, abs=1e-10)


def test_minimizer_shifted_floor():
    w = okron3((0, 0, 0)) + okron3((3, 3, 3))
    value, _ = min_expectation_over_products(w, starts=16)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_minimizer_deterministic_and_monotone():
    w = build_witness("con:333:221:0:+", psi=0.9)
    v1, f1 = min_expectation_over_products(w, starts=8, seed=3)
    v2, f2 = min_expectation_over_products(w, starts=8, seed=3)
    assert v1 == v2
    for a, b in zip(f1, f2):
        np.testing.assert_array_equal(a, b)
    v64, _ = min_expectation_over_products(w, starts=64, seed=3)
    assert v64 <= v1 + 1e-15


def _initial_factors_loop(dims, starts, seed):
    """Initial factors drawn party by party: d_p real parts, then d_p
    imaginary parts, each vector normalized on its own."""
    factors = [np.empty((starts, dp), dtype=np.complex128) for dp in dims]
    for s in range(starts):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), s)))
        for p, dp in enumerate(dims):
            vec = rng.normal(size=dp) + 1j * rng.normal(size=dp)
            factors[p][s] = vec / np.linalg.norm(vec)
    return factors


def _seesaw_einsum(w, dims=(2, 2, 2), starts=64, iters=150, seed=0,
                   tol=1e-12):
    """Reference see-saw: each party's effective operator by one einsum
    over the unblocked (d1, d2, d3, d1, d2, d3) witness."""
    w6 = np.asarray(w, dtype=np.complex128).reshape(*dims, *dims)
    factors = _initial_factors_loop(dims, starts, seed)
    contractions = {
        0: "sb,sc,abcxyz,sy,sz->sax",
        1: "sa,sc,abcxyz,sx,sz->sby",
        2: "sa,sb,abcxyz,sx,sy->scz",
    }
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    energies = np.full(starts, np.inf)
    for _ in range(iters):
        previous = energies.copy()
        for p in range(3):
            o1, o2 = others[p]
            h = np.einsum(contractions[p],
                          factors[o1].conj(), factors[o2].conj(),
                          w6, factors[o1], factors[o2], optimize=True)
            h = (h + h.conj().transpose(0, 2, 1)) / 2.0
            eigvals, eigvecs = np.linalg.eigh(h)
            factors[p] = np.ascontiguousarray(eigvecs[:, :, 0])
            energies = eigvals[:, 0].copy()
        if np.all(np.abs(energies - previous) < tol):
            break
    best = int(np.argmin(energies))
    return float(energies[best]), [f[best].copy() for f in factors]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 5)])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63])
def test_initial_factors_match_per_party_draws(dims, seed):
    # one normal draw per start is the same stream as the per-party draws
    got = _initial_factors(dims, 24, seed)
    want = _initial_factors_loop(dims, 24, seed)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_seesaw_matches_einsum_oracle():
    rng = np.random.default_rng(2024)
    ids = {2: witness_ids(2), 3: witness_ids(3)}
    verdicts = set()
    for case in range(208):
        d = 2 + case % 2
        wid = ids[d][int(rng.integers(len(ids[d])))]
        w = build_witness(wid, psi=rng.uniform(0.0, 2.0 * math.pi),
                          eta=rng.uniform(0.0, math.pi),
                          zeta=rng.uniform(0.0, 2.0 * math.pi), d=d)
        if case % 4 >= 2:      # shifted below zero on some product states
            w = w - rng.uniform(0.0, 0.5) * np.eye(4 * d)
        dims = (2, 2, d)
        starts = int(rng.integers(1, 65))
        seed = int(rng.integers(0, 2**63))
        value, factors = min_expectation_over_products(
            w, dims=dims, starts=starts, seed=seed)
        want, _ = _seesaw_einsum(w, dims=dims, starts=starts, seed=seed)
        assert abs(value - want) <= 1e-12, (wid, value, want)
        assert (value >= -1e-7) == (want >= -1e-7), (wid, value, want)
        verdicts.add(value >= -1e-7)
        s = np.kron(np.kron(factors[0], factors[1]), factors[2])
        assert abs((s.conj() @ w @ s).real - value) <= 1e-12, wid
    assert verdicts == {True, False}


def _hermitian_2x2_cases():
    """(n, 4) rows (h00, h01, h10, h11) of Hermitian 2x2 matrices: random
    at scales 1e-8..1e8, exactly and nearly degenerate, diagonal with
    a < d and a > d, and purely imaginary off-diagonal entries."""
    rng = np.random.default_rng(77)
    blocks = []

    def rows(a, d, b):
        a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
        b = np.asarray(b, dtype=complex)
        return np.stack([a + 0j, b, b.conj(), d + 0j], axis=1)

    for scale in 10.0 ** np.arange(-8, 9):
        n = 64
        blocks.append(scale * rows(rng.normal(size=n), rng.normal(size=n),
                                   rng.normal(size=n)
                                   + 1j * rng.normal(size=n)))
    c = np.concatenate([[0.0, 1.0, -1.0, 1e-8, -3e8], rng.normal(size=20)])
    blocks.append(rows(c, c, np.zeros_like(c)))                  # H = cI
    for rel in (1e-17, 1e-15, 1e-12, 1e-8):
        n = 32
        c = rng.normal(size=n)
        blocks.append(rows(c + rel * rng.normal(size=n), c,
                           rel * (rng.normal(size=n)
                                  + 1j * rng.normal(size=n))))
    a, d = rng.normal(size=(2, 64))
    blocks.append(rows(np.minimum(a, d), np.maximum(a, d), np.zeros(64)))
    blocks.append(rows(np.maximum(a, d), np.minimum(a, d), np.zeros(64)))
    blocks.append(rows(a, d, 1j * rng.normal(size=64)))
    blocks.append(rows(a, a, 1j * rng.normal(size=64)))
    return np.concatenate(blocks)


def test_lowest_eigenpair_2x2_matches_eigh():
    h = _hermitian_2x2_cases()
    lam, vec = _lowest_eigenpair_2x2(h)
    mats = h.reshape(-1, 2, 2)
    want = np.linalg.eigh(mats)[0]
    eps = np.finfo(float).eps
    norm = np.abs(want).max(axis=1)                  # spectral norm of H
    assert np.all(np.abs(lam - want[:, 0]) <= 4 * eps * norm)
    residual = mats @ vec[:, :, None] - lam[:, None, None] * vec[:, :, None]
    assert np.all(np.linalg.norm(residual[:, :, 0], axis=1) <= 8 * eps * norm)
    assert np.all(np.abs(np.linalg.norm(vec, axis=1) - 1.0) <= 1e-15)
    scalar = (h[:, 0] == h[:, 3]) & (h[:, 1] == 0)
    np.testing.assert_array_equal(vec[scalar], [[1.0, 0.0]] * scalar.sum())


def test_lowest_eigenpair_2x2_takes_the_hermitian_part():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    lam, vec = _lowest_eigenpair_2x2(h)
    mats = h.reshape(-1, 2, 2)
    mats = (mats + mats.conj().transpose(0, 2, 1)) / 2.0
    vals, vecs = np.linalg.eigh(mats)
    np.testing.assert_allclose(lam, vals[:, 0], rtol=0, atol=1e-14)
    overlap = np.abs(np.sum(vecs[:, :, 0].conj() * vec, axis=1))
    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-12)


def test_seesaw_calls_eigh_only_for_qudit_parties(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    min_expectation_over_products(build_witness("con:333:122:0:+", psi=0.3),
                                  starts=8, iters=5)
    assert calls == []
    w = build_witness("con:333:122:0:+@0,2", psi=0.3, d=3)
    min_expectation_over_products(w, dims=(2, 2, 3), starts=8, iters=5,
                                  tol=0.0)
    assert calls == [(8, 3, 3)] * 5


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": math.nan}, "tol must be finite and >= 0, got nan"),
    ({"tol": math.inf}, "tol must be finite and >= 0, got inf"),
    ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
    ({"tol": -1e-300}, "tol must be finite and >= 0"),
    ({"iters": 0}, "iters must be >= 1, got 0"),
    ({"iters": -3}, "iters must be >= 1, got -3"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"seed": "7"}, "seed must be a non-negative integer, got '7'"),
])
def test_minimizer_rejects_bad_controls(kwargs, message):
    # a NaN or negative tol never stopped the passes early; seed 1.5 was
    # truncated to 1 and seed -1 failed inside numpy without naming it
    with pytest.raises(ValueError, match=message):
        min_expectation_over_products(np.eye(8), starts=2, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(dims=(2, 2, 2.5)), "dims[2] must be an integer, got 2.5"),
    (dict(starts=2.7), "starts must be an integer, got 2.7"),
    (dict(iters=3.9), "iters must be an integer, got 3.9"),
])
def test_minimizer_rejects_non_integer_sizes(kwargs, message):
    # int() used to run these as 2, 2 and 3
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        min_expectation_over_products(np.eye(8), **kwargs)


def test_build_witness_rejects_non_integer_d():
    # int() used to build an 8x8 witness for d = 2.5
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.5$"):
        build_witness("poly1:0000", d=2.5)
    assert build_witness("poly1:0000@1,2", d=np.int64(3)).shape == (12, 12)


def test_substituted_coeffs_rejects_non_integer_d():
    # int() used to read an 8x8 state as d = 2 for d = 2.9
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.9$"):
        substituted_coeffs(np.eye(8) / 8.0, 2.9, 0, 1)


def test_validate_witness_rejects_zero_iters():
    # zero passes left the minimum at +inf, a "valid" verdict for -I
    with pytest.raises(ValueError, match="iters must be >= 1"):
        validate_witness(-np.eye(8), iters=0)


def test_minimizer_accepts_numpy_integer_seed():
    w = build_witness("poly1:0110")
    assert (min_expectation_over_products(w, starts=4, seed=np.uint64(9))[0]
            == min_expectation_over_products(w, starts=4, seed=9)[0])


def test_minimizer_rejects_bad_input():
    with pytest.raises(ValueError):
        min_expectation_over_products(np.eye(8), dims=(2, 2))
    with pytest.raises(ValueError):
        min_expectation_over_products(np.eye(7), dims=(2, 2, 2))
    w = np.zeros((8, 8), dtype=complex)
    w[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        min_expectation_over_products(w)
    with pytest.raises(ValueError):
        min_expectation_over_products(np.eye(8), starts=0)
    for bad in (math.nan, math.inf, -math.inf):
        w = np.eye(8, dtype=complex)
        w[3, 3] = bad      # NaN slipped through the Hermiticity gate
        with pytest.raises(ValueError, match="finite"):
            min_expectation_over_products(w)


@pytest.mark.parametrize("dims", [(2, 2, 0), (0, 2, 2), (2, 2, -1)])
def test_minimizer_rejects_non_positive_dims(dims):
    # a zero entry passed the shape gate and failed in a numpy reduction
    size = max(0, math.prod(dims))
    with pytest.raises(ValueError, match=r"dims entries must be >= 1, got \("):
        min_expectation_over_products(np.zeros((size, size)), dims=dims)


def test_witness_angles_by_family():
    assert witness_angles("poly1:0000") == ()
    assert witness_angles("poly2:0110@0,2") == ()
    assert witness_angles("con:333:122:0:+") == ("psi",)
    assert witness_angles("cylp:300:211:01") == ("psi",)
    assert witness_angles("sph:300:122:0") == ("eta", "zeta")
    with pytest.raises(ValueError, match="malformed witness id"):
        witness_angles("bogus")


@pytest.mark.parametrize("tol", [math.nan, math.inf, -5.0, -1e-300])
def test_validate_witness_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        validate_witness(build_witness("poly1:0000"), tol=tol, starts=4)


@pytest.mark.parametrize("wid, angle", [
    ("con:333:122:0:+", "psi"),
    ("cyl:300:122:01", "psi"),
    ("sph:030:212:1", "eta"),
    ("sphp:300:211:0", "zeta"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_witness_rejects_non_finite_angle(wid, angle, bad):
    angles = {"psi": 0.3} if angle == "psi" else {"eta": 1.1, "zeta": 3.0}
    angles[angle] = bad
    with pytest.raises(ValueError, match=f"angle {angle} must be finite"):
        build_witness(wid, **angles)


def test_validate_witness_samples():
    cases = [
        ("poly1:0000", {}),
        ("poly1:1011", {}),
        ("poly2:0101", {}),
        ("con:333:221:0:+", {"psi": 0.9}),
        ("conp:330:112:1:-", {"psi": 4.2}),
        ("cyl:300:122:01", {"psi": 2.2}),
        ("cylp:003:121:10", {"psi": 0.4}),
        ("sph:030:212:1", {"eta": 1.1, "zeta": 3.0}),
        ("sphp:300:211:0", {"eta": 2.5, "zeta": 0.7}),
    ]
    for wid, angles in cases:
        w = build_witness(wid, **angles)
        ok, value, _ = validate_witness(w, starts=32)
        assert ok, (wid, value)
        assert value >= -1e-7


def test_validate_witness_flags_negative_operator():
    w = okron3((3, 3, 3)) * 1.0  # attains -1 on products
    ok, value, factors = validate_witness(w, starts=16)
    assert not ok
    assert value == pytest.approx(-1.0, abs=1e-8)
    s = np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert (s.conj() @ w @ s).real == pytest.approx(value, abs=1e-9)


def test_validate_qudit_witness():
    w = build_witness("con:333:221:0:+@0,2", psi=0.7, d=3)
    ok, value, _ = validate_witness(w, dims=(2, 2, 3), starts=24)
    assert ok, value


# --- property-based spot checks --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_detect_consistency_property(index):
    params = random_params(index, seed=31415)
    report = detect(params)
    fam = family_minima(pauli_coeffs(params))
    for name in FAMILY_NAMES:
        assert report.families[name]["min"] == fam[name]["min"]
    assert report.detected == any(
        v < 0 for v in report.group_minima.values())
    assert report.group_minima["poly"] == min(
        fam["poly1"]["min"], fam["poly2"]["min"])


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_closed_expectation_property(index, psi):
    params = random_params(index, seed=2718)
    rho = build_rho_222(params)
    co = pauli_coeffs(params)
    for wid in ("con:033:122:1:+", "cylp:030:112:11"):
        w = build_witness(wid, psi=psi)
        assert abs(float(np.trace(rho @ w).real)
                   - expectation_closed(wid, co, psi=psi)) < 1e-12


# --- direct expectation ------------------------------------------------------


def test_expectation_matches_trace():
    params = sample_params_222(31, 4)
    rho = build_rho_222(params)
    for wid in ("poly1:1101", "con:333:122:0:+"):
        w = build_witness(wid, psi=0.7)
        want = float(np.trace(w @ rho).real)
        assert expectation(w, rho) == pytest.approx(want, abs=1e-14)


def test_expectation_rejects_bad_input():
    w8 = build_witness("poly1:1101")
    with pytest.raises(ValueError):
        expectation(w8, np.eye(4) / 4)
    # non-Hermitian inputs give a complex trace and are rejected
    upper = np.zeros((8, 8), dtype=complex)
    upper[0, 1] = 1.0
    rho = np.zeros((8, 8), dtype=complex)
    rho[1, 0] = 1j
    with pytest.raises(ValueError):
        expectation(upper, rho)
