"""Tests for product-state functional geometry: Bloch identities,
operator triples, containment regions, and exact boundary sweeps."""

import hashlib
import math
import re
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chesswit.frgeom import (
    GEOMETRIES,
    ProductState,
    boundary_curve_check,
    containment_report,
    feasible_region_check,
    functional_points,
    qset,
    qubit_state,
    region_excess,
    region_points,
    sample_factors,
    _terms,
)
from chesswit.tensorops import _bloch, qudit_substitute
from chesswit.witnesses import _spec

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (I2, SX, SY, SZ)


def okron3(t):
    return np.kron(np.kron(PAULIS[t[0]], PAULIS[t[1]]), PAULIS[t[2]])


# --- states ---------------------------------------------------------------------


def test_qubit_state_values():
    np.testing.assert_allclose(qubit_state(0.0, 0.0), [1, 0], atol=1e-15)
    np.testing.assert_allclose(qubit_state(math.pi, 0.3),
                               [0, np.exp(0.3j)], atol=1e-15)
    np.testing.assert_allclose(qubit_state(math.pi / 2, 0.0),
                               [1 / math.sqrt(2), 1 / math.sqrt(2)],
                               atol=1e-15)
    # angles beyond [0, pi] are evaluated as written
    v = qubit_state(3 * math.pi / 2, 0.0)
    np.testing.assert_allclose(v, [-1 / math.sqrt(2), 1 / math.sqrt(2)],
                               atol=1e-15)


def test_qubit_state_vectorized():
    thetas = np.linspace(0, 2 * math.pi, 7)
    phis = np.linspace(0, 2 * math.pi, 7)
    block = qubit_state(thetas, phis)
    assert block.shape == (7, 2)
    for row, (t, p) in zip(block, zip(thetas, phis)):
        np.testing.assert_allclose(row, qubit_state(t, p), atol=1e-15)


def test_product_state_vector():
    ps = ProductState((0.3, 1.1, 2.0), (0.5, 4.0, 1.5))
    v = ps.vector()
    manual = np.kron(np.kron(qubit_state(0.3, 0.5), qubit_state(1.1, 4.0)),
                     qubit_state(2.0, 1.5))
    np.testing.assert_allclose(v, manual, atol=1e-15)
    assert abs(np.linalg.norm(v) - 1) < 1e-14


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState((0.0, 0.0), (0.0, 0.0, 0.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
                min_size=6, max_size=6))
def test_bloch_identities(angles):
    thetas, phis = tuple(angles[:3]), tuple(angles[3:])
    v = ProductState(thetas, phis).vector()
    s_all = math.prod(math.sin(t) for t in thetas)
    checks = {
        (3, 3, 3): math.prod(math.cos(t) for t in thetas),
        (1, 1, 1): s_all * math.prod(math.cos(p) for p in phis),
    }
    for t, expected in checks.items():
        got = (v.conj() @ okron3(t) @ v).real
        assert abs(got - expected) < 1e-12
    # combination identities used by the sweeps
    p2 = (v.conj() @ (okron3((1, 1, 1)) + okron3((1, 2, 2))) @ v).real
    assert abs(p2 - s_all * math.cos(phis[0]) * math.cos(phis[1] - phis[2])) \
        < 1e-12
    p3m = (v.conj() @ (okron3((2, 1, 2)) - okron3((2, 2, 1))) @ v).real
    assert abs(p3m - s_all * math.sin(phis[0]) * math.sin(phis[2] - phis[1])) \
        < 1e-12
    p3p = (v.conj() @ (okron3((2, 1, 2)) + okron3((2, 2, 1))) @ v).real
    assert abs(p3p - s_all * math.sin(phis[0]) * math.sin(phis[1] + phis[2])) \
        < 1e-12


# --- operator triples -------------------------------------------------------------


def test_qset_members():
    expected = {
        "polygon": (okron3((3, 3, 3)),
                    okron3((1, 1, 1)) + okron3((1, 2, 2)),
                    okron3((2, 1, 2)) - okron3((2, 2, 1))),
        "cone": (okron3((3, 3, 3)),
                 okron3((1, 1, 1)) + okron3((1, 2, 2)),
                 okron3((2, 1, 2)) + okron3((2, 2, 1))),
        "cylinder": (okron3((3, 0, 0)),
                     okron3((1, 1, 1)) + okron3((1, 2, 2)),
                     okron3((2, 1, 2)) - okron3((2, 2, 1))),
        "sphere": (okron3((3, 0, 0)),
                   okron3((1, 1, 1)) + okron3((1, 2, 2)),
                   okron3((2, 1, 2)) + okron3((2, 2, 1))),
    }
    for geometry in GEOMETRIES:
        qs = qset(geometry)
        for got, want in zip(qs, expected[geometry]):
            np.testing.assert_allclose(got, want, atol=1e-15)


def _fold_operators(geometry, d, alpha, beta):
    """Oracle: each Q of ``qset`` as the left fold of its s * Q_t."""
    out = []
    for terms in _terms(geometry):
        total = None
        for s, t in terms:
            q = s * qudit_substitute(t, d, alpha, beta)
            total = q if total is None else total + q
        out.append(total)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qset_bytes_are_the_signed_left_fold(d):
    for geometry in GEOMETRIES:
        for alpha in range(d):
            for beta in range(alpha + 1, d):
                got = qset(geometry, d, alpha, beta)
                want = _fold_operators(geometry, d, alpha, beta)
                assert [q.tobytes() for q in got] == \
                    [q.tobytes() for q in want], (geometry, alpha, beta)


def test_qset_qudit_shape_and_unknown():
    qs = qset("sphere", d=3, alpha=0, beta=2)
    assert all(q.shape == (12, 12) for q in qs)
    with pytest.raises(ValueError):
        qset("torus")


# --- functional points -------------------------------------------------------------


def _functional_points_matrix(geometry, factors, alpha=0, beta=1):
    """Oracle: <s|Q|s> of the full product vector s = f1 (x) f2 (x) f3
    for each dense operator of ``qset``."""
    f1, f2, f3 = factors
    qs = qset(geometry, d=f3.shape[1], alpha=alpha, beta=beta)
    s = (f1[:, :, None, None] * f2[:, None, :, None]
         * f3[:, None, None, :]).reshape(len(f1), -1)
    return np.stack([np.einsum("mx,xy,my->m", s.conj(), q, s).real
                     for q in qs], axis=1)


def test_functional_points_against_loop():
    # 10^4 sampled states per (d, pair, geometry), plus third factors
    # entirely outside the pair's subspace and ones split across it
    cases = {2: [(0, 1)], 3: [(0, 1), (0, 2), (1, 2)], 4: [(0, 3), (1, 2)]}
    for d, pairs in cases.items():
        f1, f2, f3 = sample_factors(10_000, seed=5, d=d)
        for alpha, beta in pairs:
            f3_pair = f3.copy()
            if d > 2:
                outside = [k for k in range(d) if k not in (alpha, beta)]
                f3_pair[:500] = 0.0
                f3_pair[:500, outside[0]] = 1.0
                f3_pair[500:1000, (alpha, beta)] = 0.0
                f3_pair[500:1000] /= np.linalg.norm(f3_pair[500:1000], axis=1,
                                                    keepdims=True)
            for geometry in GEOMETRIES:
                factors = (f1, f2, f3_pair)
                got = functional_points(geometry, factors, alpha, beta)
                want = _functional_points_matrix(geometry, factors, alpha,
                                                 beta)
                assert got.shape == (10_000, 3)
                assert np.abs(got - want).max() <= 1e-13, (d, alpha, beta,
                                                           geometry)


def _accumulated_points(geometry, factors, alpha=0, beta=1):
    """Oracle: each column of ``functional_points`` accumulated from its
    first Bloch product, adding a positive term and subtracting a
    negative one."""
    f1, f2, f3 = factors
    e = (_bloch(f1[:, 0], f1[:, 1]), _bloch(f2[:, 0], f2[:, 1]),
         _bloch(f3[:, alpha], f3[:, beta]))
    columns = []
    for terms in _terms(geometry):
        total = None
        for sign, triple in terms:
            term = reduce(mul, [e[p][t] for p, t in enumerate(triple) if t])
            if total is None:
                total = term if sign > 0 else -term
            else:
                total = total + term if sign > 0 else total - term
        columns.append(total)
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_functional_points_bytes_equal_accumulated_terms(d):
    f1, f2, f3 = sample_factors(2000, seed=13, d=d)
    f3[:100] = 0.0
    f3[:100, d - 1] = 1.0  # outside (0, 1) for d > 2: zero coordinates
    for geometry in GEOMETRIES:
        for alpha in range(d):
            for beta in range(alpha + 1, d):
                factors = (f1, f2, f3)
                got = functional_points(geometry, factors, alpha, beta)
                want = _accumulated_points(geometry, factors, alpha, beta)
                assert got.tobytes() == want.tobytes(), (geometry, alpha,
                                                         beta)


def test_functional_points_bloch_form():
    # the sphere's points in the per-party coordinates of its identity
    f1, f2, f3 = sample_factors(50, seed=2)
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (
        [(f.conj()[:, :, None] * pauli * f[:, None, :]).sum(axis=(1, 2))
         .real for pauli in PAULIS[1:]]
        for f in (f1, f2, f3))
    pts = functional_points("sphere", (f1, f2, f3))
    np.testing.assert_allclose(pts[:, 0], z1, atol=1e-15)
    np.testing.assert_allclose(pts[:, 1], x1 * (x2 * x3 + y2 * y3),
                               atol=1e-15)
    np.testing.assert_allclose(pts[:, 2], y1 * (x2 * y3 + y2 * x3),
                               atol=1e-15)


def test_functional_points_rejects_bad_geometry_and_levels():
    factors = sample_factors(3, seed=0, d=3)
    with pytest.raises(ValueError, match="unknown geometry"):
        functional_points("torus", factors)
    for alpha, beta, message in (
            (0, 3, "beta must be 1..2, got 3"),
            (2, 1, "alpha must be 0..1, got 2"),
            (1, 1, "beta must be 2..2, got 1"),
            (-1, 2, "alpha must be 0..1, got -1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            functional_points("cone", factors, alpha, beta)


@pytest.mark.parametrize("make, message", [
    # read silently from the first two amplitudes
    (lambda f1, f2, f3: (np.zeros((3, 3)), f2, f3),
     "factors[0] must have shape (3, 2), got (3, 3)"),
    # numpy's "operands could not be broadcast"
    (lambda f1, f2, f3: (f1, f2[:2], f3),
     "factors[1] must have shape (3, 2), got (2, 2)"),
    # an IndexError
    (lambda f1, f2, f3: (f1[:, 0], f2, f3),
     "factors[0] must have shape (n, 2), got (3,)"),
    (lambda f1, f2, f3: (f1, f2, f3[0]),
     "factors[2] must have shape (3, d) with d >= 2, got (3,)"),
    # "d must be >= 2, got 1", naming a d that functional_points does not take
    (lambda f1, f2, f3: (f1, f2, f3[:, :1]),
     "factors[2] must have shape (3, d) with d >= 2, got (3, 1)"),
], ids=["wide-qubit", "row-counts", "1-D-first", "1-D-third",
        "one-level-third"])
def test_functional_points_rejects_factors_of_the_wrong_shape(make, message):
    factors = make(*sample_factors(3, seed=0, d=3))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        functional_points("sphere", factors)


# sha256 of the concatenated bytes of sample_factors(n, seed, d): these
# are the states feasible_region_check checks, so they must not drift
SAMPLE_FACTOR_PINS = {
    (20000, 11, 2):
        "7b99808d9c3db11248934873eb56054d1d04641458f4bd989bb93288faabcf9e",
    (70000, 7, 2):
        "7ba68edf6735b84e69594f439fff1443895610598de2bb7f8e39e269e61e0847",
    (5000, 3, 3):
        "2372dca956c0b8dbeb403eff032dc6cd6de661ec966256ca32c2167287219808",
    (100, 1, 4):
        "a96b8c1079fe521b1903fb079b5695b03444e4b37c7bb67c2be93e8e7a540737",
}


@pytest.mark.parametrize("n, seed, d", sorted(SAMPLE_FACTOR_PINS))
def test_sample_factors_pinned_bytes(n, seed, d):
    digest = hashlib.sha256()
    for block in sample_factors(n, seed=seed, d=d):
        assert block.dtype == np.complex128 and block.flags.c_contiguous
        digest.update(block.tobytes())
    assert digest.hexdigest() == SAMPLE_FACTOR_PINS[(n, seed, d)]


def test_sample_factors_shapes_and_norms():
    f1, f2, f3 = sample_factors(100, seed=1, d=4)
    assert f1.shape == (100, 2) and f2.shape == (100, 2)
    assert f3.shape == (100, 4)
    for block in (f1, f2, f3):
        np.testing.assert_allclose(np.linalg.norm(block, axis=1), 1.0,
                                   atol=1e-12)
    again = sample_factors(100, seed=1, d=4)
    np.testing.assert_array_equal(f3, again[2])


def test_sample_factors_rejects_negative_n():
    # numpy's "negative dimensions are not allowed" named neither
    with pytest.raises(ValueError, match="n must be >= 0, got -5"):
        sample_factors(-5)
    assert [f.shape for f in sample_factors(0)] == [(0, 2), (0, 2), (0, 2)]


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=2.5), "n must be an integer, got 2.5"),
    (dict(n=3, d=3.5), "d must be an integer, got 3.5"),
    # d = -1 failed in numpy; d = 0 and 1 drew (3, 0) and (3, 1) factors
    (dict(n=3, d=-1), "d must be >= 2, got -1"),
    (dict(n=3, d=0), "d must be >= 2, got 0"),
    (dict(n=3, d=1), "d must be >= 2, got 1"),
])
def test_sample_factors_rejects_non_integer_sizes(kwargs, message):
    # int() used to draw 2 states for n = 2.5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_factors(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=3.9), "n must be an integer, got 3.9"),
    (dict(n=50, d=3.0), "d must be an integer, got 3.0"),
])
def test_feasible_region_rejects_non_integer_sizes(kwargs, message):
    # int() used to report 3 samples for n = 3.9
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        feasible_region_check("cone", **kwargs)


def test_qset_rejects_non_integer_d():
    # int() used to build 12 x 12 operators for d = 3.5
    with pytest.raises(ValueError, match=r"^d must be an integer, got 3\.5$"):
        qset("cone", d=3.5)


@pytest.mark.parametrize("kwargs, message", [
    (dict(alpha=0.5, beta=2), "alpha must be an integer, got 0.5"),
    (dict(alpha=0, beta=2.0), "beta must be an integer, got 2.0"),
])
def test_feasible_region_rejects_non_integer_levels(kwargs, message):
    # a float level used to fail inside numpy with a bare IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        feasible_region_check("cone", n=50, d=3, **kwargs)


# --- regions ------------------------------------------------------------------------


def test_region_excess_hand_points():
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.6, 0.5, 0.0],
        [0.5, 0.4, 0.3],
        [0.0, 0.8, 0.8],
        [0.0, 0.5, 0.5],
        [0.6, 0.48, 0.64],
    ])
    ex_poly = region_excess("polygon", pts)
    assert ex_poly[0] == pytest.approx(-1.0)
    assert ex_poly[1] == pytest.approx(0.0, abs=1e-15)
    assert ex_poly[2] == pytest.approx(0.1)
    ex_cone = region_excess("cone", pts)
    assert ex_cone[3] == pytest.approx(0.0, abs=1e-15)
    assert ex_cone[4] == pytest.approx(0.8 * math.sqrt(2) - 1.0)
    ex_cyl = region_excess("cylinder", pts)
    assert ex_cyl[5] == pytest.approx(0.0, abs=1e-15)
    ex_sph = region_excess("sphere", pts)
    assert ex_sph[6] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        region_excess("torus", pts)


@pytest.mark.parametrize("shape", [(3, 2), (3, 4), (2, 3, 3), (2,), ()])
def test_region_points_of_the_wrong_shape_are_rejected(shape):
    message = f"points must have shape (3,) or (n, 3), got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        region_excess("sphere", np.zeros(shape))


@pytest.mark.parametrize("geometry, representative, triples", [
    ("polygon", "poly1:0000", (("333",), ("111", "122"), ("212", "-221"))),
    ("cone", "con:333:122:0:+", (("333",), ("111", "122"), ("212", "221"))),
    ("cylinder", "cyl:300:122:00",
     (("300",), ("111", "122"), ("212", "-221"))),
    ("sphere", "sph:300:122:0", (("300",), ("111", "122"), ("212", "221"))),
])
def test_region_operators_are_the_representatives_terms(geometry,
                                                        representative,
                                                        triples):
    # the representative's non-identity terms, split 1 + 2 + 2 in
    # catalog order, are the region's operator table
    terms = [term for component in _spec(representative)[1]
             for term in component if term[1] != (0, 0, 0)]
    assert _terms(geometry) == (tuple(terms[:1]), tuple(terms[1:3]),
                                tuple(terms[3:]))
    assert _terms(geometry) == tuple(
        tuple((-1.0 if s.startswith("-") else 1.0,
               tuple(int(ch) for ch in s.lstrip("-"))) for s in column)
        for column in triples)


def test_contains_mask():
    pts = np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]])
    mask = region_excess("sphere", pts) <= 1e-9
    assert mask.tolist() == [True, False]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_feasible_region_sampled(geometry):
    out = feasible_region_check(geometry, n=20000, seed=11)
    assert out["violations"] == 0
    assert out["max_excess"] <= 1e-9
    # deterministic
    again = feasible_region_check(geometry, n=20000, seed=11)
    assert again["max_excess"] == out["max_excess"]


def test_containment_report_counts_an_empty_chunk_as_no_samples():
    # an empty chunk has no excess to report; it raised numpy's
    # zero-size reduction error
    empty = np.zeros((0, 3))
    out = containment_report("sphere", [empty])
    assert (out["samples"], out["violations"], out["max_excess"]) == \
        (0, 0, -math.inf)
    points = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 2.0]])
    assert containment_report("sphere", [empty, points, empty]) == \
        containment_report("sphere", [points])


def test_containment_report_checks_the_geometry_before_any_chunk():
    # an unknown geometry used to come back as a report of that name
    def chunks():
        pytest.fail("a chunk was read")
        yield

    for points in ([], chunks()):
        with pytest.raises(ValueError, match="^unknown geometry 'torus'"):
            containment_report("torus", points)


@pytest.mark.parametrize("n", [0, -3])
def test_feasible_region_rejects_empty_sample(n):
    # with no states there is no largest excess to report
    with pytest.raises(ValueError):
        feasible_region_check("cone", n=n)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_feasible_region_rejects_bad_tol(tol):
    # NaN counted no violation and -1 counted every state as one
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        feasible_region_check("cone", n=50, tol=tol)


@pytest.mark.parametrize("seed, shown", [(-1, "-1"), (1.5, "1.5"),
                                         ("7", "'7'")])
def test_feasible_region_rejects_bad_seed(seed, shown):
    # 1.5 was truncated to 1; -1 failed inside numpy without naming it
    message = f"seed must be a non-negative integer, got {shown}"
    with pytest.raises(ValueError, match=message):
        feasible_region_check("cone", n=50, seed=seed)
    with pytest.raises(ValueError, match=message):
        sample_factors(50, seed=seed)


def test_feasible_region_accepts_numpy_integer_seed():
    assert (feasible_region_check("cone", n=50, seed=np.uint64(4))
            == feasible_region_check("cone", n=50, seed=4))


def test_feasible_region_rejects_bad_geometry_and_levels():
    with pytest.raises(ValueError, match="unknown geometry"):
        feasible_region_check("torus", n=50)
    with pytest.raises(ValueError, match=r"^beta must be 2\.\.2, got 3$"):
        feasible_region_check("cone", n=50, d=3, alpha=1, beta=3)
    # the levels are named as the caller names them; this read
    # "need 0 <= a < b < d, got a=2, b=1, d=3"
    with pytest.raises(ValueError, match=r"^alpha must be 0\.\.1, got 2$"):
        region_points("sphere", 5, d=3, alpha=2, beta=1)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_feasible_region_qudit(geometry):
    out = feasible_region_check(geometry, n=5000, seed=3, d=3, alpha=0, beta=2)
    assert out["violations"] == 0
    assert out["max_excess"] <= 1e-9


def test_outside_subspace_shrinks_points():
    f1 = np.array([[1.0, 0.0]], dtype=complex)
    f2 = np.array([[0.6, 0.8]], dtype=complex)
    f3 = np.array([[0.0, 1.0, 0.0]], dtype=complex)  # level outside (0, 2)
    # polygon/cone probes touch the third party in every member, so a
    # third factor orthogonal to the subspace collapses to the origin
    for geometry in ("polygon", "cone"):
        pts = functional_points(geometry, (f1, f2, f3), alpha=0, beta=2)
        np.testing.assert_allclose(pts, 0.0, atol=1e-15)
    # the quadric probes keep their first member sigma_z (x) I (x) I
    pts = functional_points("sphere", (f1, f2, f3), alpha=0, beta=2)
    np.testing.assert_allclose(pts, [[1.0, 0.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_boundary_sweeps_exact(geometry):
    out = boundary_curve_check(geometry, samples=801)
    # the astroid's 2/3-power cusp turns 1e-16 rounding at the corner
    # points into ~(1e-16)^(2/3); the quadrics have Lipschitz residuals
    tol = 1e-10 if geometry == "polygon" else 1e-12
    assert out["max_residual"] <= tol, out
    assert out["samples"] >= 801


def test_boundary_sweep_points_stay_contained():
    # the polygon sweep traces the astroid, which lies inside the
    # octahedron; the quadric sweeps lie on their own boundaries
    from chesswit.frgeom import _sweep_points

    thetas, phis = _sweep_points("polygon", 301)
    factors = [qubit_state(thetas[:, i], phis[:, i]) for i in range(3)]
    pts = functional_points("polygon", factors)
    assert bool((region_excess("polygon", pts) <= 1e-12).all())
    thetas, phis = _sweep_points("sphere", 301)
    factors = [qubit_state(thetas[:, i], phis[:, i]) for i in range(3)]
    pts = functional_points("sphere", factors)
    excess = region_excess("sphere", pts)
    np.testing.assert_allclose(excess, 0.0, atol=1e-12)


def test_boundary_check_unknown_geometry():
    with pytest.raises(ValueError):
        boundary_curve_check("torus")


@pytest.mark.parametrize("samples, message", [
    (2.7, "samples must be an integer, got 2.7"),
    (True, "samples must be an integer, got True"),
    (0, "samples must be >= 1, got 0"),
    (-3, "samples must be >= 1, got -3"),
])
def test_boundary_check_rejects_bad_sample_counts(samples, message):
    # int() made 2.7 two samples and True one; 0 failed in numpy's max
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        boundary_curve_check("polygon", samples)


def test_boundary_check_takes_one_sample():
    assert boundary_curve_check("polygon", np.int64(1))["samples"] == 1


# --- single product states ------------------------------------------------


def test_product_vector_is_factor_kron():
    state = ProductState(thetas=(0.4, 1.1, 2.0), phis=(0.2, 5.1, 3.3))
    v = state.vector()
    f1, f2, f3 = state.factors()
    want = np.kron(np.kron(f1, f2), f3)
    assert np.array_equal(v, want)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_one_state_points_match_manual_expectations():
    state = ProductState(thetas=(0.9, 2.2, 0.5), phis=(1.7, 0.3, 4.0))
    v = state.vector()
    factors = [f[None, :] for f in state.factors()]
    for geometry in GEOMETRIES:
        qs = qset(geometry)
        want = [float((v.conj() @ q @ v).real) for q in qs]
        got = functional_points(geometry, factors)
        assert got.shape == (1, 3)
        np.testing.assert_allclose(got[0], want, atol=1e-13)


def test_product_state_points_lie_in_their_region():
    rng_states = [ProductState(thetas=(a, b, c), phis=(d, e, f))
                  for a, b, c, d, e, f in
                  np.random.default_rng(8).uniform(0, 2 * math.pi,
                                                   size=(25, 6))]
    factors = [np.array([s.factors()[p] for s in rng_states])
               for p in range(3)]
    for geometry in GEOMETRIES:
        pts = functional_points(geometry, factors)
        assert (region_excess(geometry, pts) <= 1e-9).all()
