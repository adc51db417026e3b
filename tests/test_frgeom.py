"""Tests for product-state functional geometry: Bloch identities,
operator triples, containment regions, and exact boundary sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chesswit.frgeom import (
    GEOMETRIES,
    ProductState,
    boundary_curve_check,
    contains,
    feasible_region_check,
    functional_points,
    p_map,
    qset,
    qubit_state,
    region_excess,
    sample_factors,
)

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


def test_qset_qudit_shape_and_unknown():
    qs = qset("sphere", d=3, alpha=0, beta=2)
    assert all(q.shape == (12, 12) for q in qs)
    with pytest.raises(ValueError):
        qset("torus")


# --- functional points -------------------------------------------------------------


def test_functional_points_against_loop():
    f1, f2, f3 = sample_factors(17, seed=5)
    qs = qset("cone")
    pts = functional_points(qs, (f1, f2, f3), chunk=5)
    for row in range(17):
        s = np.kron(np.kron(f1[row], f2[row]), f3[row])
        for col, q in enumerate(qs):
            want = (s.conj() @ q @ s).real
            assert abs(pts[row, col] - want) < 1e-13


def test_sample_factors_shapes_and_norms():
    f1, f2, f3 = sample_factors(100, seed=1, d=4)
    assert f1.shape == (100, 2) and f2.shape == (100, 2)
    assert f3.shape == (100, 4)
    for block in (f1, f2, f3):
        np.testing.assert_allclose(np.linalg.norm(block, axis=1), 1.0,
                                   atol=1e-12)
    again = sample_factors(100, seed=1, d=4)
    np.testing.assert_array_equal(f3, again[2])


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


def test_contains_mask():
    pts = np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]])
    mask = contains("sphere", pts)
    assert mask.tolist() == [True, False]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_feasible_region_sampled(geometry):
    out = feasible_region_check(geometry, n=20000, seed=11)
    assert out["violations"] == 0
    assert out["max_excess"] <= 1e-9
    # deterministic
    again = feasible_region_check(geometry, n=20000, seed=11)
    assert again["max_excess"] == out["max_excess"]


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
        pts = functional_points(qset(geometry, d=3, alpha=0, beta=2),
                                (f1, f2, f3))
        np.testing.assert_allclose(pts, 0.0, atol=1e-15)
    # the quadric probes keep their first member sigma_z (x) I (x) I
    pts = functional_points(qset("sphere", d=3, alpha=0, beta=2),
                            (f1, f2, f3))
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
    pts = functional_points(qset("polygon"), factors)
    assert bool(contains("polygon", pts, tol=1e-12).all())
    thetas, phis = _sweep_points("sphere", 301)
    factors = [qubit_state(thetas[:, i], phis[:, i]) for i in range(3)]
    pts = functional_points(qset("sphere"), factors)
    excess = region_excess("sphere", pts)
    np.testing.assert_allclose(excess, 0.0, atol=1e-12)


def test_boundary_check_unknown_geometry():
    with pytest.raises(ValueError):
        boundary_curve_check("torus")


# --- single-state map wrappers ---------------------------------------------


def test_product_vector_is_factor_kron():
    state = ProductState(thetas=(0.4, 1.1, 2.0), phis=(0.2, 5.1, 3.3))
    v = state.vector()
    f1, f2, f3 = state.factors()
    want = np.kron(np.kron(f1, f2), f3)
    assert np.array_equal(v, want)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_p_map_matches_manual_expectations():
    state = ProductState(thetas=(0.9, 2.2, 0.5), phis=(1.7, 0.3, 4.0))
    v = state.vector()
    for geometry in GEOMETRIES:
        qs = qset(geometry)
        want = [float((v.conj() @ q @ v).real) for q in qs]
        got = p_map(state, geometry)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, atol=1e-13)
    # default geometry is the polygon
    np.testing.assert_allclose(p_map(state), p_map(state, "polygon"),
                               atol=0)


def test_p_map_accepts_explicit_operator_triple():
    state = ProductState(thetas=(0.1, 0.2, 0.3), phis=(0.0, 0.0, 0.0))
    qs = [okron3((3, 0, 0)), okron3((0, 3, 0)), okron3((0, 0, 3))]
    got = p_map(state, qs=qs)
    v = state.vector()
    want = [float((v.conj() @ q @ v).real) for q in qs]
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_p_map_points_lie_in_their_region():
    rng_states = [ProductState(thetas=(a, b, c), phis=(d, e, f))
                  for a, b, c, d, e, f in
                  np.random.default_rng(8).uniform(0, 2 * math.pi,
                                                   size=(25, 6))]
    for geometry in GEOMETRIES:
        pts = np.array([p_map(s, geometry) for s in rng_states])
        assert contains(geometry, pts, tol=1e-9).all()
