"""Tests for zero-state optimality certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chesswit.optimality import (
    EVEN_QUADRUPLE,
    ODD_QUADRUPLE,
    is_optimal,
    orthogonality_system,
    zero_states_conical,
    zero_states_polygonal,
)
from chesswit.witnesses import build_witness

POLY_SIGMA = math.sqrt(1 - 1 / math.sqrt(2))  # 0.541196100146197


def all_poly_ids():
    out = []
    for fam in ("poly1", "poly2"):
        for n in range(16):
            out.append(f"{fam}:{n >> 3 & 1}{n >> 2 & 1}{n >> 1 & 1}{n & 1}")
    return out


@pytest.mark.parametrize("wid", all_poly_ids())
def test_polygonal_systems_are_optimal(wid):
    system = orthogonality_system(wid)
    assert system.max_expectation < 1e-12
    assert system.matrix.shape == (8, 8)
    assert len(system.states) == 8
    assert system.sigma_min == pytest.approx(POLY_SIGMA, abs=1e-12)
    ok, sigma = is_optimal(wid)
    assert ok
    assert sigma == system.sigma_min


def test_polygonal_zero_state_structure():
    states = zero_states_polygonal("poly1:0000")
    # first four states: odd-parity computational quadruple
    expected_bits = ODD_QUADRUPLE
    for state, bits in zip(states[:4], expected_bits):
        want = tuple(math.pi if b else 0.0 for b in bits)
        assert state.thetas == want
        assert state.phis == (0.0, 0.0, 0.0)
    # last four: transverse with sign product -1 (since i2 = 0)
    for state in states[4:]:
        assert state.thetas == (math.pi / 2,) * 3
        signs = [1 if p % (2 * math.pi) < 1e-9 else -1 for p in state.phis]
        assert signs[0] * signs[1] * signs[2] == -1
    # i1 = 1 flips to the even quadruple
    states_e = zero_states_polygonal("poly1:1000")
    for state, bits in zip(states_e[:4], EVEN_QUADRUPLE):
        want = tuple(math.pi if b else 0.0 for b in bits)
        assert state.thetas == want


def test_poly2_uses_y_axis_first_factor():
    states = zero_states_polygonal("poly2:0000")
    for state in states[4:]:
        # first factor phase is pi/2 or 3pi/2
        rem = state.phis[0] % (2 * math.pi)
        assert min(abs(rem - math.pi / 2), abs(rem - 3 * math.pi / 2)) < 1e-12


def test_zero_states_are_actual_zeros():
    for wid in ("poly1:0110", "poly2:1011"):
        w = build_witness(wid)
        for state in zero_states_polygonal(wid):
            v = state.vector()
            assert abs((v.conj() @ w @ v).real) < 1e-12


def test_conical_optimal_at_generic_angle():
    ok, sigma = is_optimal("con:333:122:0:+", psi=0.3)
    assert ok
    assert sigma == pytest.approx(0.19437562386146945, abs=1e-9)
    ok_m, sigma_m = is_optimal("con:333:122:0:-", psi=0.3)
    assert ok_m
    assert sigma_m == pytest.approx(sigma, abs=1e-12)


@pytest.mark.parametrize("psi", [math.pi / 4, -math.pi / 4, 3 * math.pi / 4,
                                 5 * math.pi / 4])
def test_conical_degenerate_angles(psi):
    ok, sigma = is_optimal("con:333:122:0:+", psi=psi)
    assert not ok
    assert sigma <= 1e-10


def test_conical_zero_states_annihilate_both_signs():
    # the four angle-dependent states are zeros of both sign variants
    for signch in "+-":
        wid = f"con:333:122:0:{signch}"
        for psi in (0.0, 0.3, 1.9, 4.4):
            w = build_witness(wid, psi=psi)
            for state in zero_states_conical(psi, wid)[4:]:
                v = state.vector()
                assert abs((v.conj() @ w @ v).real) < 1e-12


def test_conical_nu_state_moduli():
    states = zero_states_conical(0.3, "con:333:122:0:+")
    for state in states[4:]:
        np.testing.assert_allclose(np.abs(state.vector()),
                                   1 / (2 * math.sqrt(2)), atol=1e-14)


def test_conical_angle_states_in_order():
    # the two theta-patterns at +psi, then the two at -psi
    psi, q = 0.3, math.pi / 4
    states = zero_states_conical(psi, "con:333:122:0:+")[4:]
    assert [(s.thetas, s.phis) for s in states] == [
        ((3 * math.pi / 2, math.pi / 2, math.pi / 2), (psi, q, q)),
        ((math.pi / 2, 3 * math.pi / 2, math.pi / 2), (psi, q, q)),
        ((3 * math.pi / 2, math.pi / 2, math.pi / 2), (-psi, -q, -q)),
        ((math.pi / 2, 3 * math.pi / 2, math.pi / 2), (-psi, -q, -q)),
    ]


def test_system_expectations_read_the_matrix_rows():
    wid = "con:333:122:0:-"
    system = orthogonality_system(wid, psi=0.3)
    w = build_witness(wid, psi=0.3)
    vectors = [s.vector() for s in system.states]
    assert [row.tobytes() for row in system.matrix] == \
        [v.tobytes() for v in vectors]
    assert system.max_expectation == max(
        abs(complex(v.conj() @ w @ v).real) for v in vectors)


def test_conical_missing_angle():
    with pytest.raises(ValueError,
                       match="^con witnesses require the angle psi$"):
        orthogonality_system("con:333:122:0:+")


@pytest.mark.parametrize("psi, message", [
    (None, "con witnesses require the angle psi"),
    (math.nan, "angle psi must be finite, got nan"),
    (-math.inf, "angle psi must be finite, got -inf"),
])
def test_conical_angle_follows_the_witness_rule(psi, message):
    # zero_states_conical(None) raised a TypeError from float(None), and
    # a NaN angle gave NaN states
    for call in (lambda: zero_states_conical(psi),
                 lambda: orthogonality_system("con:333:122:0:+", psi=psi),
                 lambda: build_witness("con:333:122:0:+", psi=psi)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("wid", [
    "con:333:122:1:+",      # unsupported bit
    "con:330:122:0:+",      # unsupported kp
    "con:333:212:0:+",      # unsupported kjl
    "conp:333:211:0:+",     # primed family
    "cyl:300:122:00",
    "sph:300:122:0",
    "poly1:0000@0,2",       # qudit suffix
])
def test_unsupported_ids_raise(wid):
    with pytest.raises(ValueError):
        orthogonality_system(wid, psi=0.3)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_is_optimal_rejects_threshold_not_finite_or_negative(threshold):
    # a NaN threshold would call every system "not optimal", and a
    # negative one every system optimal
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        is_optimal("poly1:0000", threshold=threshold)


def test_is_optimal_accepts_zero_threshold():
    assert is_optimal("poly1:0000", threshold=0.0)[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi))
def test_conical_system_zero_property(psi):
    system = orthogonality_system("con:333:122:0:+", psi=psi)
    assert system.max_expectation < 1e-10
    assert 0.0 <= system.sigma_min <= 1.0 + 1e-12


def test_sigma_min_periodicity():
    # the degeneracy pattern repeats with period pi/2 offsets of pi/4
    _, s1 = is_optimal("con:333:122:0:+", psi=0.3)
    _, s2 = is_optimal("con:333:122:0:+", psi=0.3 + math.pi)
    assert s1 == pytest.approx(s2, abs=1e-10)
