"""Tests for chesswit.chessboard against independent oracles.

The build oracle assembles the 8x8 matrix entry-by-entry from the
documented layout, independent of the module's vectorized path; the
coefficient oracle is the honest trace Tr(rho O_t) over all 64 triples.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chesswit import chessboard as cb
from chesswit import tensorops as to
from chesswit.witnesses import substituted_coeffs


def oracle_rho_222(a, b, c, d, r, phi):
    """Entry-by-entry 8x8 oracle for the 2x2x2 family."""
    n = a + b + c + d + 1 / a + 1 / b + 1 / c + 1 / d
    m = np.zeros((8, 8), dtype=complex)
    for idx, v in enumerate((a, b, c, d, 1 / d, 1 / c, 1 / b, 1 / a)):
        m[idx, idx] = v
    for (row, col), rj, pj in zip(
        ((3, 4), (2, 5), (1, 6), (0, 7)), r, phi
    ):
        m[row, col] = rj * complex(math.cos(pj), math.sin(pj))
        m[col, row] = m[row, col].conjugate()
    return m / n


params_strategy = st.builds(
    cb.ChessParams222,
    a=st.floats(0.1, 10.0),
    b=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    d=st.floats(0.1, 10.0),
    r=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    phi=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 4),
)


@settings(max_examples=60, deadline=None)
@given(params_strategy)
def test_build_rho_222_matches_entry_oracle(p):
    got = cb.build_rho_222(p)
    want = oracle_rho_222(p.a, p.b, p.c, p.d, p.r, p.phi)
    assert np.abs(got - want).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(params_strategy)
def test_build_rho_222_is_ppt_density_matrix(p):
    rho = cb.build_rho_222(p)
    assert rho.trace().real == pytest.approx(1.0, abs=1e-13)
    assert np.abs(rho - rho.conj().T).max() == 0.0
    ppt, min_eigs = to.is_ppt(rho, tol=1e-10)
    assert ppt, min_eigs


def test_frozen_coupling_entries():
    p = cb.ChessParams222(1, 1, 1, 1, r=(1, 0, 0, 0), phi=(math.pi / 2, 0, 0, 0))
    rho = cb.build_rho_222(p)
    assert rho[3, 4] == pytest.approx(0.125j, abs=1e-15)
    p = cb.ChessParams222(1, 1, 1, 1, r=(0, 0, 0, 1), phi=(0, 0, 0, math.pi / 2))
    rho = cb.build_rho_222(p)
    assert rho[0, 7] == pytest.approx(0.125j, abs=1e-15)


def test_partial_transpose_moves_corner_coupling():
    # The (0,7) coupling entry (modulus r4/n) lands at (4,3) under the
    # transpose of party 1.
    p = cb.ChessParams222(1, 1, 1, 1, r=(0, 0, 0, 0.7), phi=(0, 0, 0, 0.3))
    rho = cb.build_rho_222(p)
    t = to.partial_transpose(rho, (2, 2, 2), (1,))
    assert t[4, 3] == rho[0, 7]
    assert t[0, 7] == 0


def test_normalization_and_c300_frozen():
    p = cb.ChessParams222(2, 1, 1, 1)
    assert cb.normalization(p) == 8.5
    co = cb.pauli_coeffs(p)
    assert co[(3, 0, 0)] == pytest.approx(0.17647058823529413, abs=1e-16)
    # diagonal-only params: all coupling coefficients vanish
    for t in [(1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1),
              (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        assert co[t] == 0.0


@settings(max_examples=50, deadline=None)
@given(params_strategy)
def test_pauli_coeffs_match_trace_oracle(p):
    rho = cb.build_rho_222(p)
    co = cb.pauli_coeffs(p)
    assert len(co) == 15
    for t in itertools.product(range(4), repeat=3):
        tr = np.trace(rho @ to.pauli_op(t))
        assert abs(tr.imag) <= 1e-12
        want = 1.0 if t == (0, 0, 0) else co.get(t, 0.0)
        assert tr.real == pytest.approx(want, abs=1e-12), t


def test_frozen_coeffs_for_catalog_reference_state():
    p = cb.ChessParams222(1, 1, 1, 1, r=(1, 1, 0.5, 0), phi=(0, 0, 0, 0))
    co = cb.pauli_coeffs(p)
    assert co[(1, 1, 1)] == pytest.approx(0.625, abs=1e-15)
    assert co[(2, 2, 1)] == pytest.approx(0.375, abs=1e-15)
    assert co[(1, 2, 2)] == pytest.approx(0.125, abs=1e-15)
    assert co[(2, 1, 2)] == pytest.approx(0.125, abs=1e-15)
    assert co[(3, 3, 3)] == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        cb.ChessParams222(0.0, 1, 1, 1)
    with pytest.raises(ValueError):
        cb.ChessParams222(1, 1, 1, 1, r=(1.5, 0, 0, 0))
    with pytest.raises(ValueError):
        cb.ChessParams222(1, 1, 1, 1, r=(-0.1, 0, 0, 0))
    with pytest.raises(ValueError):
        cb.ChessParams222(1, 1, 1, 1, r=(0, 0, 0), phi=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        cb.ChessParams222(math.nan, 1, 1, 1)


@pytest.mark.parametrize("diag, message", [
    ((1e-320, 1, 1, 1), "1/a must be finite"),
    ((1, 1, 1, 5e-324), "1/d must be finite"),
    ((1e308, 1e308, 1, 1), "the normalization must be finite"),
])
def test_params_reject_overflowing_diagonal(diag, message):
    # 1/a overflowed to inf, the coefficients became NaN, and detect
    # reported "min": NaN
    with pytest.raises(ValueError, match=message):
        cb.ChessParams222(*diag)


# --- 2 x 2 x d ---------------------------------------------------------------


def test_d2_reduction_entrywise():
    for k in range(50):
        p = cb.sample_params_222(99, k)
        rho222 = cb.build_rho_222(p)
        for gamma in (0, 1):
            rho22d = cb.build_rho_22d(cb.params_222_to_22d(p, gamma=gamma))
            assert np.abs(rho222 - rho22d).max() <= 1e-14


def test_d3_uniform_diagonal_state():
    p = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=1,
        diag=((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    )
    rho = cb.build_rho_22d(p)
    dg = np.diag(rho).real
    populated = dg[dg > 0]
    assert len(populated) == 12
    assert populated == pytest.approx(np.full(12, 1 / 12), abs=1e-15)
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0


def test_d4_unlisted_levels_have_zero_diagonal():
    p = cb.ChessParams22d(
        dim=4, alpha=0, beta=2, gamma=1,
        diag=((1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1.0, 1.0)),
    )
    rho = cb.build_rho_22d(p)
    d = 4
    for j in (0, 1):
        pos = 2 * d + j * d + 3  # |1 j 3>, level 3 not in {alpha,beta,gamma}
        assert rho[pos, pos] == 0


def test_tied_branch_reciprocals():
    # tied: the 1-branch diagonal at |1 j mu> is 1/diag[1-j][partner(mu)].
    p = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=1,
        diag=((2.0, 3.0, 5.0), (7.0, 11.0, 13.0)),
    )
    rho = cb.build_rho_22d(p)
    n = rho.trace().real / 1.0  # already normalized; recover scale via entry
    d = 3
    # ratios of entries are normalization-free
    def at(q1, j, k):
        return rho[q1 * 2 * d + j * d + k, q1 * 2 * d + j * d + k].real

    # |1 0 alpha=0> -> 1/diag[1][beta=2] = 1/13
    assert at(1, 0, 0) / at(0, 0, 0) == pytest.approx((1 / 13) / 2.0, rel=1e-12)
    # |1 1 beta=2> -> 1/diag[0][alpha=0] = 1/2
    assert at(1, 1, 2) / at(0, 0, 0) == pytest.approx((1 / 2) / 2.0, rel=1e-12)
    # |1 0 gamma=1> -> 1/diag[1][gamma=1] = 1/11
    assert at(1, 0, 1) / at(0, 0, 0) == pytest.approx((1 / 11) / 2.0, rel=1e-12)


def test_untied_branch_reciprocals_and_error_path():
    # untied: the 1-branch diagonal at |1 j mu> is 1/diag[j][mu]; this can
    # break positivity when a coupled block has diagonal product < r^2.
    p = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=1,
        diag=((0.5, 1.0, 1.0), (1.0, 1.0, 2.0)),
        r=(1.0, 0, 0, 0, 0, 0), phi=(0.0,) * 6, tied=False,
    )
    with pytest.raises(cb.NonPositiveError) as excinfo:
        cb.build_rho_22d(p)
    assert excinfo.value.min_eigenvalue == pytest.approx(-1 / 26, abs=1e-12)
    # identical parameters with the tied convention are PPT
    tied = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=1,
        diag=((0.5, 1.0, 1.0), (1.0, 1.0, 2.0)),
        r=(1.0, 0, 0, 0, 0, 0), phi=(0.0,) * 6, tied=True,
    )
    rho = cb.build_rho_22d(tied)
    ppt, _ = to.is_ppt(rho, dims=(2, 2, 3))
    assert ppt
    # untied with mild couplings still builds
    mild = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=1,
        diag=((0.5, 1.0, 1.0), (1.0, 1.0, 2.0)),
        r=(0.1, 0, 0, 0, 0, 0), phi=(0.0,) * 6, tied=False,
    )
    assert cb.build_rho_22d(mild).trace().real == pytest.approx(1.0, abs=1e-13)


def test_gamma_collision_with_couplings_can_break_positivity():
    # gamma = alpha chains the couplings into 4x4 blocks; with all moduli
    # at 1 positivity can fail even under the tied convention.
    p = cb.ChessParams22d(
        dim=3, alpha=0, beta=2, gamma=0,
        diag=(
            (1.8789852661499484, 0.3463964459891802, 0.12076665792328141),
            (0.10790840445381386, 4.231949517477533, 6.691310059954052),
        ),
        r=(1.0,) * 6, phi=(0.0,) * 6, tied=True,
    )
    with pytest.raises(cb.NonPositiveError):
        cb.build_rho_22d(p)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("gamma", [0, 2])
def test_colliding_gamma_keeps_the_alpha_beta_diagonals(dim, tied, gamma):
    # gamma = alpha or beta: the 1-branch diagonal at |1 j gamma> is the
    # one the alpha/beta coupling ties, not the gamma-gamma one
    alpha, beta = 0, 2
    diag = (tuple(2.0 + k for k in range(dim)),
            tuple(7.0 + 4 * k for k in range(dim)))
    p = cb.ChessParams22d(dim=dim, alpha=alpha, beta=beta, gamma=gamma,
                          diag=diag, tied=tied)
    expected = np.zeros(4 * dim)
    expected[:2 * dim] = diag[0] + diag[1]
    for j in (0, 1):
        for mu, partner in ((alpha, beta), (beta, alpha)):
            expected[2 * dim + j * dim + mu] = 1 / (
                diag[1 - j][partner] if tied else diag[j][mu])
    rho = cb.build_rho_22d(p)
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0
    np.testing.assert_allclose(np.diag(rho).real, expected / expected.sum(),
                               rtol=1e-14, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4, 5]))
def test_sampled_22d_states_are_ppt(index, dim):
    p = cb.sample_params_22d(4242, index, dim)
    rho = cb.build_rho_22d(p)
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
    ppt, min_eigs = to.is_ppt(rho, dims=(2, 2, dim), tol=1e-10)
    assert ppt, min_eigs


def test_22d_validation():
    with pytest.raises(ValueError):
        cb.ChessParams22d(dim=3, alpha=0, beta=0, gamma=1,
                          diag=((1,) * 3, (1,) * 3))
    with pytest.raises(ValueError):
        cb.ChessParams22d(dim=3, alpha=0, beta=3, gamma=1,
                          diag=((1,) * 3, (1,) * 3))
    with pytest.raises(ValueError):
        cb.ChessParams22d(dim=3, alpha=0, beta=2, gamma=1,
                          diag=((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        cb.ChessParams22d(dim=3, alpha=0, beta=2, gamma=1,
                          diag=((1, -1, 1), (1, 1, 1)))


@pytest.mark.parametrize("diag, message", [
    (((1e-320, 1, 1), (1, 1, 1)), r"1/diag\[0\]\[0\] must be finite"),
    (((1, 1, 1), (1, 1, 5e-324)), r"1/diag\[1\]\[2\] must be finite"),
    (((1e308, 1e308, 1), (1, 1, 1)), "the sum of the diagonals"),
])
def test_22d_rejects_overflowing_diagonal(diag, message):
    with pytest.raises(ValueError, match=message):
        cb.ChessParams22d(dim=3, alpha=0, beta=2, gamma=1, diag=diag)


# --- one stack per chunk -----------------------------------------------------


def oracle_rho_22d(p):
    """Entry-by-entry 2x2xd oracle from the documented layout, scattered
    one state at a time and divided by its own trace."""
    d = p.dim

    def flat(q1, j, k):
        return q1 * 2 * d + j * d + k

    m = np.zeros((4 * d, 4 * d), dtype=complex)
    for j in (0, 1):
        for k in range(d):
            m[flat(0, j, k), flat(0, j, k)] = p.diag[j][k]
    ends = {"ab": (p.alpha, p.beta), "ba": (p.beta, p.alpha),
            "gg": (p.gamma, p.gamma)}
    collides = p.gamma in (p.alpha, p.beta)
    for (j, slot), r, phi in zip(cb.SLOT_ORDER, p.r, p.phi):
        src, dst = ends[slot]
        row, col = flat(0, j, src), flat(1, 1 - j, dst)
        if slot != "gg" or not collides:
            m[col, col] = 1 / (p.diag[j][src] if p.tied
                               else p.diag[1 - j][dst])
        z = r * np.exp(1j * phi)
        m[row, col] += z
        m[col, row] += np.conj(z)
    return m / m.trace().real


def _level_triples(d):
    for alpha, beta in itertools.permutations(range(d), 2):
        for gamma in range(d):
            yield alpha, beta, gamma


@pytest.mark.parametrize("d", [3, 4, 5])
def test_rho_stack_bit_equal_per_row_build(d):
    # every alpha != beta and gamma, colliding ones included, with
    # sampled, zero and colliding nonzero couplings, tied and untied
    checked = 0
    for alpha, beta, gamma in _level_triples(d):
        states = [cb.sample_params_22d(21, i, d, alpha, beta, gamma,
                                       tied=i < 3) for i in range(5)]
        states.append(cb.ChessParams22d(d, alpha, beta, gamma,
                                        states[0].diag))
        states.append(cb.ChessParams22d(d, alpha, beta, gamma,
                                        states[0].diag, r=(0.25,) * 6,
                                        phi=states[0].phi))
        stack = cb.rho_stack_22d(states)
        assert stack.shape == (len(states), 4 * d, 4 * d)
        for p, rho in zip(states, stack):
            assert rho.tobytes() == oracle_rho_22d(p).tobytes(), p
            try:
                built = cb.build_rho_22d(p)
            except cb.NonPositiveError:
                continue
            assert built.tobytes() == rho.tobytes(), p
            checked += 1
    assert checked >= 5 * d * (d - 1) * d


def test_rho_stack_needs_one_level_structure():
    states = [cb.sample_params_22d(1, 0, 3), cb.sample_params_22d(1, 1, 3,
                                                                gamma=0)]
    with pytest.raises(ValueError, match="must share dim, alpha, beta"):
        cb.rho_stack_22d(states)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_positivity_proven_states_are_psd(data):
    # the proof that lets the scan and detect skip the eigensolve: tied
    # states with a distinct gamma, or a colliding one with zero moduli
    d = data.draw(st.integers(3, 5))
    alpha, beta = data.draw(st.permutations(range(d)))[:2]
    gamma = data.draw(st.integers(0, d - 1))
    index = data.draw(st.integers(0, 10_000))
    sampled = cb.sample_params_22d(77, index, d, alpha, beta, gamma)
    unit = tuple(0.0 if slot == "gg" and gamma in (alpha, beta) else 1.0
                 for _, slot in cb.SLOT_ORDER)
    states = [sampled, cb.ChessParams22d(d, alpha, beta, gamma, sampled.diag,
                                         r=unit, phi=sampled.phi)]
    assert all(map(cb.positivity_proven, states))
    least = np.linalg.eigvalsh(cb.rho_stack_22d(states))[:, 0]
    assert (least >= -1e-12).all(), least
    # what the proof leaves out: untied, or colliding with a coupling
    assert not cb.positivity_proven(cb.ChessParams22d(
        d, alpha, beta, gamma, sampled.diag, tied=False))
    colliding = cb.ChessParams22d(d, alpha, beta, alpha, sampled.diag,
                                  r=(0.5,) * 6)
    assert not cb.positivity_proven(colliding)


@pytest.mark.parametrize("args, message", [
    ((3, 0.5, 2, 1), "alpha must be an integer, got 0.5"),
    ((3, 0, 2.0, 1), "beta must be an integer, got 2.0"),
    ((3, 0, 2, 1.5), "gamma must be an integer, got 1.5"),
    ((3.0, 0, 2, 1), "dim must be an integer, got 3.0"),
])
def test_qudit_levels_rejects_non_integers(args, message):
    # int() used to truncate these: alpha 0.5 became 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        cb.qudit_levels(*args)
    assert cb.qudit_levels(np.int64(4), np.int8(1), np.uint16(3),
                           np.int32(0)) == (1, 3, 0)


# --- sampling ----------------------------------------------------------------


def test_sampling_is_deterministic_and_in_range():
    for index in range(20):
        p1 = cb.sample_params_222(7, index)
        p2 = cb.sample_params_222(7, index)
        assert p1 == p2
        for v in (p1.a, p1.b, p1.c, p1.d):
            assert 0.1 <= v <= 10.0
        assert all(0.0 <= r <= 1.0 for r in p1.r)
        assert all(0.0 <= f < 2 * math.pi for f in p1.phi)
    assert cb.sample_params_222(7, 0) != cb.sample_params_222(7, 1)
    assert cb.sample_params_222(7, 0) != cb.sample_params_222(8, 0)


def test_sampling_median_sanity():
    values = [cb.sample_params_222(31337, k).a for k in range(2000)]
    med = float(np.median(values))
    assert 0.8 <= med <= 1.25  # log-uniform on [0.1, 10] has median 1


def test_sample_22d_defaults_and_collision_guard():
    p3 = cb.sample_params_22d(1, 0, 3)
    assert (p3.alpha, p3.beta, p3.gamma) == (0, 2, 1)
    p2 = cb.sample_params_22d(1, 0, 2)
    assert (p2.alpha, p2.beta, p2.gamma) == (0, 1, 1)
    # collided gamma: gamma-gamma moduli forced to zero
    for slot_index, (_, slot) in enumerate(cb.SLOT_ORDER):
        if slot == "gg":
            assert p2.r[slot_index] == 0.0


# --- JSON --------------------------------------------------------------------


def test_params_json_round_trip_222():
    p = cb.sample_params_222(5, 17)
    obj = cb.params_to_json(p)
    text = json.dumps(obj)
    assert cb.params_from_json(json.loads(text)) == p


def test_params_json_round_trip_22d():
    p = cb.sample_params_22d(5, 17, 4)
    obj = cb.params_to_json(p)
    text = json.dumps(obj)
    back = cb.params_from_json(json.loads(text))
    assert back == p
    assert obj["couplings"][0]["slot"] == "ab"
    assert [c["j"] for c in obj["couplings"]] == [0, 0, 0, 1, 1, 1]


def test_params_json_rejects_malformed():
    with pytest.raises(ValueError):
        cb.params_from_json({"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(ValueError):
        cb.params_from_json({"dim": 3, "alpha": 0, "beta": 2, "gamma": 1})
    with pytest.raises(ValueError):
        cb.params_from_json(
            {"dim": 3, "alpha": 0, "beta": 2, "gamma": 1,
             "diag": [[1, 1, 1], [1, 1, 1]],
             "couplings": [{"j": 0, "slot": "xy", "r": 0.1, "phi": 0.0}]}
        )


# --- qudit coefficient table ---------------------------------------------


def test_coeffs_22d_matches_qubit_route():
    # with a qubit third party the table must reproduce pauli_coeffs
    for k in range(25):
        p = cb.sample_params_222(7, k)
        co222 = cb.pauli_coeffs(p)
        p22d = cb.params_222_to_22d(p, gamma=1)
        co22d = substituted_coeffs(cb.build_rho_22d(p22d), p22d.dim,
                                   p22d.alpha, p22d.beta)
        assert set(co22d) == set(cb.COEFF_TRIPLES)
        for t, v in co22d.items():
            assert isinstance(v, float)
            assert v == pytest.approx(co222[t], abs=1e-13)


def test_coeffs_22d_trace_oracle_d3():
    p = cb.sample_params_22d(5, 0, 3)
    rho = cb.build_rho_22d(p)
    co = substituted_coeffs(rho, p.dim, p.alpha, p.beta)
    a, b = p.alpha, p.beta
    e = {}
    for i in range(3):
        for j in range(3):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            e[(i, j)] = m
    subspace = {
        0: np.eye(3, dtype=complex),
        1: e[(a, b)] + e[(b, a)],
        2: -1j * (e[(a, b)] - e[(b, a)]),
        3: e[(a, a)] - e[(b, b)],
    }
    for t in cb.COEFF_TRIPLES:
        op = to.kron3(to.pauli(t[0]), to.pauli(t[1]), subspace[t[2]])
        tr = np.trace(rho @ op)
        assert abs(tr.imag) <= 1e-12
        assert co[t] == pytest.approx(tr.real, abs=1e-12), t
