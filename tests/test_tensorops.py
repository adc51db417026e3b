"""Tests for chesswit.tensorops against independent oracles.

Oracles used here are built from first principles inside the test file:
explicit single-qubit entry tables with index-arithmetic loops for the
tensor products, index-permutation bookkeeping for partial transposes,
and the quadratic closed form for 2x2 eigenvalues.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chesswit import tensorops as to
from chesswit.chessboard import (
    build_rho_222,
    build_rho_22d,
    sample_params_222,
    sample_params_22d,
)

# --- oracle machinery -------------------------------------------------

# Explicit entry table for sigma_0..sigma_3, independent of the module.
SIGMA_ENTRIES = {
    0: {(0, 0): 1, (1, 1): 1},
    1: {(0, 1): 1, (1, 0): 1},
    2: {(0, 1): -1j, (1, 0): 1j},
    3: {(0, 0): 1, (1, 1): -1},
}


def oracle_pauli_entry(triple, row, col):
    """Entry of sigma_i x sigma_j x sigma_k via digit-wise lookup."""
    r = ((row >> 2) & 1, (row >> 1) & 1, row & 1)
    c = ((col >> 2) & 1, (col >> 1) & 1, col & 1)
    value = 1
    for t, ri, ci in zip(triple, r, c):
        value *= SIGMA_ENTRIES[t].get((ri, ci), 0)
    return complex(value)


def oracle_pauli_op(triple):
    m = np.zeros((8, 8), dtype=np.complex128)
    for row in range(8):
        for col in range(8):
            m[row, col] = oracle_pauli_entry(triple, row, col)
    return m


def split_index(flat, dims):
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def join_index(digits, dims):
    flat = 0
    for x, d in zip(digits, dims):
        flat = flat * d + x
    return flat


def oracle_partial_transpose(m, dims, parties):
    """Entry-by-entry permutation oracle for the partial transpose."""
    size = int(np.prod(dims))
    out = np.zeros_like(m)
    for row in range(size):
        for col in range(size):
            r = list(split_index(row, dims))
            c = list(split_index(col, dims))
            for p in parties:
                r[p - 1], c[p - 1] = c[p - 1], r[p - 1]
            out[join_index(r, dims), join_index(c, dims)] = m[row, col]
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --- Pauli products ----------------------------------------------------

def test_pauli_matrices_exact():
    expected = {
        0: [[1, 0], [0, 1]],
        1: [[0, 1], [1, 0]],
        2: [[0, -1j], [1j, 0]],
        3: [[1, 0], [0, -1]],
    }
    for i, mat in expected.items():
        assert np.array_equal(to.pauli(i), np.array(mat, dtype=complex))


def test_pauli_op_matches_loop_oracle_all_64():
    for triple in itertools.product(range(4), repeat=3):
        assert np.array_equal(to.pauli_op(triple), oracle_pauli_op(triple)), triple


def test_pauli_op_zzz_diagonal_frozen():
    diag = np.diag(to.pauli_op((3, 3, 3)))
    assert np.array_equal(diag, np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=complex))


def test_pauli_op_xxx_corner_entry():
    assert to.pauli_op((1, 1, 1))[0][7] == 1


def test_pauli_ops_orthogonal_trace_norm_8():
    ops = [to.pauli_op(t) for t in itertools.product(range(4), repeat=3)]
    stack = np.stack(ops)
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert np.allclose(gram, 8 * np.eye(64), atol=1e-12)


def test_pauli_op_hermitian_and_traceless():
    for triple in itertools.product(range(4), repeat=3):
        op = to.pauli_op(triple)
        assert np.array_equal(op, op.conj().T)
        expected_trace = 8 if triple == (0, 0, 0) else 0
        assert op.trace() == expected_trace


def test_pauli_op_rejects_bad_index():
    with pytest.raises(ValueError):
        to.pauli_op((0, 4, 0))


# --- partial transpose -------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
@pytest.mark.parametrize(
    "parties", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
)
def test_partial_transpose_matches_permutation_oracle(dims, parties):
    rng = np.random.default_rng(20240815)
    size = int(np.prod(dims))
    m = random_complex(rng, (size, size))
    got = to.partial_transpose(m, dims, parties)
    want = oracle_partial_transpose(m, dims, parties)
    assert np.array_equal(got, want)


def test_partial_transpose_rejects_non_integer_dims():
    # int() used to transpose an 8 x 8 matrix as dims (2, 2, 2)
    with pytest.raises(ValueError,
                       match=r"^dims\[2\] must be an integer, got 2\.5$"):
        to.partial_transpose(np.eye(8), dims=(2, 2, 2.5))
    m = np.arange(64.0).reshape(8, 8)
    assert np.array_equal(
        to.partial_transpose(m, dims=np.array([2, 2, 2]), parties=(3,)),
        to.partial_transpose(m, dims=(2, 2, 2), parties=(3,)))


def test_partial_transpose_rejects_non_integer_parties():
    # int() used to truncate these: parties=(1.5,) transposed party 1
    m = np.arange(64.0).reshape(8, 8)
    for parties, message in (((1.5,), r"parties\[0\] must be an integer, "
                              r"got 1\.5"),
                             ((3, "2"), r"parties\[1\] must be an integer, "
                              r"got '2'")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            to.partial_transpose(m, parties=parties)
    assert np.array_equal(
        to.partial_transpose(m, parties=(np.int64(1), np.uint8(3))),
        to.partial_transpose(m, parties=(1, 3)))


def test_partial_transpose_rejects_bools_as_parties():
    # parties=(True,) transposed party 1
    with pytest.raises(ValueError, match=r"^parties\[0\] must be an "
                       r"integer, got True$"):
        to.partial_transpose(np.eye(8), parties=(True,))
    with pytest.raises(ValueError, match=r"^dims\[2\] must be an "
                       r"integer, got True$"):
        to.partial_transpose(np.eye(8), dims=(2, 4, True), parties=(1,))


def test_partial_transpose_entry_bookkeeping_example():
    # An entry at ((0,0,0),(1,1,1)) = (0,7) moves to ((1,0,0),(0,1,1)) = (4,3)
    # under the transpose of party 1.
    m = np.zeros((8, 8), dtype=complex)
    m[0, 7] = 2 + 3j
    t = to.partial_transpose(m, (2, 2, 2), (1,))
    assert t[4, 3] == 2 + 3j
    t[4, 3] = 0
    assert np.count_nonzero(t) == 0


def test_partial_transpose_involution_and_composition():
    rng = np.random.default_rng(7)
    m = random_complex(rng, (12, 12))
    dims = (2, 2, 3)
    for parties in [(1,), (2,), (3,), (1, 3)]:
        twice = to.partial_transpose(
            to.partial_transpose(m, dims, parties), dims, parties
        )
        assert np.array_equal(twice, m)
    composed = to.partial_transpose(
        to.partial_transpose(m, dims, (1,)), dims, (2,)
    )
    assert np.array_equal(composed, to.partial_transpose(m, dims, (1, 2)))
    assert np.array_equal(
        to.partial_transpose(m, dims, (1, 2, 3)), m.T
    )


def test_partial_transpose_rejects_bad_party():
    with pytest.raises(ValueError):
        to.partial_transpose(np.eye(8), (2, 2, 2), (4,))


# --- hermitian_eigenvalues ----------------------------------------------

def two_by_two_closed_form(b, r):
    """Eigenvalues of [[b, r], [r, 1/b]]: ((b+1/b) +- sqrt((b-1/b)^2+4r^2))/2."""
    s = b + 1 / b
    q = math.sqrt((b - 1 / b) ** 2 + 4 * r * r)
    return (s - q) / 2, (s + q) / 2


def test_eigenvalues_2x2_closed_form_r1():
    lo, hi = two_by_two_closed_form(2.0, 1.0)
    assert (lo, hi) == (0.0, 2.5)
    w = to.hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 0.5]]))
    assert w == pytest.approx([lo, hi], abs=1e-14)


def test_eigenvalues_2x2_closed_form_r_inv_sqrt2():
    r = 1 / math.sqrt(2)
    lo, hi = two_by_two_closed_form(2.0, r)
    # frozen values for this instantiation
    assert lo == pytest.approx(0.21922359359558485, abs=1e-15)
    assert hi == pytest.approx(2.2807764064044151, abs=1e-15)
    w = to.hermitian_eigenvalues(np.array([[2.0, r], [r, 0.5]]))
    assert w == pytest.approx([lo, hi], abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_eigenvalues_trace_det_shift_properties(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, (5, 5))
    h = a + a.conj().T
    w = to.hermitian_eigenvalues(h)
    assert np.all(np.diff(w) >= -1e-12)  # ascending
    assert w.sum() == pytest.approx(h.trace().real, abs=1e-9)
    assert np.prod(w) == pytest.approx(np.linalg.det(h).real, rel=1e-6, abs=1e-8)
    c = float(rng.normal())
    w_shift = to.hermitian_eigenvalues(h + c * np.eye(5))
    assert w_shift == pytest.approx(w + c, abs=1e-9)


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        to.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        to.hermitian_eigenvalues(np.ones((2, 3)))


def test_eigenvalues_zero_matrix():
    assert np.array_equal(to.hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))


def _hermitian_stack(rng, shape, n):
    a = random_complex(rng, shape + (n, n))
    return a + np.swapaxes(a.conj(), -1, -2)


def test_eigenvalues_stack_slices_match_single_calls():
    rng = np.random.default_rng(29)
    for shape, n in (((6,), 8), ((2, 3), 5), ((1,), 12)):
        stack = _hermitian_stack(rng, shape, n)
        w = to.hermitian_eigenvalues(stack)
        assert w.shape == shape + (n,)
        for idx in np.ndindex(*shape):
            single = to.hermitian_eigenvalues(stack[idx])
            assert np.array_equal(w[idx], single)


def test_eigenvalues_stack_rejects_one_non_hermitian():
    stack = _hermitian_stack(np.random.default_rng(30), (4,), 6)
    stack[2, 0, 5] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        to.hermitian_eigenvalues(stack)
    with pytest.raises(ValueError):
        to.hermitian_eigenvalues(np.ones((3, 2, 3)))


def test_eigenvalues_residual_gate(monkeypatch):
    stack = _hermitian_stack(np.random.default_rng(31), (3,), 6)
    eigh = np.linalg.eigh

    def wrong_vectors(h):
        w, v = eigh(h)
        v = v.copy()
        v.reshape(-1, *v.shape[-2:])[-1, 0, :] *= 2.0  # the last matrix only
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", wrong_vectors)
    with pytest.raises(ArithmeticError, match="residual"):
        to.hermitian_eigenvalues(stack)
    with pytest.raises(ArithmeticError, match="residual"):
        to.hermitian_eigenvalues(stack[1])


# --- block route ---------------------------------------------------------

def _chessboard_state(d, seed, k):
    if d == 2:
        return build_rho_222(sample_params_222(seed, k))
    return build_rho_22d(sample_params_22d(seed, k, d))


def _with_transposes(rho, d):
    """rho and its six partial transposes, as a (7, n, n) stack."""
    dims = (2, 2, d)
    return np.stack([rho] + [to.partial_transpose(rho, dims, parties)
                             for _, parties in to.PPT_SUBSETS])


def _block_sizes(m):
    n = m.shape[-1]
    pattern = (m != 0).any(axis=tuple(range(m.ndim - 2)))
    return [b.shape[1:] for b in to._blocks(n, pattern.tobytes())]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_block_route_agrees_with_dense_eigh_on_chessboard_states(d):
    n = 4 * d
    eps = np.finfo(float).eps
    stack = np.stack([_with_transposes(_chessboard_state(d, 12, k), d)
                      for k in range(10)])
    # a direct sum of 2x2 blocks, plus 1x1 blocks at d >= 4
    assert _block_sizes(stack) == [(1, 1)] * (d >= 4) + [(2, 2)]
    w = to.hermitian_eigenvalues(stack)
    dense = np.linalg.eigh(stack)[0]
    bound = n * eps * np.linalg.norm(stack, axis=(-2, -1))
    assert (np.abs(w - dense) <= bound[..., None]).all()


def test_block_route_dense_stack_is_bit_equal_to_full_matrix_route():
    stack = _hermitian_stack(np.random.default_rng(41), (5,), 8)
    assert _block_sizes(stack) == [(8, 8)]
    w = to.hermitian_eigenvalues(stack)
    full = np.linalg.eigh((stack + np.swapaxes(stack.conj(), -1, -2)) / 2.0)[0]
    assert w.tobytes() == full.tobytes()


def test_block_route_mixed_pattern_chunk_slices_match_single_calls():
    d = 4
    p = sample_params_22d(13, 0, d)
    states = [build_rho_22d(p),
              build_rho_22d(replace(p, r=(0.0,) + p.r[1:])),  # r1 = 0
              build_rho_22d(replace(p, r=(0.0,) * 6)),        # diagonal only
              _chessboard_state(d, 13, 1)]
    stack = np.stack([_with_transposes(rho, d) for rho in states])
    assert _block_sizes(stack[2]) == [(1, 1)]
    assert _block_sizes(stack[1]) == [(1, 1), (2, 2)]
    assert _block_sizes(stack) == [(1, 1), (2, 2)]
    w = to.hermitian_eigenvalues(stack)
    for idx in np.ndindex(*stack.shape[:2]):
        assert w[idx].tobytes() == to.hermitian_eigenvalues(stack[idx]).tobytes()


def test_block_route_keeps_the_hermiticity_gate_on_the_full_matrix():
    rho = _chessboard_state(2, 14, 0)
    j = int(np.flatnonzero(rho[0] == 0)[-1])    # off every block
    assert rho[j, 0] == 0
    bad = rho.copy()
    bad[0, j] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        to.hermitian_eigenvalues(np.stack([rho, bad]))
    with pytest.raises(ValueError, match="not Hermitian"):
        to.is_ppt(bad)


def test_block_route_residual_gate_sums_over_blocks(monkeypatch):
    stack = _with_transposes(_chessboard_state(3, 15, 0), 3)
    eigh = np.linalg.eigh

    def wrong_vectors(h):
        w, v = eigh(h)
        v = v.copy()
        v[-1, -1, 0, :] *= 1.0 + 1e-6   # one block of the last matrix
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", wrong_vectors)
    with pytest.raises(ArithmeticError, match="residual"):
        to.hermitian_eigenvalues(stack)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    to.hermitian_eigenvalues(stack)


# --- is_ppt --------------------------------------------------------------

def test_is_ppt_maximally_mixed():
    ppt, min_eigs = to.is_ppt(np.eye(8) / 8.0)
    assert ppt is True
    assert set(min_eigs) == {"1", "2", "3", "12", "13", "23"}
    for v in min_eigs.values():
        assert v == pytest.approx(0.125, abs=1e-14)


def test_is_ppt_ghz_is_npt():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    rho = np.outer(v, v.conj())
    ppt, min_eigs = to.is_ppt(rho)
    assert ppt is False
    for label in ("1", "2", "3", "12", "13", "23"):
        assert min_eigs[label] == pytest.approx(-0.5, abs=1e-12)


def test_is_ppt_complementary_subsets_agree():
    rng = np.random.default_rng(11)
    a = random_complex(rng, (8, 8))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    _, min_eigs = to.is_ppt(rho)
    assert min_eigs["1"] == pytest.approx(min_eigs["23"], abs=1e-10)
    assert min_eigs["2"] == pytest.approx(min_eigs["13"], abs=1e-10)
    assert min_eigs["3"] == pytest.approx(min_eigs["12"], abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_is_ppt_matches_per_subset_route(d):
    # one stacked eigensolve gives the bits of six separate ones
    dims = (2, 2, d)
    for k in range(40):
        if d == 2:
            rho = build_rho_222(sample_params_222(8, k))
        else:
            rho = build_rho_22d(sample_params_22d(8, k, d))
        ppt, min_eigs = to.is_ppt(rho, dims)
        want = {label: float(to.hermitian_eigenvalues(
                    to.partial_transpose(rho, dims, parties))[0])
                for label, parties in to.PPT_SUBSETS}
        assert ppt is True
        assert list(min_eigs) == list(want)
        assert all(min_eigs[k].hex() == want[k].hex() for k in want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_ppt_stack_matches_single_calls(d):
    n = 4 * d
    rhos = np.array([_chessboard_state(d, 16, k)
                     for k in range(12)]).reshape(3, 4, n, n)
    ppt, min_eigs = to.is_ppt(rhos, (2, 2, d))
    assert ppt == [[True] * 4] * 3
    assert list(min_eigs) == [label for label, _ in to.PPT_SUBSETS]
    for i, j in np.ndindex(3, 4):
        one_ppt, one = to.is_ppt(rhos[i, j], (2, 2, d))
        assert one_ppt is True
        for label, value in one.items():
            assert type(value) is float
            assert value.hex() == min_eigs[label][i][j].hex()
    with pytest.raises(ValueError, match="does not match dims"):
        to.is_ppt(np.zeros((2, n, n - 1)), (2, 2, d))


def test_is_ppt_fails_a_matrix_with_a_nan_entry():
    rho = _chessboard_state(2, 17, 0)
    rho[3, 3] = np.nan
    ppt, min_eigs = to.is_ppt(np.stack([rho, _chessboard_state(2, 17, 1)]))
    assert ppt == [False, True]
    assert all(math.isnan(v[0]) and math.isfinite(v[1])
               for v in min_eigs.values())


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -5.0, -1e-300])
def test_is_ppt_rejects_bad_tol(tol):
    # a NaN tol made every state "not PPT"; a negative one made PPT
    # states with small eigenvalues fail
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        to.is_ppt(np.eye(8) / 8.0, tol=tol)
    assert to.is_ppt(np.eye(8) / 8.0, tol=0.0)[0] is True


def test_is_ppt_rejects_non_integer_dims():
    # int() used to check dims (2, 2, 2.9) as (2, 2, 2)
    with pytest.raises(ValueError, match=r"^dims\[2\] must be an integer, "
                                         r"got 2\.9$"):
        to.is_ppt(np.eye(8) / 8.0, dims=(2, 2, 2.9))
    assert to.is_ppt(np.eye(8) / 8.0, dims=np.array([2, 2, 2]))[0] is True


# --- qudit substitution ---------------------------------------------------

def test_qudit_substitute_reduces_to_pauli_op():
    for triple in itertools.product(range(4), repeat=3):
        got = to.qudit_substitute(triple, 2, 0, 1)
        assert np.array_equal(got, to.pauli_op(triple)), triple


def test_qudit_substitute_d3_entries():
    # T(1) for (alpha, beta) = (0, 2) in d = 3: E_02 + E_20.
    q = to.qudit_substitute((0, 0, 1), 3, 0, 2)
    t = q[:3, :3]  # first block of I (x) I (x) T
    want = np.zeros((3, 3), dtype=complex)
    want[0, 2] = want[2, 0] = 1
    assert np.array_equal(t, want)
    # T(2): -i(E_02 - E_20)
    q2 = to.qudit_substitute((0, 0, 2), 3, 0, 2)
    t2 = q2[:3, :3]
    want2 = np.zeros((3, 3), dtype=complex)
    want2[0, 2] = -1j
    want2[2, 0] = 1j
    assert np.array_equal(t2, want2)
    # T(3): E_00 - E_22
    q3 = to.qudit_substitute((0, 0, 3), 3, 0, 2)
    assert np.array_equal(np.diag(q3[:3, :3]), np.array([1, 0, -1], dtype=complex))


def test_qudit_substitute_trace_norms():
    # Substituted operators with a nonzero third label keep Tr(Q^2) = 8;
    # a zero third label gives Tr(Q^2) = 4d.
    for d, alpha, beta in [(3, 0, 2), (4, 1, 3), (5, 0, 1)]:
        for triple in [(1, 1, 1), (1, 2, 2), (2, 1, 2), (3, 3, 3), (2, 2, 1)]:
            q = to.qudit_substitute(triple, d, alpha, beta)
            assert np.trace(q @ q) == pytest.approx(8, abs=1e-12)
        for triple in [(3, 0, 0), (0, 3, 0), (1, 1, 0)]:
            q = to.qudit_substitute(triple, d, alpha, beta)
            assert np.trace(q @ q) == pytest.approx(4 * d, abs=1e-12)


def test_qudit_substitute_rejects_bad_pair():
    with pytest.raises(ValueError):
        to.qudit_substitute((1, 1, 1), 3, 2, 0)
    with pytest.raises(ValueError):
        to.qudit_substitute((1, 1, 1), 3, 1, 1)
    with pytest.raises(ValueError):
        to.qudit_substitute((1, 1, 1), 3, 0, 3)


def test_qudit_substitute_rejects_non_integer_d():
    # int() used to build a 12x12 operator for d = 3.5
    with pytest.raises(ValueError, match=r"^d must be an integer, got 3\.5$"):
        to.qudit_substitute((1, 1, 1), 3.5, 0, 1)
    assert to.qudit_substitute((1, 1, 1), np.int8(3), 0, 1).shape == (12, 12)


@pytest.mark.parametrize("alpha, beta, message", [
    (0.5, 2, "alpha must be an integer, got 0.5"),
    (0, 2.0, "beta must be an integer, got 2.0"),
])
def test_qudit_substitute_rejects_non_integer_levels(alpha, beta, message):
    # a float level used to fail inside numpy with a bare IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        to.qudit_substitute((1, 1, 1), 3, alpha, beta)
    assert np.array_equal(
        to.qudit_substitute((1, 1, 1), 3, np.int64(0), np.uint8(2)),
        to.qudit_substitute((1, 1, 1), 3, 0, 2))


# --- Gell-Mann matrices ---------------------------------------------------

def eij(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


@pytest.mark.parametrize("d", range(2, 9))
def test_projector_recursion_and_closing(d):
    """E_ii = E_{i+1,i+1} + sqrt((i+2)/(2(i+1))) L_i - sqrt(i/(2(i+1))) L_{i-1}
    for 0 <= i <= d-2, and E_{d-1,d-1} = I/d - sqrt((d-1)/(2d)) L_{d-2}."""
    for i in range(d - 1):
        rhs = eij(d, i + 1, i + 1) + math.sqrt((i + 2) / (2 * (i + 1))) * to.diag_gell_mann(d, i)
        if i >= 1:
            rhs -= math.sqrt(i / (2 * (i + 1))) * to.diag_gell_mann(d, i - 1)
        assert np.abs(rhs - eij(d, i, i)).max() <= 1e-15
    closing = np.eye(d) / d - math.sqrt((d - 1) / (2 * d)) * to.diag_gell_mann(d, d - 2)
    assert np.abs(closing - eij(d, d - 1, d - 1)).max() <= 1e-15


def su3_standard_lambdas():
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.diag([1, -1, 0]).astype(complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    l8 = np.diag([1, 1, -2]).astype(complex) / math.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


def test_su3_identities():
    lam = su3_standard_lambdas()
    assert np.abs(math.sqrt(2) * to.sym_gell_mann(3, 0, 2) - lam[3]).max() <= 1e-15
    assert np.abs(math.sqrt(2) * to.antisym_gell_mann(3, 0, 2) - lam[4]).max() <= 1e-15
    # E_00 - E_22 = (L_3 + sqrt(3) L_8)/2
    lhs = eij(3, 0, 0) - eij(3, 2, 2)
    rhs = (lam[2] + math.sqrt(3) * lam[7]) / 2
    assert np.abs(lhs - rhs).max() <= 1e-15


def test_gell_mann_basis_su3_matches_standard_list():
    basis = to.gell_mann_basis(3)
    lam = su3_standard_lambdas()
    assert len(basis) == 8
    for got, want in zip(basis, lam):
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("d", range(2, 7))
def test_gell_mann_basis_orthonormality(d):
    basis = to.gell_mann_basis(d)
    assert len(basis) == d * d - 1
    for a, la in enumerate(basis):
        assert np.abs(la - la.conj().T).max() <= 1e-15
        assert abs(np.trace(la)) <= 1e-15
        for b, lb in enumerate(basis):
            want = 2.0 if a == b else 0.0
            assert np.trace(la @ lb).real == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: to.gell_mann_basis(3.7), "d must be an integer, got 3.7"),
    (lambda: to.gen_gellmann(3.0), "d must be an integer, got 3.0"),
    (lambda: to.sym_gell_mann(3.5, 0, 2), "d must be an integer, got 3.5"),
    (lambda: to.antisym_gell_mann(2.5, 0, 1),
     "d must be an integer, got 2.5"),
    (lambda: to.diag_gell_mann(4.2, 1), "d must be an integer, got 4.2"),
    (lambda: to.sym_gell_mann(3, 0, 1.5), "b must be an integer, got 1.5"),
], ids=["gell_mann_basis", "gen_gellmann", "sym_gell_mann",
        "antisym_gell_mann", "diag_gell_mann", "sym_gell_mann-level"])
def test_gell_mann_entry_points_reject_non_integers(call, message):
    # int() used to truncate d: gell_mann_basis(3.7) gave eight matrices
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_gell_mann_d2_are_paulis():
    basis = to.gell_mann_basis(2)
    for got, want in zip(basis, [to.pauli(1), to.pauli(2), to.pauli(3)]):
        assert np.abs(got - want).max() <= 1e-15


# --- matrix JSON -----------------------------------------------------------

def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(3)
    m = random_complex(rng, (6, 6))
    back = to.matrix_from_json(to.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_json_rejects_bad_input():
    with pytest.raises(ValueError):
        to.matrix_to_json(np.array([[np.nan, 0], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        to.matrix_from_json({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(ValueError):
        to.matrix_from_json({"re": [[0.0]], "im": [[0.0]]})


# --- public operator-kit wrappers ---------------------------------------------------

def test_kron_two_factor_entries():
    rng = np.random.default_rng(11)
    a = random_complex(rng, (2, 3))
    b = random_complex(rng, (4, 2))
    got = to.kron(a, b)
    assert got.shape == (8, 6)
    # entrywise product up to one complex-multiply rounding step
    for i, j, k, l in itertools.product(range(2), range(3), range(4),
                                        range(2)):
        assert abs(got[i * 4 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-14


def test_kron3_is_iterated_kron():
    rng = np.random.default_rng(12)
    a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
    assert np.array_equal(to.kron3(a, b, c), to.kron(to.kron(a, b), c))


def test_pauli_op_three_index_form_matches_triple_form():
    for triple in itertools.product(range(4), repeat=3):
        assert np.array_equal(to.pauli_op(triple),
                              to.pauli_op(*triple))


def test_pauli_op_partial_indices_raise():
    with pytest.raises(ValueError):
        to.pauli_op(1, 2)
    with pytest.raises(ValueError):
        to.pauli_op(1, j=2)
    with pytest.raises(ValueError):
        to.pauli_op(1, k=2)


def test_phase_gate_matrix_and_conjugation():
    s = to.phase_gate()
    assert np.array_equal(s, np.array([[1, 0], [0, 1j]], dtype=complex))
    # unitary: S S^dagger = 1
    assert np.abs(s @ s.conj().T - np.eye(2)).max() <= 1e-15
    sd = s.conj().T
    # S sigma_x S^dagger = sigma_y, S sigma_y S^dagger = -sigma_x,
    # sigma_z fixed
    assert np.abs(s @ to.pauli(1) @ sd - to.pauli(2)).max() <= 1e-15
    assert np.abs(s @ to.pauli(2) @ sd + to.pauli(1)).max() <= 1e-15
    assert np.abs(s @ to.pauli(3) @ sd - to.pauli(3)).max() <= 1e-15


def test_gellmann_su3_indexing():
    lam = su3_standard_lambdas()
    for a in range(1, 9):
        assert np.abs(to.gellmann_su3(a) - lam[a - 1]).max() <= 1e-15
    for bad in (0, 9, -1, "3"):
        with pytest.raises(ValueError):
            to.gellmann_su3(bad)


@pytest.mark.parametrize("d", range(2, 7))
def test_gen_gellmann_bundle_structure(d):
    bundle = to.gen_gellmann(d)
    assert set(bundle) == {"E", "plus", "minus", "diag"}
    assert len(bundle["E"]) == d * d
    assert len(bundle["plus"]) == d * (d - 1) // 2
    assert len(bundle["minus"]) == d * (d - 1) // 2
    assert len(bundle["diag"]) == d - 1
    for (i, j), m in bundle["E"].items():
        want = np.zeros((d, d), dtype=complex)
        want[i, j] = 1.0
        assert np.array_equal(m, want)
    for (a, b), m in bundle["plus"].items():
        want = (bundle["E"][(a, b)] + bundle["E"][(b, a)]) / math.sqrt(2)
        assert np.abs(m - want).max() <= 1e-15
    for (a, b), m in bundle["minus"].items():
        want = (bundle["E"][(a, b)] - bundle["E"][(b, a)]) / (1j *
                                                              math.sqrt(2))
        assert np.abs(m - want).max() <= 1e-15
    # plus/minus carry unit trace norm; the diagonal list carries the
    # basis normalization Tr(L^2) = 2
    for m in list(bundle["plus"].values()) + list(bundle["minus"].values()):
        assert np.abs(m - m.conj().T).max() <= 1e-15
        assert abs(np.trace(m)) <= 1e-15
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-14)
    for m in bundle["diag"]:
        assert np.abs(m - m.conj().T).max() <= 1e-15
        assert abs(np.trace(m)) <= 1e-15
        assert np.trace(m @ m).real == pytest.approx(2.0, abs=1e-14)
    last = bundle["diag"][-1]
    scale = math.sqrt(2.0 / (d * (d - 1)))
    want = scale * np.diag([1.0] * (d - 1) + [1.0 - d]).astype(complex)
    assert np.abs(last - want).max() <= 1e-14


def test_gen_gellmann_rejects_small_d():
    with pytest.raises(ValueError):
        to.gen_gellmann(1)
