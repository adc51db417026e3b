"""Tests for chesswit.chessboard against independent oracles.

The build oracle assembles the 8x8 matrix entry-by-entry from the
documented layout, independent of the module's vectorized path; the
coefficient oracle is the honest trace Tr(rho O_t) over all 64 triples.
"""

import dataclasses
import itertools
import json
import math
import re
import types
import warnings

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


def test_gamma_collision_with_couplings_can_break_positivity():
    # gamma = alpha chains the couplings into 4x4 blocks; with all moduli
    # at 1 the documented layout is not positive semidefinite, so the
    # constructor rejects a colliding gamma with a gamma-gamma modulus
    fields = dict(dim=3, alpha=0, beta=2, gamma=0, diag=(
        (1.8789852661499484, 0.3463964459891802, 0.12076665792328141),
        (0.10790840445381386, 4.231949517477533, 6.691310059954052),
    ), r=(1.0,) * 6, phi=(0.0,) * 6)
    layout = oracle_rho_22d(types.SimpleNamespace(**fields))
    assert to.hermitian_eigenvalues(layout)[0] < -1e-3
    with pytest.raises(ValueError, match=r"^r\[2\] must be 0 when gamma "
                       r"collides with alpha or beta, got 1\.0$"):
        cb.ChessParams22d(**fields)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("gamma", [0, 2])
def test_colliding_gamma_keeps_the_alpha_beta_diagonals(dim, coupled, gamma):
    # gamma = alpha or beta: the 1-branch diagonal at |1 j gamma> is the
    # one the alpha/beta coupling ties, not the gamma-gamma one, with or
    # without alpha/beta couplings
    alpha, beta = 0, 2
    diag = (tuple(2.0 + k for k in range(dim)),
            tuple(7.0 + 4 * k for k in range(dim)))
    r = (0.5, 0.25, 0.0, 0.75, 1.0, 0.0) if coupled else (0.0,) * 6
    p = cb.ChessParams22d(dim=dim, alpha=alpha, beta=beta, gamma=gamma,
                          diag=diag, r=r)
    expected = np.zeros(4 * dim)
    expected[:2 * dim] = diag[0] + diag[1]
    for j in (0, 1):
        for mu, partner in ((alpha, beta), (beta, alpha)):
            expected[2 * dim + j * dim + mu] = 1 / diag[1 - j][partner]
    rho = cb.build_rho_22d(p)
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 8 * coupled
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
            m[col, col] = 1 / p.diag[j][src]
        z = r * np.exp(1j * phi)
        m[row, col] += z
        m[col, row] += np.conj(z)
    return m / m.trace().real


def _level_triples(d):
    for alpha, beta in itertools.permutations(range(d), 2):
        for gamma in range(d):
            yield alpha, beta, gamma


def _rho_stack(states):
    """The rho stack of 2x2xd states of one level structure, through
    their columns as the scan builds it."""
    columns = cb.ParamColumns.of(states)
    return cb.rho_stack(cb.rho_entries_22d(columns),
                        cb.coupling_cells(*columns.levels))


def _moduli(value, gamma, alpha, beta):
    """Six coupling moduli ``value``, but 0 in the gamma-gamma slots of a
    gamma that collides with alpha or beta, as the constructor needs."""
    return tuple(0.0 if slot == "gg" and gamma in (alpha, beta) else value
                 for _, slot in cb.SLOT_ORDER)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_rho_stack_bit_equal_per_row_build(d):
    # every alpha != beta and gamma, colliding ones included, with
    # sampled, zero and equal couplings
    for alpha, beta, gamma in _level_triples(d):
        states = [cb.sample_params_22d(21, i, d, alpha, beta, gamma)
                  for i in range(5)]
        states.append(cb.ChessParams22d(d, alpha, beta, gamma,
                                        states[0].diag))
        states.append(cb.ChessParams22d(
            d, alpha, beta, gamma, states[0].diag,
            r=_moduli(0.25, gamma, alpha, beta), phi=states[0].phi))
        stack = _rho_stack(states)
        assert stack.shape == (len(states), 4 * d, 4 * d)
        for p, rho in zip(states, stack):
            assert rho.tobytes() == oracle_rho_22d(p).tobytes(), p
            assert cb.build_rho_22d(p).tobytes() == rho.tobytes(), p


def test_rho_stack_needs_one_level_structure():
    states = [cb.sample_params_22d(1, 0, 3), cb.sample_params_22d(1, 1, 3,
                                                                gamma=0)]
    with pytest.raises(ValueError, match="must share dim, alpha, beta"):
        cb.ParamColumns.of(states)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_positivity_proven_states_are_psd(data):
    # the chessboard proof that lets build_rho_22d, the scan and detect
    # skip the eigensolve: at every level triple, a colliding gamma
    # included, every state the constructor accepts is PSD, and it
    # rejects only a colliding gamma with a gamma-gamma modulus
    d = data.draw(st.integers(2, 5))
    alpha, beta = data.draw(st.permutations(range(d)))[:2]
    gamma = data.draw(st.integers(0, d - 1))
    row = st.lists(st.floats(1e-8, 1e8), min_size=d, max_size=d)
    diag = (data.draw(row), data.draw(row))
    six = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)
    r = data.draw(six)
    phi = [2 * math.pi * u for u in data.draw(six)]
    colliding = gamma in (alpha, beta)
    if colliding and data.draw(st.booleans()):
        r[2] = r[5] = 0.0
    bad = [i for i in (2, 5) if colliding and r[i] != 0.0]
    if bad:
        message = (f"r[{bad[0]}] must be 0 when gamma collides with alpha "
                   f"or beta, got {r[bad[0]]!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cb.ChessParams22d(d, alpha, beta, gamma, diag, r, phi)
        return
    p = cb.ChessParams22d(d, alpha, beta, gamma, diag, r, phi)
    assert to.hermitian_eigenvalues(cb.build_rho_22d(p))[0] >= -1e-12


@pytest.mark.parametrize("gg, bad", [
    ((0.0, 0.0), None), ((-0.0, 0.0), None), ((0.5, 0.0), (2, 0.5)),
    ((0.0, 1.0), (5, 1.0)), ((0.3, 0.7), (2, 0.3)),
])
def test_colliding_gamma_needs_zero_gamma_gamma_moduli(gg, bad):
    # zero (or -0.0) gamma-gamma moduli pass at every level triple; a
    # nonzero one passes only where gamma is distinct from alpha and
    # beta, and the first such slot is named
    for d in (3, 4):
        for alpha, beta, gamma in _level_triples(d):
            p = cb.sample_params_22d(5, 0, d, alpha, beta, gamma)
            r = list(p.r)
            r[2], r[5] = gg
            if bad and gamma in (alpha, beta):
                message = (f"r[{bad[0]}] must be 0 when gamma collides "
                           f"with alpha or beta, got {bad[1]!r}")
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(message)}$"):
                    dataclasses.replace(p, r=tuple(r))
            else:
                assert dataclasses.replace(p, r=tuple(r)).r == tuple(r)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_every_sampled_state_is_proven_positive(d):
    # the sampler zeroes a colliding gamma's moduli, so every row it
    # gives is a state the constructor accepts, whose rho is PSD
    for alpha, beta, gamma in itertools.product(range(d), repeat=3):
        if alpha != beta:
            chunk = cb.sample_chunk(9, 0, 2, (d, alpha, beta, gamma))
            for i in range(len(chunk)):
                least = to.hermitian_eigenvalues(cb.build_rho_22d(chunk[i]))
                assert least[0] >= -1e-12, (alpha, beta, gamma)


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


def test_qudit_levels_rejects_bools():
    # (3, True, 2, 1) gave the levels (1, 2, 1)
    with pytest.raises(ValueError, match="^alpha must be an integer, "
                       "got True$"):
        cb.qudit_levels(3, True, 2, 1)
    with pytest.raises(ValueError, match="^dim must be an integer, "
                       "got True$"):
        cb.qudit_levels(True)


# --- sampling ----------------------------------------------------------------


def oracle_sample_222(seed, index):
    """(diag, r, phi) of sample ``index`` of stream ``seed``, drawn with
    ``Generator.uniform`` as the per-row sampler used to draw them."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    diag = 10.0 ** rng.uniform(-1.0, 1.0, size=4)
    r = rng.uniform(0.0, 1.0, size=4)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=4)
    return diag, r, phi


def oracle_sample_22d(seed, index, dim, alpha, beta, gamma):
    """The 2x2xd counterpart of :func:`oracle_sample_222`; diag is row 0
    then row 1."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    row0 = 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
    row1 = 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
    r = rng.uniform(0.0, 1.0, size=6)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=6)
    if gamma in (alpha, beta):
        r[[k for k, (_, slot) in enumerate(cb.SLOT_ORDER)
           if slot == "gg"]] = 0.0
    return np.concatenate((row0, row1)), r, phi


def oracle_build_rho_222(p):
    """``build_rho_222`` as written per state: trace n summed in the
    order of ``diag_unnormalized``, couplings set one at a time."""
    n = cb.normalization(p)
    rho = np.diag(np.array(p.diag_unnormalized, dtype=np.complex128))
    for (row, col), r, phi in zip(cb.COUPLING_POSITIONS, p.r, p.phi):
        z = r * np.exp(1j * phi)
        rho[row, col] = z
        rho[col, row] = np.conj(z)
    return rho / n


def _bits(columns):
    """The bit patterns of each array of ``columns``, as lists."""
    return [np.asarray(c, dtype=np.float64).view(np.uint64).tolist()
            for c in columns]


SAMPLER_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
@pytest.mark.parametrize("start", [0, 10 ** 12])
def test_sample_chunk_222_bit_equal_uniform_oracle(seed, start):
    chunk = cb.sample_chunk(seed, start, start + 16)
    assert chunk.levels is None and len(chunk) == 16
    want = [np.array(c) for c in zip(*(oracle_sample_222(seed, start + i)
                                       for i in range(16)))]
    assert _bits((chunk.diag, chunk.r, chunk.phi)) == _bits(want)
    # the per-row sampler is its N = 1 case
    p = cb.sample_params_222(seed, start + 5)
    assert p == chunk[5]
    assert _bits(((p.a, p.b, p.c, p.d), p.r, p.phi)) == \
        _bits(oracle_sample_222(seed, start + 5))


def _sampler_levels():
    for d in (2, 3, 4, 5):
        default = cb.qudit_levels(d)
        alpha, beta, _ = default
        yield d, default
        yield d, (alpha, beta, alpha)
        yield d, (alpha, beta, beta)
        if d > 3:
            yield d, (d - 1, 1, 2)


@pytest.mark.parametrize("d, levels", list(_sampler_levels()))
def test_sample_chunk_22d_bit_equal_uniform_oracle(d, levels):
    for seed in SAMPLER_SEEDS:
        for start in (0, 10 ** 12):
            chunk = cb.sample_chunk(seed, start, start + 6, (d,) + levels)
            assert chunk.levels == (d,) + levels
            want = [np.array(c) for c in zip(*(
                oracle_sample_22d(seed, start + i, d, *levels)
                for i in range(6)))]
            assert _bits((chunk.diag, chunk.r, chunk.phi)) == _bits(want)
            p = cb.sample_params_22d(seed, start + 2, d, *levels)
            assert p == chunk[2]
            assert _bits((p.diag[0] + p.diag[1], p.r, p.phi)) == \
                _bits(oracle_sample_22d(seed, start + 2, d, *levels))


@pytest.mark.parametrize("seed", [0, 7, 123456, 2 ** 32 - 1, 2 ** 63])
def test_rho_and_coeff_stacks_222_bit_equal_per_row(seed):
    # rho's trace adds a, b, c, d, 1/d, 1/c, 1/b, 1/a and pauli_coeffs'
    # n adds a, b, c, d, 1/a, 1/b, 1/c, 1/d; sharing one n moves bits
    for start in (0, 5000, 10 ** 12):
        chunk = cb.sample_chunk(seed, start, start + 64)
        rhos = cb.rho_stack(cb.rho_entries_222(chunk), cb.COUPLING_POSITIONS)
        coeffs = cb.pauli_coeff_stack(chunk)
        assert rhos.shape == (64, 8, 8) and coeffs.shape == (64, 15)
        for i in range(64):
            p = chunk[i]
            assert rhos[i].tobytes() == oracle_build_rho_222(p).tobytes()
            assert cb.build_rho_222(p).tobytes() == rhos[i].tobytes()
            co = cb.pauli_coeffs(p)
            assert list(co) == list(cb.COEFF_TRIPLES)
            assert coeffs[i].tobytes() == np.array(list(co.values())).tobytes()


def test_the_two_normalization_orders_differ():
    # why the trace and pauli_coeffs keep their own sums
    differ = 0
    for i in range(512):
        p = cb.sample_params_222(0, i)
        n = p.a + p.b + p.c + p.d + 1 / p.a + 1 / p.b + 1 / p.c + 1 / p.d
        differ += n != cb.normalization(p)
    assert differ > 0


def test_normalization_is_the_left_to_right_trace():
    # n is added left to right, as rho_entries_222 adds the trace; a
    # compensated sum (the builtin sum from Python 3.12) would give
    # 2**53 + 6 for the first state
    p = cb.ChessParams222(2.0 ** 53, 1, 1, 1)
    assert cb.normalization(p) == 2.0 ** 53
    chunk = cb.sample_chunk(0, 0, 2000)
    trace = cb.rho_entries_222(chunk)[2]
    for i in range(2000):
        p = chunk[i]
        n = p.a + p.b + p.c + p.d + 1 / p.d + 1 / p.c + 1 / p.b + 1 / p.a
        assert cb.normalization(p).hex() == n.hex() == trace[i].hex()


@pytest.mark.parametrize("args, message", [
    ((True, 0, 1), "seed must be a non-negative integer, got True"),
    ((0, -1, 1), "start must be a non-negative integer, got -1"),
    ((0, 0, 1.0), "stop must be a non-negative integer, got 1.0"),
    ((0, 5, 4), "stop must be >= start, got 5..4"),
    ((0, 0, 1, (3, 1, 1, 0)), "alpha and beta must differ"),
    ((0, 0, 1, (3.0, 0, 2, 1)), "dim must be an integer, got 3.0"),
])
def test_sample_chunk_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cb.sample_chunk(*args)


def oracle_stream_words(seed, start, stop):
    """numpy's own seeding, one ``SeedSequence`` per index."""
    return np.array([np.random.SeedSequence((seed, i)).generate_state(
        4, np.uint64) for i in range(start, stop)],
        dtype=np.uint64).reshape(-1, 4)


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 96 + 3])
@pytest.mark.parametrize("start, stop", [
    (0, 16), (1000, 1064), (7, 7), (9, 10), (2 ** 31 - 2, 2 ** 31 + 2),
    (2 ** 32 - 3, 2 ** 32 + 3), (2 ** 64 - 3, 2 ** 64),
    (2 ** 64 - 2, 2 ** 64 + 2), (2 ** 96 - 1, 2 ** 96 + 1),
], ids=["block", "64", "none", "one", "2^31", "straddle-2^32", "to-2^64",
        "straddle-2^64", "straddle-2^96"])
def test_stream_words_bit_equal_seed_sequence(seed, start, stop):
    # seed 2^96 + 3 has four words, so every index word lies beyond the
    # pool; seed 2^64 - 1 with an index >= 2^64 has five entropy words
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = cb.stream_words(seed, start, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
    assert words.tolist() == oracle_stream_words(seed, start, stop).tolist()


def test_stream_words_seed_a_pcg64_as_seed_sequence_does():
    words = cb.stream_words(11, 3, 5)
    for i, state in zip((3, 4), words):
        want = np.random.PCG64(np.random.SeedSequence((11, i)))
        assert cb._pcg64(state).state == want.state
    with pytest.raises(ValueError, match="four uint64 words"):
        cb._stream_seed_type()(words[0]).generate_state(4, np.uint32)


@pytest.mark.parametrize("args, message", [
    ((-1, 0, 1), "seed must be a non-negative integer, got -1"),
    ((True, 0, 1), "seed must be a non-negative integer, got True"),
    ((0, 2.0, 3), "start must be a non-negative integer, got 2.0"),
    ((0, 4, 3), "stop must be >= start, got 4..3"),
])
def test_stream_words_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cb.stream_words(*args)


def test_samplers_build_no_seed_sequence(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def spy(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", spy)
    chunk = cb.sample_chunk(5, 0, 4, (3, 0, 2, 1))
    p = cb.sample_params_222(5, 2)
    normal = cb._rng_for(5, 1).normal(size=3)
    assert built == []
    monkeypatch.undo()
    assert _bits((chunk.diag, chunk.r, chunk.phi)) == _bits(
        [np.array(c) for c in zip(*(oracle_sample_22d(5, i, 3, 0, 2, 1)
                                    for i in range(4)))])
    assert _bits(((p.a, p.b, p.c, p.d), p.r, p.phi)) == \
        _bits(oracle_sample_222(5, 2))
    want = np.random.default_rng(np.random.SeedSequence((5, 1)))
    assert normal.tobytes() == want.normal(size=3).tobytes()


def test_sample_chunk_of_no_rows():
    chunk = cb.sample_chunk(3, 7, 7, (4, 0, 2, 1))
    assert len(chunk) == 0
    assert chunk.diag.shape == (0, 8) and chunk.r.shape == (0, 6)


@pytest.mark.parametrize("column, value", [
    ("diag", 0.0), ("diag", -1.0), ("diag", math.inf), ("diag", 1e-320),
    ("diag", math.nan), ("r", 1.5), ("r", -0.25), ("r", math.nan),
    ("phi", math.inf), ("phi", math.nan),
])
def test_chunk_range_check_rejects_what_the_params_reject(column, value):
    # the per-row constructor's guarantees, checked once per chunk
    chunk = cb.sample_chunk(5, 0, 3, (3, 0, 2, 1))
    getattr(chunk, column)[1, 2] = value
    with pytest.raises(ValueError):
        chunk[1]
    with pytest.raises(ValueError, match="^sampled parameters out of range$"):
        cb._check_columns(chunk)
    cb._check_columns(cb.sample_chunk(5, 0, 3, (3, 0, 2, 1)))


def test_sample_chunk_range_checks_every_chunk(monkeypatch):
    checked = []
    check = cb._check_columns

    def spy(columns):
        checked.append((columns.levels, len(columns)))
        return check(columns)

    monkeypatch.setattr(cb, "_check_columns", spy)
    cb.sample_chunk(1, 0, 5, (3, 0, 2, 1))
    cb.sample_params_222(1, 4)
    assert checked == [((3, 0, 2, 1), 5), (None, 1)]


def test_chunk_range_check_bounds_the_normalization():
    # each diagonal has a finite reciprocal, but the sum overflows
    chunk = cb.ParamColumns.of([cb.ChessParams222(1, 1, 1, 1)] * 2)
    chunk.diag[1, :2] = 1e308
    with pytest.raises(ValueError, match="normalization must be finite"):
        chunk[1]
    with pytest.raises(ValueError, match="^sampled parameters out of range$"):
        cb._check_columns(chunk)


def test_param_columns_round_trip_the_parameter_objects():
    states = [cb.sample_params_22d(4, i, 4, 1, 3, 0) for i in range(5)]
    chunk = cb.ParamColumns.of(states)
    assert chunk.levels == (4, 1, 3, 0)
    assert [chunk[i] for i in range(5)] == states
    flat = [cb.sample_params_222(4, i) for i in range(3)]
    assert [cb.ParamColumns.of(flat)[i] for i in range(3)] == flat
    with pytest.raises(ValueError, match="must share dim, alpha, beta"):
        cb.ParamColumns.of(flat[:1] + states[:1])


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


@pytest.mark.parametrize("sampler, args, message", [
    (cb.sample_params_222, (0, -1),
     "index must be a non-negative integer, got -1"),
    (cb.sample_params_22d, (-1, 0, 3),
     "seed must be a non-negative integer, got -1"),
    (cb.sample_params_222, (-2, 0),
     "seed must be a non-negative integer, got -2"),
    (cb.sample_params_222, (0, 1.5),
     "index must be a non-negative integer, got 1.5"),
    (cb.sample_params_22d, (1.0, 1, 3),
     "seed must be a non-negative integer, got 1.0"),
    (cb.sample_params_22d, (0, 1, 2.5), "dim must be an integer, got 2.5"),
    (cb.sample_params_222, (True, 0),
     "seed must be a non-negative integer, got True"),
    (cb.sample_params_22d, (True, 0, 3),
     "seed must be a non-negative integer, got True"),
    (cb.sample_params_222, (0, False),
     "index must be a non-negative integer, got False"),
], ids=["222-index--1", "22d-seed--1", "222-seed--2", "222-index-1.5",
        "22d-seed-1.0", "22d-dim-2.5", "222-seed-True", "22d-seed-True",
        "222-index-False"])
def test_single_state_samplers_reject_bad_streams(sampler, args, message):
    # 1.5 used to draw index 1, and a negative index failed inside numpy
    # without naming it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sampler(*args)
    assert cb.sample_params_22d(np.int64(42), np.uint8(5), np.int32(3)) == \
        cb.sample_params_22d(42, 5, 3)


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


_TIED_ABSENT = "tied must be absent: every 2x2xd state has tied reciprocals"


@pytest.mark.parametrize("field, value, message", [
    ("dim", 3.7, "dim must be an integer, got 3.7"),
    ("dim", "4", "dim must be an integer"),
    ("alpha", 1.5, "alpha must be an integer, got 1.5"),
    ("beta", 2.0, "beta must be an integer, got 2.0"),
    ("gamma", 1.9, "gamma must be an integer, got 1.9"),
    ("tied", "false", _TIED_ABSENT),
    ("tied", 0, _TIED_ABSENT),
    ("tied", None, _TIED_ABSENT),
])
def test_params_json_rejects_non_integral_levels_and_non_bool_tied(
        field, value, message):
    obj = cb.params_to_json(cb.sample_params_22d(5, 17, 4))
    with pytest.raises(ValueError, match=message):
        cb.params_from_json({**obj, field: value})


def test_params_json_rejects_a_non_integral_coupling_branch():
    obj = cb.params_to_json(cb.sample_params_22d(5, 17, 4))
    couplings = [dict(c) for c in obj["couplings"]]
    couplings[4]["j"] = 0.5
    with pytest.raises(ValueError, match=r"couplings\[4\]\.j must be an "
                                         r"integer, got 0\.5"):
        cb.params_from_json({**obj, "couplings": couplings})


def test_params_json_rejects_a_tied_key():
    # the writer has no "tied" key; the reader rejects one, as reading
    # "tied": false as a tied state would give a different state
    p = cb.sample_params_22d(5, 17, 4)
    obj = json.loads(json.dumps(cb.params_to_json(p)))
    assert "tied" not in obj and cb.params_from_json(obj) == p
    for value in (True, False):
        with pytest.raises(ValueError, match=f"^{_TIED_ABSENT}$"):
            cb.params_from_json({**obj, "tied": value})


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
        op = to.kron3(to.PAULI[t[0]], to.PAULI[t[1]], subspace[t[2]])
        tr = np.trace(rho @ op)
        assert abs(tr.imag) <= 1e-12
        assert co[t] == pytest.approx(tr.real, abs=1e-12), t
