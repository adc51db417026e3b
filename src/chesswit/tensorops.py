"""Dense tensor-algebra primitives for three-party quantum systems.

All matrices are ``numpy.complex128``. The composite Hilbert space is
``C^{d1} (x) C^{d2} (x) C^{d3}`` with big-endian flat index
``i1*(d2*d3) + i2*d3 + i3``; parties are numbered 1..3.

Provides Pauli triple products, qudit-substituted triple products,
partial transposes, a guarded Hermitian eigensolver, a PPT check over
all nontrivial party subsets, generalized Gell-Mann matrices, and a
JSON wire format for complex matrices.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PAULI",
    "pauli",
    "kron",
    "kron3",
    "pauli_op",
    "phase_gate",
    "partial_transpose",
    "hermitian_eigenvalues",
    "is_ppt",
    "PPT_SUBSETS",
    "qudit_substitute",
    "sym_gell_mann",
    "antisym_gell_mann",
    "diag_gell_mann",
    "gell_mann_basis",
    "gellmann_su3",
    "gen_gellmann",
    "matrix_to_json",
    "matrix_from_json",
]

# The four single-qubit basis operators sigma_0..sigma_3
# (identity, x, y, z), frozen read-only.
PAULI: Tuple[np.ndarray, ...] = tuple(
    np.array(m, dtype=np.complex128) for m in (
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    )
)
for _m in PAULI:
    _m.setflags(write=False)


def _check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (numpy
    integers included, bools not), which ``int()`` would not check."""
    # the type test spares plain ints the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_number(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is an int or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _check_tol(name: str, value: float) -> float:
    """``value`` unchanged; ValueError unless it is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def pauli(i: int) -> np.ndarray:
    """Return a copy of sigma_i for i in 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {i!r}")
    return PAULI[i].copy()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: result[(i*dimB+k),(j*dimB+l)] = A[i,j]*B[k,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three matrices, first party slowest."""
    return np.kron(np.kron(np.asarray(a), np.asarray(b)), np.asarray(c))


def pauli_op(triple, j: int | None = None, k: int | None = None) -> np.ndarray:
    """8x8 three-party operator sigma_i (x) sigma_j (x) sigma_k.

    Accepts either one sequence of three indices in 0..3 or the three
    indices as separate arguments. The result is Hermitian with trace
    8*delta(triple, (0,0,0)) and squared trace norm Tr(O^2) = 8.
    """
    if j is not None or k is not None:
        if j is None or k is None:
            raise ValueError("pass a triple or all three indices")
        triple = (triple, j, k)
    i, j, k = triple
    if not all(t in (0, 1, 2, 3) for t in (i, j, k)):
        raise ValueError(f"triple entries must be 0..3, got {triple!r}")
    return kron3(PAULI[i], PAULI[j], PAULI[k])


def phase_gate() -> np.ndarray:
    """Single-qubit gate diag(1, i).

    Conjugation maps sigma_x -> sigma_y, sigma_y -> -sigma_x, and
    leaves sigma_z fixed; this generates the primed witness families.
    """
    return np.diag([1.0, 1.0j]).astype(np.complex128)


def _as_square(m: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    size = int(np.prod(dims))
    if m.shape != (size, size):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims {tuple(dims)}"
        )
    return m


def partial_transpose(
    m: np.ndarray,
    dims: Sequence[int] = (2, 2, 2),
    parties: Iterable[int] = (1,),
) -> np.ndarray:
    """Partial transpose over the given parties (1-based).

    ``dims`` lists the local dimensions; ``parties`` is an iterable of
    integer party numbers in 1..len(dims) (ValueError otherwise). Entry
    bookkeeping: transposing party p swaps its row index with its column
    index, so e.g. for qubits the ((0,0,0),(1,1,1)) entry moves to
    ((1,0,0),(0,1,1)) under the transpose of party 1.
    """
    dims = tuple(_check_integer(f"dims[{i}]", d) for i, d in enumerate(dims))
    m = _as_square(m, dims)
    parties = tuple(sorted({_check_integer(f"parties[{i}]", p)
                            for i, p in enumerate(parties)}))
    n = len(dims)
    for p in parties:
        if not 1 <= p <= n:
            raise ValueError(f"party {p} out of range 1..{n}")
    return _swap_parties(m, dims, parties)


def _swap_parties(m: np.ndarray, dims: Tuple[int, ...],
                  parties: Tuple[int, ...]) -> np.ndarray:
    """:func:`partial_transpose` of a matrix already checked against dims."""
    n = len(dims)
    t = m.reshape(dims + dims)
    for p in parties:
        t = np.swapaxes(t, p - 1, p - 1 + n)
    size = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(size, size))


# an inf entry makes NaNs in the gate, the symmetrization and the
# residual; they are reported as NaN eigenvalues, with no warning
@np.errstate(invalid="ignore")
def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of a stack of them, ascending.

    ``m`` has shape ``(..., n, n)``; the result has shape ``(..., n)``.
    Each matrix is gated on Hermiticity (max |M - M^dagger| <=
    1e-12 * max(1, max|M|)) before solving (ValueError) and symmetrized
    to suppress rounding noise. The stack is then solved as the direct
    sum of the connected components of its union nonzero pattern
    (``_blocks``): the blocks of one size are taken with one fancy index
    and solved with one ``eigh`` call, and their eigenvalues are sorted
    together. A dense pattern is one block in natural order, solved as
    the whole matrix. Per matrix, the square root of the summed squared
    residuals of the blocks' spectral reconstructions must be at most
    1e-10 * ||M||_F (ArithmeticError). A matrix whose residual is not
    finite, as for one with a NaN entry, gets NaN eigenvalues, unless
    ``eigh`` raises ``LinAlgError`` on it first. A slice can differ
    from that matrix solved alone only when the stack's pattern joins
    blocks the matrix leaves apart, and then only by rounding.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    h = _hermitian_part(m)
    n = m.shape[-1]
    batch = m.shape[:-2]
    if n == 0:
        return np.zeros(batch + (0,))
    pattern = h != 0
    if batch:
        pattern = pattern.any(axis=tuple(range(len(batch))))
    flat = h.reshape(batch + (n * n,))
    blocks = _blocks(n, pattern.tobytes())
    # entries off the blocks are zero, so the blocks' squared Frobenius
    # norms sum to those of the whole matrices
    parts, squared, norm = [], 0.0, 0.0
    for index in blocks:
        hb = flat[..., index]
        w, v = np.linalg.eigh(hb)
        diff = (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2) - hb
        squared = squared + _squared_norms(diff)
        norm = norm + _squared_norms(hb)
        parts.append(w.reshape(batch + (index.shape[0] * index.shape[1],)))
    w = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if len(blocks) > 1 or blocks[0].shape[0] > 1:
        w = np.sort(w, axis=-1)
    norm = np.sqrt(norm)
    residual = np.sqrt(squared)
    if not (residual <= 1e-10 * norm).all():
        bad = residual > 1e-10 * norm
        if bad.any():
            raise ArithmeticError(
                "eigendecomposition residual "
                f"{float(residual[bad].max()):.3e} exceeds 1e-10 * ||M||_F"
                f" = {1e-10 * float(norm[bad].max()):.3e}"
            )
        # a NaN residual: LAPACK can return finite eigenvalues for a
        # block holding a NaN
        w[np.isnan(residual)] = np.nan
    return w


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2 of each matrix of a square ``(..., n, n)``
    complex stack, gated per matrix on max |M - M^dagger| <=
    1e-12 * max(1, max|M|) (ValueError). A NaN entry passes the gate."""
    mh = np.swapaxes(m.conj(), -1, -2)
    axes = (-2, -1)
    scale = np.maximum(1.0, np.abs(m).max(axis=axes, initial=0.0))
    herm_defect = np.abs(m - mh).max(axis=axes, initial=0.0)
    if (herm_defect > 1e-12 * scale).any():
        raise ValueError(
            "matrix is not Hermitian: max |M - M^dagger| = "
            f"{float(herm_defect.max()):.3e}"
        )
    return (m + mh) / 2.0


def _squared_norms(blocks: np.ndarray) -> np.ndarray:
    """Summed squared moduli over the last three axes of a block stack."""
    return np.einsum("...kij,...kij->...", blocks, blocks.conj()).real


@lru_cache(maxsize=64)
def _blocks(n: int, pattern: bytes) -> Tuple[np.ndarray, ...]:
    """Flat gather indices of the irreducible blocks of a pattern.

    ``pattern`` is the bytes of a symmetric ``(n, n)`` bool array. Its
    connected components, each in ascending index order, are grouped by
    size; per size s with c components the result holds a ``(c, s, s)``
    array of flat indices into an n x n matrix, smallest size first. A
    connected pattern gives the single block ``arange(n)``.
    """
    adjacent = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    label = [-1] * n
    components: List[List[int]] = []
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = len(components)
        members, frontier = [root], [root]
        while frontier:
            for j in np.flatnonzero(adjacent[frontier.pop()]).tolist():
                if label[j] < 0:
                    label[j] = label[root]
                    members.append(j)
                    frontier.append(j)
        components.append(sorted(members))
    out = []
    for size in sorted({len(c) for c in components}):
        idx = np.array([c for c in components if len(c) == size])
        index = idx[:, :, None] * n + idx[:, None, :]
        index.setflags(write=False)
        out.append(index)
    return tuple(out)


# Nontrivial party subsets for a three-party PPT check; complementary
# subsets give identical spectra but all six are reported.
PPT_SUBSETS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("1", (1,)),
    ("2", (2,)),
    ("3", (3,)),
    ("12", (1, 2)),
    ("13", (1, 3)),
    ("23", (2, 3)),
)


@lru_cache(maxsize=None)
def _ppt_gather(dims: Tuple[int, ...]) -> np.ndarray:
    """Flat indices of M giving the (6, n, n) stack of its partial
    transposes over ``PPT_SUBSETS``."""
    size = int(np.prod(dims))
    flat = np.arange(size * size).reshape(size, size)
    index = np.stack([_swap_parties(flat, dims, parties)
                      for _, parties in PPT_SUBSETS])
    index.setflags(write=False)
    return index


def is_ppt(
    m: np.ndarray,
    dims: Sequence[int] = (2, 2, 2),
    tol: float = 1e-10,
) -> Tuple[object, Dict[str, object]]:
    """Whether all partial transposes of ``m`` are positive semidefinite.

    Returns ``(ppt, min_eigs)`` where ``min_eigs`` maps each subset
    label ("1", "2", "3", "12", "13", "23") to the smallest eigenvalue
    of the corresponding partial transpose. ``ppt`` is True iff every
    minimum is >= -tol, so a NaN eigenvalue fails it, and ``tol`` must
    be finite and >= 0. ``m`` may be a ``(..., n, n)`` stack: the
    transposes of all its matrices go through one
    :func:`hermitian_eigenvalues` call, whose gates hold per matrix.
    Both results come from ``.tolist()``, so one matrix gives a bool
    and floats, and a stack gives (nested) lists of them.
    """
    m, dims, size = _ppt_args(m, dims, tol)
    stack = m.reshape(m.shape[:-2] + (size * size,))[..., _ppt_gather(dims)]
    lowest = hermitian_eigenvalues(stack).min(axis=-1)
    ppt = (lowest >= -tol).all(axis=-1)
    min_eigs = {label: lowest[..., k].tolist()
                for k, (label, _) in enumerate(PPT_SUBSETS)}
    return ppt.tolist(), min_eigs


def _ppt_args(m: np.ndarray, dims: Sequence[int], tol: float
              ) -> Tuple[np.ndarray, Tuple[int, ...], int]:
    """:func:`is_ppt`'s arguments checked (ValueError): the stack as
    complex, the dims as ints, and the matrix size they give."""
    _check_tol("tol", tol)
    dims = tuple(_check_integer(f"dims[{i}]", d) for i, d in enumerate(dims))
    m = np.asarray(m, dtype=np.complex128)
    size = math.prod(dims)
    if m.shape[-2:] != (size, size):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    return m, dims, size


@lru_cache(maxsize=64)
def _ppt_pairs(dims: Tuple[int, ...], pattern: bytes) -> Optional[np.ndarray]:
    """Flat indices of the 2x2 blocks [[a, z], [z*, b]] of the partial
    transposes over "1", "2" and "3" of a matrix with nonzero pattern
    ``pattern`` (the bytes of a symmetric ``(n, n)`` bool array).

    The result is a ``(3, c)`` array whose rows index a, b and z in the
    flat matrix, over all three subsets; every diagonal entry of a
    transpose outside these blocks is a 1 x 1 block. The blocks are those
    of the transposes' union pattern, which is that of all six
    ``PPT_SUBSETS`` (each of "12", "13" and "23" is the full transpose of
    another), so they are the blocks :func:`is_ppt` solves. None when a
    block is larger than 2 x 2.
    """
    size = math.prod(dims)
    gather = _ppt_gather(dims)[:3].reshape(3, size * size)
    union = np.frombuffer(pattern, dtype=bool)[gather].any(axis=0)
    largest = _blocks(size, union.tobytes())[-1]
    if largest.shape[1] > 2:
        return None
    pairs = gather[:, largest] if largest.shape[1] == 2 \
        else np.empty((3, 0, 2, 2), dtype=np.intp)
    index = np.stack([pairs[..., 0, 0], pairs[..., 1, 1],
                      pairs[..., 0, 1]]).reshape(3, -1)
    index.setflags(write=False)
    return index


#: The block rule's band on lambda_min + tol, per unit of max(|a|, |b|, |z|).
_BAND = 64 * float(np.finfo(float).eps)


def _ppt_blocks_pass(m: np.ndarray, dims: Sequence[int], tol: float) -> bool:
    """True when a closed-form rule shows that ``is_ppt(m, dims, tol)``
    accepts every matrix of the stack ``m``; False when it cannot tell.

    The arguments get :func:`is_ppt`'s checks (ValueError). The rule
    decides only stacks whose entries are all finite, that pass the
    Hermiticity gate of :func:`hermitian_eigenvalues`, and whose
    transposes split into blocks of at most 2 x 2 (:func:`_ppt_pairs`).
    A 1 x 1 block's eigenvalue is its symmetrized diagonal entry a, so
    it passes iff a >= -tol, as in ``is_ppt``. For a 2 x 2 block
    B = [[a, z], [z*, b]] of the symmetrized entries, let alpha = a + tol,
    beta = b + tol, M = max(|a|, |b|, |z|), D = max(alpha, beta) + |z|
    and Delta = alpha beta - |z|^2. The block passes when alpha >= 0,
    beta >= 0 and Delta > 64 eps M D. Why that is safe:

    - lambda_min(B) + tol = Delta / (lambda_max(B) + tol) >= Delta / D
      whenever Delta >= 0, because lambda_max(B) + tol <= D.
    - The computed Delta is within about 1.5 eps (alpha beta + |z|^2)
      <= 1.5 eps D^2 of the exact one. If tol < 4M, then D < 6M, so a
      passing block has lambda_min + tol > (64 - 9) eps M >= 27 eps
      ||B||_2, as ||B||_2 <= 2M. ``eigh`` is backward stable: its least
      eigenvalue of B is within a few eps ||B||_2 of the exact one, so
      it is >= -tol too.
    - If tol >= 4M, then lambda_min + tol >= tol - ||B||_2 >= 2M, far
      above the solver's error, whatever the rule computes.

    Each of "12", "13" and "23" has the conjugates of these blocks, with
    the same a, b and |z|. A passing stack has finite products, so its
    entries are below about 1e154, and the solver's residual stays far
    inside ``is_ppt``'s bound. A block within the band goes to
    ``is_ppt``.
    """
    m, dims, size = _ppt_args(m, dims, tol)
    if not np.isfinite(m).all():
        return False
    try:
        h = _hermitian_part(m)
    except ValueError:
        return False
    pattern = (h != 0).any(axis=tuple(range(h.ndim - 2)))
    index = _ppt_pairs(dims, pattern.tobytes())
    if index is None:
        return False
    if not (np.diagonal(h, axis1=-2, axis2=-1).real >= -tol).all():
        return False
    entries = h.reshape(h.shape[:-2] + (size * size,))[..., index]
    a, b = entries[..., 0, :].real, entries[..., 1, :].real
    z = entries[..., 2, :]
    alpha, beta = a + tol, b + tol
    zz = z.real * z.real + z.imag * z.imag
    modulus = np.sqrt(zz)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), modulus)
    band = _BAND * scale * (np.maximum(alpha, beta) + modulus)
    return bool((alpha * beta - zz > band).all())


def _basis_matrix(d: int, a: int, b: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=np.complex128)
    e[a, b] = 1.0
    return e


def _check_pair(d: int, a: int, b: int,
                names: Tuple[str, str] = ("a", "b")) -> Tuple[int, int]:
    """Levels ``a`` < ``b`` of a d-level party as ints; ValueError unless
    each is an integer (naming it by ``names``) and 0 <= a < b < d."""
    a = _check_integer(names[0], a)
    b = _check_integer(names[1], b)
    if not (0 <= a < b < d):
        raise ValueError(
            f"need 0 <= a < b < d, got a={a}, b={b}, d={d}"
        )
    return a, b


def qudit_substitute(
    triple: Sequence[int], d: int, alpha: int, beta: int
) -> np.ndarray:
    """Three-party operator with the third factor embedded in dimension d.

    The first two factors are Pauli matrices; the third index k maps to
    T(0) = I_d, T(1) = E_ab + E_ba, T(2) = -i(E_ab - E_ba),
    T(3) = E_aa - E_bb, acting on the two-level subspace spanned by
    basis states ``alpha`` < ``beta`` of the third party. For d = 2,
    alpha = 0, beta = 1 this coincides with :func:`pauli_op` exactly.
    """
    i, j, k = triple
    if not all(t in (0, 1, 2, 3) for t in (i, j, k)):
        raise ValueError(f"triple entries must be 0..3, got {triple!r}")
    d = _check_integer("d", d)
    alpha, beta = _check_pair(d, alpha, beta, ("alpha", "beta"))
    if k == 0:
        t = np.eye(d, dtype=np.complex128)
    elif k == 1:
        t = _basis_matrix(d, alpha, beta) + _basis_matrix(d, beta, alpha)
    elif k == 2:
        t = -1j * (_basis_matrix(d, alpha, beta) - _basis_matrix(d, beta, alpha))
    else:
        t = _basis_matrix(d, alpha, alpha) - _basis_matrix(d, beta, beta)
    return kron3(PAULI[i], PAULI[j], t)


def sym_gell_mann(d: int, a: int, b: int) -> np.ndarray:
    """(E_ab + E_ba)/sqrt(2) for 0 <= a < b < d (unit trace norm)."""
    d = _check_integer("d", d)
    a, b = _check_pair(d, a, b)
    return (_basis_matrix(d, a, b) + _basis_matrix(d, b, a)) / math.sqrt(2.0)


def antisym_gell_mann(d: int, a: int, b: int) -> np.ndarray:
    """(E_ab - E_ba)/(i sqrt(2)) for 0 <= a < b < d (unit trace norm)."""
    d = _check_integer("d", d)
    a, b = _check_pair(d, a, b)
    return (_basis_matrix(d, a, b) - _basis_matrix(d, b, a)) / (1j * math.sqrt(2.0))


def diag_gell_mann(d: int, i: int) -> np.ndarray:
    """Diagonal generalized Gell-Mann matrix, Tr = 0, Tr(L^2) = 2.

    For 0 <= i <= d-2:
    sqrt(2/((i+1)(i+2))) * diag(1, ..., 1, -(i+1), 0, ..., 0)
    with i+1 leading ones.
    """
    d = _check_integer("d", d)
    if not 0 <= i <= d - 2:
        raise ValueError(f"need 0 <= i <= d-2, got i={i}, d={d}")
    v = np.zeros(d, dtype=np.complex128)
    v[: i + 1] = 1.0
    v[i + 1] = -(i + 1)
    v *= math.sqrt(2.0 / ((i + 1) * (i + 2)))
    return np.diag(v)


def gell_mann_basis(d: int) -> List[np.ndarray]:
    """The d^2 - 1 generalized Gell-Mann matrices, standard order.

    Ordering: for k = 1..d-1, the symmetric then antisymmetric matrix
    for each pair (a, k) with a < k, followed by the diagonal matrix of
    level k-1. All entries satisfy Tr(L_a L_b) = 2 delta_ab. For d = 3
    this reproduces the eight standard 3x3 matrices in their usual
    numbering.
    """
    d = _check_integer("d", d)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    out: List[np.ndarray] = []
    s2 = math.sqrt(2.0)
    for k in range(1, d):
        for a in range(k):
            out.append(s2 * sym_gell_mann(d, a, k))
            out.append(s2 * antisym_gell_mann(d, a, k))
        out.append(diag_gell_mann(d, k - 1))
    return out


def gellmann_su3(a: int) -> np.ndarray:
    """The 3x3 matrix Lambda_a for a in 1..8 (standard numbering).

    Hermitian and traceless with Tr(Lambda_a Lambda_b) = 2 delta_ab.
    """
    if a not in range(1, 9):
        raise ValueError(f"index must be 1..8, got {a!r}")
    return gell_mann_basis(3)[a - 1]


def gen_gellmann(d: int) -> Dict[str, object]:
    """Bundle of the SU(d) generator building blocks.

    Returns a dict with keys:

    - ``"E"``: map (i, j) -> matrix unit E_ij (all d^2 pairs)
    - ``"plus"``: map (a, b) -> (E_ab + E_ba)/sqrt(2) for a < b
    - ``"minus"``: map (a, b) -> (E_ab - E_ba)/(i sqrt(2)) for a < b
    - ``"diag"``: list of the d-1 diagonal generators, levels 0..d-2

    All non-``E`` members are Hermitian and traceless; the last
    diagonal generator equals sqrt(2/(d(d-1))) diag(1, ..., 1, -d+1).
    """
    d = _check_integer("d", d)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    e = {(i, j): _basis_matrix(d, i, j) for i in range(d) for j in range(d)}
    plus = {(a, b): sym_gell_mann(d, a, b)
            for a in range(d) for b in range(a + 1, d)}
    minus = {(a, b): antisym_gell_mann(d, a, b)
             for a in range(d) for b in range(a + 1, d)}
    diag = [diag_gell_mann(d, i) for i in range(d - 1)]
    return {"E": e, "plus": plus, "minus": minus, "diag": diag}


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a square complex matrix as {"dim", "re", "im"}."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode a matrix produced by :func:`matrix_to_json`; ValueError
    names a ``dim`` that is no integer or an entry that is no number."""
    try:
        dim = _check_integer("dim", obj["dim"])
        re, im = (np.array([[_json_number(f"{part}[{i}][{j}]", v)
                             for j, v in enumerate(row)]
                            for i, row in enumerate(obj[part])])
                  for part in ("re", "im"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix parts have shapes {re.shape}/{im.shape}, expected {(dim, dim)}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix contains non-finite entries")
    return re + 1j * im
