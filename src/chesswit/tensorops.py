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
from functools import lru_cache, reduce
from operator import add
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

__all__ = [
    "PAULI",
    "kron3",
    "pauli_op",
    "partial_transpose",
    "hermitian_eigenvalues",
    "is_ppt",
    "PPT_SUBSETS",
    "qudit_substitute",
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


def _check_integer(name: str, value, least: Optional[int] = None,
                   most: Optional[int] = None) -> int:
    """``value`` as an int; ValueError unless it is an integer (numpy
    integers included, bools not), which ``int()`` would not check, and
    lies in ``least``..``most`` where they are given."""
    # the type test spares plain ints the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (least is not None and value < least
            or most is not None and value > most):
        bound = f">= {least}" if most is None else f"{least}..{most}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _check_dim(value, name: str = "d") -> int:
    """A qudit dimension as an int; ValueError unless it is an integer
    >= 2, named ``name`` (the caller's keyword or command-line flag)."""
    return _check_integer(name, value, 2)


def _check_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    """``dims`` as a tuple of ints; ValueError unless every entry is an
    integer >= 1, named by its index."""
    return tuple(_check_integer(f"dims[{i}]", d, 1)
                 for i, d in enumerate(dims))


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


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three matrices, first party slowest."""
    return np.kron(np.kron(np.asarray(a), np.asarray(b)), np.asarray(c))


def pauli_op(triple: Sequence[int]) -> np.ndarray:
    """8x8 three-party operator sigma_i (x) sigma_j (x) sigma_k of one
    ``triple`` (i, j, k) of indices in 0..3.

    The result is Hermitian with trace 8*delta(triple, (0,0,0)) and
    squared trace norm Tr(O^2) = 8.
    """
    i, j, k = (_check_integer(f"triple[{n}]", t, 0, 3)
               for n, t in enumerate(triple))
    return kron3(PAULI[i], PAULI[j], PAULI[k])


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
    dims = _check_dims(dims)
    m = _as_square(m, dims)
    parties = tuple(sorted({_check_integer(f"parties[{i}]", p, 1, len(dims))
                            for i, p in enumerate(parties)}))
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
    mh = np.swapaxes(m.conj(), -1, -2)
    # a NaN entry passes the gate
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    herm_defect = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
    if (herm_defect > 1e-12 * scale).any():
        raise ValueError(
            "matrix is not Hermitian: max |M - M^dagger| = "
            f"{float(herm_defect.max()):.3e}"
        )
    h = (m + mh) / 2.0
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
    _check_tol("tol", tol)
    dims = _check_dims(dims)
    m = np.asarray(m, dtype=np.complex128)
    size = math.prod(dims)
    if m.shape[-2:] != (size, size):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    stack = m.reshape(m.shape[:-2] + (size * size,))[..., _ppt_gather(dims)]
    lowest = hermitian_eigenvalues(stack).min(axis=-1)
    ppt = (lowest >= -tol).all(axis=-1)
    min_eigs = {label: lowest[..., k].tolist()
                for k, (label, _) in enumerate(PPT_SUBSETS)}
    return ppt.tolist(), min_eigs


@lru_cache(maxsize=64)
def _x_blocks(dims: Tuple[int, ...], cells: tuple) -> Optional[np.ndarray]:
    """The (3, c) indices (r, s, k) of the 2x2 blocks [[a, z], [z*, b]]
    of the partial transposes over "1", "2" and "3" of X-states whose
    only off-diagonal entries are couplings at ``cells`` (upper-triangle
    (row, col)) and their conjugates: a and b are diagonal entries r and
    s, z is coupling k or its conjugate, and every other diagonal entry
    is a 1 x 1 block. Found by gathering a matrix of the cells' slots
    through :func:`_ppt_gather`; "12", "13" and "23" conjugate these
    blocks, and for chessboard cells all three subsets pair the same
    indices, so these are the blocks :func:`is_ppt` solves. None when
    two cells share an index in one transpose.
    """
    size = math.prod(dims)
    slots = np.full((size, size), -1)
    for k, (row, col) in enumerate(cells):
        slots[row, col] = slots[col, row] = k
    moved = slots.reshape(-1)[_ppt_gather(dims)[:3]]
    if ((moved >= 0).sum(axis=-1) > 1).any():
        return None
    t, r, s = np.nonzero(np.triu(moved >= 0, 1))
    index = np.stack([r, s, moved[t, r, s]])
    index.setflags(write=False)
    return index


# a non-finite entry or trace makes NaNs and infs here, with no
# warning; its row is reported as NaN
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _x_least_eigenvalues(entries: Tuple[np.ndarray, ...], cells: tuple,
                         dims: Tuple[int, ...]) -> Optional[np.ndarray]:
    """The (N,) least eigenvalue over every partial transpose of N
    X-states' ``entries`` (diag, couplings at ``cells``, trace), in
    closed form; None when :func:`_x_blocks` finds a block larger than
    2 x 2. Couplings 0 in every row are dropped, as the stack's nonzero
    pattern drops them. The entries are divided by the traces, as in
    ``chessboard.rho_stack``; each diagonal entry is a 1 x 1 block or
    bounds its 2 x 2 block's least eigenvalue from above, and a block
    [[a, z], [z*, b]] has least eigenvalue (a + b)/2 - hypot((a - b)/2,
    |z|). A row with an entry or a trace that is not finite, or a zero
    trace, gets NaN.
    """
    diag, couplings, trace = entries
    kept = (couplings != 0).any(axis=0).tolist()
    index = _x_blocks(dims, tuple(c for c, k in zip(cells, kept) if k))
    if index is None:
        return None
    values = np.concatenate((diag, couplings[:, kept]), axis=1) \
        / trace[:, None]
    n = diag.shape[1]
    a, b = values.real[:, index[0]], values.real[:, index[1]]
    z = values[:, n + index[2]]
    blocks = (a + b) / 2 - np.hypot((a - b) / 2, np.abs(z))
    lowest = np.minimum(values.real[:, :n].min(axis=1),
                        blocks.min(axis=1, initial=np.inf))
    lowest[~(np.isfinite(values).all(axis=1) & np.isfinite(trace))] = np.nan
    return lowest


def _basis_matrix(d: int, a: int, b: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=np.complex128)
    e[a, b] = 1.0
    return e


def _check_pair(d: int, a: int, b: int,
                names: Tuple[str, str] = ("a", "b")) -> Tuple[int, int]:
    """Levels ``a`` < ``b`` of a d-level party as ints; ValueError
    unless ``d`` is an integer >= 2, ``a`` one in 0..d-2 and ``b`` one
    in a+1..d-1, each named as ``_check_integer`` names it (the levels
    by ``names``)."""
    d = _check_dim(d)
    a = _check_integer(names[0], a, 0, d - 2)
    return a, _check_integer(names[1], b, a + 1, d - 1)


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
    i, j, k = (_check_integer(f"triple[{n}]", t, 0, 3)
               for n, t in enumerate(triple))
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


@lru_cache(maxsize=1024)
def _substituted_op(triple: Tuple[int, int, int], d: int, alpha: int,
                    beta: int) -> np.ndarray:
    """Read-only ``qudit_substitute(triple, d, alpha, beta)``, built once.

    Callers pass a tuple ``triple`` and ``d``, ``alpha``, ``beta`` already
    checked as ints (the cache would take 2.0 for 2), and never return the
    cached array itself: ``_signed_sum`` multiplies each term by its sign.
    """
    op = qudit_substitute(triple, d, alpha, beta)
    op.setflags(write=False)
    return op


def _bloch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(4, n) rows (1, x, y, z): the expectations of sigma_0..sigma_3 in
    the amplitude pairs (u, v) of n unit qubit states, with
    (x, y, z) = (2 Re(conj(u) v), 2 Im(conj(u) v), |u|^2 - |v|^2)."""
    c = u.conj() * v
    return np.stack([np.ones(c.shape), 2.0 * c.real, 2.0 * c.imag,
                     (u.real * u.real + u.imag * u.imag)
                     - (v.real * v.real + v.imag * v.imag)])


def _signed_sum(terms: Sequence[Tuple[float, Sequence[int]]],
                value: Callable[[Sequence[int]], Any]) -> Any:
    """s1 value(t1) + s2 value(t2) + ... over the (s, t) ``terms``, where
    ``value`` gives an operator, a coefficient or a Bloch product.

    The fold is explicit, left to right from the first term: a 0 start
    would turn -0.0 into +0.0, and the builtin ``sum`` compensates float
    sums from Python 3.12. Each term is ``s * value(t)``; negating and
    subtracting would differ, since -1.0 * Q and -Q differ in the sign
    of a zero imaginary part.
    """
    first, *rest = [s * value(t) for s, t in terms]
    return reduce(add, rest, first)


# gellmann_su3's Lambda_1..Lambda_8 as members of gen_gellmann(3): for
# k = 1, 2 the pairs (a, k), a < k, symmetric then antisymmetric, then
# the diagonal generator of level k - 1
_SU3_MEMBERS = (("plus", (0, 1)), ("minus", (0, 1)), ("diag", 0),
                ("plus", (0, 2)), ("minus", (0, 2)), ("plus", (1, 2)),
                ("minus", (1, 2)), ("diag", 1))


def gellmann_su3(a: int) -> np.ndarray:
    """The 3x3 matrix Lambda_a for a in 1..8 (standard numbering);
    ValueError unless ``a`` is an integer in that range.

    Hermitian and traceless with Tr(Lambda_a Lambda_b) = 2 delta_ab: the
    off-diagonal ones are sqrt(2) times the unit-norm members of
    :func:`gen_gellmann`.
    """
    kind, key = _SU3_MEMBERS[_check_integer("a", a, 1, 8) - 1]
    m = gen_gellmann(3)[kind][key]
    return m if kind == "diag" else math.sqrt(2.0) * m


def gen_gellmann(d: int) -> Dict[str, object]:
    """Bundle of the SU(d) generator building blocks.

    Returns a dict with keys:

    - ``"E"``: map (i, j) -> matrix unit E_ij (all d^2 pairs)
    - ``"plus"``: map (a, b) -> (E_ab + E_ba)/sqrt(2) for a < b
    - ``"minus"``: map (a, b) -> (E_ab - E_ba)/(i sqrt(2)) for a < b
    - ``"diag"``: list of the d-1 diagonal generators, levels 0..d-2;
      level i is sqrt(2/((i+1)(i+2))) diag(1, ..., 1, -(i+1), 0, ..., 0)
      with i+1 leading ones

    All non-``E`` members are Hermitian and traceless; the diagonal
    generators carry Tr(L^2) = 2. ValueError unless ``d`` is an integer
    >= 2.
    """
    d = _check_dim(d)
    e = {(i, j): _basis_matrix(d, i, j) for i in range(d) for j in range(d)}
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    plus = {(a, b): (e[a, b] + e[b, a]) / math.sqrt(2.0) for a, b in pairs}
    minus = {(a, b): (e[a, b] - e[b, a]) / (1j * math.sqrt(2.0))
             for a, b in pairs}
    diag = []
    for i in range(d - 1):
        v = np.zeros(d, dtype=np.complex128)
        v[: i + 1] = 1.0
        v[i + 1] = -(i + 1)
        v *= math.sqrt(2.0 / ((i + 1) * (i + 2)))
        diag.append(np.diag(v))
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


def _json_row(name: str, row, width: int) -> list:
    """``row`` as floats; ValueError names an entry that is no number,
    or ``name`` if the row does not have ``width`` entries."""
    values = [_json_number(f"{name}[{j}]", v) for j, v in enumerate(row)]
    if len(values) != width:
        raise ValueError(f"{name} must have {width} entries (dim), "
                         f"got {len(values)}")
    return values


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode a matrix produced by :func:`matrix_to_json`; ValueError
    names a ``dim`` that is no integer >= 1, an entry that is no number
    or a row that does not have ``dim`` entries."""
    try:
        dim = _check_integer("dim", obj["dim"], 1)
        re, im = (np.array([_json_row(f"{part}[{i}]", row, dim)
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
