"""Chessboard-family PPT density matrices on 2x2x2 and 2x2xd.

The two-qubit-times-qubit family is parametrized by four positive
diagonal parameters a, b, c, d and four complex couplings r_j e^{i
phi_j} with 0 <= r_j <= 1. In the computational basis (big-endian flat
index) the unnormalized matrix has diagonal

    (a, b, c, d, 1/d, 1/c, 1/b, 1/a)

and couplings on the anti-diagonal pairs

    r1 e^{i phi1} at (3, 4),   r2 e^{i phi2} at (2, 5),
    r3 e^{i phi3} at (1, 6),   r4 e^{i phi4} at (0, 7),

with conjugates below the diagonal; the whole matrix is divided by the
normalization n = a + b + c + d + 1/a + 1/b + 1/c + 1/d. Every coupled
2x2 principal block has diagonal product exactly 1, so the state is
positive semidefinite and remains PPT for all parameter values with
r_j <= 1.

The 2x2xd generalization keeps two qubits and embeds the chessboard
structure into a d-level third party using three distinguished levels
alpha, beta, gamma: for each first-qubit branch j in {0, 1} the
0-branch carries free diagonals a[j][k] at |0 j k>, and three couplings
connect |0 j alpha> ~ |1 j' beta>, |0 j beta> ~ |1 j' alpha>, and
|0 j gamma> ~ |1 j' gamma| (j' = 1 - j). Under the default tied
convention the 1-branch diagonal at |1 j mu> is the reciprocal of its
coupling partner's diagonal, which again makes every coupled block have
product 1 (PPT for all r <= 1 whenever alpha, beta, gamma are
distinct); with ``tied=False`` the 1-branch diagonal at |1 j mu> is
1/a[j][mu] instead, which can break positivity — in that case
:func:`build_rho_22d` raises :class:`NonPositiveError` carrying the
offending eigenvalue. Below that per-state API the 2x2xd layers take a
chunk's :class:`ParamColumns`: :func:`positivity_proven` tells which rows
the construction alone proves positive, and :func:`rho_stack_22d`
scatters their :func:`rho_entries_22d` into N matrices, with no check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .tensorops import _check_integer, _json_number, hermitian_eigenvalues

__all__ = [
    "ChessParams222",
    "ChessParams22d",
    "NonPositiveError",
    "ParamColumns",
    "COUPLING_POSITIONS",
    "SLOT_ORDER",
    "build_rho_222",
    "build_rho_22d",
    "coupling_cells",
    "normalization",
    "pauli_coeff_stack",
    "pauli_coeffs",
    "params_222_to_22d",
    "positivity_proven",
    "qudit_levels",
    "rho_entries_22d",
    "rho_stack_222",
    "rho_stack_22d",
    "sample_chunk",
    "sample_params_222",
    "sample_params_22d",
    "params_to_json",
    "params_from_json",
]


class NonPositiveError(ValueError):
    """Raised when a construction yields a non-positive-semidefinite matrix."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = float(min_eigenvalue)


# Flat (row, col) positions of the couplings r1..r4 (upper triangle).
COUPLING_POSITIONS: Tuple[Tuple[int, int], ...] = ((3, 4), (2, 5), (1, 6), (0, 7))

# Canonical coupling slots of the 2x2xd family, in fixed order.
SLOT_ORDER: Tuple[Tuple[int, str], ...] = (
    (0, "ab"), (0, "ba"), (0, "gg"), (1, "ab"), (1, "ba"), (1, "gg"),
)

# Positions in ``SLOT_ORDER`` of the two gamma-gamma couplings.
_GG_SLOTS = [i for i, (_, slot) in enumerate(SLOT_ORDER) if slot == "gg"]


def _check_seed(value, name: str = "seed") -> int:
    """``value`` as an int; ValueError unless it is a non-negative
    integer."""
    if (type(value) is not int and (isinstance(value, bool) or not
                                    isinstance(value, numbers.Integral))
            or value < 0):
        raise ValueError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return int(value)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_modulus(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_diagonal(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    _check_finite(f"1/{name}", 1 / value)
    return value


@dataclass(frozen=True)
class ChessParams222:
    """Parameters of the 2x2x2 chessboard family.

    ``r``/``phi`` are the moduli and phases of the four couplings in
    the order r1..r4 (see module docstring for their positions).
    """

    a: float
    b: float
    c: float
    d: float
    r: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    phi: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _check_diagonal(name, getattr(self, name)))
        r = tuple(_check_modulus(f"r[{i}]", v) for i, v in enumerate(self.r))
        phi = tuple(_check_finite(f"phi[{i}]", v) for i, v in enumerate(self.phi))
        if len(r) != 4 or len(phi) != 4:
            raise ValueError("r and phi must each have four entries")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        _check_finite("the normalization", normalization(self))

    @property
    def diag_unnormalized(self) -> Tuple[float, ...]:
        a, b, c, d = self.a, self.b, self.c, self.d
        return (a, b, c, d, 1 / d, 1 / c, 1 / b, 1 / a)


def normalization(params: ChessParams222) -> float:
    """n = a + b + c + d + 1/a + 1/b + 1/c + 1/d."""
    return float(sum(params.diag_unnormalized))


def build_rho_222(params: ChessParams222) -> np.ndarray:
    """8x8 density matrix of the 2x2x2 chessboard family (trace 1): the
    N = 1 case of :func:`rho_stack_222`."""
    return rho_stack_222(ParamColumns.of([params]))[0]


def rho_stack_222(columns: ParamColumns) -> np.ndarray:
    """(N, 8, 8) density matrices of N 2x2x2 states, in one scatter.

    Each trace n is added in the order of ``diag_unnormalized``, as
    :func:`normalization` adds it. ``pauli_coeffs`` adds the
    reciprocals in the order 1/a, 1/b, 1/c, 1/d, which can round
    differently, so the two keep their own sums.
    """
    a, b, c, d = columns.diag.T
    diag = (a, b, c, d, 1 / d, 1 / c, 1 / b, 1 / a)
    rho = np.zeros((len(columns), 8, 8), dtype=np.complex128)
    rho[:, range(8), range(8)] = np.stack(diag, axis=1)
    rows, cols = zip(*COUPLING_POSITIONS)
    z = columns.r * np.exp(1j * columns.phi)
    rho[:, rows, cols] = z
    rho[:, cols, rows] = z.conj()
    rho /= sum(diag)[:, None, None]
    return rho


# The 15 nonidentity triples carried by the chessboard expansion.
COEFF_TRIPLES: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
    (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    (3, 0, 0), (0, 3, 0), (0, 0, 3),
    (3, 3, 0), (3, 0, 3), (0, 3, 3), (3, 3, 3),
)


def _pauli_formulas(a, b, c, d, x, y) -> tuple:
    """The 15 coefficients of ``COEFF_TRIPLES``, in that order, from the
    diagonal parameters and the couplings' x_j = r_j cos(phi_j) and
    y_j = r_j sin(phi_j). The same operations run on floats or,
    elementwise, on (N,) arrays."""
    ia, ib, ic, id_ = 1 / a, 1 / b, 1 / c, 1 / d
    n = a + b + c + d + ia + ib + ic + id_
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    return (
        2 * (x1 + x2 + x3 + x4) / n,
        2 * (y1 - y2 + y3 - y4) / n,
        2 * (y1 + y2 - y3 - y4) / n,
        -2 * (y1 + y2 + y3 + y4) / n,
        2 * (-x1 + x2 + x3 - x4) / n,
        2 * (x1 - x2 + x3 - x4) / n,
        2 * (x1 + x2 - x3 - x4) / n,
        2 * (y1 - y2 - y3 + y4) / n,
        (a + b + c + d - ia - ib - ic - id_) / n,
        (a + b - c - d - ia - ib + ic + id_) / n,
        (a - b + c - d - ia + ib - ic + id_) / n,
        (a + b - c - d + ia + ib - ic - id_) / n,
        (a - b + c - d + ia - ib + ic - id_) / n,
        (a - b - c + d + ia - ib - ic + id_) / n,
        (a - b - c + d - ia + ib + ic - id_) / n,
    )


def pauli_coeffs(params: ChessParams222) -> Dict[Tuple[int, int, int], float]:
    """The 15 nonidentity expansion coefficients c_t = Tr(rho O_t).

    Keys are the operator triples; the identity triple (0, 0, 0) always
    has coefficient 1 and is omitted, and every other triple not
    present has a vanishing coefficient. The values follow the closed
    forms in the couplings x_j = r_j cos(phi_j), y_j = r_j sin(phi_j)
    and the diagonal parameters; :func:`pauli_coeff_stack` evaluates the
    same forms on N states.
    """
    x = [r * math.cos(p) for r, p in zip(params.r, params.phi)]
    y = [r * math.sin(p) for r, p in zip(params.r, params.phi)]
    return dict(zip(COEFF_TRIPLES, _pauli_formulas(
        params.a, params.b, params.c, params.d, x, y)))


def pauli_coeff_stack(columns: ParamColumns) -> np.ndarray:
    """(N, 15) coefficients of N 2x2x2 states, columns in
    ``COEFF_TRIPLES`` order; row i is bit-equal to the values of
    ``pauli_coeffs(columns[i])``."""
    x = (columns.r * np.cos(columns.phi)).T
    y = (columns.r * np.sin(columns.phi)).T
    return np.stack(_pauli_formulas(*columns.diag.T, x, y), axis=1)


# --- 2 x 2 x d family -------------------------------------------------------


def qudit_levels(dim: int, alpha: int = 0, beta: Optional[int] = None,
                 gamma: int = 1) -> Tuple[int, int, int]:
    """The third-party levels ``(alpha, beta, gamma)``, checked for ``dim``.

    ``beta`` defaults to 2 for dim >= 3 and to 1 for dim = 2. Raises
    ValueError unless dim and the levels are integers, dim >= 2, every
    level lies in 0..dim-1 and alpha and beta differ.
    """
    dim = _check_integer("dim", dim)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if beta is None:
        beta = 2 if dim > 2 else 1
    levels = (_check_integer("alpha", alpha), _check_integer("beta", beta),
              _check_integer("gamma", gamma))
    for name, v in zip(("alpha", "beta", "gamma"), levels):
        if not 0 <= v < dim:
            raise ValueError(f"{name} must lie in 0..{dim - 1}, got {v}")
    if levels[0] == levels[1]:
        raise ValueError("alpha and beta must differ")
    return levels


@dataclass(frozen=True)
class ChessParams22d:
    """Parameters of the 2x2xd chessboard family.

    ``diag`` holds the two 0-branch diagonal rows (one per first-qubit
    branch j), each of length ``dim``. ``r``/``phi`` hold the six
    coupling moduli/phases in the canonical slot order
    ``SLOT_ORDER`` = ((0,'ab'), (0,'ba'), (0,'gg'), (1,'ab'), (1,'ba'),
    (1,'gg')). ``tied`` selects the reciprocal convention of the
    1-branch diagonals (see module docstring).
    """

    dim: int
    alpha: int
    beta: int
    gamma: int
    diag: Tuple[Tuple[float, ...], Tuple[float, ...]]
    r: Tuple[float, ...] = (0.0,) * 6
    phi: Tuple[float, ...] = (0.0,) * 6
    tied: bool = True

    def __post_init__(self):
        levels = qudit_levels(self.dim, self.alpha, self.beta, self.gamma)
        dim = int(self.dim)
        object.__setattr__(self, "dim", dim)
        for name, v in zip(("alpha", "beta", "gamma"), levels):
            object.__setattr__(self, name, v)
        diag = tuple(
            tuple(_check_diagonal(f"diag[{j}][{k}]", v) for k, v in enumerate(row))
            for j, row in enumerate(self.diag)
        )
        if len(diag) != 2 or any(len(row) != dim for row in diag):
            raise ValueError(f"diag must be 2 rows of length {dim}")
        object.__setattr__(self, "diag", diag)
        # bounds the normalization, which sums only the reciprocals that
        # build_rho_22d places
        _check_finite("the sum of the diagonals and their reciprocals",
                      sum(v + 1 / v for row in diag for v in row))
        r = tuple(_check_modulus(f"r[{i}]", v) for i, v in enumerate(self.r))
        phi = tuple(_check_finite(f"phi[{i}]", v) for i, v in enumerate(self.phi))
        if len(r) != 6 or len(phi) != 6:
            raise ValueError("r and phi must each have six entries")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "tied", bool(self.tied))


@dataclass(frozen=True, eq=False)
class ParamColumns:
    """N parameter sets of one family and level structure, as columns.

    ``levels`` is None for the 2x2x2 family, whose ``diag`` is (N, 4)
    (a, b, c, d) and whose ``r`` and ``phi`` are (N, 4) in the order
    r1..r4. For the 2x2xd family ``levels`` is (dim, alpha, beta,
    gamma), ``diag`` is (N, 2 dim) (diag row 0, then row 1) and ``r``
    and ``phi`` are (N, 6) in ``SLOT_ORDER``. ``tied`` is (N,) bool,
    all True for the 2x2x2 family. ``columns[i]`` is row i as a
    parameter object, which checks it.
    """

    levels: Optional[Tuple[int, int, int, int]]
    diag: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    tied: np.ndarray

    @classmethod
    def of(cls, states) -> "ParamColumns":
        """The columns of a non-empty sequence of ``ChessParams222`` or
        of ``ChessParams22d`` of one level structure (ValueError
        otherwise)."""
        levels = [None if isinstance(p, ChessParams222)
                  else (p.dim, p.alpha, p.beta, p.gamma) for p in states]
        for other in levels:
            if other != levels[0]:
                raise ValueError("the states must share dim, alpha, beta "
                                 f"and gamma; got {levels[0]} and {other}")
        if levels[0] is None:
            values = [(p.a, p.b, p.c, p.d) + p.r + p.phi for p in states]
        else:
            values = [p.diag[0] + p.diag[1] + p.r + p.phi for p in states]
        return cls._split(levels[0], np.array(values, dtype=np.float64),
                         np.array([getattr(p, "tied", True) for p in states]))

    @classmethod
    def _split(cls, levels, values: np.ndarray, tied: np.ndarray
              ) -> "ParamColumns":
        """The columns of the (N, k) block of rows (diag | r | phi), as
        views."""
        slots = 4 if levels is None else 6
        m = values.shape[1] - 2 * slots
        return cls(levels, values[:, :m], values[:, m:m + slots],
                   values[:, m + slots:], tied)

    def __len__(self) -> int:
        return len(self.diag)

    def __getitem__(self, i: int):
        diag, r, phi = (tuple(v[i].tolist()) for v in (self.diag, self.r,
                                                         self.phi))
        if self.levels is None:
            return ChessParams222(*diag, r=r, phi=phi)
        dim = self.levels[0]
        return ChessParams22d(*self.levels, (diag[:dim], diag[dim:]), r, phi,
                              bool(self.tied[i]))


def _flat(q1: int, j: int, k: int, d: int) -> int:
    return q1 * 2 * d + j * d + k


@lru_cache(maxsize=None)
def coupling_cells(dim: int, alpha: int, beta: int, gamma: int
                   ) -> Tuple[Tuple[int, int], ...]:
    """Flat (row, col) of the six couplings, upper triangle, in
    ``SLOT_ORDER``: |0 j src> ~ |1 j' dst> with (src, dst) = (alpha,
    beta), (beta, alpha) or (gamma, gamma). The six cells are distinct
    for any alpha != beta, a colliding gamma included."""
    targets = {"ab": (alpha, beta), "ba": (beta, alpha), "gg": (gamma, gamma)}
    return tuple((_flat(0, j, targets[slot][0], dim),
                  _flat(1, 1 - j, targets[slot][1], dim))
                 for j, slot in SLOT_ORDER)


@lru_cache(maxsize=None)
def _reciprocal_cells(dim: int, alpha: int, beta: int, gamma: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal index of each 1-branch diagonal that a coupling
    sets, and the 0-branch index of the reciprocal it takes: its
    coupling partner |0 j src> (tied) or its own twin |0 j' dst>
    (untied). A gamma that collides with alpha or beta leaves these to
    their slots."""
    rows, cols = zip(*[cell for (_, slot), cell in zip(
        SLOT_ORDER, coupling_cells(dim, alpha, beta, gamma))
        if slot != "gg" or gamma not in (alpha, beta)])
    out = (np.array(cols), np.array(rows), np.array(cols) - 2 * dim)
    for a in out:
        a.setflags(write=False)
    return out


def positivity_proven(columns: ParamColumns) -> np.ndarray:
    """(N,) bool: whether the construction alone proves each row's rho
    positive semidefinite.

    It does when ``tied`` is set and gamma either differs from alpha and
    beta or carries zero gamma-gamma moduli: every coupled block
    [[x, z], [conj z, 1/x]] then has determinant 1 - |z|^2 >= 0, and
    the other diagonals are positive or 0. A gamma that collides with
    alpha or beta adds its coupling to their blocks unless it is 0.
    """
    _, alpha, beta, gamma = columns.levels
    if gamma not in (alpha, beta):
        return columns.tied.copy()
    return columns.tied & (columns.r[:, _GG_SLOTS] == 0.0).all(axis=1)


def rho_entries_22d(columns: ParamColumns
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unnormalized entries of a chunk's N 2x2xd matrices, before
    the trace division.

    Returns the (N, 4d) complex diagonals, the (N, 6) couplings
    r e^{i phi} at ``coupling_cells`` (their conjugates sit at the
    mirrored cells), and the (N,) traces, each summed as
    ``rho.trace()`` sums the diagonal. A 1-branch diagonal is the
    reciprocal of its coupling partner's diagonal (``tied``) or of its
    own 0-branch twin; a gamma that collides with alpha or beta leaves
    it to their slots, and the 1-branch diagonals of uncoupled levels
    stay 0.
    """
    cells, partners, twins = _reciprocal_cells(*columns.levels)
    zero_branch = columns.diag
    diag = np.zeros((len(columns), 2 * zero_branch.shape[1]),
                    dtype=np.complex128)
    diag[:, :zero_branch.shape[1]] = zero_branch
    diag[:, cells] = 1.0 / np.where(columns.tied[:, None],
                                    zero_branch[:, partners],
                                    zero_branch[:, twins])
    couplings = columns.r * np.exp(1j * columns.phi)
    return diag, couplings, diag.sum(axis=1).real


def rho_stack_22d(entries: Tuple[np.ndarray, np.ndarray, np.ndarray],
                  levels: Tuple[int, int, int, int]) -> np.ndarray:
    """(N, 4d, 4d) density matrices from the :func:`rho_entries_22d` of
    N states of level structure ``levels`` = (dim, alpha, beta, gamma),
    with no positivity check.

    One scatter of the entries into the stack, then the trace division.
    :func:`build_rho_22d` is its N = 1 case plus the check;
    :func:`positivity_proven` tells when the check can be skipped.
    """
    diag, couplings, trace = entries
    n = diag.shape[1]
    rho = np.zeros((len(diag), n, n), dtype=np.complex128)
    rho[:, range(n), range(n)] = diag
    rows, cols = zip(*coupling_cells(*levels))
    # added to the zeros, as a -0.0 part of a zero coupling becomes +0.0
    rho[:, rows, cols] += couplings
    rho[:, cols, rows] += couplings.conj()
    rho /= trace[:, None, None]
    return rho


def build_rho_22d(params: ChessParams22d) -> np.ndarray:
    """(4d)x(4d) density matrix of the 2x2xd chessboard family.

    The N = 1 case of :func:`rho_stack_22d`, verified positive
    semidefinite; a failure (possible when ``tied`` is off, or when
    gamma collides with alpha/beta while carrying a nonzero coupling)
    raises :class:`NonPositiveError` with the offending eigenvalue.
    """
    columns = ParamColumns.of([params])
    rho = rho_stack_22d(rho_entries_22d(columns), columns.levels)[0]
    w = hermitian_eigenvalues(rho)
    if w[0] < -1e-12:
        raise NonPositiveError(
            f"constructed matrix is not positive semidefinite "
            f"(min eigenvalue {w[0]:.6e}); this can happen with tied=False "
            f"or when gamma collides with alpha/beta while its coupling is "
            f"nonzero",
            min_eigenvalue=w[0],
        )
    return rho


def params_222_to_22d(params: ChessParams222, gamma: int = 0) -> ChessParams22d:
    """Embed 2x2x2 parameters into the d=2 instance of the 2x2xd family.

    With alpha=0, beta=1, vanishing gamma-gamma couplings, diagonal rows
    ((a, b), (c, d)) and couplings (r4, r3, 0, r2, r1, 0) in canonical
    slot order, ``build_rho_22d`` reproduces ``build_rho_222`` entrywise.
    """
    if gamma not in (0, 1):
        raise ValueError("gamma must be 0 or 1 for the d=2 embedding")
    r1, r2, r3, r4 = params.r
    p1, p2, p3, p4 = params.phi
    return ChessParams22d(
        dim=2,
        alpha=0,
        beta=1,
        gamma=gamma,
        diag=((params.a, params.b), (params.c, params.d)),
        r=(r4, r3, 0.0, r2, r1, 0.0),
        phi=(p4, p3, 0.0, p2, p1, 0.0),
        tied=True,
    )


# --- sampling ---------------------------------------------------------------


def _rng_for(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: PCG64 seeded from (seed, index),
    both non-negative integers (ValueError otherwise)."""
    return np.random.default_rng(np.random.SeedSequence(
        (_check_seed(seed), _check_seed(index, "index"))))


def _check_columns(columns: ParamColumns) -> ParamColumns:
    """``columns`` unchanged; ValueError unless every row passes what
    the parameter objects check: finite phases, 0 <= r <= 1, positive
    diagonals, and a finite sum of the diagonals and their
    reciprocals."""
    diag, r = columns.diag, columns.r
    with np.errstate(over="ignore"):
        ok = (np.isfinite(columns.phi).all() and (0.0 <= r).all()
              and (r <= 1.0).all() and (diag > 0.0).all()
              and np.isfinite((diag + 1 / diag).sum(axis=1)).all())
    if not ok:
        raise ValueError("sampled parameters out of range")
    return columns


def sample_chunk(seed: int, start: int, stop: int,
                 levels: Optional[Tuple[int, ...]] = None) -> ParamColumns:
    """Samples ``start``..``stop - 1`` of stream ``seed``, as columns.

    ``levels`` is None for the 2x2x2 family, or ``(dim, alpha, beta,
    gamma)`` for the tied 2x2xd family, checked by :func:`qudit_levels`
    (``beta`` may be None). Sample i draws k values from PCG64 seeded
    with ``SeedSequence((seed, i))``: diagonal parameters log-uniform on
    [0.1, 10] (4, or diag row 0 then row 1), then coupling moduli
    uniform on [0, 1] and phases uniform on [0, 2 pi) (4 each, or 6 in
    ``SLOT_ORDER``). Each value is lo + (hi - lo) * u with u the top 53
    bits of a 64-bit draw, as ``Generator.uniform`` computes it; a
    colliding gamma's gamma-gamma moduli are then set to 0, so that
    :func:`positivity_proven` proves every 2x2xd sample positive. The
    seed and the bounds must be non-negative integers with
    start <= stop (ValueError).
    """
    seed = _check_seed(seed)
    start, stop = _check_seed(start, "start"), _check_seed(stop, "stop")
    if stop < start:
        raise ValueError(f"stop must be >= start, got {start}..{stop}")
    if levels is None:
        m, slots = 4, 4
    else:
        dim = _check_integer("dim", levels[0])
        levels = (dim,) + qudit_levels(*levels)
        m, slots = 2 * dim, 6
    k = m + 2 * slots
    raw = np.empty((stop - start, k), dtype=np.uint64)
    for row, index in enumerate(range(start, stop)):
        raw[row] = np.random.PCG64(np.random.SeedSequence(
            (seed, index))).random_raw(k)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    lo = np.repeat([-1.0, 0.0, 0.0], (m, slots, slots))
    hi = np.repeat([1.0, 1.0, 2.0 * math.pi], (m, slots, slots))
    values = lo + (hi - lo) * u
    values[:, :m] = 10.0 ** values[:, :m]
    if levels is not None and levels[3] in levels[1:3]:
        values[:, [m + i for i in _GG_SLOTS]] = 0.0
    return _check_columns(ParamColumns._split(
        levels, values, np.ones(len(values), dtype=bool)))


def sample_params_222(seed: int, index: int) -> ChessParams222:
    """Deterministic random parameters (sample ``index`` of stream
    ``seed``): the N = 1 case of :func:`sample_chunk`.

    Diagonal parameters are log-uniform on [0.1, 10], coupling moduli
    uniform on [0, 1], phases uniform on [0, 2 pi). Draw order: a, b,
    c, d, then r1..r4, then phi1..phi4.
    """
    seed, index = _check_seed(seed), _check_seed(index, "index")
    return sample_chunk(seed, index, index + 1)[0]


def sample_params_22d(
    seed: int,
    index: int,
    dim: int,
    alpha: int = 0,
    beta: int | None = None,
    gamma: int = 1,
) -> ChessParams22d:
    """Deterministic random tied 2x2xd parameters, which
    :func:`positivity_proven` proves positive for every level triple:
    the N = 1 case of :func:`sample_chunk`.

    Defaults pick (alpha, beta, gamma) = (0, 2, 1) for dim >= 3 and
    (0, 1, 1) for dim = 2. Diagonal entries are log-uniform on
    [0.1, 10]; coupling moduli uniform on [0, 1] and phases uniform on
    [0, 2 pi) in canonical slot order (the gamma-gamma moduli are
    forced to zero when gamma collides with alpha/beta, preserving
    positivity). Draw order: diag row 0, diag row 1, r (6), phi (6).
    An untied state is ``dataclasses.replace(state, tied=False)``.
    """
    levels = (dim,) + qudit_levels(dim, alpha, beta, gamma)
    seed, index = _check_seed(seed), _check_seed(index, "index")
    return sample_chunk(seed, index, index + 1, levels)[0]


# --- JSON wire format --------------------------------------------------------


def params_to_json(params) -> dict:
    """Encode either parameter dataclass as a JSON-ready dict."""
    if isinstance(params, ChessParams222):
        return {
            "a": params.a, "b": params.b, "c": params.c, "d": params.d,
            "r": list(params.r), "phi": list(params.phi),
        }
    if isinstance(params, ChessParams22d):
        couplings = [
            {"j": j, "slot": slot, "r": r, "phi": phi}
            for (j, slot), r, phi in zip(SLOT_ORDER, params.r, params.phi)
        ]
        return {
            "dim": params.dim,
            "alpha": params.alpha, "beta": params.beta, "gamma": params.gamma,
            "diag": [list(row) for row in params.diag],
            "couplings": couplings,
            "tied": params.tied,
        }
    raise TypeError(f"unsupported parameter object {type(params)!r}")


def params_from_json(obj: dict):
    """Decode :func:`params_to_json` output (schema chosen by 'dim' key).

    ``dim``, the levels and each coupling's ``j`` must be integers, the
    diagonals, moduli and phases JSON numbers and ``tied``, if given, a
    boolean; ValueError names the field otherwise.
    """
    if not isinstance(obj, dict):
        raise ValueError("parameter JSON must be an object")
    if "dim" in obj:
        try:
            slot_map = {
                (_check_integer(f"couplings[{i}].j", c["j"]), str(c["slot"])):
                (_json_number(f"couplings[{i}].r", c["r"]),
                 _json_number(f"couplings[{i}].phi", c["phi"]))
                for i, c in enumerate(obj["couplings"])
            }
            r = tuple(slot_map.get(key, (0.0, 0.0))[0] for key in SLOT_ORDER)
            phi = tuple(slot_map.get(key, (0.0, 0.0))[1] for key in SLOT_ORDER)
            unknown = set(slot_map) - set(SLOT_ORDER)
            if unknown:
                raise ValueError(f"unknown coupling slots {sorted(unknown)!r}")
            tied = obj.get("tied", True)
            if not isinstance(tied, bool):
                raise ValueError(f"tied must be a JSON boolean, got {tied!r}")
            return ChessParams22d(
                **{k: _check_integer(k, obj[k])
                   for k in ("dim", "alpha", "beta", "gamma")},
                diag=[[_json_number(f"diag[{j}][{k}]", v) for k, v in
                       enumerate(row)] for j, row in enumerate(obj["diag"])],
                r=r, phi=phi, tied=tied,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed 2x2xd parameter object: {exc}") from exc
    try:
        return ChessParams222(
            **{k: _json_number(k, obj[k]) for k in "abcd"},
            **{k: tuple(_json_number(f"{k}[{i}]", v)
                        for i, v in enumerate(obj.get(k, (0.0,) * 4)))
               for k in ("r", "phi")},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed 2x2x2 parameter object: {exc}") from exc
