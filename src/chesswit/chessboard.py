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
offending eigenvalue. :func:`positivity_proven` tells which states the
construction alone proves positive; :func:`rho_stack_22d` builds N
states of one level structure in one scatter, with no check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .tensorops import hermitian_eigenvalues

__all__ = [
    "ChessParams222",
    "ChessParams22d",
    "NonPositiveError",
    "COUPLING_POSITIONS",
    "SLOT_ORDER",
    "build_rho_222",
    "build_rho_22d",
    "coupling_cells",
    "normalization",
    "pauli_coeffs",
    "params_222_to_22d",
    "positivity_proven",
    "qudit_levels",
    "rho_entries_22d",
    "rho_stack_22d",
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


def _check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (numpy
    integers included), where ``int()`` would truncate 2.5 silently."""
    # the type test spares plain ints the slower abstract-class check
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(value, name: str = "seed") -> int:
    """``value`` as an int; ValueError unless it is a non-negative
    integer."""
    if (type(value) is not int and not isinstance(value, numbers.Integral)
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
    """8x8 density matrix of the 2x2x2 chessboard family (trace 1)."""
    n = normalization(params)
    rho = np.diag(np.array(params.diag_unnormalized, dtype=np.complex128))
    for (row, col), r, phi in zip(COUPLING_POSITIONS, params.r, params.phi):
        z = r * np.exp(1j * phi)
        rho[row, col] = z
        rho[col, row] = np.conj(z)
    return rho / n


def pauli_coeffs(params: ChessParams222) -> Dict[Tuple[int, int, int], float]:
    """The 15 nonidentity expansion coefficients c_t = Tr(rho O_t).

    Keys are the operator triples; the identity triple (0, 0, 0) always
    has coefficient 1 and is omitted, and every other triple not
    present has a vanishing coefficient. The values follow the closed
    forms in the couplings x_j = r_j cos(phi_j), y_j = r_j sin(phi_j)
    and the diagonal parameters.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    ia, ib, ic, id_ = 1 / a, 1 / b, 1 / c, 1 / d
    n = a + b + c + d + ia + ib + ic + id_
    x = [r * math.cos(p) for r, p in zip(params.r, params.phi)]
    y = [r * math.sin(p) for r, p in zip(params.r, params.phi)]
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    coeffs = {
        (1, 1, 1): 2 * (x1 + x2 + x3 + x4) / n,
        (1, 1, 2): 2 * (y1 - y2 + y3 - y4) / n,
        (1, 2, 1): 2 * (y1 + y2 - y3 - y4) / n,
        (2, 1, 1): -2 * (y1 + y2 + y3 + y4) / n,
        (1, 2, 2): 2 * (-x1 + x2 + x3 - x4) / n,
        (2, 1, 2): 2 * (x1 - x2 + x3 - x4) / n,
        (2, 2, 1): 2 * (x1 + x2 - x3 - x4) / n,
        (2, 2, 2): 2 * (y1 - y2 - y3 + y4) / n,
        (3, 0, 0): (a + b + c + d - ia - ib - ic - id_) / n,
        (0, 3, 0): (a + b - c - d - ia - ib + ic + id_) / n,
        (0, 0, 3): (a - b + c - d - ia + ib - ic + id_) / n,
        (3, 3, 0): (a + b - c - d + ia + ib - ic - id_) / n,
        (3, 0, 3): (a - b + c - d + ia - ib + ic - id_) / n,
        (0, 3, 3): (a - b - c + d + ia - ib - ic + id_) / n,
        (3, 3, 3): (a - b - c + d - ia + ib + ic - id_) / n,
    }
    return coeffs


# The 15 nonidentity triples carried by the chessboard expansion.
COEFF_TRIPLES: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
    (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    (3, 0, 0), (0, 3, 0), (0, 0, 3),
    (3, 3, 0), (3, 0, 3), (0, 3, 3), (3, 3, 3),
)


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


def positivity_proven(params: ChessParams22d) -> bool:
    """Whether the construction alone proves rho positive semidefinite.

    It does when ``tied`` is set and gamma either differs from alpha and
    beta or carries zero gamma-gamma moduli: every coupled block
    [[x, z], [conj z, 1/x]] then has determinant 1 - |z|^2 >= 0, and
    the other diagonals are positive or 0. A gamma that collides with
    alpha or beta adds its coupling to their blocks unless it is 0.
    """
    return params.tied and (
        params.gamma not in (params.alpha, params.beta)
        or all(r == 0.0 for (_, slot), r in zip(SLOT_ORDER, params.r)
               if slot == "gg"))


def rho_entries_22d(states: Sequence[ChessParams22d]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unnormalized entries of N 2x2xd matrices, before the trace
    division.

    ``states`` must share dim, alpha, beta and gamma (ValueError
    otherwise). Returns the (N, 4d) complex diagonals, the (N, 6)
    couplings r e^{i phi} at ``coupling_cells`` (their conjugates sit at
    the mirrored cells), and the (N,) traces, each summed as
    ``rho.trace()`` sums the diagonal. A 1-branch diagonal is the
    reciprocal of its coupling partner's diagonal (``tied``) or of its
    own 0-branch twin; a gamma that collides with alpha or beta leaves
    it to their slots, and the 1-branch diagonals of uncoupled levels
    stay 0.
    """
    first = states[0]
    levels = (first.dim, first.alpha, first.beta, first.gamma)
    d = first.dim
    collides = first.gamma in (first.alpha, first.beta)
    # (row, col) of the slots that set a 1-branch diagonal: |0 j src> is
    # zero_branch[row], its twin |0 j' dst> is zero_branch[col - 2d]
    placed = [cell for (_, slot), cell in zip(SLOT_ORDER,
                                              coupling_cells(*levels))
              if slot != "gg" or not collides]
    diag = np.zeros((len(states), 4 * d), dtype=np.complex128)
    for i, p in enumerate(states):
        if (p.dim, p.alpha, p.beta, p.gamma) != levels:
            raise ValueError("the states must share dim, alpha, beta and "
                             f"gamma; got {levels} and "
                             f"{(p.dim, p.alpha, p.beta, p.gamma)}")
        zero_branch = p.diag[0] + p.diag[1]
        diag[i, :2 * d] = zero_branch
        for row, col in placed:
            diag[i, col] = 1.0 / zero_branch[row if p.tied else col - 2 * d]
    couplings = np.array([[r * np.exp(1j * phi) for r, phi in zip(p.r, p.phi)]
                          for p in states])
    return diag, couplings, diag.sum(axis=1).real


def rho_stack_22d(states: Sequence[ChessParams22d]) -> np.ndarray:
    """(N, 4d, 4d) density matrices of N 2x2xd states of one level
    structure, with no positivity check.

    One scatter of the entries of :func:`rho_entries_22d` into the
    stack, then the trace division. :func:`build_rho_22d` is its N = 1
    case plus the check; :func:`positivity_proven` tells when the check
    can be skipped.
    """
    diag, couplings, trace = rho_entries_22d(states)
    first = states[0]
    n = 4 * first.dim
    rho = np.zeros((len(states), n, n), dtype=np.complex128)
    rho[:, range(n), range(n)] = diag
    rows, cols = zip(*coupling_cells(first.dim, first.alpha, first.beta,
                                     first.gamma))
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
    rho = rho_stack_22d([params])[0]
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


def sample_params_222(seed: int, index: int) -> ChessParams222:
    """Deterministic random parameters (sample ``index`` of stream ``seed``).

    Diagonal parameters are log-uniform on [0.1, 10], coupling moduli
    uniform on [0, 1], phases uniform on [0, 2 pi). Draw order: a, b,
    c, d, then r1..r4, then phi1..phi4.
    """
    rng = _rng_for(seed, index)
    diag = 10.0 ** rng.uniform(-1.0, 1.0, size=4)
    r = rng.uniform(0.0, 1.0, size=4)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=4)
    return ChessParams222(
        a=diag[0], b=diag[1], c=diag[2], d=diag[3],
        r=tuple(r), phi=tuple(phi),
    )


def sample_params_22d(
    seed: int,
    index: int,
    dim: int,
    alpha: int = 0,
    beta: int | None = None,
    gamma: int = 1,
    tied: bool = True,
) -> ChessParams22d:
    """Deterministic random 2x2xd parameters.

    Defaults pick (alpha, beta, gamma) = (0, 2, 1) for dim >= 3 and
    (0, 1, 1) for dim = 2. Diagonal entries are log-uniform on
    [0.1, 10]; coupling moduli uniform on [0, 1] and phases uniform on
    [0, 2 pi) in canonical slot order (the gamma-gamma moduli are
    forced to zero when gamma collides with alpha/beta, preserving
    positivity). Draw order: diag row 0, diag row 1, r (6), phi (6).
    """
    alpha, beta, gamma = qudit_levels(dim, alpha, beta, gamma)
    dim = int(dim)
    rng = _rng_for(seed, index)
    row0 = 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
    row1 = 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
    r = rng.uniform(0.0, 1.0, size=6)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=6)
    if gamma in (alpha, beta):
        for slot_index, (_, slot) in enumerate(SLOT_ORDER):
            if slot == "gg":
                r[slot_index] = 0.0
    return ChessParams22d(
        dim=dim, alpha=alpha, beta=beta, gamma=gamma,
        diag=(tuple(row0), tuple(row1)),
        r=tuple(r), phi=tuple(phi), tied=tied,
    )


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
    """Decode :func:`params_to_json` output (schema chosen by 'dim' key)."""
    if not isinstance(obj, dict):
        raise ValueError("parameter JSON must be an object")
    if "dim" in obj:
        try:
            slot_map = {
                (int(c["j"]), str(c["slot"])): (float(c["r"]), float(c["phi"]))
                for c in obj["couplings"]
            }
            r = tuple(slot_map.get(key, (0.0, 0.0))[0] for key in SLOT_ORDER)
            phi = tuple(slot_map.get(key, (0.0, 0.0))[1] for key in SLOT_ORDER)
            unknown = set(slot_map) - set(SLOT_ORDER)
            if unknown:
                raise ValueError(f"unknown coupling slots {sorted(unknown)!r}")
            return ChessParams22d(
                dim=int(obj["dim"]),
                alpha=int(obj["alpha"]), beta=int(obj["beta"]),
                gamma=int(obj["gamma"]),
                diag=tuple(tuple(float(v) for v in row) for row in obj["diag"]),
                r=r, phi=phi,
                tied=bool(obj.get("tied", True)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed 2x2xd parameter object: {exc}") from exc
    try:
        return ChessParams222(
            a=float(obj["a"]), b=float(obj["b"]),
            c=float(obj["c"]), d=float(obj["d"]),
            r=tuple(float(v) for v in obj.get("r", (0.0,) * 4)),
            phi=tuple(float(v) for v in obj.get("phi", (0.0,) * 4)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed 2x2x2 parameter object: {exc}") from exc
