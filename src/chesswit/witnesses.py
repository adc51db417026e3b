"""Nonlinear entanglement-witness catalog for three-party systems.

Witness identifiers
-------------------
Discrete catalog entries are strings (236 for the qubit case):

``poly1:BBBB`` / ``poly2:BBBB``
    Polygonal witnesses; ``BBBB`` are four sign bits. ``poly1:i1i2i3i4``
    is the operator sum

        III + (-1)^i1 O333 + (-1)^i2 O111 + (-1)^i3 O122
            + (-1)^i4 O212 + (-1)^(i2+i3+i4+1) O221,

    where ``Okjl`` is the Pauli triple product. ``poly2`` is its
    conjugation by the phase gate M = diag(1, i) on the first party.

``con:KP:KJL:I:S`` / ``conp:KP:KJL:I:S``
    Conical one-angle families, KP in {333, 330, 303, 033}, KJL in
    {122, 212, 221} (primed variant ``conp``: {211, 121, 112}), bit I,
    sign S in {+, -}:

        W(psi) = III + S*O_KP + cos(psi) (O111 + (-1)^I O_KJL)
                 + sin(psi) (O_LKJ + (-1)^I O_JLK),

    with LKJ/JLK the two cyclic rotations of KJL. Primed entries are
    the phase-gate conjugates of their unprimed partner family.

``cyl:KP:KJL:I1I2`` / ``cylp:...``
    Cylindrical one-angle families, KP in {300, 030, 003}:

        W(psi) = III + cos(psi) O_KP + sin(psi) (O111 + (-1)^I1 O_KJL
                 + (-1)^I2 O_LKJ + (-1)^(I1+I2+1) O_JLK).

``sph:KP:KJL:I`` / ``sphp:...``
    Spherical two-angle families, KP in {300, 030, 003}:

        W(eta, zeta) = III + sin(eta)cos(zeta) O_KP
                       + sin(eta)sin(zeta) (O111 + (-1)^I O_KJL)
                       + cos(eta) (O_LKJ + (-1)^I O_JLK).

A qudit catalog entry carries the suffix ``@A,B`` selecting the
two-level subspace (A < B) of a d-level third party; the operators are
then built with :func:`chesswit.tensorops.qudit_substitute`, each
triple's operator once per (d, A, B) (``tensorops._substituted_op``).

Closed-form machinery
---------------------
Each family is written once, as a term table (``_spec``): a short list
of components, each a list of signed Pauli triples, which the angle
weights combine into the witness. A primed family is its partner's
table with the first Pauli index relabelled by the phase gate
(1jk -> +2jk, 2jk -> -1jk). ``build_witness`` adds up the operators
of the terms, and ``expectation_closed`` and ``functional`` the state's
expansion coefficients over the same terms, since Tr(W rho) is affine
in them; both, like ``frgeom``'s operators and Bloch products, add
by one signed left-to-right fold, ``tensorops._signed_sum``. The
minimum over a family's angle(s) is then k0 - ||k_rest|| (Guehne &
Luetkenhaus, PRL 96, 170502, 2006).

``family_minima`` evaluates the whole catalog at once from one gather
table (``_table``), compiled lazily from the term tables: each of its
512 component rows lists up to six signed coefficient slots, padded
with -0.0, which is the identity of floating-point addition. One pass
takes R coefficient rows (``_catalog_values``): the table gathers a
(6, 512, R) array from the (34, R) columns (x, -x) of the rows, so each
row reads its own coefficients through the same one table. The
gathered terms are summed left to right, as ``functional`` sums them,
so k is bit-identical to the scalar route. The norm is the scalar
route's own: ``math.hypot`` over the R x 84 distinct (k1, k2) pairs of
the 168 one-angle entries (|k1| + |k2| on the axes, which is
hypot(k1, k2) exactly there), and the square root of the left-to-right
sum of squares, which numpy rounds as Python does, over the spherical
rows. Every value therefore equals ``functional``'s bit for bit.

``family_minima`` takes one coefficient mapping, the P rows of one
2x2xd state (its level pairs), or an (N, P, 15) stack of N states. For
one state each family's winner is its first least value in (row,
catalog) order; only the eight winners' components go through the
scalar minimization again, for their angles and ids. For a stack it
returns each state's minima only, taken from the pass's values, in
passes of at most ``_CATALOG_TERMS`` gathered terms, so that memory
does not grow with N or P. The scan evaluates each chunk so.

For 2x2xd parameters, ``detect`` and the scan take every level pair's
coefficients Tr(rho Q_t) straight from the parameters, with no density
matrix (``_pair_coeffs``): rho has only 4d diagonal entries and six
couplings, so one gather compiled per level structure
(``_pair_gather``) lists the few entries each coefficient sums, in the
order the matrix route's einsum adds them. It takes a chunk in the one
form of the 2x2xd layers: the ``chessboard.rho_entries_22d`` of the
chunk's ``ParamColumns`` and its level tuple (dim, alpha, beta, gamma);
``detect`` wraps its one state as a one-row chunk, and it and the scan
reach the coefficients through one helper (``_qudit_chunk``). N
states of one level structure take one gather, and each row of the
(N, P, 15) result is bit-equal to ``substituted_coeffs`` on
``build_rho_22d``. That matrix route stays as the public API and the
test oracle.

Aggregate detection verdicts over whole families reduce to small
tables in the state parameters (``detection_conditions``).
``min_expectation_over_products`` provides the independent numerical
route: the exact minimum of <s|W|s> over product states via
multi-start alternating per-party eigenvector updates on real
coordinates. A qubit party moves in closed form on its Bloch vector; a
qudit party solves its effective operator per connected component of
W's support on it, so ``eigh`` runs only for a component of three or
more levels, which no catalog witness has. The starts' seed states come
from one ``chessboard.stream_words`` pass, bit-equal to one
``SeedSequence((seed, s))`` per start.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .chessboard import (
    COEFF_TRIPLES,
    ChessParams222,
    ChessParams22d,
    ParamColumns,
    _check_seed,
    _pcg64,
    coupling_cells,
    pauli_coeffs,
    rho_entries_22d,
    stream_words,
)
from .tensorops import (_bloch, _check_dim, _check_dims, _check_integer,
                        _check_pair, _check_tol, _signed_sum, _substituted_op)

__all__ = [
    "CONICAL_KP",
    "AXIS_KP",
    "KJL_UNPRIMED",
    "KJL_PRIMED",
    "DETECT_MARGIN",
    "FAMILY_NAMES",
    "GROUP_NAMES",
    "witness_ids",
    "parse_witness_id",
    "witness_angles",
    "build_witness",
    "phase_gate_conjugate",
    "substituted_coeffs",
    "expectation",
    "expectation_closed",
    "functional",
    "format_witness",
    "family_minima",
    "group_minima",
    "detect",
    "DetectionReport",
    "detection_conditions",
    "min_expectation_over_products",
    "validate_witness",
]

CONICAL_KP = ("333", "330", "303", "033")
AXIS_KP = ("300", "030", "003")
KJL_UNPRIMED = ("122", "212", "221")
KJL_PRIMED = ("211", "121", "112")

FAMILY_NAMES = ("poly1", "poly2", "con", "conp", "cyl", "cylp", "sph", "sphp")
GROUP_NAMES = ("poly", "con", "cyl", "sph")
GROUP_MEMBERS = {
    "poly": ("poly1", "poly2"),
    "con": ("con", "conp"),
    "cyl": ("cyl", "cylp"),
    "sph": ("sph", "sphp"),
}

# Detection margin: family minima in [-DETECT_MARGIN, 0) are flagged
# as marginal; strict negativity decides detection.
DETECT_MARGIN = 1e-9

# Primed -> unprimed partner triples; the boolean says whether the I
# bit flips for the conical/spherical forms (the cylindrical forms
# keep both bits).
_PRIMED_PARTNER = {"211": ("122", False), "121": ("212", True), "112": ("221", True)}


def _rotations(kjl: str) -> Tuple[str, str]:
    """The two cyclic rotations (lkj, jlk) of a triple string."""
    return kjl[2] + kjl[0] + kjl[1], kjl[1] + kjl[2] + kjl[0]


def _triple(s: str) -> Tuple[int, int, int]:
    return tuple(int(ch) for ch in s)  # type: ignore[return-value]


def _sgn(bit: int) -> float:
    return -1.0 if bit % 2 else 1.0


# --- identifier grammar -------------------------------------------------------


@dataclass(frozen=True)
class _ParsedId:
    family: str
    bits: Tuple[int, ...] = ()
    kp: str = ""
    kjl: str = ""
    i: int = 0
    i2: int = 0
    sign: int = +1
    pair: Optional[Tuple[int, int]] = None

    @property
    def base(self) -> str:
        if self.family in ("poly1", "poly2"):
            core = f"{self.family}:" + "".join(str(b) for b in self.bits)
        elif self.family in ("con", "conp"):
            s = "+" if self.sign > 0 else "-"
            core = f"{self.family}:{self.kp}:{self.kjl}:{self.i}:{s}"
        elif self.family in ("cyl", "cylp"):
            core = f"{self.family}:{self.kp}:{self.kjl}:{self.i}{self.i2}"
        else:
            core = f"{self.family}:{self.kp}:{self.kjl}:{self.i}"
        return core + _suffix(self.pair)


def _suffix(pair: Optional[Tuple[int, int]]) -> str:
    """The id suffix ``@A,B`` of a level pair (A, B); "" for None."""
    return "" if pair is None else f"@{pair[0]},{pair[1]}"


@lru_cache(maxsize=None)
def _base_entries() -> Dict[str, _ParsedId]:
    """Every base catalog entry, in catalog order, keyed by its id: the
    one list of which ids exist."""
    bit = (0, 1)
    entries = [_ParsedId(family, bits=bits) for family in ("poly1", "poly2")
               for bits in itertools.product(bit, repeat=4)]
    for kind, kps, tails in (
            ("con", CONICAL_KP, [{"i": i, "sign": s} for i in bit for s in (1, -1)]),
            ("cyl", AXIS_KP, [{"i": i, "i2": i2} for i in bit for i2 in bit]),
            ("sph", AXIS_KP, [{"i": i} for i in bit])):
        for family, kjls in zip(GROUP_MEMBERS[kind], (KJL_UNPRIMED, KJL_PRIMED)):
            entries += [_ParsedId(family, kp=kp, kjl=kjl, **tail)
                        for kp in kps for kjl in kjls for tail in tails]
    return {p.base: p for p in entries}


def parse_witness_id(witness_id: str) -> _ParsedId:
    """Parse a witness identifier string, whose part before any ``@A,B``
    suffix must be a key of the catalog enumeration; raises ValueError
    if malformed."""
    if not isinstance(witness_id, str):
        raise ValueError(f"witness id must be a string, got {witness_id!r}")
    s = witness_id.strip()
    pair: Optional[Tuple[int, int]] = None
    if "@" in s:
        s, _, pair_part = s.partition("@")
        # plain decimals, as witness_ids writes them
        match = re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", pair_part)
        if match is None:
            raise ValueError(
                f"malformed subspace suffix in witness id {witness_id!r}")
        pair = (int(match[1]), int(match[2]))
        if not 0 <= pair[0] < pair[1]:
            raise ValueError(
                f"subspace pair must satisfy 0 <= A < B, got {pair} in "
                f"{witness_id!r}"
            )
    parsed = _base_entries().get(s)
    if parsed is None:
        raise ValueError(f"malformed witness id {witness_id!r}")
    return parsed if pair is None else replace(parsed, pair=pair)


def witness_ids(d: int = 2) -> List[str]:
    """All discrete catalog identifiers: 236 for d=2, times d(d-1)/2 pairs
    (each with an ``@A,B`` suffix) for d > 2. Raises ValueError unless
    d is an integer >= 2."""
    d = _check_dim(d)
    pairs = itertools.combinations(range(d), 2) if d > 2 else [None]
    return [s + _suffix(pair) for pair in pairs for s in _base_entries()]


def witness_angles(witness_id: str) -> Tuple[str, ...]:
    """Names of the angles a catalog id's family takes, in the order of
    :func:`build_witness`'s arguments."""
    kind = _KIND[parse_witness_id(witness_id).family]
    return {"poly": (), "con": ("psi",), "cyl": ("psi",),
            "sph": ("eta", "zeta")}[kind]


def format_witness(base_id: str, angles: Dict[str, float]) -> str:
    """Append angle assignments to a discrete identifier."""
    out = base_id
    for name in ("psi", "eta", "zeta"):
        if name in angles:
            out += f":{name}={angles[name]:.6f}"
    return out


# --- term table ---------------------------------------------------------------

# Tr(rho III) = 1, so the identity term contributes exactly 1.0.
_IDENTITY = (0, 0, 0)
_KIND = {m: g for g, members in GROUP_MEMBERS.items() for m in members}

# A component is a tuple of (sign, triple) terms; see ``_spec``.
_Components = Tuple[Tuple[Tuple[float, Tuple[int, int, int]], ...], ...]


@lru_cache(maxsize=None)
def _spec(base_id: str) -> Tuple[str, _Components]:
    """Structural kind and signed Pauli-triple terms of a catalog id.

    ``base_id`` carries no ``@A,B`` suffix. The witness is
    sum_j w_j sum_{(s, t) in components[j]} s O_t, with the weights w
    of :func:`_angle_weights`. A primed entry takes the terms of its
    unprimed partner (``_PRIMED_PARTNER``) conjugated by the phase gate,
    M O_1jk M^dagger = O_2jk and M O_2jk M^dagger = -O_1jk.
    """
    p = _base_entries()[base_id]
    kind = _KIND[p.family]
    primed = p.family != GROUP_MEMBERS[kind][0]
    if kind == "poly":
        i1, i2, i3, i4 = p.bits
        components = [[(1.0, "000"), (_sgn(i1), "333"), (_sgn(i2), "111"),
                       (_sgn(i3), "122"), (_sgn(i4), "212"),
                       (_sgn(i2 + i3 + i4 + 1), "221")]]
    else:
        kjl, i = p.kjl, p.i
        if primed:
            kjl, flip = _PRIMED_PARTNER[kjl]
            if flip and kind != "cyl":
                i ^= 1
        lkj, jlk = _rotations(kjl)
        if kind == "con":
            components = [[(1.0, "000"), (float(p.sign), p.kp)],
                          [(1.0, "111"), (_sgn(i), kjl)],
                          [(1.0, lkj), (_sgn(i), jlk)]]
        elif kind == "cyl":
            components = [[(1.0, "000")], [(1.0, p.kp)],
                          [(1.0, "111"), (_sgn(i), kjl), (_sgn(p.i2), lkj),
                           (_sgn(i + p.i2 + 1), jlk)]]
        else:  # sph
            components = [[(1.0, "000")], [(1.0, p.kp)],
                          [(1.0, "111"), (_sgn(i), kjl)],
                          [(1.0, lkj), (_sgn(i), jlk)]]

    def term(sign: float, triple: str):
        t = _triple(triple)
        if primed and t[0] == 1:
            return sign, (2,) + t[1:]
        if primed and t[0] == 2:
            return -sign, (1,) + t[1:]
        return sign, t

    return kind, tuple(tuple(term(s, t) for s, t in terms)
                       for terms in components)


def _parsed_spec(witness_id: str) -> Tuple[_ParsedId, str, _Components]:
    parsed = parse_witness_id(witness_id)
    return (parsed,) + _spec(replace(parsed, pair=None).base)


@lru_cache(maxsize=None)
def _catalog() -> Tuple[Tuple[str, str, str, _Components], ...]:
    """The base catalog as (id, family, kind, components)."""
    return tuple((b, p.family) + _spec(b) for b, p in _base_entries().items())


# --- operator construction ----------------------------------------------------


def _angle_weights(kind: str, psi: Optional[float], eta: Optional[float],
                   zeta: Optional[float]) -> List[float]:
    for name, value in (("psi", psi), ("eta", eta), ("zeta", zeta)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"angle {name} must be finite, got {value!r}")
    if kind == "poly":
        return [1.0]
    if kind in ("con", "cyl"):
        if psi is None:
            raise ValueError(f"{kind} witnesses require the angle psi")
        return [1.0, math.cos(psi), math.sin(psi)]
    if eta is None or zeta is None:
        raise ValueError("spherical witnesses require the angles eta and zeta")
    return [1.0, math.sin(eta) * math.cos(zeta),
            math.sin(eta) * math.sin(zeta), math.cos(eta)]


def phase_gate_conjugate(w: np.ndarray) -> np.ndarray:
    """Conjugate by M (x) I (x) I with the phase gate M = diag(1, i), for
    any third-party dimension: M acts on the first half of the indices."""
    w = np.asarray(w, dtype=np.complex128)
    u = np.ones(w.shape[0], dtype=np.complex128)
    u[w.shape[0] // 2:] = 1j  # M acts on the first (slowest) qubit
    return (u[:, None] * w) * u.conj()[None, :]


def build_witness(
    witness_id: str,
    psi: Optional[float] = None,
    eta: Optional[float] = None,
    zeta: Optional[float] = None,
    d: int = 2,
) -> np.ndarray:
    """Dense Hermitian witness operator for a catalog identifier.

    Angle arguments are required by the curved families (``psi`` for
    conical/cylindrical, ``eta``/``zeta`` for spherical) and ignored by
    the polygonal ones; every angle given must be finite. The third
    party has ``d`` levels, an integer >= 2 (ValueError otherwise), and
    the operators act on its two-level subspace named by the id's
    ``@A,B`` suffix, (0, 1) without one.
    """
    parsed, kind, components = _parsed_spec(witness_id)
    alpha, beta = parsed.pair or (0, 1)
    d = _check_dim(d)
    w = np.zeros((4 * d, 4 * d), dtype=np.complex128)
    for coef, terms in zip(_angle_weights(kind, psi, eta, zeta), components):
        w += coef * _signed_sum(
            terms, lambda t: _substituted_op(t, d, alpha, beta))
    return w


# --- closed-form coefficients machinery ---------------------------------------


@lru_cache(maxsize=None)
def _substituted_ops(d: int, alpha: int, beta: int) -> np.ndarray:
    """Read-only (15, 4d, 4d) stack of Q_t, in ``COEFF_TRIPLES`` order."""
    ops = np.stack([_substituted_op(t, d, alpha, beta) for t in COEFF_TRIPLES])
    ops.setflags(write=False)
    return ops


def substituted_coeffs(rho: np.ndarray, d: int, alpha: int, beta: int
                       ) -> Dict[Tuple[int, int, int], float]:
    """The 15 substituted-operator coefficients Tr(rho Q_t) for a pair;
    ValueError unless ``d`` and the levels pass ``_check_pair`` and
    ``rho`` is 4d x 4d."""
    alpha, beta = _check_pair(d, alpha, beta, ("alpha", "beta"))
    rho = np.asarray(rho)
    if rho.shape != (4 * d, 4 * d):
        raise ValueError(f"rho must have shape ({4 * d}, {4 * d}), "
                         f"got {rho.shape}")
    values = np.einsum("pij,ji->p", _substituted_ops(int(d), alpha, beta),
                       rho).real
    return dict(zip(COEFF_TRIPLES, values.tolist()))


def _slot_table(columns: Sequence[Sequence[int]], pad: int) -> np.ndarray:
    """Read-only (T, C) ints: column c is ``columns[c]``, padded with
    ``pad`` to the longest column's length T."""
    slots = np.full((max(map(len, columns)), len(columns)), pad)
    for c, column in enumerate(columns):
        slots[:len(column), c] = column
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=None)
def _pair_gather(d: int, alpha: int, beta: int, gamma: int,
                 pairs: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """(T, P, 15) slots of :func:`_pair_coeffs` for one level structure.

    Column (p, t) lists, in row-major order, every nonzero Q[r, c] of
    Q_t at ``pairs[p]`` whose rho[c, r] is an entry of
    :func:`rho_entries_22d`; the other products are +-0 and add nothing.
    Q's entries are +-1 and +-i, so Re(Q[r, c] rho[c, r]) is exactly
    +-Re or +-Im of the entry: a slot into xx = (x, -x, 0.0) with
    x = (Re v, Im v) and v the (4d + 12,) entries (diagonal, couplings,
    conjugate couplings). Columns are padded with the slot of 0.0.
    """
    n = 4 * d
    m = n + 12
    rows, cols = zip(*coupling_cells(d, alpha, beta, gamma))
    cell = np.full((n, n), -1)
    cell[range(n), range(n)] = range(n)
    cell[rows, cols] = range(n, n + 6)
    cell[cols, rows] = range(n + 6, m)
    # slot offset of Re(q v) for each entry value q of Q
    offset = {1: 0, 1j: 3 * m, -1: 2 * m, -1j: m}
    columns = [[offset[q[r, c]] + cell[c, r]
                for r, c in zip(*np.nonzero(q)) if cell[c, r] >= 0]
               for a, b in pairs for q in _substituted_ops(d, a, b)]
    slots = _slot_table(columns, 4 * m)
    return slots.reshape(len(slots), len(pairs), len(COEFF_TRIPLES))


def _check_pairs(pairs: str) -> None:
    """ValueError unless ``pairs`` is "all" or "own"."""
    if pairs not in ("all", "own"):
        raise ValueError(f"pairs must be 'all' or 'own', got {pairs!r}")


def _level_pairs(levels: Tuple[int, int, int, int], pairs: str
                 ) -> Tuple[Tuple[Tuple[int, int], ...], List[str]]:
    """The level pairs ``pairs`` ("all" or "own") names for the 2x2xd
    level structure ``levels`` = (dim, alpha, beta, gamma), and the id
    suffix of each (none at d = 2)."""
    dim, alpha, beta, _ = levels
    if pairs == "own":
        pair_list = (tuple(sorted((alpha, beta))),)
    else:
        pair_list = tuple(itertools.combinations(range(dim), 2))
    return pair_list, [_suffix(pair if dim > 2 else None) for pair in pair_list]


def _pair_coeffs(entries: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 levels: Tuple[int, int, int, int],
                 pairs: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """(N, P, 15) coefficients Tr(rho Q_t) of N states of level
    structure ``levels``, one row per level pair, from their
    ``rho_entries_22d`` with no density matrix: row (i, p) is bit-equal
    to ``substituted_coeffs(build_rho_22d(state_i), d, *pairs[p])``,
    whose einsum adds the products of Q's row-major nonzeros from +0 in
    the same order."""
    diag, couplings, trace = entries
    v = np.concatenate((diag, couplings, couplings.conj()),
                       axis=1) / trace[:, None]
    x = np.concatenate((v.real, v.imag), axis=1)
    xx = np.concatenate((x, -x, np.zeros((len(x), 1))), axis=1)
    terms = xx.T[_pair_gather(*levels, pairs)]    # (T, P, 15, N)
    # term by term along the slow axis T, from +0 as the einsum starts;
    # see _catalog_values
    k = np.add.reduce(terms, initial=0.0)
    return k.transpose(2, 0, 1)


def _qudit_chunk(columns: ParamColumns, pairs: str) -> tuple:
    """A 2x2xd chunk's rho entries, ``_level_pairs`` and (N, P, 15)
    ``_pair_coeffs``. Every row is positive semidefinite by
    construction, as parameter objects and ``sample_chunk`` columns both
    carry the chessboard proof (see ``chesswit.chessboard``)."""
    entries = rho_entries_22d(columns)
    pair_list, suffixes = _level_pairs(columns.levels, pairs)
    return (entries, pair_list, suffixes,
            _pair_coeffs(entries, columns.levels, pair_list))


_NOT_FINITE = ("witness catalog values must be finite; the coefficients "
               "are non-finite or overflow")


def _finite(value: float) -> float:
    """``value``; ``family_minima``'s ValueError unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(_NOT_FINITE)
    return value


def _component_values(components: _Components,
                      co: Dict[Tuple[int, int, int], float]) -> List[float]:
    """K with Tr(W rho) = K . angle_weights: K_j = sum of s c_t over the
    terms of component j, as ``_signed_sum`` adds them (a -0.0 component
    keeps its sign). ``co`` must map the identity triple to 1.0."""
    return [_signed_sum(terms, lambda t: co.get(t, 0.0))
            for terms in components]


def expectation_closed(
    witness_id: str,
    coeffs: Dict[Tuple[int, int, int], float],
    psi: Optional[float] = None,
    eta: Optional[float] = None,
    zeta: Optional[float] = None,
) -> float:
    """Tr(W rho) from the state's expansion coefficients; ValueError,
    as ``family_minima`` raises it, if the value is not finite."""
    _, kind, components = _parsed_spec(witness_id)
    k = _component_values(components, {**coeffs, _IDENTITY: 1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.dot(k, _angle_weights(kind, psi, eta, zeta)))
    return _finite(value)


def _minimize_components(kind: str, k: Sequence[float]
                         ) -> Tuple[float, Dict[str, float]]:
    """Minimum of K . angle_weights over the family's angles."""
    if kind == "poly":
        return k[0], {}
    if kind in ("con", "cyl"):
        k0, k1, k2 = k
        norm = math.hypot(k1, k2)
        psi = math.atan2(-k2, -k1) % (2 * math.pi) if norm > 0 else 0.0
        return k0 - norm, {"psi": psi}
    k0, ka, kb, kc = k
    norm = math.sqrt(ka * ka + kb * kb + kc * kc)
    if norm > 0:
        eta = math.acos(max(-1.0, min(1.0, -kc / norm)))
        zeta = math.atan2(-kb, -ka) % (2 * math.pi)
    else:
        eta = zeta = 0.0
    return k0 - norm, {"eta": eta, "zeta": zeta}


def functional(
    witness_id: str,
    coeffs: Dict[Tuple[int, int, int], float],
) -> Tuple[float, Dict[str, float]]:
    """Minimum of Tr(W rho) over the family's angles, with the argmin.

    Polygonal entries are angle-free and return an empty angle dict.
    Raises ``family_minima``'s ValueError if the minimum is not finite.
    """
    _, kind, components = _parsed_spec(witness_id)
    value, angles = _minimize_components(
        kind, _component_values(components, {**coeffs, _IDENTITY: 1.0}))
    return _finite(value), angles


def expectation(w: np.ndarray, rho: np.ndarray) -> float:
    """Tr(W rho) as a real number.

    Both arguments must be Hermitian and of matching dimension; a trace
    with imaginary part above 1e-12 is rejected rather than silently
    truncated.
    """
    w = np.asarray(w, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    if w.shape != rho.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(
            f"shape mismatch: witness {w.shape}, state {rho.shape}"
        )
    value = complex(np.einsum("ij,ji->", w, rho))
    if abs(value.imag) > 1e-12:
        raise ValueError(
            f"trace has imaginary part {value.imag:.3e}; "
            "inputs must be Hermitian"
        )
    return float(value.real)


# --- detection ----------------------------------------------------------------


@dataclass(frozen=True)
class DetectionReport:
    """Catalog evaluation summary for one state.

    ``families`` maps each family name to its minimal functional value
    and the identifier (with angles) attaining it; ``group_minima``
    merges primed/unprimed pairs. ``detected`` is strict negativity of
    any family minimum; minima within ``DETECT_MARGIN`` below zero are
    additionally listed in ``marginal``.
    """

    families: Dict[str, Dict[str, object]]
    group_minima: Dict[str, float]
    detected: bool
    marginal: Tuple[str, ...]
    intermediates: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "families": self.families,
            "group_minima": self.group_minima,
            "detected": self.detected,
            "marginal": list(self.marginal),
            "intermediates": self.intermediates,
        }


class _Table(NamedTuple):
    """The base catalog compiled for :func:`family_minima`.

    Row r of the component vector K is sum_i xx[slots[i, r]], added
    left to right, where xx = (x, -x) and x = (1, the coefficients in
    ``COEFF_TRIPLES`` order, 0). Rows 0..E-1 are every entry's k0, in
    catalog order. Then come the k1 rows and the k2 rows of the 84
    distinct (k1, k2) pairs of the one-angle entries (con, cyl), and
    then the ka, kb and kc rows of the ``spherical`` entries. Row e of
    ``components`` lists the K rows of entry e's components, in its
    first len(components) columns. ``norm_of`` maps entry e to the row
    of its norm in (the 84 pair norms, the spherical norms, 0.0): its
    pair's, its own, or the 0.0 of a polygonal entry.
    """

    slots: np.ndarray          # (6, 512) int, indices into xx
    norm_of: np.ndarray        # row of each entry's norm
    spherical: np.ndarray      # entry indices of sph
    family_start: np.ndarray   # first entry of each family
    family_of: np.ndarray      # family number of each entry
    components: np.ndarray     # (236, 4) K rows of each entry


@lru_cache(maxsize=None)
def _table() -> _Table:
    catalog = _catalog()
    slot = {t: k + 1 for k, t in enumerate(COEFF_TRIPLES)}
    slot[_IDENTITY] = 0
    neg = len(COEFF_TRIPLES) + 2    # xx[neg + k] = -x[k]
    kinds = [kind for _, _, kind, _ in catalog]
    one_angle = [e for e, kind in enumerate(kinds) if kind in ("con", "cyl")]
    spherical = [e for e, kind in enumerate(kinds) if kind == "sph"]
    # the 168 con/cyl entries have only 84 distinct (k1, k2) pairs: the
    # norm of a pair is computed once, for every entry that has it
    pairs: Dict[_Components, int] = {}
    pair_of = [pairs.setdefault(catalog[e][3][1:], len(pairs))
               for e in one_angle]
    rows = [comps[0] for *_, comps in catalog]
    for j in (0, 1):
        rows += [pair[j] for pair in pairs]
    for j in (1, 2, 3):
        rows += [catalog[e][3][j] for e in spherical]
    slots = _slot_table([[slot[t] if s > 0 else neg + slot[t] for s, t in terms]
                         for terms in rows], 2 * neg - 1)    # -x[-1] = -0.0
    families = [family for _, family, _, _ in catalog]
    starts = [e for e, f in enumerate(families) if e == 0 or f != families[e - 1]]
    family_of = np.searchsorted(starts, np.arange(len(families)), "right") - 1
    n_entries, n_pairs, n_sph = len(catalog), len(pairs), len(spherical)
    components = np.zeros((n_entries, 4), dtype=int)
    components[:, 0] = range(n_entries)
    components[one_angle, 1] = n_entries + np.array(pair_of)
    components[one_angle, 2] = n_entries + n_pairs + np.array(pair_of)
    components[spherical, 1:] = (n_entries + 2 * n_pairs + n_sph * np.arange(3)
                                 + np.arange(n_sph)[:, None])
    norm_of = np.full(n_entries, n_pairs + n_sph)
    norm_of[one_angle] = pair_of
    norm_of[spherical] = n_pairs + np.arange(n_sph)
    table = _Table(slots, norm_of, np.array(spherical), np.array(starts),
                   family_of, components)
    for a in table:
        a.setflags(write=False)
    return table


#: Gathered terms per catalog pass of a stack of states. 2**18 terms
#: (2 MB) hold 85 coefficient rows of 3,072 terms each, so the pass's
#: memory is bounded whatever the number of states or level pairs.
_CATALOG_TERMS = 2 ** 18


def _coeff_columns(coeffs) -> np.ndarray:
    """(34, R) columns xx = (x, -x) of ``_Table``, one per coefficient
    row, with x = (1, the coefficients in ``COEFF_TRIPLES`` order, 0):
    from the rows of a (P, 15) or (N, P, 15) array, in C order, or from
    one mapping (R = 1; absent triples are 0)."""
    if isinstance(coeffs, Mapping):
        x = [1.0] + [coeffs.get(t, 0.0) for t in COEFF_TRIPLES] + [0.0]
        return np.array(x + [-v for v in x])[:, None]
    rows = np.asarray(coeffs, dtype=float)
    if rows.ndim not in (2, 3) or rows.shape[-1] != len(COEFF_TRIPLES):
        raise ValueError(f"coefficients must be a mapping or a (P, 15) or "
                         f"(N, P, 15) array, got shape {rows.shape}")
    rows = rows.reshape(-1, len(COEFF_TRIPLES)).T
    ones = np.ones((1, rows.shape[1]))
    zeros = np.zeros_like(ones)
    return np.concatenate((ones, rows, zeros, -ones, -rows, -zeros))


def _catalog_values(xx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every base entry's functional value on each column of ``xx`` (see
    :func:`_coeff_columns`), bit-equal to ``functional``'s: a (236, R)
    array, entry e of row p at [e, p]; and the (512, R) component rows
    K of ``_table()`` they were taken from.

    Raises ValueError if a value is not finite: finite coefficients can
    still overflow k, and the family minima need ordered values. Such an
    overflow raises no numpy warning.
    """
    table = _table()
    terms = xx.take(table.slots, axis=0)    # (6, 512, R)
    n_rows = xx.shape[1]
    n_entries, n_sph = len(table.family_of), len(table.spherical)
    sph = table.slots.shape[1] - 3 * n_sph    # first spherical row
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy adds along an axis other than the fast one term by term
        # (pairwise summation is only used along the fast axis), and
        # -0.0 is the exact identity of addition: k is the left-to-right
        # sum terms[0] + terms[1] + ...
        k = np.add.reduce(terms, initial=-0.0)
        k1, k2 = k[n_entries:sph].reshape(2, -1, n_rows)
        ka2, kb2, kc2 = np.square(k[sph:].reshape(3, n_sph, n_rows))
        # hypot(x, +-0) is |x| exactly, and so is |x| + |+-0|: only
        # pairs off the axes need math.hypot (at d >= 3 most are zero)
        hypot = np.abs(k1) + np.abs(k2)
        off = (k1 != 0) & (k2 != 0)
        hypot[off] = list(map(math.hypot, k1[off].tolist(),
                              k2[off].tolist()))
        norms = np.concatenate((hypot, np.sqrt(ka2 + kb2 + kc2),
                                np.zeros((1, n_rows))))
        values = k[:n_entries] - norms.take(table.norm_of, axis=0)
    if not np.isfinite(values).all():
        raise ValueError(_NOT_FINITE)
    return values, k


def _stack_minima(xx: np.ndarray, n_states: int, n_pairs: int) -> np.ndarray:
    """(8, N) family minima of N states whose coefficient columns, P per
    state, are ``xx``; one catalog pass per ``_CATALOG_TERMS`` terms.

    Every k0 sum starts from the identity's 1.0 and every norm is >= +0,
    so no value is -0.0: equal values have equal bits, and the least
    value is the first least in (pair, catalog) order.
    """
    table = _table()
    n_families = len(table.family_start)
    step = max(1, _CATALOG_TERMS // table.slots.size)
    least = np.concatenate([np.empty((n_families, 0))] + [
        np.minimum.reduceat(_catalog_values(xx[:, i:i + step])[0],
                            table.family_start)
        for i in range(0, xx.shape[1], step)], axis=1)
    return least.reshape(n_families, n_states, n_pairs).min(axis=2)


def family_minima(
    coeffs: Union[Mapping[Tuple[int, int, int], float], np.ndarray],
    suffix: Union[str, Sequence[str]] = "",
) -> Dict[str, Dict[str, object]]:
    """Minimal functional value and best identifier per family.

    ``coeffs`` is one coefficient mapping, or a (P, 15) array of rows in
    ``COEFF_TRIPLES`` order (a 2x2xd state's level pairs), with
    ``suffix`` one id suffix or one per row. The minimum is that of
    ``functional`` over every row and entry of each family, the first
    in (row, catalog) order winning a tie; see "Closed-form machinery"
    in the module docstring.

    ``coeffs`` may also be an (N, P, 15) stack of N states, which takes
    no suffix: each family then maps to ``{"min": (N,) array}``, each
    state's minimum over its P rows, with no angles and no ids.

    Raises ValueError if a value is not finite.
    """
    xx = _coeff_columns(coeffs)
    if not isinstance(coeffs, Mapping) and np.ndim(coeffs) == 3:
        if suffix:
            raise ValueError("a stack of states takes no id suffix")
        least = _stack_minima(xx, *np.shape(coeffs)[:2])
        return {family: {"min": m} for family, m in zip(FAMILY_NAMES, least)}
    n_rows = xx.shape[1]
    suffixes = [suffix] * n_rows if isinstance(suffix, str) else suffix
    if len(suffixes) != n_rows:
        raise ValueError(f"need one suffix per row: {n_rows} rows, "
                         f"{len(suffixes)} suffixes")
    table = _table()
    values, k = _catalog_values(xx)
    # a family's values on every row are contiguous in values' C order
    least = np.minimum.reduceat(values.ravel(), table.family_start * n_rows)
    catalog = _catalog()
    first: Dict[str, int] = {}
    # (row, catalog) order
    for i in np.flatnonzero(values.T == least[table.family_of]).tolist():
        first.setdefault(catalog[i % len(catalog)][1], i)
    winners = [divmod(first[family], len(catalog)) for family in FAMILY_NAMES]
    rows, entries = zip(*winners)
    k_winners = k[table.components[list(entries)], np.array(rows)[:, None]]
    out: Dict[str, Dict[str, object]] = {}
    for family, (p, e), k_e in zip(FAMILY_NAMES, winners, k_winners.tolist()):
        base_id, _, kind, components = catalog[e]
        value, angles = _minimize_components(kind, k_e[:len(components)])
        out[family] = {"min": value,
                       "best": format_witness(base_id + suffixes[p], angles)}
    return out


def group_minima(families: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Per group of ``GROUP_NAMES``: the least minimum of its families,
    the first family winning a tie, as Python's ``min`` picks; for the
    (N,) arrays of a stack, elementwise."""
    out: Dict[str, object] = {}
    for g in GROUP_NAMES:
        first, second = GROUP_MEMBERS[g]
        a, b = families[first]["min"], families[second]["min"]
        out[g] = np.where(b < a, b, a) if isinstance(a, np.ndarray) \
            else min(a, b)
    return out


def detect(params, pairs: str = "all") -> DetectionReport:
    """Evaluate the whole catalog on a chessboard state.

    For 2x2x2 parameters the catalog has 236 entries. For 2x2xd
    parameters the witnesses are evaluated for every two-level subspace
    pair of the third party (``pairs="all"``, the default) or only the
    state's own (alpha, beta) pair (``pairs="own"``); any other
    ``pairs`` raises ValueError, for either family. The pairs'
    coefficients come from the parameters, with no density matrix, and
    go through one ``family_minima`` call; the state is positive
    semidefinite by construction, so no eigenvalue is computed. Its
    intermediates are ``detection_conditions`` for a 2x2x2 state and the
    level pairs for a 2x2xd state.
    """
    _check_pairs(pairs)
    if isinstance(params, ChessParams222):
        families = family_minima(pauli_coeffs(params))
        intermediates = detection_conditions(params)
    elif isinstance(params, ChessParams22d):
        _, pair_list, suffixes, coeffs = _qudit_chunk(
            ParamColumns.of([params]), pairs)
        families = family_minima(coeffs[0], suffixes)
        intermediates = {"pairs": [list(p) for p in pair_list]}
    else:
        raise TypeError(f"unsupported parameter object {type(params)!r}")
    minima = group_minima(families)
    detected = any(v < 0.0 for v in minima.values())
    marginal = tuple(
        name for name in FAMILY_NAMES
        if -DETECT_MARGIN <= families[name]["min"] < 0.0
    )
    return DetectionReport(
        families=families,
        group_minima=minima,
        detected=detected,
        marginal=marginal,
        intermediates=intermediates,
    )


def detection_conditions(params: ChessParams222) -> Dict[str, object]:
    """Aggregate detection verdicts from closed-form parameter tables.

    Exposes the intermediate tables: branch sums, the L table indexed
    by (KP, sign), the coupling quadratics u/v indexed by (KJL, I), the
    diagonal products z (one per axis KP), and per-family booleans.
    Verdict logic: a family detects iff its sharpest inequality fires —
    polygonal: min branch sum < 4 max |x_j| (second family: |y_j|);
    conical: (min L)^2 < 4 max u (primed: v); cylindrical:
    min z < 16 max x_j^2 (primed: y); spherical: min z < 4 max u
    (primed: v). The z values obey z >= 16, which makes the cylindrical
    conditions unsatisfiable on this state family.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    ia, ib, ic, id_ = 1 / a, 1 / b, 1 / c, 1 / d
    x = [r * math.cos(p) for r, p in zip(params.r, params.phi)]
    y = [r * math.sin(p) for r, p in zip(params.r, params.phi)]
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y

    sums = {"plus": a + d + ib + ic, "minus": b + c + ia + id_}
    L = {
        "333+": a + d + ib + ic, "333-": b + c + ia + id_,
        "330+": a + b + ia + ib, "330-": c + d + ic + id_,
        "303+": a + c + ia + ic, "303-": b + d + ib + id_,
        "033+": a + d + ia + id_, "033-": b + c + ib + ic,
    }

    def quad(w1, w2, w3, w4):
        return {
            ("122", 0): (w2 + w3) ** 2 + (w1 - w4) ** 2,
            ("122", 1): (w2 - w3) ** 2 + (w1 + w4) ** 2,
            ("212", 0): (w1 + w3) ** 2 + (w2 - w4) ** 2,
            ("212", 1): (w1 - w3) ** 2 + (w2 + w4) ** 2,
            ("221", 0): (w1 + w2) ** 2 + (w3 - w4) ** 2,
            ("221", 1): (w1 - w2) ** 2 + (w3 + w4) ** 2,
        }

    u = quad(x1, x2, x3, x4)
    v = quad(y1, y2, y3, y4)
    z = {
        "300": (a + b + c + d) * (ia + ib + ic + id_),
        "030": (a + b + ic + id_) * (c + d + ia + ib),
        "003": (a + c + ib + id_) * (b + d + ia + ic),
    }

    min_sum = min(sums.values())
    max_abs_x = max(abs(t) for t in x)
    max_abs_y = max(abs(t) for t in y)
    min_L = min(L.values())
    max_u = max(u.values())
    max_v = max(v.values())
    min_z = min(z.values())
    verdicts = {
        "poly1": min_sum < 4 * max_abs_x,
        "poly2": min_sum < 4 * max_abs_y,
        "con": min_L ** 2 < 4 * max_u,
        "conp": min_L ** 2 < 4 * max_v,
        "cyl": min_z < 16 * max_abs_x ** 2,
        "cylp": min_z < 16 * max_abs_y ** 2,
        "sph": min_z < 4 * max_u,
        "sphp": min_z < 4 * max_v,
    }
    n = a + b + c + d + ia + ib + ic + id_
    poly_minima = {
        "poly1": 2 * (min_sum - 4 * max_abs_x) / n,
        "poly2": 2 * (min_sum - 4 * max_abs_y) / n,
    }
    return {
        "normalization": n,
        "sums": sums,
        "L": {k: float(val) for k, val in L.items()},
        "u": {f"{kjl}:{i}": float(val) for (kjl, i), val in u.items()},
        "v": {f"{kjl}:{i}": float(val) for (kjl, i), val in v.items()},
        "z": {k: float(val) for k, val in z.items()},
        "x": [float(t) for t in x],
        "y": [float(t) for t in y],
        "verdicts": verdicts,
        "poly_minima": poly_minima,
    }


# --- numerical product-state minimization --------------------------------------


def min_expectation_over_products(
    w: np.ndarray,
    dims: Sequence[int] = (2, 2, 2),
    starts: int = 64,
    iters: int = 150,
    seed: int = 0,
    tol: float = 1e-12,
) -> Tuple[float, List[np.ndarray]]:
    """Minimum of <s1 s2 s3| W |s1 s2 s3> over normalized product states.

    Multi-start alternating minimization: each pass updates one party's
    factor to the minimal eigenvector of its effective operator given
    the other two factors, which is an exact coordinate minimization,
    so the value decreases monotonically. All starts run batched, and
    the passes stop once no start's value moved by ``tol`` or more, or
    after ``iters`` passes.

    Each party carries the real coordinates e_m = <s|G_m|s> of its
    factor (``_coordinates``): the Bloch 4-vector (1, x, y, z) of a
    qubit, and the populations |s_a|^2 and pair terms
    2 Re(conj(s_a) s_b), 2 Im(conj(s_a) s_b), a < b, of a d-level
    party. W becomes, once per call, the real tensor t with
    <W> = sum t e0 e1 e2 (``_coefficient_tensor``). Party p's effective
    operator then has coordinates c = (e_o1 (x) e_o2) @ t_p, one real
    (starts, n_o1 n_o2) by (n_o1 n_o2, n_p) product per update.

    A qubit party (d_p = 2) needs no eigensolver: the least of
    c0 + c.r over unit r is c0 - |c|, at r = -c/|c| (+z where c = 0).
    Any other party assembles H = sum c_m G_m and solves it per
    connected component of W's support on that party, found once per
    call from the exact zeros of t_p (``_support_components``): a
    one-level component reads its diagonal entry, a two-level one goes
    through ``_lowest_eigenpair_2x2``, and only a component of three or
    more levels calls ``eigh``. The first strictly lowest component, in
    level order, wins. A catalog witness at d >= 3 acts on the third
    party through I_d or a Pauli on its levels (A, B), so its support
    splits into {A, B} and singletons and no ``eigh`` runs; a dense W
    is one component, one ``eigh`` of (starts, d_p, d_p) per pass.

    Start ``s`` draws its initial factors from a dedicated PCG64 stream
    seeded as by ``SeedSequence((seed, s))``, from one
    ``chessboard.stream_words`` block for all starts: one normal draw of
    2 sum(dims) values, read as the real then the imaginary parts of
    each party in turn. These are the same values, in the same order,
    as per-party draws of d_p real and then d_p imaginary parts, so a
    start's initial factors do not depend on how the draw is split.
    Results are deterministic and the minimum over starts is monotone
    in ``starts``. Returns the best value and the three unit factors
    attaining it; a qubit factor is the spinor of its Bloch vector r,
    the lowest eigenvector of -r.sigma by ``_lowest_eigenpair_2x2``.

    ``dims`` entries, ``starts`` and ``iters`` must be integers >= 1,
    ``tol`` finite and >= 0, and ``seed`` a non-negative integer;
    otherwise ValueError.
    """
    dims = _check_dims(dims)
    if len(dims) != 3:
        raise ValueError(f"dims must have three entries, got {dims!r}")
    w = np.asarray(w, dtype=np.complex128)
    size = int(np.prod(dims))
    if w.shape != (size, size):
        raise ValueError(f"operator shape {w.shape} does not match dims {dims}")
    if not np.isfinite(w).all():
        raise ValueError("witness operator must have finite entries")
    scale = max(1.0, float(np.abs(w).max()))
    if float(np.abs(w - w.conj().T).max()) > 1e-10 * scale:
        raise ValueError("witness operator must be Hermitian")
    starts = _check_integer("starts", starts, 1)
    iters = _check_integer("iters", iters, 1)
    _check_tol("tol", tol)
    _check_seed(seed)

    factors = _initial_factors(dims, starts, seed)
    coords = [_coordinates(f) for f in factors]
    t = _coefficient_tensor(w, dims)
    others = ((1, 2), (0, 2), (0, 1))
    blocks = [np.ascontiguousarray(t.transpose(o1, o2, p))
              .reshape(-1, t.shape[p]) for p, (o1, o2) in enumerate(others)]
    components = [None if dp == 2 else _support_components(blocks[p], dp)
                  for p, dp in enumerate(dims)]

    energies = np.full(starts, np.inf)
    for _ in range(iters):
        previous = energies
        for p, (o1, o2) in enumerate(others):
            x = (coords[o1][:, :, None] * coords[o2][:, None, :]
                 ).reshape(starts, -1)
            c = x @ blocks[p]
            if components[p] is None:
                energies, coords[p] = _bloch_update(c)
            else:
                energies, factors[p] = _split_update(c, components[p])
                coords[p] = _coordinates(factors[p])
        if np.all(np.abs(energies - previous) < tol):
            break
    best = int(np.argmin(energies))
    return float(energies[best]), [
        f[best].copy() if comps is not None else _spinor(e[best])
        for f, e, comps in zip(factors, coords, components)]


@lru_cache(maxsize=None)
def _upper_pairs(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """The level pairs a < b of a d-level party, as read-only arrays, in
    ``np.triu_indices`` order: the order of the pair coordinates."""
    pairs = np.triu_indices(d, 1)
    for levels in pairs:
        levels.setflags(write=False)
    return pairs


def _coefficient_tensor(w: np.ndarray, dims: Tuple[int, int, int]
                        ) -> np.ndarray:
    """Real (d0^2, d1^2, d2^2) tensor t of W with Re <s|W|s> =
    sum t[m0, m1, m2] e0_m0 e1_m1 e2_m2 on product states, e_p the
    ``_coordinates`` of party p's factor: the coordinates of W's
    Hermitian part in the product basis of ``_operator_coordinates``."""
    t = w.reshape(*dims, *dims).transpose(0, 3, 1, 4, 2, 5)
    for _ in dims:      # each party's rows (a, a') become its coordinates
        t = _operator_coordinates(np.moveaxis(t, (0, 1), (-2, -1)))
    return t.real


def _coordinates(s: np.ndarray) -> np.ndarray:
    """(n, d^2) real coordinates <s|G_m|s> of n unit factors, in the
    order of ``_operator_coordinates``."""
    d = s.shape[1]
    if d == 2:
        return _bloch(s[:, 0], s[:, 1]).T
    a, b = _upper_pairs(d)
    c = s[:, a].conj() * s[:, b]
    return np.concatenate([s.real * s.real + s.imag * s.imag,
                           2.0 * c.real, 2.0 * c.imag], axis=1)


def _operator_coordinates(m: np.ndarray) -> np.ndarray:
    """Coordinates Tr(M G_m) / Tr(G_m^2) of the d x d operators M on the
    last two axes of ``m``, so that Tr(M rho) = sum_m coordinate_m
    <G_m>_rho. The basis G is orthogonal and Hermitian: the Paulis
    sigma_0..sigma_3 for d = 2; else E_aa, then E_ab + E_ba, then
    -i(E_ab - E_ba) for the pairs a < b of ``_upper_pairs``."""
    d = m.shape[-1]
    if d == 2:
        p, q = m[..., 0, 0], m[..., 1, 1]
        u, v = m[..., 0, 1], m[..., 1, 0]
        return np.stack([(p + q) / 2, (u + v) / 2, 1j * (u - v) / 2,
                         (p - q) / 2], axis=-1)
    a, b = _upper_pairs(d)
    u, v = m[..., a, b], m[..., b, a]
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1),
                           (u + v) / 2, 1j * (u - v) / 2], axis=-1)


def _bloch_update(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least c0 + c.r over unit r for each row of the (n, 4) coordinates
    c, and the minimizing Bloch rows (1, r): r = -c/|c|, +z where the
    vector part c is 0 (the H = c0 I case)."""
    norm = np.hypot(np.hypot(c[:, 1], c[:, 2]), c[:, 3])
    flat = norm == 0.0
    coords = c / -np.where(flat, 1.0, norm)[:, None]
    coords[:, 0] = 1.0
    coords[flat, 1:] = (0.0, 0.0, 1.0)
    return c[:, 0] - norm, coords


def _spinor(e: np.ndarray) -> np.ndarray:
    """Unit spinor of one Bloch row (1, x, y, z): the lowest eigenvector
    of -r.sigma."""
    x, y, z = e[1:]
    return _lowest_eigenpair_2x2(
        np.array([[-z, complex(-x, y), complex(-x, -y), z]]))[1][0]


def _support_components(block: np.ndarray, d: int
                        ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Connected components of W's support on a party with d levels, in
    level order: levels a < b are joined when a coordinate of E_ab + E_ba
    or -i(E_ab - E_ba) has a nonzero coefficient in the party's
    (rows, d^2) ``block``, so that the effective operator of every state
    of the other parties is block diagonal on the components.

    Each component is its levels and the row-major flat indices of its
    block of H in the entries (H_aa, then H_ab and then H_ba for the
    pairs a < b) that ``_split_update`` lays out.
    """
    a, b = _upper_pairs(d)
    used = (block != 0.0).any(axis=0)
    joined = used[d:d + len(a)] | used[d + len(a):]
    label = list(range(d))              # least level of each component
    for i, j in zip(a[joined], b[joined]):
        low, high = sorted((label[i], label[j]))
        label = [low if k == high else k for k in label]
    entry = np.empty((d, d), dtype=np.intp)
    entry[range(d), range(d)] = range(d)
    entry[a, b] = d + np.arange(len(a))
    entry[b, a] = d + len(a) + np.arange(len(a))
    components = []
    for k in sorted(set(label)):
        levels = np.flatnonzero(np.array(label) == k)
        components.append((levels, entry[np.ix_(levels, levels)].ravel()))
    return components


def _split_update(c: np.ndarray, components: List[Tuple[np.ndarray,
                                                          np.ndarray]]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue and unit eigenvector of H = sum_m c_m G_m for each
    row of the (n, d^2) coordinates c, solved per component of
    ``_support_components``: a one-level component reads its diagonal
    entry, a two-level one goes through ``_lowest_eigenpair_2x2`` and a
    larger one through ``eigh``. The first strictly lowest component
    wins."""
    n, d = len(c), sum(len(levels) for levels, _ in components)
    pairs = (c.shape[1] - d) // 2
    upper = c[:, d:d + pairs] - 1j * c[:, d + pairs:]
    entries = np.concatenate([c[:, :d], upper, upper.conj()], axis=1)
    energies = np.empty((n, len(components)))
    vectors = np.zeros((n, len(components), d), dtype=np.complex128)
    for k, (levels, index) in enumerate(components):
        if len(levels) == 1:
            energies[:, k] = c[:, levels[0]]
            vectors[:, k, levels[0]] = 1.0
        elif len(levels) == 2:
            energies[:, k], vectors[:, k, levels] = \
                _lowest_eigenpair_2x2(entries[:, index])
        else:
            eigvals, eigvecs = np.linalg.eigh(
                entries[:, index].reshape(n, len(levels), len(levels)))
            energies[:, k] = eigvals[:, 0]
            vectors[:, k, levels] = eigvecs[:, :, 0]
    best = np.argmin(energies, axis=1)
    rows = np.arange(n)
    return energies[rows, best], vectors[rows, best]


def _lowest_eigenpair_2x2(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lowest eigenvalue and unit eigenvector of each Hermitian part
    (H + H^dagger)/2 of a stack of 2x2 matrices, given as rows
    (h00, h01, h10, h11) of an (n, 4) array.

    With H = [[a, b], [conj(b), d]] and r = hypot((a - d)/2, |b|), the
    lowest eigenvalue is (a + d)/2 - r. The eigenvector is read off the
    row with the larger diagonal gap g = r + |a - d|/2 >= |b|:
    (-b, g) if a >= d, else (g, -conj(b)), each of norm hypot(g, |b|);
    neither g nor the norm subtracts, so the vector keeps full relative
    accuracy. H = cI (r = 0) gets (1, 0). The phase differs from
    LAPACK's, which the see-saw ignores: it uses a factor only through
    its coordinates <s|G_m|s>.
    """
    a, d = h[:, 0].real, h[:, 3].real
    b = (h[:, 1] + h[:, 2].conj()) / 2.0
    half = (a - d) / 2.0
    abs_b = np.abs(b)
    r = np.hypot(half, abs_b)
    g = r + np.abs(half)
    upper = half >= 0.0
    vec = np.empty((len(h), 2), dtype=np.complex128)
    vec[:, 0] = np.where(upper, -b, g)
    vec[:, 1] = np.where(upper, g, -b.conj())
    norm = np.hypot(g, abs_b)
    scalar = norm == 0.0
    vec[scalar] = (1.0, 0.0)
    norm[scalar] = 1.0
    return (a + d) / 2.0 - r, vec / norm[:, None]


def _initial_factors(dims: Tuple[int, int, int], starts: int, seed: int
                     ) -> List[np.ndarray]:
    """Normalized random initial factors, one (starts, d_p) array per
    party; see :func:`min_expectation_over_products`."""
    draws = np.stack([
        np.random.Generator(_pcg64(words)).normal(size=2 * sum(dims))
        for words in stream_words(seed, 0, starts)
    ])
    factors = []
    for part in np.split(draws, 2 * np.cumsum(dims)[:-1], axis=1):
        re, im = np.split(part, 2, axis=1)
        vec = re + 1j * im
        # Row dots over the strided real and imaginary views are the BLAS
        # dot np.linalg.norm(vec) takes, so each start's factor is
        # bit-equal to normalizing its vector on its own.
        sq = (vec.real[:, None, :] @ vec.real[:, :, None]
              + vec.imag[:, None, :] @ vec.imag[:, :, None])
        factors.append(vec / np.sqrt(sq[:, 0]))
    return factors


def validate_witness(
    w: np.ndarray,
    dims: Sequence[int] = (2, 2, 2),
    tol: float = 1e-7,
    starts: int = 64,
    iters: int = 150,
    seed: int = 0,
) -> Tuple[bool, float, List[np.ndarray]]:
    """Check nonnegativity of <s|W|s> over product states numerically.

    Returns (valid, minimum, argmin factors); ``valid`` means the
    numerical minimum is >= -tol, and ``tol`` must be finite and >= 0.
    """
    _check_tol("tol", tol)
    value, state = min_expectation_over_products(
        w, dims=dims, starts=starts, iters=iters, seed=seed
    )
    return value >= -tol, value, state
