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
then built with :func:`chesswit.tensorops.qudit_substitute`.

Closed-form machinery
---------------------
Witness expectations on chessboard states are affine in the state's
expansion coefficients, so each family's minimum over its angle(s) has
a closed form (``functional``); aggregate detection verdicts over whole
families reduce to small tables in the state parameters
(``detection_conditions``). ``min_expectation_over_products`` provides
the independent numerical route: the exact minimum of <s|W|s> over
product states via multi-start alternating per-party eigenvector
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chessboard import (
    COEFF_TRIPLES,
    ChessParams222,
    ChessParams22d,
    build_rho_22d,
    pauli_coeffs,
)
from .tensorops import qudit_substitute

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
    "build_witness",
    "phase_gate_conjugate",
    "phase_map_coeffs",
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
        if self.pair is not None:
            core += f"@{self.pair[0]},{self.pair[1]}"
        return core


def parse_witness_id(witness_id: str) -> _ParsedId:
    """Parse a witness identifier string; raises ValueError if malformed."""
    if not isinstance(witness_id, str):
        raise ValueError(f"witness id must be a string, got {witness_id!r}")
    s = witness_id.strip()
    pair: Optional[Tuple[int, int]] = None
    if "@" in s:
        s, _, pair_part = s.partition("@")
        try:
            a_str, b_str = pair_part.split(",")
            pair = (int(a_str), int(b_str))
        except ValueError as exc:
            raise ValueError(
                f"malformed subspace suffix in witness id {witness_id!r}"
            ) from exc
        if not 0 <= pair[0] < pair[1]:
            raise ValueError(
                f"subspace pair must satisfy 0 <= A < B, got {pair} in "
                f"{witness_id!r}"
            )
    parts = s.split(":")
    family = parts[0]
    err = ValueError(f"malformed witness id {witness_id!r}")
    if family in ("poly1", "poly2"):
        if len(parts) != 2 or len(parts[1]) != 4 or set(parts[1]) - {"0", "1"}:
            raise err
        return _ParsedId(family, bits=tuple(int(b) for b in parts[1]), pair=pair)
    if family in ("con", "conp"):
        if len(parts) != 5:
            raise err
        kp, kjl, i_str, sign_str = parts[1:]
        kjl_set = KJL_UNPRIMED if family == "con" else KJL_PRIMED
        if kp not in CONICAL_KP or kjl not in kjl_set or i_str not in ("0", "1") \
                or sign_str not in ("+", "-"):
            raise err
        return _ParsedId(family, kp=kp, kjl=kjl, i=int(i_str),
                         sign=+1 if sign_str == "+" else -1, pair=pair)
    if family in ("cyl", "cylp"):
        if len(parts) != 4:
            raise err
        kp, kjl, bits = parts[1:]
        kjl_set = KJL_UNPRIMED if family == "cyl" else KJL_PRIMED
        if kp not in AXIS_KP or kjl not in kjl_set or len(bits) != 2 \
                or set(bits) - {"0", "1"}:
            raise err
        return _ParsedId(family, kp=kp, kjl=kjl, i=int(bits[0]), i2=int(bits[1]),
                         pair=pair)
    if family in ("sph", "sphp"):
        if len(parts) != 4:
            raise err
        kp, kjl, i_str = parts[1:]
        kjl_set = KJL_UNPRIMED if family == "sph" else KJL_PRIMED
        if kp not in AXIS_KP or kjl not in kjl_set or i_str not in ("0", "1"):
            raise err
        return _ParsedId(family, kp=kp, kjl=kjl, i=int(i_str), pair=pair)
    raise err


def _base_ids() -> List[str]:
    ids: List[str] = []
    for family in ("poly1", "poly2"):
        for n in range(16):
            ids.append(f"{family}:{n >> 3 & 1}{n >> 2 & 1}{n >> 1 & 1}{n & 1}")
    for family, kjls in (("con", KJL_UNPRIMED), ("conp", KJL_PRIMED)):
        for kp in CONICAL_KP:
            for kjl in kjls:
                for i in (0, 1):
                    for sign in "+-":
                        ids.append(f"{family}:{kp}:{kjl}:{i}:{sign}")
    for family, kjls in (("cyl", KJL_UNPRIMED), ("cylp", KJL_PRIMED)):
        for kp in AXIS_KP:
            for kjl in kjls:
                for i1 in (0, 1):
                    for i2 in (0, 1):
                        ids.append(f"{family}:{kp}:{kjl}:{i1}{i2}")
    for family, kjls in (("sph", KJL_UNPRIMED), ("sphp", KJL_PRIMED)):
        for kp in AXIS_KP:
            for kjl in kjls:
                for i in (0, 1):
                    ids.append(f"{family}:{kp}:{kjl}:{i}")
    return ids


def witness_ids(d: int = 2) -> List[str]:
    """All discrete catalog identifiers: 236 for d=2, times d(d-1)/2 pairs
    (each with an ``@A,B`` suffix) for d > 2."""
    base = _base_ids()
    if d == 2:
        return base
    ids: List[str] = []
    for a in range(d):
        for b in range(a + 1, d):
            ids.extend(f"{s}@{a},{b}" for s in base)
    return ids


def format_witness(base_id: str, angles: Dict[str, float]) -> str:
    """Append angle assignments to a discrete identifier."""
    out = base_id
    for name in ("psi", "eta", "zeta"):
        if name in angles:
            out += f":{name}={angles[name]:.6f}"
    return out


# --- operator construction ----------------------------------------------------


def _unprimed_parts(parsed: _ParsedId) -> Tuple[str, _ParsedId]:
    """Map a parsed id to its unprimed/first-family partner.

    Returns (kind, partner) where kind is the structural family
    ("poly", "con", "cyl", "sph") and partner carries unprimed triples.
    The partner of an unprimed id is itself.
    """
    f = parsed.family
    if f == "poly1":
        return "poly", parsed
    if f == "poly2":
        return "poly", _ParsedId("poly1", bits=parsed.bits, pair=parsed.pair)
    if f in ("con", "cyl", "sph"):
        return {"con": "con", "cyl": "cyl", "sph": "sph"}[f], parsed
    if f in ("conp", "sphp"):
        partner_kjl, flip = _PRIMED_PARTNER[parsed.kjl]
        i = parsed.i ^ 1 if flip else parsed.i
        kind = "con" if f == "conp" else "sph"
        return kind, _ParsedId(kind, kp=parsed.kp, kjl=partner_kjl, i=i,
                               sign=parsed.sign, pair=parsed.pair)
    if f == "cylp":
        partner_kjl, _ = _PRIMED_PARTNER[parsed.kjl]
        return "cyl", _ParsedId("cyl", kp=parsed.kp, kjl=partner_kjl,
                                i=parsed.i, i2=parsed.i2, pair=parsed.pair)
    raise ValueError(f"unknown family {f!r}")


def _is_primed(family: str) -> bool:
    return family in ("poly2", "conp", "cylp", "sphp")


def _op(triple_str: str, d: int, alpha: int, beta: int) -> np.ndarray:
    return qudit_substitute(_triple(triple_str), d, alpha, beta)


def _constituents(parsed: _ParsedId, d: int, alpha: int, beta: int
                  ) -> List[np.ndarray]:
    """Angle-free constituent operators of the witness family.

    The witness at given angles is a fixed linear combination of these
    (see :func:`_angle_weights`). Primed families conjugate their
    partner's constituents by the first-party phase gate.
    """
    kind, partner = _unprimed_parts(parsed)
    iii = _op("000", d, alpha, beta)
    if kind == "poly":
        i1, i2, i3, i4 = partner.bits
        w = (iii
             + _sgn(i1) * _op("333", d, alpha, beta)
             + _sgn(i2) * _op("111", d, alpha, beta)
             + _sgn(i3) * _op("122", d, alpha, beta)
             + _sgn(i4) * _op("212", d, alpha, beta)
             + _sgn(i2 + i3 + i4 + 1) * _op("221", d, alpha, beta))
        parts = [w]
    elif kind == "con":
        lkj, jlk = _rotations(partner.kjl)
        parts = [
            iii + partner.sign * _op(partner.kp, d, alpha, beta),
            _op("111", d, alpha, beta) + _sgn(partner.i) * _op(partner.kjl, d, alpha, beta),
            _op(lkj, d, alpha, beta) + _sgn(partner.i) * _op(jlk, d, alpha, beta),
        ]
    elif kind == "cyl":
        lkj, jlk = _rotations(partner.kjl)
        inner = (_op("111", d, alpha, beta)
                 + _sgn(partner.i) * _op(partner.kjl, d, alpha, beta)
                 + _sgn(partner.i2) * _op(lkj, d, alpha, beta)
                 + _sgn(partner.i + partner.i2 + 1) * _op(jlk, d, alpha, beta))
        parts = [iii, _op(partner.kp, d, alpha, beta), inner]
    else:  # sph
        lkj, jlk = _rotations(partner.kjl)
        parts = [
            iii,
            _op(partner.kp, d, alpha, beta),
            _op("111", d, alpha, beta) + _sgn(partner.i) * _op(partner.kjl, d, alpha, beta),
            _op(lkj, d, alpha, beta) + _sgn(partner.i) * _op(jlk, d, alpha, beta),
        ]
    if _is_primed(parsed.family):
        parts = [phase_gate_conjugate(p, d) for p in parts]
    return parts


def _angle_weights(kind: str, psi: Optional[float], eta: Optional[float],
                   zeta: Optional[float]) -> List[float]:
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


def phase_gate_conjugate(w: np.ndarray, d: int = 2) -> np.ndarray:
    """Conjugate by M (x) I (x) I with the phase gate M = diag(1, i)."""
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
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
) -> np.ndarray:
    """Dense Hermitian witness operator for a catalog identifier.

    Angle arguments are required by the curved families (``psi`` for
    conical/cylindrical, ``eta``/``zeta`` for spherical) and ignored by
    the polygonal ones. A qudit subspace comes either from an ``@A,B``
    suffix on the id or from the ``alpha``/``beta`` arguments.
    """
    parsed = parse_witness_id(witness_id)
    if parsed.pair is not None:
        alpha, beta = parsed.pair
    else:
        alpha = 0 if alpha is None else int(alpha)
        beta = 1 if beta is None else int(beta)
    kind, _ = _unprimed_parts(parsed)
    parts = _constituents(parsed, int(d), alpha, beta)
    weights = _angle_weights(kind, psi, eta, zeta)
    w = np.zeros_like(parts[0])
    for coef, part in zip(weights, parts):
        w += coef * part
    return w


# --- closed-form coefficients machinery ---------------------------------------


def phase_map_coeffs(coeffs: Dict[Tuple[int, int, int], float]
                     ) -> Dict[Tuple[int, int, int], float]:
    """Coefficients of the state conjugated by the inverse phase gate.

    If c_t = Tr(rho O_t), the returned dict holds c'_t = Tr(rho' O_t)
    for rho' = M^dagger rho M, so that Tr(W' rho) = sum c'_t over the
    unprimed partner terms for any primed witness W'. Explicitly,
    c'_{1jk} = c_{2jk}, c'_{2jk} = -c_{1jk}, other indices unchanged.
    """
    out: Dict[Tuple[int, int, int], float] = {}
    for (i, j, k), v in coeffs.items():
        if i == 1:
            out[(2, j, k)] = -v
        elif i == 2:
            out[(1, j, k)] = v
        else:
            out[(i, j, k)] = v
    return out


_SUBSTITUTED_OPS: Dict[Tuple[int, int, int], Tuple[np.ndarray, ...]] = {}


def _substituted_ops(d: int, alpha: int, beta: int) -> Tuple[np.ndarray, ...]:
    key = (int(d), int(alpha), int(beta))
    ops = _SUBSTITUTED_OPS.get(key)
    if ops is None:
        ops = tuple(qudit_substitute(t, *key) for t in COEFF_TRIPLES)
        for q in ops:
            q.setflags(write=False)
        _SUBSTITUTED_OPS[key] = ops
    return ops


def substituted_coeffs(rho: np.ndarray, d: int, alpha: int, beta: int
                       ) -> Dict[Tuple[int, int, int], float]:
    """The 15 substituted-operator coefficients Tr(rho Q_t) for a pair."""
    ops = _substituted_ops(d, alpha, beta)
    out: Dict[Tuple[int, int, int], float] = {}
    for t, q in zip(COEFF_TRIPLES, ops):
        val = np.einsum("ij,ji->", rho, q)
        out[t] = float(val.real)
    return out


def _poly_value(bits: Sequence[int], co: Dict[Tuple[int, int, int], float]
                ) -> float:
    i1, i2, i3, i4 = bits
    return (1.0
            + _sgn(i1) * co.get((3, 3, 3), 0.0)
            + _sgn(i2) * co.get((1, 1, 1), 0.0)
            + _sgn(i3) * co.get((1, 2, 2), 0.0)
            + _sgn(i4) * co.get((2, 1, 2), 0.0)
            + _sgn(i2 + i3 + i4 + 1) * co.get((2, 2, 1), 0.0))


def _curved_components(kind: str, partner: _ParsedId,
                       co: Dict[Tuple[int, int, int], float]) -> List[float]:
    """K-components such that Tr(W rho) = K . angle_weights."""
    kp = _triple(partner.kp)
    kjl = _triple(partner.kjl)
    lkj_s, jlk_s = _rotations(partner.kjl)
    lkj, jlk = _triple(lkj_s), _triple(jlk_s)
    c = lambda t: co.get(t, 0.0)
    if kind == "con":
        return [1.0 + partner.sign * c(kp),
                c((1, 1, 1)) + _sgn(partner.i) * c(kjl),
                c(lkj) + _sgn(partner.i) * c(jlk)]
    if kind == "cyl":
        inner = (c((1, 1, 1)) + _sgn(partner.i) * c(kjl)
                 + _sgn(partner.i2) * c(lkj)
                 + _sgn(partner.i + partner.i2 + 1) * c(jlk))
        return [1.0, c(kp), inner]
    # sph
    return [1.0, c(kp),
            c((1, 1, 1)) + _sgn(partner.i) * c(kjl),
            c(lkj) + _sgn(partner.i) * c(jlk)]


def expectation_closed(
    witness_id: str,
    coeffs: Dict[Tuple[int, int, int], float],
    psi: Optional[float] = None,
    eta: Optional[float] = None,
    zeta: Optional[float] = None,
) -> float:
    """Tr(W rho) from the state's expansion coefficients."""
    parsed = parse_witness_id(witness_id)
    kind, partner = _unprimed_parts(parsed)
    if _is_primed(parsed.family):
        coeffs = phase_map_coeffs(coeffs)
    if kind == "poly":
        return _poly_value(partner.bits, coeffs)
    k = _curved_components(kind, partner, coeffs)
    w = _angle_weights(kind, psi, eta, zeta)
    return float(np.dot(k, w))


def _minimize_components(kind: str, k: Sequence[float]
                         ) -> Tuple[float, Dict[str, float]]:
    """Minimum of K . angle_weights over the family's angles."""
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
    """
    parsed = parse_witness_id(witness_id)
    kind, partner = _unprimed_parts(parsed)
    if _is_primed(parsed.family):
        coeffs = phase_map_coeffs(coeffs)
    if kind == "poly":
        return _poly_value(partner.bits, coeffs), {}
    k = _curved_components(kind, partner, coeffs)
    return _minimize_components(kind, k)


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


_CATALOG_CACHE: List[Tuple[str, str, str, _ParsedId, bool]] = []


def _catalog() -> List[Tuple[str, str, str, _ParsedId, bool]]:
    """Pre-parsed base catalog: (id, family, kind, partner, primed)."""
    if not _CATALOG_CACHE:
        for base_id in _base_ids():
            parsed = parse_witness_id(base_id)
            kind, partner = _unprimed_parts(parsed)
            _CATALOG_CACHE.append(
                (base_id, parsed.family, kind, partner, _is_primed(parsed.family))
            )
    return _CATALOG_CACHE


def family_minima(
    coeffs: Dict[Tuple[int, int, int], float],
    suffix: str = "",
) -> Dict[str, Dict[str, object]]:
    """Minimal functional value and best identifier per family."""
    mapped = phase_map_coeffs(coeffs)
    out: Dict[str, Dict[str, object]] = {}
    for base_id, family, kind, partner, primed in _catalog():
        co = mapped if primed else coeffs
        if kind == "poly":
            value, angles = _poly_value(partner.bits, co), {}
        else:
            value, angles = _minimize_components(
                kind, _curved_components(kind, partner, co)
            )
        cur = out.get(family)
        if cur is None or value < cur["min"]:
            out[family] = {
                "min": value,
                "best": format_witness(base_id + suffix, angles),
            }
    return out


def group_minima(families: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Per group of ``GROUP_NAMES``: the least minimum of its families."""
    return {g: min(families[m]["min"] for m in GROUP_MEMBERS[g])
            for g in GROUP_NAMES}


def detect(
    params,
    pairs: str = "all",
    include_intermediates: bool = True,
) -> DetectionReport:
    """Evaluate the whole catalog on a chessboard state.

    For 2x2x2 parameters the catalog has 236 entries. For 2x2xd
    parameters the witnesses are evaluated for every two-level subspace
    pair of the third party (``pairs="all"``, the default) or only the
    state's own (alpha, beta) pair (``pairs="own"``).
    """
    if isinstance(params, ChessParams222):
        families = family_minima(pauli_coeffs(params))
        intermediates: Dict[str, object] = {}
        if include_intermediates:
            intermediates = detection_conditions(params)
    elif isinstance(params, ChessParams22d):
        if pairs not in ("all", "own"):
            raise ValueError(f"pairs must be 'all' or 'own', got {pairs!r}")
        rho = build_rho_22d(params)
        d = params.dim
        if pairs == "own":
            pair_list = [tuple(sorted((params.alpha, params.beta)))]
        else:
            pair_list = [(a, b) for a in range(d) for b in range(a + 1, d)]
        families = {}
        for a, b in pair_list:
            co = substituted_coeffs(rho, d, a, b)
            suffix = f"@{a},{b}" if d > 2 else ""
            fam = family_minima(co, suffix=suffix)
            for name, entry in fam.items():
                cur = families.get(name)
                if cur is None or entry["min"] < cur["min"]:
                    families[name] = entry
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
    so the value decreases monotonically. All starts run batched;
    start ``s`` draws its initial factors from a dedicated PCG64 stream
    seeded with (seed, s), making results deterministic and the minimum
    over starts monotone in ``starts``. Returns the best value and the
    three factors attaining it.
    """
    dims = tuple(int(x) for x in dims)
    if len(dims) != 3:
        raise ValueError(f"dims must have three entries, got {dims!r}")
    w = np.asarray(w, dtype=np.complex128)
    size = int(np.prod(dims))
    if w.shape != (size, size):
        raise ValueError(f"operator shape {w.shape} does not match dims {dims}")
    scale = max(1.0, float(np.abs(w).max()))
    if float(np.abs(w - w.conj().T).max()) > 1e-10 * scale:
        raise ValueError("witness operator must be Hermitian")
    starts = int(starts)
    if starts < 1:
        raise ValueError("starts must be >= 1")

    w6 = w.reshape(*dims, *dims)
    factors: List[np.ndarray] = []
    for p, dp in enumerate(dims):
        block = np.empty((starts, dp), dtype=np.complex128)
        factors.append(block)
    for s in range(starts):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), s)))
        for p, dp in enumerate(dims):
            vec = rng.normal(size=dp) + 1j * rng.normal(size=dp)
            factors[p][s] = vec / np.linalg.norm(vec)

    contractions = {
        0: "sb,sc,abcxyz,sy,sz->sax",
        1: "sa,sc,abcxyz,sx,sz->sby",
        2: "sa,sb,abcxyz,sx,sy->scz",
    }
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    energies = np.full(starts, np.inf)
    for _ in range(int(iters)):
        previous = energies.copy()
        for p in range(3):
            o1, o2 = others[p]
            h = np.einsum(
                contractions[p],
                factors[o1].conj(), factors[o2].conj(),
                w6, factors[o1], factors[o2],
                optimize=True,
            )
            h = (h + h.conj().transpose(0, 2, 1)) / 2.0
            eigvals, eigvecs = np.linalg.eigh(h)
            factors[p] = np.ascontiguousarray(eigvecs[:, :, 0])
            energies = eigvals[:, 0].copy()
        if np.all(np.abs(energies - previous) < tol):
            break
    best = int(np.argmin(energies))
    return float(energies[best]), [f[best].copy() for f in factors]


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
    numerical minimum is >= -tol.
    """
    value, state = min_expectation_over_products(
        w, dims=dims, starts=starts, iters=iters, seed=seed
    )
    return value >= -tol, value, state
