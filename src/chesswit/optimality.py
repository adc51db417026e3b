"""Optimality certification for catalog witnesses via zero-state systems.

A witness W is *optimal* when no positive operator can be subtracted
from it while it remains a witness. A sufficient certificate is a set
of product states with <s|W|s> = 0 that spans the full Hilbert space:
any subtractable positive part would have to vanish on all of them.

This module builds explicit eight-state zero systems:

Polygonal (all 32 entries)
    Four computational-basis product states whose parity matches the
    sign of the O333 term (odd parity for ``i1 = 0``, even for
    ``i1 = 1``), plus four transverse product states
    |x; s1>|x; s2>|x; s3> with s1 s2 s3 = -(-1)^{i2} (the second
    polygonal family replaces the first factor with |y; s1>).

Conical (kp=333, kjl=122, i=0, both signs)
    The sign-matched parity quadruple (odd for "+", even for "-") plus
    four angle-dependent product states with Bloch angles
    theta = (3pi/2, pi/2, pi/2) or (pi/2, 3pi/2, pi/2) and
    phi = (psi, pi/4, pi/4) or its negation; these satisfy
    <O333> = 0 and cos(psi)<O111+O122> + sin(psi)<O212+O221> = -1
    identically in psi.

``orthogonality_system`` stacks the eight state vectors into a matrix
and reports its smallest singular value; ``is_optimal`` compares it to
a threshold. The conical system degenerates exactly at
psi in {pi/4, 3pi/4, 5pi/4, 7pi/4} (mod 2pi), where the four
angle-dependent states become linearly dependent, so ``is_optimal``
returns False there: this system does not certify those angles, which
does not show the witness non-optimal. Other catalog families have no
zero-state system here and raise ValueError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .frgeom import ProductState
from .tensorops import _check_tol
from .witnesses import _angle_weights, build_witness, parse_witness_id

__all__ = [
    "EVEN_QUADRUPLE",
    "ODD_QUADRUPLE",
    "OrthogonalitySystem",
    "zero_states_polygonal",
    "zero_states_conical",
    "orthogonality_system",
    "is_optimal",
]

EVEN_QUADRUPLE = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
ODD_QUADRUPLE = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


@dataclass(frozen=True)
class OrthogonalitySystem:
    """Zero-state certificate: states, stacked matrix, least singular value."""

    witness_id: str
    angles: Dict[str, float]
    states: Tuple[ProductState, ...]
    matrix: np.ndarray
    sigma_min: float
    max_expectation: float


def _basis_state(bits) -> ProductState:
    return ProductState(tuple(math.pi if b else 0.0 for b in bits),
                        (0.0, 0.0, 0.0))


def _transverse_state(signs, first_axis: str) -> ProductState:
    """|a; s1>|x; s2>|x; s3> with a = x or y and signs in {+1, -1}."""
    phis = []
    for k, s in enumerate(signs):
        base = math.pi / 2 if (k == 0 and first_axis == "y") else 0.0
        phis.append(base + (math.pi if s < 0 else 0.0))
    return ProductState((math.pi / 2,) * 3, tuple(phis))


def zero_states_polygonal(witness_id: str) -> List[ProductState]:
    """Eight product states annihilated by a polygonal witness."""
    parsed = parse_witness_id(witness_id)
    if parsed.family not in ("poly1", "poly2") or parsed.pair is not None:
        raise ValueError(
            f"polygonal zero states are defined for qubit poly1/poly2 "
            f"entries, not {witness_id!r}"
        )
    i1, i2 = parsed.bits[0], parsed.bits[1]
    quadruple = ODD_QUADRUPLE if i1 == 0 else EVEN_QUADRUPLE
    product = -1 if i2 == 0 else 1
    axis = "x" if parsed.family == "poly1" else "y"
    states = [_basis_state(b) for b in quadruple]
    for signs in itertools.product((1, -1), repeat=3):
        if signs[0] * signs[1] * signs[2] == product:
            states.append(_transverse_state(signs, axis))
    return states


def zero_states_conical(
    psi: float,
    witness_id: str = "con:333:122:0:+",
) -> List[ProductState]:
    """Eight product states annihilated by a supported conical witness:
    the basis quadruple, then two theta-patterns at +psi and at -psi.

    Supported entries are ``con:333:122:0:+`` and ``con:333:122:0:-``;
    ``psi`` must be given and finite (ValueError), by ``build_witness``'s
    angle rule.
    """
    parsed = parse_witness_id(witness_id)
    supported = (parsed.family == "con" and parsed.kp == "333"
                 and parsed.kjl == "122" and parsed.i == 0
                 and parsed.pair is None)
    if not supported:
        raise ValueError(
            f"conical zero states are available for con:333:122:0:+/- "
            f"only, not {witness_id!r}"
        )
    _angle_weights("con", psi, None, None)
    psi = float(psi)
    quadruple = ODD_QUADRUPLE if parsed.sign > 0 else EVEN_QUADRUPLE
    quarter = math.pi / 4
    states = [_basis_state(b) for b in quadruple]
    for sgn in (1.0, -1.0):
        for theta1, theta2 in ((3 * math.pi / 2, math.pi / 2),
                               (math.pi / 2, 3 * math.pi / 2)):
            states.append(ProductState(
                (theta1, theta2, math.pi / 2),
                (sgn * psi, sgn * quarter, sgn * quarter),
            ))
    return states


def orthogonality_system(witness_id: str, psi: Optional[float] = None
                         ) -> OrthogonalitySystem:
    """Build the zero-state matrix for a supported witness entry."""
    parsed = parse_witness_id(witness_id)
    if parsed.family in ("poly1", "poly2"):
        states = zero_states_polygonal(witness_id)
        angles: Dict[str, float] = {}
        w = build_witness(witness_id)
    elif parsed.family == "con":
        states = zero_states_conical(psi, witness_id)
        angles = {"psi": float(psi)}
        w = build_witness(witness_id, psi=float(psi))
    else:
        raise ValueError(
            f"no zero-state system is available for {witness_id!r}"
        )
    matrix = np.array([s.vector() for s in states])
    values = [abs(complex(v.conj() @ w @ v).real) for v in matrix]
    max_expectation = max(values)
    if max_expectation > 1e-10:
        raise ArithmeticError(
            f"zero-state construction violated for {witness_id!r}: "
            f"max |<s|W|s>| = {max_expectation:.3e}"
        )
    sigma_min = float(np.linalg.svd(matrix, compute_uv=False)[-1])
    return OrthogonalitySystem(
        witness_id=witness_id,
        angles=angles,
        states=tuple(states),
        matrix=matrix,
        sigma_min=sigma_min,
        max_expectation=max_expectation,
    )


def is_optimal(witness_id: str, psi: Optional[float] = None,
               threshold: float = 1e-6) -> Tuple[bool, float]:
    """Whether the zero-state system spans the full space.

    Returns (optimal, sigma_min): ``optimal`` is True when the least
    singular value of the stacked zero-state matrix exceeds the
    threshold, certifying that the eight zero states span the space.
    Raises ValueError unless ``threshold`` is finite and >= 0.
    """
    _check_tol("threshold", threshold)
    system = orthogonality_system(witness_id, psi=psi)
    return system.sigma_min > threshold, system.sigma_min
