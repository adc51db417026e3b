"""Feasible-region geometry of witness functionals on product states.

Each witness family constrains a triple of expectation values

    P = (<Q1>, <Q2>, <Q3>)

evaluated on pure product states |s1 s2 s3>. The operator triples
(``qset``) and the regions certified by the corresponding families are

``polygon``  (O333, O111+O122, O212-O221):  |P1| + |P2| + |P3| <= 1
``cone``     (O333, O111+O122, O212+O221):  hypot(P2, P3) <= 1 - |P1|
``cylinder`` (O300, O111+O122, O212-O221):  hypot(P1, P2+P3) <= 1
``sphere``   (O300, O111+O122, O212+O221):  P1^2+P2^2+P3^2 <= 1

``feasible_region_check`` samples random product states and certifies
containment numerically; ``boundary_curve_check`` evaluates explicit
product-state sweeps that attain the boundary surfaces exactly:

* polygon: Bloch angles theta=(t,t,t), phi=(delta, pi/4, pi/4+delta)
  give (P1, P2+P3) = (cos^3 t, sin^3 t), the astroid
  |P1|^(2/3) + |P2+P3|^(2/3) = 1 traced by the family's extreme rays;
* cone: the rim circle theta=(pi/2,)*3, phi=(delta, pi/4, pi/4) and
  the apex theta=(0,0,0);
* cylinder and sphere: theta=(t, pi/2, pi/2), phi=(0, 0, 0), which
  lies on both quadric surfaces.

For a d-level third party the operators are substituted into a chosen
two-level subspace (``alpha``, ``beta``); all regions remain valid and
the reachable set shrinks (a third factor orthogonal to the subspace
maps to the origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .chessboard import _rng_for
from .tensorops import qudit_substitute

__all__ = [
    "GEOMETRIES",
    "ProductState",
    "qubit_state",
    "sample_factors",
    "qset",
    "functional_points",
    "p_map",
    "region_excess",
    "contains",
    "feasible_region_check",
    "boundary_curve_check",
]

GEOMETRIES = ("polygon", "cone", "cylinder", "sphere")

# Product states drawn per RNG stream: states [k*SAMPLE_CHUNK,
# (k+1)*SAMPLE_CHUNK) of a sample come from stream (seed, k), so a
# sample's states do not depend on who draws them or how many at once.
SAMPLE_CHUNK = 65536

_QSET_TRIPLES = {
    "polygon": (("333",), ("111", "122"), ("212", "-221")),
    "cone": (("333",), ("111", "122"), ("212", "221")),
    "cylinder": (("300",), ("111", "122"), ("212", "-221")),
    "sphere": (("300",), ("111", "122"), ("212", "221")),
}


def qubit_state(theta, phi) -> np.ndarray:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, vectorized.

    ``theta`` may lie outside [0, pi]; the formula is evaluated as
    written (angles beyond the canonical range reach the same states
    with extra signs, which some analytic constructions use).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.empty(np.broadcast(theta, phi).shape + (2,), dtype=np.complex128)
    out[..., 0] = np.cos(theta / 2)
    out[..., 1] = np.exp(1j * phi) * np.sin(theta / 2)
    return out


@dataclass(frozen=True)
class ProductState:
    """Three-qubit product state given by Bloch angles per factor."""

    thetas: Tuple[float, float, float]
    phis: Tuple[float, float, float]

    def __post_init__(self):
        if len(self.thetas) != 3 or len(self.phis) != 3:
            raise ValueError("ProductState needs three thetas and three phis")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))

    def factors(self) -> List[np.ndarray]:
        return [qubit_state(t, p) for t, p in zip(self.thetas, self.phis)]

    def vector(self) -> np.ndarray:
        f1, f2, f3 = self.factors()
        return np.kron(np.kron(f1, f2), f3)


def _factor_chunks(n: int, seed: int, d: int
                   ) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """(offset, factors) for consecutive chunks of a sample of n states."""
    for k, lo in enumerate(range(0, int(n), SAMPLE_CHUNK)):
        m = min(SAMPLE_CHUNK, int(n) - lo)
        rng = _rng_for(seed, k)
        factors = []
        for dim in (2, 2, int(d)):
            block = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
            factors.append(block)
        yield lo, factors


def sample_factors(n: int, seed: int = 0, d: int = 2
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n Haar-random product-state factors for dimensions (2, 2, d).

    These are the states that ``feasible_region_check`` checks for the
    same ``(n, seed, d)``.
    """
    out = tuple(np.empty((int(n), dim), dtype=np.complex128)
                for dim in (2, 2, int(d)))
    for lo, factors in _factor_chunks(n, seed, d):
        for block, part in zip(out, factors):
            block[lo:lo + part.shape[0]] = part
    return out  # type: ignore[return-value]


def qset(geometry: str, d: int = 2, alpha: int = 0, beta: int = 1
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator triple (Q1, Q2, Q3) probed by a geometry."""
    if geometry not in _QSET_TRIPLES:
        raise ValueError(f"unknown geometry {geometry!r}; "
                         f"choose from {GEOMETRIES}")
    ops = []
    for combo in _QSET_TRIPLES[geometry]:
        q = None
        for term in combo:
            sign = -1.0 if term.startswith("-") else 1.0
            triple = tuple(int(ch) for ch in term.lstrip("-"))
            piece = sign * qudit_substitute(triple, int(d), alpha, beta)
            q = piece if q is None else q + piece
        ops.append(q)
    return tuple(ops)  # type: ignore[return-value]


def functional_points(
    qs: Sequence[np.ndarray],
    factors: Sequence[np.ndarray],
    chunk: int = 65536,
) -> np.ndarray:
    """Rows of (<Q1>, <Q2>, <Q3>) for a batch of product states.

    ``factors`` are three arrays of shape (n, 2), (n, 2), (n, d) with
    unit-norm rows.
    """
    f1, f2, f3 = (np.asarray(f, dtype=np.complex128) for f in factors)
    n = f1.shape[0]
    size = f1.shape[1] * f2.shape[1] * f3.shape[1]
    points = np.empty((n, len(qs)), dtype=float)
    for lo in range(0, n, int(chunk)):
        hi = min(lo + int(chunk), n)
        s = (f1[lo:hi, :, None, None]
             * f2[lo:hi, None, :, None]
             * f3[lo:hi, None, None, :]).reshape(hi - lo, size)
        for col, q in enumerate(qs):
            points[lo:hi, col] = np.einsum(
                "mx,xy,my->m", s.conj(), q, s, optimize=True
            ).real
    return points


def p_map(
    state: ProductState,
    geometry: str = "polygon",
    qs: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """(P1, P2, P3) = (<Q1>, <Q2>, <Q3>) for one product state.

    ``qs`` overrides the geometry's default operator triple (see
    :func:`qset`).
    """
    if qs is None:
        qs = qset(geometry)
    factors = [f[None, :] for f in state.factors()]
    return functional_points(qs, factors)[0]


def region_excess(geometry: str, points: np.ndarray) -> np.ndarray:
    """Signed distance-like boundary excess; <= 0 means inside."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p1, p2, p3 = points[:, 0], points[:, 1], points[:, 2]
    if geometry == "polygon":
        return np.abs(p1) + np.abs(p2) + np.abs(p3) - 1.0
    if geometry == "cone":
        return np.maximum(np.hypot(p2, p3) - (1.0 - np.abs(p1)),
                          np.abs(p1) - 1.0)
    if geometry == "cylinder":
        return np.hypot(p1, p2 + p3) - 1.0
    if geometry == "sphere":
        return np.sqrt(p1 * p1 + p2 * p2 + p3 * p3) - 1.0
    raise ValueError(f"unknown geometry {geometry!r}; choose from {GEOMETRIES}")


def contains(geometry: str, points: np.ndarray, tol: float = 1e-9
             ) -> np.ndarray:
    """Boolean mask: which functional points lie inside the region."""
    return region_excess(geometry, points) <= tol


def feasible_region_check(
    geometry: str,
    n: int = 100_000,
    seed: int = 0,
    d: int = 2,
    alpha: int = 0,
    beta: int = 1,
    tol: float = 1e-9,
) -> Dict[str, object]:
    """Sample product states and certify region containment.

    The states are those of :func:`sample_factors`, drawn and checked
    one ``SAMPLE_CHUNK`` at a time. Returns the violation count and the
    largest observed boundary excess (negative when every point is
    strictly inside). Raises ValueError unless ``n >= 1``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    qs = qset(geometry, d=d, alpha=alpha, beta=beta)
    violations = 0
    max_excess = -math.inf
    for _, factors in _factor_chunks(n, seed, d):
        excess = region_excess(geometry, functional_points(qs, factors))
        violations += int(np.count_nonzero(excess > tol))
        max_excess = max(max_excess, float(excess.max()))
    return {"geometry": geometry, "samples": n, "violations": violations,
            "max_excess": max_excess, "tol": tol}


def _sweep_points(geometry: str, samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product-state Bloch angle sweeps attaining each boundary."""
    m = int(samples)
    if geometry == "polygon":
        t = np.linspace(0.0, math.pi / 2, m)
        delta = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
        thetas = np.stack([t, t, t], axis=1)
        phis = np.stack([delta, np.full(m, math.pi / 4),
                         math.pi / 4 + delta], axis=1)
    elif geometry == "cone":
        delta = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
        thetas = np.full((m, 3), math.pi / 2)
        phis = np.stack([delta, np.full(m, math.pi / 4),
                         np.full(m, math.pi / 4)], axis=1)
        # append the apex
        thetas = np.vstack([thetas, np.zeros(3)])
        phis = np.vstack([phis, [0.0, math.pi / 4, math.pi / 4]])
    else:  # cylinder, sphere
        t = np.linspace(0.0, 2 * math.pi, m)
        thetas = np.stack([t, np.full(m, math.pi / 2),
                           np.full(m, math.pi / 2)], axis=1)
        phis = np.zeros((m, 3))
    return thetas, phis


def boundary_curve_check(geometry: str, samples: int = 1001
                         ) -> Dict[str, object]:
    """Evaluate the geometry's boundary sweep and report the residual.

    The residual measures the distance of the swept functional points
    from the boundary manifold (for the polygon: from the astroid
    |P1|^(2/3) + |P2+P3|^(2/3) = 1 traced in the (P1, P2+P3) plane);
    analytically it vanishes identically along each sweep.
    """
    if geometry not in _QSET_TRIPLES:
        raise ValueError(f"unknown geometry {geometry!r}; "
                         f"choose from {GEOMETRIES}")
    thetas, phis = _sweep_points(geometry, samples)
    factors = [qubit_state(thetas[:, i], phis[:, i]) for i in range(3)]
    pts = functional_points(qset(geometry), factors)
    p1, p2, p3 = pts[:, 0], pts[:, 1], pts[:, 2]
    if geometry == "polygon":
        residual = np.abs(np.abs(p1) ** (2.0 / 3.0)
                          + np.abs(p2 + p3) ** (2.0 / 3.0) - 1.0)
    elif geometry == "cone":
        residual = np.abs(np.hypot(p2, p3) - (1.0 - np.abs(p1)))
    elif geometry == "cylinder":
        residual = np.abs(np.hypot(p1, p2 + p3) - 1.0)
    else:
        residual = np.abs(np.sqrt(p1 * p1 + p2 * p2 + p3 * p3) - 1.0)
    return {"geometry": geometry, "samples": int(pts.shape[0]),
            "max_residual": float(residual.max())}
