"""Feasible-region geometry of witness functionals on product states.

Each witness family constrains a triple of expectation values

    P = (<Q1>, <Q2>, <Q3>)

evaluated on pure product states |s1 s2 s3>. The operator triples
(``qset``) are read from the catalog: Q1, Q2 and Q3 sum the non-identity
terms of one entry, the geometry's representative (poly1:0000,
con:333:122:0:+, cyl:300:122:00, sph:300:122:0), split 1 + 2 + 2. The
triples and the regions certified by the corresponding families are

``polygon``  (O333, O111+O122, O212-O221):  |P1| + |P2| + |P3| <= 1
``cone``     (O333, O111+O122, O212+O221):  hypot(P2, P3) <= 1 - |P1|
``cylinder`` (O300, O111+O122, O212-O221):  hypot(P1, P2+P3) <= 1
``sphere``   (O300, O111+O122, O212+O221):  P1^2+P2^2+P3^2 <= 1

``feasible_region_check`` samples random three-qubit product states and
certifies containment numerically (``region_points`` and
``containment_report`` do so for a d-level third party);
``boundary_curve_check`` evaluates explicit product-state sweeps that
attain the boundary surfaces exactly:

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

On a product state every Pauli triple factorizes,

    <s1 s2 s3| sigma_i (x) sigma_j (x) T_k |s1 s2 s3> = e1_i e2_j e3_k,

where party p's expectation vector is e_p = (1, x_p, y_p, z_p) with
(x, y, z) = (2 Re(conj(u) v), 2 Im(conj(u) v), |u|^2 - |v|^2) of its
amplitudes u, v: entries 0 and 1 of a qubit factor, entries ``alpha``
and ``beta`` of the third factor. So P is a sum of signed monomials in
the nine Bloch coordinates, e.g. for the sphere P1 = z1,
P2 = x1 (x2 x3 + y2 y3), P3 = y1 (x2 y3 + y2 x3), and
``functional_points`` evaluates it that way: the Bloch products of the
terms that build ``qset``, added by the same signed fold
(``tensorops._signed_sum``); no 8d x 8d operator is formed. The
qudit coordinates satisfy |r3| <= 1 instead of = 1, which is why the
qudit region only shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .chessboard import _check_seed, _rng_for
from .tensorops import (_bloch, _check_dim, _check_integer, _check_pair,
                        _check_tol, _signed_sum, _substituted_op)
from .witnesses import _spec

__all__ = [
    "GEOMETRIES",
    "ProductState",
    "qubit_state",
    "sample_factors",
    "qset",
    "functional_points",
    "region_excess",
    "region_points",
    "containment_report",
    "feasible_region_check",
    "boundary_curve_check",
]

_REPRESENTATIVES = {
    "polygon": "poly1:0000",
    "cone": "con:333:122:0:+",
    "cylinder": "cyl:300:122:00",
    "sphere": "sph:300:122:0",
}
GEOMETRIES = tuple(_REPRESENTATIVES)

# Product states drawn per RNG stream: states [k*SAMPLE_CHUNK,
# (k+1)*SAMPLE_CHUNK) of a sample come from stream (seed, k), so a
# sample's states do not depend on who draws them or how many at once.
SAMPLE_CHUNK = 65536


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
    for k, lo in enumerate(range(0, n, SAMPLE_CHUNK)):
        m = min(SAMPLE_CHUNK, n - lo)
        rng = _rng_for(seed, k)
        factors = []
        for dim in (2, 2, d):
            block = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
            factors.append(block)
        yield lo, factors


def sample_factors(n: int, seed: int = 0, d: int = 2
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n Haar-random product-state factors for dimensions (2, 2, d).

    These are the states whose points :func:`region_points` gives for
    the same ``(n, seed, d)``. Raises ValueError unless ``n`` and ``d`` are
    integers, ``n >= 0``, ``d >= 2``, and ``seed`` is a non-negative
    integer.
    """
    n = _check_integer("n", n, 0)
    d = _check_dim(d)
    _check_seed(seed)
    out = tuple(np.empty((n, dim), dtype=np.complex128)
                for dim in (2, 2, d))
    for lo, factors in _factor_chunks(n, seed, d):
        for block, part in zip(out, factors):
            block[lo:lo + part.shape[0]] = part
    return out  # type: ignore[return-value]


def _terms(geometry: str) -> Tuple[Tuple[Tuple[float, Tuple[int, ...]], ...],
                                   ...]:
    """Per column of P, the (sign, (i, j, k)) Pauli triples it sums: the
    representative's non-identity ``_spec`` terms, split 1 + 2 + 2."""
    if geometry not in _REPRESENTATIVES:
        raise ValueError(f"unknown geometry {geometry!r}; "
                         f"choose from {GEOMETRIES}")
    terms = [term for component in _spec(_REPRESENTATIVES[geometry])[1]
             for term in component if any(term[1])]
    return tuple(terms[:1]), tuple(terms[1:3]), tuple(terms[3:])


def qset(geometry: str, d: int = 2, alpha: int = 0, beta: int = 1
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator triple (Q1, Q2, Q3) probed by a geometry;
    ValueError unless ``d``, ``alpha`` and ``beta`` are integers that
    ``qudit_substitute`` accepts."""
    columns = _terms(geometry)
    d = _check_dim(d)
    alpha, beta = _check_pair(d, alpha, beta, ("alpha", "beta"))
    return tuple(  # type: ignore[return-value]
        _signed_sum(terms, lambda t: _substituted_op(t, d, alpha, beta))
        for terms in columns)


def functional_points(
    geometry: str,
    factors: Sequence[np.ndarray],
    alpha: int = 0,
    beta: int = 1,
) -> np.ndarray:
    """Rows of (<Q1>, <Q2>, <Q3>) of ``qset(geometry, d, alpha, beta)``
    for a batch of product states.

    ``factors`` are three arrays of shape (n, 2), (n, 2), (n, d), d >= 2,
    with unit-norm rows (ValueError, naming the factor, for another
    shape).
    Each column is the sum of its signed Pauli triples, each triple the
    product e1_i e2_j e3_k of per-party expectations (see the module
    docstring), with identity factors skipped.
    """
    f1, f2, f3 = (np.asarray(f, dtype=np.complex128) for f in factors)
    n = len(f1) if f1.ndim == 2 else None
    for i, f in enumerate((f1, f2, f3)):
        if f.ndim != 2 or len(f) != n or not (
                f.shape[1] == 2 if i < 2 else f.shape[1] >= 2):
            width = "2)" if i < 2 else "d) with d >= 2"
            raise ValueError(f"factors[{i}] must have shape "
                             f"({'n' if n is None else n}, {width}, "
                             f"got {f.shape}")
    columns = _terms(geometry)
    alpha, beta = _check_pair(f3.shape[1], alpha, beta, ("alpha", "beta"))
    e = (_bloch(f1[:, 0], f1[:, 1]), _bloch(f2[:, 0], f2[:, 1]),
         _bloch(f3[:, alpha], f3[:, beta]))
    points = np.empty((f1.shape[0], len(columns)), dtype=float)
    for col, terms in enumerate(columns):
        points[:, col] = _signed_sum(terms, lambda triple: reduce(
            mul, [e[p][t] for p, t in enumerate(triple) if t]))
    return points


def region_excess(geometry: str, points: np.ndarray) -> np.ndarray:
    """Signed distance-like boundary excess; <= 0 means inside.

    ``points`` is one point (P1, P2, P3) or an (n, 3) array of them;
    ValueError for any other shape.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError(f"points must have shape (3,) or (n, 3), got "
                         f"{points.shape}")
    points = np.atleast_2d(points)
    p1, p2, p3 = points[:, 0], points[:, 1], points[:, 2]
    if geometry == "polygon":
        return np.abs(p1) + np.abs(p2) + np.abs(p3) - 1.0
    if geometry == "cone":
        return np.hypot(p2, p3) - (1.0 - np.abs(p1))
    if geometry == "cylinder":
        return np.hypot(p1, p2 + p3) - 1.0
    if geometry == "sphere":
        return np.sqrt(p1 * p1 + p2 * p2 + p3 * p3) - 1.0
    raise ValueError(f"unknown geometry {geometry!r}; choose from {GEOMETRIES}")


def region_points(geometry: str, n: int, seed: int = 0, d: int = 2,
                  alpha: int = 0, beta: int = 1) -> Iterator[np.ndarray]:
    """``functional_points`` of the states of :func:`sample_factors`,
    drawn lazily one ``SAMPLE_CHUNK`` at a time.

    Raises ValueError before any state is drawn unless ``n`` and ``d``
    are integers, ``n >= 1``, ``d >= 2``, ``seed`` is a non-negative
    integer, and the geometry and the subspace levels are valid.
    """
    n = _check_integer("n", n, 1)
    d = _check_dim(d)
    _check_seed(seed)
    _terms(geometry)
    _check_pair(d, alpha, beta, ("alpha", "beta"))
    return (functional_points(geometry, factors, alpha, beta)
            for _, factors in _factor_chunks(n, seed, d))


def containment_report(geometry: str, chunks: Iterable[np.ndarray],
                       tol: float = 1e-9) -> Dict[str, object]:
    """Violation count and largest boundary excess (negative when every
    point is strictly inside) over chunks of points. Raises ValueError
    before reading a chunk unless the geometry is known and ``tol`` is
    finite and >= 0."""
    _terms(geometry)
    _check_tol("tol", tol)
    samples = violations = 0
    max_excess = -math.inf
    for points in chunks:
        excess = region_excess(geometry, points)
        samples += len(excess)
        violations += int(np.count_nonzero(excess > tol))
        max_excess = max(max_excess, float(excess.max(initial=-math.inf)))
    return {"geometry": geometry, "samples": samples, "violations": violations,
            "max_excess": max_excess, "tol": tol}


def feasible_region_check(
    geometry: str,
    n: int = 100_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> Dict[str, object]:
    """Sample three-qubit product states and certify region containment:
    the :func:`containment_report` of the :func:`region_points` of the
    same arguments, whose checks run before any state is drawn."""
    return containment_report(geometry, region_points(geometry, n, seed),
                              tol)


def _sweep_points(geometry: str, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product-state Bloch angle sweeps of m points attaining each
    boundary."""
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


#: Points of each boundary sweep (the cone adds its apex).
_SWEEP_SAMPLES = 1001


def boundary_curve_check(geometry: str) -> Dict[str, object]:
    """Evaluate the geometry's boundary sweep of ``_SWEEP_SAMPLES``
    points and report the residual.

    The residual measures the distance of the swept functional points
    from the boundary manifold (for the polygon: from the astroid
    |P1|^(2/3) + |P2+P3|^(2/3) = 1 traced in the (P1, P2+P3) plane);
    analytically it vanishes identically along each sweep.
    """
    _terms(geometry)  # rejects an unknown name before the sweep
    thetas, phis = _sweep_points(geometry, _SWEEP_SAMPLES)
    factors = [qubit_state(thetas[:, i], phis[:, i]) for i in range(3)]
    pts = functional_points(geometry, factors)
    if geometry == "polygon":
        p1, p2, p3 = pts[:, 0], pts[:, 1], pts[:, 2]
        residual = np.abs(np.abs(p1) ** (2.0 / 3.0)
                          + np.abs(p2 + p3) ** (2.0 / 3.0) - 1.0)
    else:
        residual = np.abs(region_excess(geometry, pts))
    return {"geometry": geometry, "samples": int(pts.shape[0]),
            "max_residual": float(residual.max())}
