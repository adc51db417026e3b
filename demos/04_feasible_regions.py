#!/usr/bin/env python3
"""Map product states into expectation space and outline each region.

For a triple (Q1, Q2, Q3) of catalog operators, every product state
lands at a point P = (<Q1>, <Q2>, <Q3>).  The set swept out by all
product states is the feasible region; its shape names the witness
family: a polygon (with an astroid-curved face), a cone, a cylinder, or
a sphere.  Detection works because separable states can never leave the
region -- a state mapped outside is entangled.

On a product state each Pauli triple factorizes into per-party Bloch
coordinates, <sigma_i (x) sigma_j (x) sigma_k> = e1_i e2_j e3_k, so the
map is evaluated from nine numbers per state (for the sphere:
P1 = z1, P2 = x1 (x2 x3 + y2 y3), P3 = y1 (x2 y3 + y2 x3)) instead of
from 8x8 operators.
"""

import numpy as np

from chesswit.frgeom import (
    GEOMETRIES,
    ProductState,
    boundary_curve_check,
    feasible_region_check,
    functional_points,
    qset,
    region_excess,
    sample_factors,
)


def main():
    state = ProductState(thetas=(0.3, 1.1, 2.0), phis=(0.5, 2.5, 4.0))

    # functional_points takes a batch of factors; here a batch of one
    factors = [f[None, :] for f in state.factors()]

    print("=== The operator triples behind each geometry ===")
    print("P is evaluated as products of per-party Bloch coordinates;")
    print("the 8x8 operators give the same point as <s|Q|s>:")
    v = state.vector()
    for geometry in GEOMETRIES:
        dense = [float((v.conj() @ q @ v).real) for q in qset(geometry)]
        gap = np.abs(functional_points(geometry, factors)[0] - dense).max()
        print(f"  {geometry:8s}: max |product form - <s|Q|s>| = {gap:.1e}")

    print("\n=== Where individual product states land ===")
    for geometry in GEOMETRIES:
        p = functional_points(geometry, factors)[0]
        excess = region_excess(geometry, p)[0]
        print(f"  {geometry:8s}: P = ({p[0]:+.4f}, {p[1]:+.4f}, "
              f"{p[2]:+.4f})   boundary excess = {excess:+.3e}")
    print("(excess <= 0 means the point is inside its region)")

    print("\n=== Monte Carlo containment check (10^5 samples each) ===")
    for geometry in GEOMETRIES:
        out = feasible_region_check(geometry, n=100_000, seed=5, tol=1e-9)
        print(f"  {geometry:8s}: {out['samples']} samples, "
              f"{out['violations']} violations, "
              f"max excess {out['max_excess']:+.3e}")

    print("\n=== Boundary attainment ===")
    print("Parametrized extremal product states trace the region surface;")
    print("the residual is the largest gap to the ideal boundary curve:")
    for geometry in GEOMETRIES:
        out = boundary_curve_check(geometry)
        print(f"  {geometry:8s}: max residual {out['max_residual']:.3e}")

    print("\n=== Bulk sampling for plots ===")
    factors = sample_factors(2_000, seed=42)
    pts = functional_points("sphere", factors)
    radii = np.linalg.norm(pts, axis=1)
    print(f"sphere geometry, 2000 points: radius in "
          f"[{radii.min():.4f}, {radii.max():.4f}] (region is r <= 1)")
    pts = functional_points("cone", factors)
    print(f"cone geometry, same states: P3 in "
          f"[{pts[:, 2].min():+.4f}, {pts[:, 2].max():+.4f}]")
    print("\nThe CLI exports the same triples as CSV for external plotting:")
    print("  python3 -m chesswit fr --geometry sphere --samples 5000 \\")
    print("      --points sphere_points.csv")


if __name__ == "__main__":
    main()
