#!/usr/bin/env python3
"""Test witness optimality through the rank of its zero-state system.

A witness is optimal when no positive operator can be subtracted from
it while keeping it a witness.  The spanning criterion: collect product
states with exactly zero expectation, stack their vectors into a matrix,
and check its rank.  Full rank (smallest singular value bounded away
from zero) certifies optimality; a rank deficit only means that this
set of zero states does not certify it.
"""

import math

import numpy as np

from chesswit.optimality import (
    is_optimal,
    orthogonality_system,
    zero_states_conical,
    zero_states_polygonal,
)
from chesswit.witnesses import build_witness, expectation, witness_ids


def main():
    print("=== Zero states of a polygonal witness ===")
    wid = "poly1:0000"
    states = zero_states_polygonal(wid)
    w = build_witness(wid)
    print(f"{wid}: {len(states)} product states with <w> = 0")
    for s in states[:4]:
        val = expectation(w, np.outer(s.vector(), s.vector().conj()))
        print(f"  thetas={tuple(round(t, 4) for t in s.thetas)} "
              f"phis={tuple(round(p, 4) for p in s.phis)}  <w>={val:+.2e}")
    print("  ...")

    print("\n=== The rank test on the whole polygonal family ===")
    sigmas = []
    for wid in witness_ids(2):
        if not wid.startswith("poly"):
            continue
        optimal, sigma = is_optimal(wid)
        sigmas.append(sigma)
        assert optimal
    print(f"all 32 polygonal witnesses optimal; smallest singular value")
    print(f"of their zero-state systems ranges over "
          f"[{min(sigmas):.6f}, {max(sigmas):.6f}]")

    print("\n=== A curved witness: the hand-built system at two angles ===")
    wid = "con:333:122:0:+"
    for psi in (0.3, math.pi / 4):
        optimal, sigma = is_optimal(wid, psi=psi)
        sys = orthogonality_system(wid, psi=psi)
        print(f"  psi = {psi:.6f}: {len(sys.states)} zero states, "
              f"state matrix {sys.matrix.shape}, "
              f"sigma_min = {sigma:.3e}  ->  optimal={optimal}")

    print("\nAt psi = pi/4 the hand-built zero-state system loses rank: its")
    print("four angle-dependent states become linearly dependent, so this")
    print("system does not certify that angle.  That is not a proof of")
    print("non-optimality; other zero states may still span the space.")
    print("The zero states used for the conical test:")
    for s in zero_states_conical(0.3, wid)[:3]:
        print(f"  thetas={tuple(round(t, 4) for t in s.thetas)} "
              f"phis={tuple(round(p, 4) for p in s.phis)}")
    print("  ...")


if __name__ == "__main__":
    main()
