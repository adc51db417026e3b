#!/usr/bin/env python3
"""Raise the third party to dimension d: states, generators, witnesses.

The 2x2xd construction embeds the four chessboard blocks into one
two-level subspace (alpha, beta) of the d-level party and pads the rest
of the diagonal.  Witnesses follow by substituting the third-party
Pauli operators with their generalized Gell-Mann counterparts on that
subspace, so the whole qubit catalog is reused once per level pair.
"""

import math

import numpy as np

from chesswit.chessboard import (
    build_rho_22d,
    params_222_to_22d,
    pauli_coeffs,
    sample_params_222,
    sample_params_22d,
)
from chesswit.mcharness import run_scan, summarize
from chesswit.tensorops import gellmann_su3, gen_gellmann, is_ppt, qudit_substitute
from chesswit.witnesses import build_witness, substituted_coeffs, witness_ids


def main():
    print("=== Generalized Gell-Mann generators ===")
    for d in (2, 3, 4, 5):
        b = gen_gellmann(d)
        n = len(b["plus"]) + len(b["minus"]) + len(b["diag"])
        print(f"  d={d}: {n} traceless generators "
              f"({len(b['plus'])} symmetric, {len(b['minus'])} antisymmetric, "
              f"{len(b['diag'])} diagonal)")

    print("\nRecursion and closing identities (exact reconstruction of the")
    print("diagonal unit matrices from the diagonal generators):")
    d = 5
    b = gen_gellmann(d)
    e, diag = b["E"], b["diag"]
    worst = 0.0
    for i in range(d - 1):
        rhs = e[(i + 1, i + 1)] + math.sqrt((i + 2) / (2 * (i + 1))) * diag[i]
        if i > 0:
            rhs = rhs - math.sqrt(i / (2 * (i + 1))) * diag[i - 1]
        worst = max(worst, float(np.abs(e[(i, i)] - rhs).max()))
    closing = np.eye(d) / d - math.sqrt((d - 1) / (2 * d)) * diag[d - 2]
    worst = max(worst, float(np.abs(e[(d - 1, d - 1)] - closing).max()))
    print(f"  d={d}: max deviation {worst:.1e}")
    su3 = gellmann_su3(4)
    print(f"  d=3 embedding: sqrt(2)*plus[(0,2)] equals the 4th standard")
    print(f"  su(3) matrix:  "
          f"{np.abs(math.sqrt(2) * gen_gellmann(3)['plus'][(0, 2)] - su3).max():.1e}")

    print("\n=== Pauli -> subspace substitution ===")
    print("The third-party sigma_3 on levels (0,2) of a qutrit becomes:")
    m = qudit_substitute((0, 0, 3), d=3, alpha=0, beta=2)
    sub = m.reshape(4, 3, 4, 3)[0, :, 0, :]
    print(np.round(sub.real, 3))

    print("\n=== Consistency with the qubit route ===")
    p2 = sample_params_222(77, 0)
    p3 = params_222_to_22d(p2, gamma=1)
    co3 = substituted_coeffs(build_rho_22d(p3), p3.dim, p3.alpha, p3.beta)
    gap = max(abs(co3[t] - v) for t, v in pauli_coeffs(p2).items())
    print("embedding a qubit state at gamma=1 reproduces the qubit")
    print(f"coefficient table exactly: max gap {gap:.1e}")

    print("\n=== A qutrit scan ===")
    p = sample_params_22d(5, 0, 3)
    rho = build_rho_22d(p)
    ok, lams = is_ppt(rho, dims=(2, 2, 3))
    print(f"sampled 2x2x3 state: ppt={ok} "
          f"(min PT eigenvalue {min(lams.values()):+.2e})")
    wid = "con:333:122:0:+@0,2"
    assert wid in witness_ids(3)
    w = build_witness(wid, psi=0.4, d=3)
    print(f"witness {wid!r} acts on a {w.shape} space")
    co = substituted_coeffs(rho, 3, 0, 2)
    print(f"substituted coefficient table has {len(co)} entries")

    result = run_scan(1_000, seed=9, dim=3, workers=2)
    summary = summarize(result)
    print("\n1000-state qutrit scan:")
    for name, entry in summary["detected"].items():
        print(f"  {name:4s}: {entry['count']:3d} detected "
              f"({entry['percent']:5.2f}%)")


if __name__ == "__main__":
    main()
