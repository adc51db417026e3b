"""Command-line interface.

Subcommands
-----------
``rho``              build a chessboard density matrix from a params file
``ppt``              positivity/partial-transpose report for a state
``detect``           evaluate the full witness catalog on a state
``scan``             Monte Carlo detection scan (CSV + optional summary)
``fr``               feasible-region containment and boundary checks
``validate-witness`` numerical product-state minimum of one witness
``optimality``       zero-state optimality certificate for one witness
``compare``          deterministic detection-curve minimization report

Exit codes: 0 on success, 1 on domain errors (malformed files, unknown
witness ids, non-positive states, ...), 2 on usage errors (argparse).
All structured output is JSON except ``scan``'s CSV rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import tee
from typing import Optional

from . import __version__
from .chessboard import (
    ChessParams222,
    build_rho_222,
    build_rho_22d,
    params_from_json,
)
from .frgeom import (
    GEOMETRIES,
    boundary_curve_check,
    containment_report,
    region_points,
)
from .mcharness import reproduce_section6, run_scan, summarize, write_csv
from .optimality import is_optimal
from .tensorops import is_ppt, matrix_from_json, matrix_to_json
from .witnesses import build_witness, detect, validate_witness, witness_angles

__all__ = ["main"]


def _read_json(path: str):
    with open(path, "r") as fh:
        return json.load(fh)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _load_params(path: str):
    return params_from_json(_read_json(path))


def _build_state(params):
    if isinstance(params, ChessParams222):
        return build_rho_222(params), (2, 2, 2)
    return build_rho_22d(params), (2, 2, params.dim)


def _cmd_rho(args) -> int:
    params = _load_params(args.params)
    rho, _ = _build_state(params)
    _emit_json(matrix_to_json(rho), args.out)
    return 0


def _cmd_ppt(args) -> int:
    if (args.params is None) == (args.matrix is None):
        raise ValueError("provide exactly one of --params or --matrix")
    if args.params:
        params = _load_params(args.params)
        rho, dims = _build_state(params)
    else:
        rho = matrix_from_json(_read_json(args.matrix))
        if rho.shape[0] % 4 != 0 or rho.shape[0] < 8:
            raise ValueError(
                f"matrix dimension {rho.shape[0]} is not 4*d for d >= 2"
            )
        dims = (2, 2, rho.shape[0] // 4)
    ppt, min_eigs = is_ppt(rho, dims=dims, tol=args.tol)
    _emit_json({"ppt": ppt, "dims": list(dims), "min_eigs": min_eigs},
               args.out)
    return 0


def _cmd_detect(args) -> int:
    params = _load_params(args.params)
    report = detect(params, pairs=args.pairs)
    _emit_json(report.to_json(), args.out)
    return 0


def _cmd_scan(args) -> int:
    result = run_scan(
        args.n, seed=args.seed, dim=args.d, alpha=args.alpha,
        beta=args.beta, gamma=args.gamma, pairs=args.pairs,
        workers=args.workers, tol=args.tol,
    )
    if args.out:
        write_csv(result, args.out)
        if args.summary:
            _emit_json(summarize(result), None)
    else:
        write_csv(result, sys.stdout)
        if args.summary:
            sys.stderr.write(json.dumps(summarize(result), indent=2) + "\n")
    return 0


def _cmd_fr(args) -> int:
    if args.points and args.geometry == "all":
        raise ValueError("--points needs a single --geometry, not 'all'")
    names = list(GEOMETRIES) if args.geometry == "all" else [args.geometry]
    report = {}
    for name in names:
        chunks = region_points(name, args.samples, seed=args.seed, d=args.d,
                               alpha=args.alpha, beta=args.beta)
        if args.points:
            chunks, kept = tee(chunks)
        entry = containment_report(name, chunks, tol=args.tol)
        entry["boundary_max_residual"] = \
            boundary_curve_check(name)["max_residual"]
        report[name] = entry
    if args.points:
        lines = ["P1,P2,P3"]
        lines += [",".join(format(x, ".17g") for x in row)
                  for pts in kept for row in pts]
        with open(args.points, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_json(report, args.out)
    return 0


def _reject_unused_angles(witness_id: str, **angles) -> None:
    """Angle flags the witness's family does not take are errors, not
    silently dropped."""
    takes = witness_angles(witness_id)
    unused = [f"--{name}" for name, value in angles.items()
              if value is not None and name not in takes]
    if unused:
        raise ValueError(f"witness {witness_id!r} takes no "
                         f"{' or '.join(unused)}")


def _cmd_validate_witness(args) -> int:
    _reject_unused_angles(args.witness, psi=args.psi, eta=args.eta,
                          zeta=args.zeta)
    w = build_witness(args.witness, psi=args.psi, eta=args.eta,
                      zeta=args.zeta, d=args.d)
    dims = (2, 2, args.d)
    ok, value, _ = validate_witness(w, dims=dims, tol=args.tol,
                                    starts=args.starts, seed=args.seed)
    _emit_json({"witness": args.witness, "valid": ok, "min": value,
                "starts": args.starts, "tol": args.tol}, args.out)
    return 0


def _cmd_optimality(args) -> int:
    _reject_unused_angles(args.witness, psi=args.psi)
    optimal, sigma_min = is_optimal(args.witness, psi=args.psi,
                                    threshold=args.threshold)
    _emit_json({"witness": args.witness, "optimal": optimal,
                "sigma_min": sigma_min, "threshold": args.threshold},
               args.out)
    return 0


def _cmd_compare(args) -> int:
    _emit_json(reproduce_section6(), args.out)
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="chesswit",
        description=(
            "Chessboard-state entanglement witnesses: build states, "
            "check positivity, evaluate the witness catalog, and run "
            "detection experiments."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("rho", help="build a density matrix from parameters")
    p.add_argument("--params", metavar="FILE", required=True,
                   help="JSON parameter file")
    add_out(p)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("ppt", help="positivity and partial-transpose report")
    p.add_argument("--params", metavar="FILE",
                   help="JSON parameter file")
    p.add_argument("--matrix", metavar="FILE",
                   help="JSON matrix file (dimension 4*d)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="eigenvalue tolerance (default 1e-10)")
    add_out(p)
    p.set_defaults(func=_cmd_ppt)

    p = sub.add_parser("detect",
                       help="evaluate the witness catalog on a state")
    p.add_argument("--params", metavar="FILE", required=True,
                   help="JSON parameter file")
    p.add_argument("--pairs", choices=("all", "own"), default="all",
                   help="qudit subspace pairs to evaluate (default all)")
    add_out(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("scan", help="Monte Carlo detection scan")
    p.add_argument("--n", type=int, required=True,
                   help="number of sampled states")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--d", type=int, default=2,
                   help="third-party dimension (default 2)")
    p.add_argument("--alpha", type=int, default=None,
                   help="first coupled level (qudit case)")
    p.add_argument("--beta", type=int, default=None,
                   help="second coupled level (qudit case)")
    p.add_argument("--gamma", type=int, default=None,
                   help="extra coupled level (qudit case)")
    p.add_argument("--pairs", choices=("all", "own"), default="all",
                   help="qudit subspace pairs to evaluate (default all)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (default 1)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="PPT guard tolerance (default 1e-10)")
    p.add_argument("--summary", action="store_true",
                   help="also print a JSON detection summary")
    add_out(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fr", help="feasible-region geometry checks")
    p.add_argument("--geometry", choices=GEOMETRIES + ("all",),
                   default="all", help="region to check (default all)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="product states to sample (default 100000)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--d", type=int, default=2,
                   help="third-party dimension (default 2)")
    p.add_argument("--alpha", type=int, default=0,
                   help="subspace level A (default 0)")
    p.add_argument("--beta", type=int, default=1,
                   help="subspace level B (default 1)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="containment tolerance (default 1e-9)")
    p.add_argument("--points", metavar="FILE", default=None,
                   help="also write sampled (P1,P2,P3) triples as CSV to "
                        "FILE (single geometry only)")
    add_out(p)
    p.set_defaults(func=_cmd_fr)

    p = sub.add_parser("validate-witness",
                       help="numerical product-state minimum of a witness")
    p.add_argument("--witness", metavar="ID", required=True,
                   help="catalog identifier")
    p.add_argument("--psi", type=float, default=None,
                   help="conical/cylindrical angle")
    p.add_argument("--eta", type=float, default=None, help="spherical angle")
    p.add_argument("--zeta", type=float, default=None, help="spherical angle")
    p.add_argument("--d", type=int, default=2,
                   help="third-party dimension (default 2)")
    p.add_argument("--starts", type=int, default=64,
                   help="multi-start count (default 64)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="validity tolerance (default 1e-7)")
    add_out(p)
    p.set_defaults(func=_cmd_validate_witness)

    p = sub.add_parser("optimality",
                       help="zero-state optimality certificate")
    p.add_argument("--witness", metavar="ID", required=True,
                   help="catalog identifier (polygonal or con:333:122:0:+/-)")
    p.add_argument("--psi", type=float, default=None,
                   help="conical angle")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="least-singular-value threshold (default 1e-6)")
    add_out(p)
    p.set_defaults(func=_cmd_optimality)

    p = sub.add_parser("compare",
                       help="deterministic detection-curve minimization")
    add_out(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, TypeError, KeyError, ArithmeticError, RuntimeError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
