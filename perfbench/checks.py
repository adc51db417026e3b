"""Output checks: every mismatch found here counts as a failed operation.

The reference values are derived by a route the hot path does not take:
expansion coefficients as matrix traces Tr(rho Q) of the substituted
operators, and family minima from the scalar per-witness
``witnesses.functional`` over every catalog identifier. The names are
bound at import, before any tracing, so checks are never traced.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from chesswit.chessboard import (
    COEFF_TRIPLES,
    ChessParams222,
    build_rho_222,
    build_rho_22d,
    sample_params_222,
    sample_params_22d,
)
from chesswit.mcharness import csv_header
from chesswit.tensorops import qudit_substitute
from chesswit.witnesses import (
    DETECT_MARGIN,
    FAMILY_NAMES,
    GROUP_MEMBERS,
    GROUP_NAMES,
    detection_conditions,
    functional,
    witness_ids,
)

#: Largest accepted |program - reference| for a family minimum.
MIN_TOL = 1e-12


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pair(witness_id: str) -> Tuple[int, int]:
    if "@" not in witness_id:
        return (0, 1)
    a, b = witness_id.split("@", 1)[1].split(",")
    return int(a), int(b)


class Oracle:
    """Reference family minima for chessboard states of one dimension."""

    def __init__(self, d: int):
        self.d = int(d)
        self.ids = [(wid, wid.split(":", 1)[0], _pair(wid))
                    for wid in witness_ids(self.d)]
        pairs = sorted({pair for _, _, pair in self.ids})
        self.ops = {pair: [qudit_substitute(t, self.d, *pair)
                           for t in COEFF_TRIPLES] for pair in pairs}

    def family_minima(self, params) -> Dict[str, float]:
        if isinstance(params, ChessParams222):
            rho = build_rho_222(params)
        else:
            rho = build_rho_22d(params)
        coeffs = {
            pair: {t: float(np.trace(rho @ q).real)
                   for t, q in zip(COEFF_TRIPLES, ops)}
            for pair, ops in self.ops.items()
        }
        out = {name: math.inf for name in FAMILY_NAMES}
        for wid, family, pair in self.ids:
            out[family] = min(out[family], functional(wid, coeffs[pair])[0])
        return out


def group_minima(families: Dict[str, float]) -> Dict[str, float]:
    return {g: min(families[m] for m in GROUP_MEMBERS[g])
            for g in GROUP_NAMES}


def _sign_ok(program: float, reference: float) -> bool:
    return abs(reference) <= DETECT_MARGIN or (program < 0) == (reference < 0)


def sample_state(seed: int, index: int, d: int):
    """The scan's parameters for row ``index`` of stream ``seed``."""
    if d == 2:
        return sample_params_222(seed, index)
    return sample_params_22d(seed, index, d)


def _param_fields(params) -> List[str]:
    if isinstance(params, ChessParams222):
        values = [params.a, params.b, params.c, params.d]
    else:
        values = list(params.diag[0]) + list(params.diag[1])
    return [_fmt(x) for x in values + list(params.r) + list(params.phi)]


class ScanCheck:
    """Checks a scan CSV written by ``chesswit scan`` for ``(seed, n, d)``."""

    def __init__(self, d: int, n: int):
        self.d, self.n = int(d), int(n)
        self.header = csv_header(self.d)
        self.oracle = Oracle(self.d)

    def structure(self, text: str) -> List[bool]:
        """Per-row verdict of the cheap checks (header, count, index, shape).

        Returns ``n`` booleans, one per expected row; a missing row or a
        bad header fails every row it cannot vouch for.
        """
        lines = text.split("\n")
        ncols = len(self.header.split(","))
        if lines[0] != self.header or lines[-1] != "":
            return [False] * self.n
        rows = lines[1:-1]
        ok = []
        for k in range(self.n):
            fields = rows[k].split(",") if k < len(rows) else []
            ok.append(len(fields) == ncols and fields[0] == str(k))
        if len(rows) != self.n and ok:
            ok[-1] = False
        return ok

    def row(self, seed: int, line: str) -> bool:
        """Re-derive one row: exact parameters, oracle minima, flags."""
        fields = line.split(",")
        index = int(fields[0])
        params = sample_state(seed, index, self.d)
        expected = _param_fields(params)
        k = 1 + len(expected)
        if fields[1:k] != expected or fields[k] != "1":
            return False
        minima = [float(x) for x in fields[k + 1:k + 5]]
        flags = fields[k + 5:k + 10]
        want_flags = ["1" if m < 0.0 else "0" for m in minima]
        want_flags.append("1" if "1" in want_flags else "0")
        if flags != want_flags:
            return False
        reference = group_minima(self.oracle.family_minima(params))
        return all(abs(m - reference[g]) <= MIN_TOL and _sign_ok(m, reference[g])
                   for m, g in zip(minima, GROUP_NAMES))

    def failures(self, seed: int, text: str, rows: Sequence[int],
                 pinned: str = "") -> int:
        """Failed rows of one CSV: structure of all rows, the oracle on
        ``rows``, and, when ``pinned`` is given, the exact bytes."""
        if pinned and sha256(text) != pinned:
            return self.n
        ok = self.structure(text)
        lines = text.split("\n")[1:]
        for k in rows:
            if ok[k] and not self.row(seed, lines[k]):
                ok[k] = False
        return ok.count(False)


class DetectCheck:
    """Checks ``json.dumps(detect(params).to_json())`` outputs."""

    def __init__(self, d: int):
        self.d = int(d)
        self.oracle = Oracle(self.d)

    def verdicts(self, params, families: Dict[str, Dict[str, object]]) -> bool:
        """d = 2: signs agree with the closed-form detection conditions
        wherever the minimum is farther than DETECT_MARGIN from zero."""
        if self.d != 2:
            return True
        conditions = detection_conditions(params)["verdicts"]
        return all(abs(families[f]["min"]) <= DETECT_MARGIN
                   or (families[f]["min"] < 0) == conditions[f]
                   for f in FAMILY_NAMES)

    def report(self, params, text: str) -> bool:
        """Full check of one serialized report against the oracle."""
        try:
            report = json.loads(text)
            families = {f: float(report["families"][f]["min"])
                        for f in FAMILY_NAMES}
            groups = {g: float(report["group_minima"][g])
                      for g in GROUP_NAMES}
            detected = report["detected"]
        except (ValueError, KeyError, TypeError):
            return False
        reference = self.oracle.family_minima(params)
        if any(abs(families[f] - reference[f]) > MIN_TOL
               or not _sign_ok(families[f], reference[f])
               for f in FAMILY_NAMES):
            return False
        if groups != group_minima(families):
            return False
        return detected == any(v < 0.0 for v in groups.values())
