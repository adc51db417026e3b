"""Spans and counts recorded around calls into the package's layers.

The tracer never edits the package: it replaces, for the duration of a
traced phase, the names that one module imported from another (for
example ``chesswit.mcharness.family_minima``) with wrappers that record
a span per call. Spans are kept in memory as ``[name, start, end,
parent]`` and summarised at the end; self time is a span's duration
minus the time covered by its child spans. A call site that a later
version of the package no longer has is skipped, so its layer reports
zero calls instead of failing.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name): the call sites wrapped with spans.
# Entry points the benchmark calls itself are wrapped on their own
# module so that its calls through ``module.name`` are recorded too.
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("chesswit.cli", "main", "cli.main"),
    ("chesswit.cli", "run_scan", "mcharness.run_scan"),
    ("chesswit.cli", "write_csv", "mcharness.write_csv"),
    ("chesswit.mcharness", "sample_params_222", "chessboard.sample"),
    ("chesswit.mcharness", "sample_params_22d", "chessboard.sample"),
    ("chesswit.mcharness", "build_rho_222", "chessboard.build_rho"),
    ("chesswit.mcharness", "build_rho_22d", "chessboard.build_rho"),
    ("chesswit.mcharness", "pauli_coeffs", "chessboard.pauli_coeffs"),
    ("chesswit.mcharness", "is_ppt", "tensorops.is_ppt"),
    ("chesswit.mcharness", "family_minima", "witnesses.family_minima"),
    ("chesswit.mcharness", "substituted_coeffs",
     "witnesses.substituted_coeffs"),
    ("chesswit.witnesses", "detect", "witnesses.detect"),
    ("chesswit.witnesses", "pauli_coeffs", "chessboard.pauli_coeffs"),
    ("chesswit.witnesses", "build_rho_22d", "chessboard.build_rho"),
    ("chesswit.witnesses", "family_minima", "witnesses.family_minima"),
    ("chesswit.witnesses", "substituted_coeffs",
     "witnesses.substituted_coeffs"),
    ("chesswit.witnesses", "detection_conditions",
     "witnesses.detection_conditions"),
    ("chesswit.witnesses", "build_witness", "witnesses.build_witness"),
    ("chesswit.witnesses", "validate_witness", "witnesses.validate_witness"),
    ("chesswit.witnesses", "min_expectation_over_products",
     "witnesses.seesaw"),
    ("chesswit.optimality", "build_witness", "witnesses.build_witness"),
    ("chesswit.optimality", "is_optimal", "optimality.is_optimal"),
    ("chesswit.frgeom", "feasible_region_check",
     "frgeom.feasible_region_check"),
    ("chesswit.frgeom", "boundary_curve_check",
     "frgeom.boundary_curve_check"),
)


# (module, attribute, counter name, amount per call or None for 1):
# counted, not spanned, and keyed by the innermost open span so that
# e.g. eigen-solver calls made by the PPT guard are told apart from
# those of the see-saw.
COUNT_SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("numpy.linalg", "eigh", "eigh_calls", None),
    ("numpy.linalg", "eigvalsh", "eigh_calls", None),
    ("chesswit.frgeom", "functional_points", "product_states", len),
)


class Tracer:
    """Wraps the call sites on ``install`` and restores them on ``restore``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable,
                       amount: Optional[Callable]) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (name, self._current())
            counts[key] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> "Tracer":
        for module_name, attr, name in SPAN_SITES:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._span_wrapper(name, fn))
        for module_name, attr, name, amount in COUNT_SITES:
            self._patch(module_name, attr,
                        lambda fn, name=name, amount=amount:
                        self._count_wrapper(name, fn, amount))
        return self

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls, total and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[idx]
        return dict(out)

    def count(self, name: str, inside: str) -> int:
        """Counter total for calls made while span ``inside`` was innermost."""
        return int(self.counts[(name, inside)])
