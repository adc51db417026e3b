"""A fixed calibration kernel that measures the machine's current speed.

The benchmark runs the kernel after every operation and gives every
time at the reference speed: a time ``t`` measured next to a kernel run
of ``r`` seconds is reported as ``t * REF_S / r``. On a shared machine
whose cores change speed from second to second, the kernel slows with
the code it runs beside, and the quotient stays put.

The kernel does what the package spends its time on, in about the same
mix: small Hermitian eigenproblems in numpy, and a Python loop of
dictionary lookups and float arithmetic. It uses no code of the package,
so a change to the package cannot move it. Its inputs are fixed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
# Bound here, so that the tracer's counting wrapper on numpy.linalg
# neither counts nor slows the kernel.
from numpy.linalg import eigvalsh

#: Seconds one kernel run takes at the reference speed. This fixes the
#: unit of the reported times; it is close to the kernel's median on the
#: two-core machine the benchmark was built on.
REF_S = 0.004

_rng = np.random.default_rng(20080129)
_A = _rng.normal(size=(8, 8, 8)) + 1j * _rng.normal(size=(8, 8, 8))
_HERMITIAN = list(_A + np.conj(np.transpose(_A, (0, 2, 1)))) * 10
_COEFFS = {key: float(x)
           for key, x in np.ndenumerate(_rng.normal(size=(4, 4, 4)))}
_KEYS = list(_COEFFS)
_LOOPS = 300


def kernel() -> float:
    total = 0.0
    for h in _HERMITIAN:
        total += float(eigvalsh(h)[0])
    for _ in range(_LOOPS):
        for key in _KEYS:
            v = _COEFFS[key]
            total += math.cos(v) * v if v > 0 else -v
    return total


def timed() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
