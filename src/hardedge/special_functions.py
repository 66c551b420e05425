"""Gamma-family primitives used throughout the sampling and exact-CDF code.

A validated log-space layer over ``scipy.special``: ln P(a, x) survives
shape parameters far into the regime where the regularized lower incomplete
gamma function ``P(a, x)`` underflows in double precision (``log P`` down to
about -1e7).  It is what lets the per-particle laws be evaluated for
particle counts of order 1e5, where the relevant probabilities are as small
as ``exp(-O(n))``.

All functions are pure and reentrant; arrays broadcast in the usual numpy
fashion and scalars come back as Python floats.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = ["log_reg_lower_gamma"]

# Below this value of P(a, x) the linear-space representation is unsafe
# (denormals start around 1e-308); the series branch takes over well before.
_LINEAR_FLOOR = 1e-280

_MAX_SERIES_TERMS = 100_000


def log_reg_lower_gamma(a, x):
    """ln P(a, x), valid deep into the left tail where P underflows.

    For P above ``_LINEAR_FLOOR`` this is simply ``log(gammainc)``.  Below,
    it switches to the classical left-tail power series

        gamma(a, x) = x^a e^{-x} * sum_{k>=0} x^k / (a (a+1) ... (a+k)),

    summed in linear space (the sum is O(1/a)) and assembled in log space.
    The deep branch only triggers for x well below a, where the series
    converges geometrically.
    """
    aa = np.asarray(a, dtype=float)
    xa = np.asarray(x, dtype=float)
    if not (((aa > 0.0) & np.isfinite(aa)).all() and (xa >= 0.0).all()):
        raise ValueError(f"log_reg_lower_gamma requires finite a > 0 and x >= 0 (or +inf), "
                         f"got a = {a!r}, x = {x!r}")
    p = gammainc(aa, xa)
    lin = p > _LINEAR_FLOOR
    out = np.log(p, out=np.full(p.shape, -np.inf), where=lin)
    if not lin.all():
        aa, xa = np.broadcast_arrays(aa, xa)
        deep = ~lin & (xa > 0.0)
        out[deep] = _log_p_series(aa[deep], xa[deep])
    scalar = np.isscalar(a) and np.isscalar(x)
    return float(out) if scalar or out.ndim == 0 else out


def _log_p_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_k x^k / ((a+1)...(a+k)); term additions below 1e-18 * sum are exact
    # no-ops in double precision, so the loop is batch-invariant.
    term = np.ones_like(a)
    total = np.ones_like(a)
    k = 0
    while np.any(term > 1e-18 * total):
        k += 1
        if k > _MAX_SERIES_TERMS:
            raise ArithmeticError("left-tail gamma series did not converge; this is a bug")
        term = term * x / (a + k)
        total += term
    return a * np.log(x) - x - np.log(a) + np.log(total) - gammaln(a)
