"""Gamma-family primitives used throughout the sampling and exact-CDF code.

A validated log-space layer over ``scipy.special``: ln P(a, x) survives
shape parameters far into the regime where the regularized lower incomplete
gamma function ``P(a, x)`` underflows in double precision (``log P`` down to
about -1e7).  It is what lets the per-particle laws be evaluated for
particle counts of order 1e5, where the relevant probabilities are as small
as ``exp(-O(n))``.  One loop, ``_left_tail_series``, sums the left-tail
series of gamma(s, x) for ln P and its first moment for the TV bound.

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

# With s >= x the series needs at most about 9 sqrt(x) terms, reached as s -> x
# (416 at n = 1e5 for the TV bound at theta > 1.1); more means a bug.
_MAX_SERIES_TERMS = 100_000


def log_reg_lower_gamma(a, x):
    """ln P(a, x), valid deep into the left tail where P underflows.

    For P above ``_LINEAR_FLOOR`` this is simply ``log(gammainc)``.  Below,
    it switches to the classical left-tail power series

        gamma(a, x) = x^a e^{-x} * sum_{k>=0} x^k / (a (a+1) ... (a+k)),

    summed in linear space (the sum is O(1/a)) and assembled in log space.
    The deep branch only triggers for x well below a, where the series
    converges geometrically; ``_left_tail_series`` sums it.
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
        s, y = aa[deep], xa[deep]
        out[deep] = s * np.log(y) - y - np.log(s) + np.log(_left_tail_series(s, y)[0]) - gammaln(s)
    scalar = np.isscalar(a) and np.isscalar(x)
    return float(out) if scalar or out.ndim == 0 else out


def _left_tail_series(s: np.ndarray, x) -> np.ndarray:
    """Rows sum_k T_k and sum_k k T_k, for T_0 = 1 and T_k = T_{k-1} x/(s+k)
    (DLMF 8.7.1), over a 1-d array s > 0 and x > 0 broadcast to it.

    Cost: sum_j K_j term updates, K_j being entry j's own term count.  The
    entries run sorted by x/s, slowest first, on a live prefix cut back to
    one past the last unconverged entry every 8 terms.  Both sequences fall
    past their modes, so an entry whose T_k and k T_k are at most 1e-18 of
    their sums has converged, and the terms it adds later, below half an
    ulp, round away: each entry equals a scalar run bit for bit, whatever
    the batch.
    """
    order = np.argsort(s / x, kind="stable")
    # rows s, x, T_k, k T_k, the two sums and s + k; the names view the live prefix
    work = np.zeros((7, len(order)))
    work[0] = s[order]
    work[1] = np.broadcast_to(x, s.shape)[order]
    work[2] = work[4] = 1.0
    s, x, t, kt, total, moment, sk = work
    k = 0
    while True:
        if k % 8 == 0 or k >= _MAX_SERIES_TERMS:
            live = np.flatnonzero((t > 1e-18 * total) | (kt > 1e-18 * moment))
            if not len(live):
                break
            if k >= _MAX_SERIES_TERMS:
                raise ArithmeticError("left-tail gamma series did not converge; this is a bug")
            s, x, t, kt, total, moment, sk = work[:, :live[-1] + 1]
        k += 1
        # T_k = T_{k-1} x / (s + k), rounded as written
        np.add(s, k, out=sk)
        t *= x
        t /= sk
        total += t
        np.multiply(t, k, out=kt)
        moment += kt
    sums = np.empty((2, len(order)))
    sums[:, order] = work[4:6]
    return sums
