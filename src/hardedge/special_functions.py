"""Gamma-family primitives used throughout the sampling and exact-CDF code.

A validated log-space layer over ``scipy.special``: ln P(a, x) and its
inverse survive shape parameters far into the regime where the regularized
lower incomplete gamma function ``P(a, x)`` underflows in double precision
(``log P`` down to about -1e7).  The pair is what lets the per-particle laws
be evaluated and inverted for particle counts of order 1e5, where the
relevant probabilities are as small as ``exp(-O(n))``.

All functions are pure and reentrant; arrays broadcast in the usual numpy
fashion and scalars come back as Python floats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln

__all__ = [
    "log_reg_lower_gamma",
    "inv_log_reg_lower_gamma",
]

# Below this value of P(a, x) the linear-space representation is unsafe
# (denormals start around 1e-308); the series branch takes over well before.
_LINEAR_FLOOR = 1e-280

_MAX_NEWTON_ITER = 200
_MAX_SERIES_TERMS = 100_000


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) | np.isposinf(arr)):
        raise ValueError(f"{name} must be finite (or +inf where documented), got {x!r}")
    return arr


def log_reg_lower_gamma(a, x):
    """ln P(a, x), valid deep into the left tail where P underflows.

    For P above ``_LINEAR_FLOOR`` this is simply ``log(gammainc)``.  Below,
    it switches to the classical left-tail power series

        gamma(a, x) = x^a e^{-x} * sum_{k>=0} x^k / (a (a+1) ... (a+k)),

    summed in linear space (the sum is O(1/a)) and assembled in log space.
    The deep branch only triggers for x well below a, where the series
    converges geometrically.
    """
    aa = _as_float_array(a, "a")
    xa = _as_float_array(x, "x")
    if np.any(aa <= 0.0) or np.any(xa < 0.0):
        raise ValueError("log_reg_lower_gamma requires a > 0 and x >= 0")
    aa, xa = np.broadcast_arrays(aa, xa)
    out = np.full(aa.shape, -np.inf)
    pos = xa > 0.0
    if pos.any():
        p = np.zeros(aa.shape)
        p[pos] = gammainc(aa[pos], xa[pos])
        lin = pos & (p > _LINEAR_FLOOR)
        out[lin] = np.log(p[lin])
        deep = pos & ~lin
        if deep.any():
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


def inv_log_reg_lower_gamma(a, log_p):
    """Solve ln P(a, x) = log_p for x >= 0 (quantile from a log-probability).

    Dispatches to ``gammaincinv`` whenever exp(log_p) is representable and
    otherwise runs a bracketed Newton iteration in t = ln x, with bisection
    fallback; terminates within ``_MAX_NEWTON_ITER`` sweeps.  log_p = -inf
    maps to 0, log_p = 0 maps to +inf.
    """
    aa = _as_float_array(a, "a")
    la = np.asarray(log_p, dtype=float)
    if np.any(aa <= 0.0):
        raise ValueError("inv_log_reg_lower_gamma requires a > 0")
    if np.any(np.isnan(la)) or np.any(la > 0.0):
        raise ValueError("inv_log_reg_lower_gamma requires log_p <= 0")
    aa, la = np.broadcast_arrays(aa, la)
    out = np.zeros(aa.shape)
    out[la >= 0.0] = np.inf
    mid = (la > math.log(_LINEAR_FLOOR)) & (la < 0.0)
    if mid.any():
        out[mid] = gammaincinv(aa[mid], np.exp(la[mid]))
    deep = np.isfinite(la) & (la <= math.log(_LINEAR_FLOOR))
    if deep.any():
        out[deep] = _inv_log_p_newton(aa[deep], la[deep])
    scalar = np.isscalar(a) and np.isscalar(log_p)
    return float(out) if scalar or out.ndim == 0 else out


def _inv_log_p_newton(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Initial guess from gamma(a,x) ~ x^a e^{-x} / a with the e^{-x} dropped
    # (x << a in this branch). Entries are frozen once converged so results
    # do not depend on what else shares the batch.
    t = (q + np.log(a) + gammaln(a)) / a
    lo = np.full(a.shape, -700.0)
    # P(a, a) > 0.3 for every a > 0, far above the deep threshold, so ln(a)
    # is a valid upper bracket and keeps the series in its fast regime.
    hi = np.log(a)
    t = np.clip(t, lo, hi)
    active = np.ones(a.shape, dtype=bool)
    for _ in range(_MAX_NEWTON_ITER):
        if not active.any():
            break
        ai, qi, ti = a[active], q[active], t[active]
        f = _log_p_series(ai, np.exp(ti)) - qi
        loi, hii = lo[active], hi[active]
        hii = np.where(f > 0.0, np.minimum(hii, ti), hii)
        loi = np.where(f < 0.0, np.maximum(loi, ti), loi)
        # d/dt ln P = exp(a t - e^t - lnGamma(a) - ln P)
        log_der = ai * ti - np.exp(ti) - gammaln(ai) - (f + qi)
        step = -f * np.exp(-np.clip(log_der, -700.0, 700.0))
        tn = ti + np.clip(step, -3.0, 3.0)
        bad = (tn <= loi) | (tn >= hii) | ~np.isfinite(tn)
        tn = np.where(bad, 0.5 * (loi + hii), tn)
        done = np.abs(tn - ti) < 1e-15 * np.maximum(1.0, np.abs(tn))
        t[active], lo[active], hi[active] = tn, loi, hii
        sub = np.flatnonzero(active)
        active[sub[done]] = False
    if active.any():
        raise ArithmeticError("inv_log_reg_lower_gamma Newton failed to converge; this is a bug")
    return np.exp(t)
