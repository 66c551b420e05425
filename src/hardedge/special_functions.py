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
_MODEL_STEPS = 8
_EPS = np.finfo(float).eps
# Deep-branch solves run over slices of this many entries: the solve is per
# entry, so the split changes no value; it bounds the temporaries and lets
# each slice's series stop at its own longest entry.
_DEEP_CHUNK = 1 << 14


def _as_float_array(x, name: str, inf_ok: bool = False) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) | (inf_ok & np.isposinf(arr))):
        raise ValueError(f"{name} must be finite{' (or +inf)' if inf_ok else ''}, got {x!r}")
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
    xa = _as_float_array(x, "x", inf_ok=True)
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

    Dispatches to ``gammaincinv`` whenever exp(log_p) is representable.
    Otherwise it solves in t = ln x, in slices of ``_DEEP_CHUNK`` entries:
    Newton on a series-free model of ln P gives the start, then bracketed
    Halley steps on the series (bisection when a step leaves the bracket)
    run until the residual reaches the rounding scale of its evaluation,
    usually after two series sweeps.  Each entry is solved on its own, so
    results do not depend on the batch or the slicing; more than
    ``_MAX_NEWTON_ITER`` sweeps raise ``ArithmeticError``.  log_p = -inf
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
        out[deep] = _inv_log_p_deep(aa[deep], la[deep])
    scalar = np.isscalar(a) and np.isscalar(log_p)
    return float(out) if scalar or out.ndim == 0 else out


def _inv_log_p_deep(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape)
    for i in range(0, a.size, _DEEP_CHUNK):
        out[i:i + _DEEP_CHUNK] = _inv_log_p_chunk(a[i:i + _DEEP_CHUNK], q[i:i + _DEEP_CHUNK])
    return out


def _inv_log_p_chunk(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Model start, no series: with r = x/(a+1), ln P ~ a t - e^t - ln a -
    # lnGamma(a) - ln(1 - r), the leading series term with its geometric
    # tail.  The model is concave in the deep branch and the power-law guess
    # (e^{-x} dropped) lies left of its root, so Newton climbs to it (within
    # about 1e-7 of the true root in t after 5 steps); a step past ln(a+1),
    # where the model ends, is halved instead.
    lg = gammaln(a)
    c0 = q + np.log(a) + lg
    l1 = np.log1p(a)
    t = np.minimum(c0 / a, np.log(a))
    for _ in range(_MODEL_STEPS):
        x = np.exp(t)
        r = x / (a + 1.0)
        tn = t - (a * t - x - np.log1p(-r) - c0) / (a - x + r / (1.0 - r))
        t = np.where(tn < l1, tn, 0.5 * (t + l1))
    # P(a, a) > 0.3 for every a > 0, far above the deep threshold, so ln(a)
    # is a valid upper bracket and keeps the series in its fast regime.
    lo = np.full(a.shape, -700.0)
    hi = np.log(a)
    t = np.clip(t, lo, hi)
    # Halley steps on f(t) = ln P(e^t) - q with f' = exp(a t - x - lnGamma(a)
    # - ln P) and f'' = f' (a - x - f'), bisecting when a step leaves the
    # bracket.  The series result cancels from terms of size a t, so the
    # residual stop sits at that rounding scale.  Entries are frozen once
    # converged, so results do not depend on what else shares the batch.
    active = np.arange(a.size)
    for _ in range(_MAX_NEWTON_ITER):
        if active.size == 0:
            break
        ai, qi, ti, lgi = a[active], q[active], t[active], lg[active]
        x = np.exp(ti)
        lp = _log_p_series(ai, x)
        f = lp - qi
        ok = np.abs(f) <= 8.0 * _EPS * (np.abs(ai * ti) + x + np.abs(lgi) + np.abs(qi))
        loi = np.where(f < 0.0, np.maximum(lo[active], ti), lo[active])
        hii = np.where(f > 0.0, np.minimum(hi[active], ti), hi[active])
        d1 = np.exp(ai * ti - x - lgi - lp)
        newton = f / d1
        tn = ti - newton / (1.0 - 0.5 * newton * (ai - x - d1))
        bad = (tn <= loi) | (tn >= hii) | ~np.isfinite(tn)
        tn = np.where(bad, 0.5 * (loi + hii), tn)
        tn = np.where(ok, ti, tn)
        done = ok | (np.abs(tn - ti) <= 2.0 * _EPS * np.abs(ti))
        t[active], lo[active], hi[active] = tn, loi, hii
        active = active[~done]
    if active.size:
        raise ArithmeticError("inv_log_reg_lower_gamma Halley iteration failed to converge; this is a bug")
    return np.exp(t)
