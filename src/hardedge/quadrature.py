"""Global adaptive Gauss-Kronrod quadrature, vectorised over nodes.

``integrate`` always bisects the subinterval with the largest error estimate,
with QUADPACK's 21-point Gauss-Kronrod rule (qk21) and its error and rounding
estimates, taken in the max norm over the components of a vector integrand.
The integrand sees all nodes of a rule at once: f takes a 1-d array of nodes
and returns an array whose first axis runs over them, so one bisection costs
one numpy call instead of 42 Python calls.  [a, +inf) is mapped onto [0, 1)
by x = a + t/(1 - t).  An error estimate that cannot be brought below its
tolerance raises ``ArithmeticError``; nothing is warned.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["integrate"]

# qk21 on [-1, 1]: the 10-point Gauss nodes sit at the odd positions.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_XK = np.concatenate((_XK, -_XK[-2::-1]))
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WK = np.concatenate((_WK, _WK[-2::-1]))
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_WG = np.concatenate((_WG, _WG[::-1]))
_ROUNDING = 50.0 * np.finfo(float).eps


def _rule(f, lo: np.ndarray, hi: np.ndarray):
    """qk21 on the intervals [lo[i], hi[i]], all nodes in one call of f:
    (values, error estimates, rounding estimates), the estimates in the max
    norm over components."""
    half = 0.5 * (hi - lo)
    fx = np.asarray(f(((lo + half)[:, None] + half[:, None] * _XK).ravel()), dtype=float)
    shape = fx.shape[1:]
    fx = fx.reshape(len(lo), len(_XK), -1)
    with np.errstate(invalid="ignore", over="ignore"):
        resk = _WK @ fx
        resg = _WG @ fx[:, 1::2]
        dev = np.abs(fx)
        resabs = _WK @ dev
        np.subtract(fx, 0.5 * resk[:, None, :], out=dev)
        np.abs(dev, out=dev)
        resasc = _WK @ dev
        # QUADPACK: err = resasc min(1, (200 |resk - resg| / resasc)^1.5),
        # floored at 50 eps resabs; h scales all three
        raw = np.abs(resk - resg)
        ratio = np.divide(200.0 * raw, resasc, out=np.ones_like(raw), where=resasc > 0.0)
        err = np.where(resasc > 0.0, resasc * np.minimum(ratio, 1.0) ** 1.5, raw)
        rnd = _ROUNDING * np.max(resabs, axis=1) * np.abs(half)
        err = np.maximum(np.max(err, axis=1) * np.abs(half), rnd)
    return (resk * half[:, None]).reshape((len(lo),) + shape), err, rnd


def integrate(f, a: float, b: float, what: str, epsabs: float, epsrel: float, limit: int):
    """int_a^b f(x) dx for a <= b (b may be +inf), to max(epsabs, epsrel *
    max|value|) in the max norm.

    f maps a 1-d array of nodes to an array of shape (nodes, ...).  Raises
    ``ArithmeticError`` naming ``what`` when the error estimate is still above
    the tolerance once ``limit`` subintervals are in use, or once the
    rounding estimates alone exceed it.
    """
    a, b = float(a), float(b)
    if math.isinf(b):
        g, origin = f, a

        def f(t):
            d = 1.0 - t
            y = np.asarray(g(origin + t / d), dtype=float)
            return y / (d * d).reshape((-1,) + (1,) * (y.ndim - 1))

        a, b = 0.0, 1.0
    val, err, rnd = _rule(f, np.array([a]), np.array([b]))
    total, err_sum, rnd_sum = val[0], float(err[0]), float(rnd[0])
    heap = [(-err_sum, a, b, total, rnd_sum)]
    while True:
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        if err_sum <= tol:
            return sum(item[3] for item in heap)
        if not math.isfinite(err_sum) or len(heap) >= limit or rnd_sum > tol:
            raise ArithmeticError(f"{what}: quadrature error estimate {err_sum:.3g} exceeds "
                                  f"{tol:.3g} on {len(heap)} subintervals")
        neg_err, lo, hi, old, old_rnd = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        val, err, rnd = _rule(f, np.array([lo, mid]), np.array([mid, hi]))
        total = total + (val[0] + val[1] - old)
        err_sum += float(err[0] + err[1]) + neg_err
        rnd_sum += float(rnd[0] + rnd[1]) - old_rnd
        heapq.heappush(heap, (-float(err[0]), lo, mid, val[0], float(rnd[0])))
        heapq.heappush(heap, (-float(err[1]), mid, hi, val[1], float(rnd[1])))
