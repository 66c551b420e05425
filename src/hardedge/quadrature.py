"""Global adaptive Gauss-Kronrod quadrature, vectorised over nodes and intervals.

``integrate`` always bisects the subinterval with the largest error estimate,
with QUADPACK's 21-point Gauss-Kronrod rule (qk21) and its error and rounding
estimates, taken in the max norm over the components of a vector integrand.
It takes arrays of bounds and integrates every interval of the batch on its
own heap, to its own tolerance, exactly as a call with that interval alone
would: the bisections of one round (one per member still above tolerance)
go to the integrand in one call.  f takes a 1-d array of nodes and returns an
array whose first axis runs over them, so a round costs one numpy call
instead of 42 Python calls per member.  [a, +inf) is mapped onto [0, 1) by
x = a + t/(1 - t).  An error estimate that cannot be brought below its
tolerance raises ``ArithmeticError`` naming the interval; nothing is warned.

``cumulative`` gives int_0^t at every t of a set of points from one batched
``integrate`` over the gaps between the sorted distinct points, then a
cumulative sum.  A single rule on a long finite gap can put all 21 nodes
where the integrand has underflowed, and then accepts a value and an error
estimate of about 0: on [0, 13 899] the smallest node is at 30, so an
integrand that lives on [0, 30] reads as 0.  So each doubling knot 1, 2, 4,
... below the largest finite point that falls in a wide gap (a, b], one with
b > 4 max(a, 1), becomes one more gap end.  Gaps within a factor 4 (a
logspace grid, tau's knots) are integrated as they are; a gap that ends at
+inf is mapped as above.  ``check_mass`` certifies such a pass when one
component has a closed-form integral.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["integrate", "cumulative", "check_mass"]

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


def _rule(f, lo: np.ndarray, hi: np.ndarray, origin: np.ndarray):
    """qk21 on the intervals [lo[i], hi[i]], all nodes in one call of f:
    (values, error estimates, rounding estimates), the estimates in the max
    norm over components.  Where origin[i] is not NaN, [lo[i], hi[i]] lies in
    the t of x = origin[i] + t/(1 - t)."""
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _XK
    tail = np.flatnonzero(~np.isnan(origin))
    if len(tail):
        d = 1.0 - x[tail]
        x[tail] = origin[tail, None] + x[tail] / d
    fx = np.asarray(f(x.ravel()), dtype=float)
    shape = fx.shape[1:]
    fx = fx.reshape(len(lo), len(_XK), math.prod(shape))
    if len(tail):
        fx[tail] = fx[tail] / (d * d)[:, :, None]
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


def integrate(f, a, b, what: str, epsabs: float, epsrel: float, limit: int):
    """int_a^b f(x) dx for a <= b (b may be +inf), to max(epsabs, epsrel *
    max|value|) in the max norm; a and b broadcast to one shape, and the
    result has that shape followed by the integrand's.

    f maps a 1-d array of nodes to an array of shape (nodes, ...).  Raises
    ``ArithmeticError`` naming ``what`` and the interval when an interval's
    error estimate is still above its tolerance once it has ``limit``
    subintervals, or once its rounding estimates alone exceed it.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    tail = np.isinf(b.ravel())
    origin = np.where(tail, a.ravel(), np.nan)
    lo, hi = np.where(tail, 0.0, a.ravel()), np.where(tail, 1.0, b.ravel())
    val, err, rnd = _rule(f, lo, hi, origin)
    shape = val.shape[1:]
    total = val.reshape(len(lo), math.prod(shape)).copy()
    err_sum, rnd_sum = err.tolist(), rnd.tolist()
    heaps = [[item] for item in zip((-err).tolist(), lo.tolist(), hi.tolist(), val, rnd_sum)]
    out = [None] * len(heaps)
    active = list(range(len(heaps)))
    while active:
        tol = np.fmax(epsabs, epsrel * np.abs(total[active]).max(axis=1)).tolist()
        split = []
        for i, t in zip(active, tol):
            if err_sum[i] <= t:
                out[i] = sum(item[3] for item in heaps[i])
            elif not math.isfinite(err_sum[i]) or len(heaps[i]) >= limit or rnd_sum[i] > t:
                raise ArithmeticError(
                    f"{what} on [{float(a.flat[i])!r}, {float(b.flat[i])!r}]: quadrature error "
                    f"estimate {err_sum[i]:.3g} exceeds {t:.3g} on {len(heaps[i])} subintervals")
            else:
                split.append(i)
        if not split:
            break
        items = [heapq.heappop(heaps[i]) for i in split]
        edges = np.array([(left, 0.5 * (left + right), right) for _, left, right, _, _ in items])
        val, err, rnd = _rule(f, edges[:, :2].ravel(), edges[:, 1:].ravel(),
                              np.repeat(origin[split], 2))
        pair = val.reshape(len(split), 2, -1)
        old = np.array([item[3] for item in items]).reshape(len(split), -1)
        total[split] = total[split] + (pair[:, 0] + pair[:, 1] - old)
        err, rnd, edges = err.tolist(), rnd.tolist(), edges.tolist()
        for k, (i, item, (left, mid, right)) in enumerate(zip(split, items, edges)):
            e0, e1, r0, r1 = err[2 * k], err[2 * k + 1], rnd[2 * k], rnd[2 * k + 1]
            err_sum[i] += (e0 + e1) + item[0]
            rnd_sum[i] += (r0 + r1) - item[4]
            heapq.heappush(heaps[i], (-e0, left, mid, val[2 * k], r0))
            heapq.heappush(heaps[i], (-e1, mid, right, val[2 * k + 1], r1))
        active = split
    return np.reshape(np.array(out), a.shape + shape)[()]


def cumulative(f, points, what: str, **opts) -> np.ndarray:
    """int_0^t f at every t of ``points`` (a 1-d array in any order, repeats
    and +inf allowed): rows in the order of ``points``, each of the
    integrand's shape.  ``opts`` go to :func:`integrate` for every gap."""
    t = np.asarray(points, dtype=float)
    if t.ndim != 1 or not (t >= 0.0).all():  # also rejects NaN
        raise ValueError(f"points must be a 1-d array of t >= 0 (or +inf), got {points!r}")
    ends = np.unique(t)
    top = ends[np.isfinite(ends)].max(initial=0.0)
    knots = 2.0 ** np.arange(np.frexp(top)[1])  # 1, 2, 4, ... up to top
    gap = np.searchsorted(ends, knots)  # ends[gap - 1] < knot <= ends[gap]
    wide = ends[gap] > 4.0 * np.maximum(np.where(gap > 0, ends[gap - 1], 0.0), 1.0)
    ends = np.union1d(ends, knots[wide])
    starts = np.concatenate(([0.0], ends[:-1]))
    return np.cumsum(integrate(f, starts, ends, what, **opts), axis=0)[np.searchsorted(ends, t)]


def check_mass(F, points, closed: float, what: str, scale: float, slack: float = 0.0, **opts):
    """Certificate for F = :func:`cumulative` over ``points`` with tolerances
    ``opts``, whose last component integrates to ``closed`` on [0, max points]
    in closed form.  A residual above the summed gap tolerances, at most
    epsabs per gap (the distinct points and doubling knots) plus epsrel *
    scale (scale bounding the sum of the components' absolute integrals),
    plus ``slack`` raises ``ArithmeticError``."""
    if not len(F):
        return
    t = np.asarray(points, dtype=float)
    top = t[np.isfinite(t)].max(initial=0.0)
    gaps = len(np.unique(t)) + max(int(np.frexp(top)[1]), 0)
    tol = gaps * opts["epsabs"] + opts["epsrel"] * scale + slack
    mass = float(F[np.argmax(t), -1])
    if not abs(mass - closed) <= tol:
        raise ArithmeticError(f"{what} integrates to {mass!r} on [0, {float(t.max())!r}], not "
                              f"{closed!r}: residual {abs(mass - closed):.3g} above {tol:.3g}")
