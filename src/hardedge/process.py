"""The radius-dependent statistic, its hitting times and its exact mean.

Given configurations (U_1, ..., U_n) and a bounded test function phi, the
statistic

    S(t) = (1/n) * sum_j phi(U_j) * 1[U_j <= t]

is a right-continuous step path in t, and for positive phi its first-hitting
time is

    Q(h) = inf{ s >= 0 : S(s) > h }      (+inf when the set is empty).

:func:`statistic_paths` reduces a whole block of configurations to S on a
grid, S(+inf) and Q at a set of levels; every campaign runs it.
:func:`mean_exact` computes the exact finite-n mean E S(t) = int_0^t phi g_n,
with g_n = (1/n) sum_j f_j the density of a particle chosen at random: E S
over a whole grid of t comes from one cumulative pass
(:func:`hardedge.quadrature.cumulative`) over (phi g_n, g_n), and the
integral of g_n is checked against its closed form (1/n) sum_j cdf_u(j, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .ensemble import EnsembleParams, _log_norm, cdf_u
from .quadrature import check_mass, cumulative
from .special_functions import log_reg_lower_gamma

__all__ = [
    "TestFunction",
    "statistic_paths",
    "mean_exact",
    "phi_one",
    "phi_exp_decay",
    "phi_rational",
    "phi_from_table",
]


@dataclass(frozen=True)
class TestFunction:
    """Bounded measurable test function with its certified metadata.

    ``bound`` is a sup-norm bound, ``positive`` certifies phi > 0 (needed for
    hitting times), and ``derivative_bound`` (optional) certifies a locally
    bounded derivative (needed for centering at the limit mean).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    bound: float
    positive: bool
    derivative_bound: Optional[float] = None
    name: str = "phi"

    def __post_init__(self):
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"bound must be a positive finite number, got {self.bound}")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _const_one(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def phi_one() -> TestFunction:
    """phi = 1: S(t) becomes the normalized counting statistic."""
    return TestFunction(fn=_const_one, bound=1.0, positive=True, derivative_bound=0.0, name="one")


class _ExpDecay:
    def __init__(self, lam: float):
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"exp_decay rate must be > 0, got {lam}")
        self.lam = lam

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.lam * x)


def phi_exp_decay(lam: float = 1.0) -> TestFunction:
    return TestFunction(
        fn=_ExpDecay(lam), bound=1.0, positive=True, derivative_bound=lam,
        name=f"exp_decay({lam:g})",
    )


def _rational(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + x)


def phi_rational() -> TestFunction:
    return TestFunction(fn=_rational, bound=1.0, positive=True, derivative_bound=1.0, name="rational")


class _TableInterp:
    """Piecewise-linear interpolant, constant beyond the table's ends."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.x, self.y)


def phi_from_table(x, y, name: str = "table") -> TestFunction:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("table needs matching 1-d x and y with at least two knots")
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise ValueError("table entries must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("table x-knots must be strictly increasing")
    if np.any(y <= 0.0):
        raise ValueError("table values must be positive (hitting times need phi > 0)")
    slopes = np.diff(y) / np.diff(x)
    return TestFunction(
        fn=_TableInterp(x, y),
        bound=float(np.max(np.abs(y))),
        positive=True,
        derivative_bound=float(np.max(np.abs(slopes))),
        name=name,
    )


def _bins(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of points of the nondecreasing ``grid`` below each u, as
    intp: ``np.searchsorted(grid, u)`` bit for bit, without copying a strided u.

    A branchless binary search over the grid padded with +inf to 2^k - 1
    points, k = ceil(log2(G + 1)).  Each pass fixes one more bit of the count:
    the first compares u with the middle point, a scalar; a later pass with
    half-width h compares u with pad[(2b + 1)h - 1], the middle of the range
    that the bits b found so far leave open.  G = 0 gives zeros.
    """
    k = len(grid).bit_length()
    if k == 0:
        return np.zeros(u.shape, dtype=np.intp)
    pad = np.full(2**k - 1, np.inf)
    pad[:len(grid)] = grid
    h = 1 << (k - 1)
    step = pad[h - 1] < u
    bins = step.astype(np.intp)
    while h > 1:
        h >>= 1
        np.less(pad[h - 1::2 * h].take(bins), u, out=step)
        bins <<= 1
        bins += step
    return bins


def statistic_paths(u, phi: TestFunction, grid, levels=(), n: Optional[int] = None):
    """(S, S_inf, Q) for the configurations ``u``, an (M, m) array of rows
    (U_1, ..., U_m): S (M, G) holds S(t) at the points t of ``grid``, S_inf
    (M,) holds S(+inf), and Q (M, H) the hitting times Q(h) at ``levels``.
    Each particle weighs phi(U_j)/n, where ``n`` is the ensemble size, m by
    default; a campaign that samples only the m particles that can reach its
    grid passes the full n, and its sums then leave out the others.

    Each row is binned once against the grid with ``_bins``, which reads a
    strided u in place, and one bincount sums the weights phi(U_j)/n of every
    (row, bin) pair, so temporaries stay O(M x n) whatever the grid size.
    With levels, the rows of ``u`` are sorted in place first (a float64 ``u``
    must be writable; any other is converted, and the copy sorted), so Q is
    the cumulative weight and one comparison per level; without levels ``u``
    is left as it is.

    Raises ``ValueError`` for a grid that is not nondecreasing or holds NaN
    (repeated points are allowed), a NaN or negative level, levels with a
    phi not certified positive, a NaN or negative U, and n below m.
    """
    u = np.asarray(u, dtype=float)
    grid = np.asarray(grid, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"configurations must be an (M, n) array, got shape {u.shape}")
    if np.isnan(grid).any() or np.any(grid[1:] < grid[:-1]):
        raise ValueError("grid must be sorted ascending, without NaN")
    if not np.all(levels >= 0.0):
        raise ValueError("levels must be >= 0 and not NaN")
    if len(levels) and not phi.positive:
        raise ValueError("hitting times need a positive phi")
    if u.size and not np.min(u) >= 0.0:
        raise ValueError("coordinates must be >= 0 and not NaN")
    M, m = u.shape
    n = m if n is None else n
    if n < m:
        raise ValueError(f"ensemble size n = {n} is below the {m} particles given")
    G = len(grid)
    if len(levels):
        u.sort(axis=1)
    w = np.asarray(phi(u), dtype=float) / n
    r = np.arange(M)
    # bin b of row r holds the particles with grid[b-1] < u <= grid[b];
    # bin G holds those beyond the grid
    bins = _bins(grid, u)
    bins += r[:, None] * (G + 1)
    mass = np.bincount(bins.ravel(), weights=w.ravel(), minlength=M * (G + 1))
    S = np.cumsum(mass.reshape(M, G + 1)[:, :G], axis=1)
    Q = np.empty((M, len(levels)))
    if len(levels):
        su = np.concatenate((u, np.full((M, 1), np.inf)), axis=1)
        cum = np.cumsum(w, axis=1)
        for k, h in enumerate(levels):
            Q[:, k] = su[r, np.count_nonzero(cum <= h, axis=1)]
    return S, np.sum(w, axis=1), Q


def _tail_cutoff(params: EnsembleParams, eps: float) -> float:
    """T with Prob[U_j > T] <= eps for every particle j.

    The truncated gamma laws are likelihood-ratio ordered in s_j, so U_j is
    stochastically decreasing in j and particle 1 has the largest quantile.
    Prob[U_1 > T] = P(s_1, y)/P(s_1, c) with y = c e^{-beta T}, and
    P(s, y) <= y^s / Gamma(s + 1), so ln y = (ln eps + lnGamma(s_1 + 1) +
    ln P(s_1, c)) / s_1 is enough; it stays in log space where y underflows.
    """
    s1 = (1.0 + params.alpha) / params.b
    log_y = (math.log(eps) + gammaln(s1 + 1.0) + log_reg_lower_gamma(s1, params.c)) / s1
    return float((math.log(params.c) - log_y) / params.beta)


_MEAN_QUAD = dict(epsabs=1e-10, epsrel=1e-12, limit=1000)
# Nodes per evaluation of the particle densities: a (16, n) temporary.
_MEAN_CHUNK = 16
# np.exp is exactly 0 below this.
_EXP_UNDERFLOW = -746.0


def _weighted_densities(params: EnsembleParams, s: np.ndarray):
    """x -> f_j(x) for the particles of shapes s, an array (nodes, particles)
    with the particle axis contiguous.  ln f_j is concave in x with its
    maximum at ln(c/s_j)/beta, so a particle whose maximum over the nodes'
    range lies below the exp underflow is left 0 unevaluated."""
    log_norm = _log_norm(params, s)
    rates = -params.beta * s
    c, beta = params.c, params.beta
    mode = np.log(c / s) / beta

    def integrand(x: np.ndarray) -> np.ndarray:
        xm = np.clip(mode, x.min(), x.max())
        live = np.flatnonzero(log_norm + rates * xm - c * np.exp(-beta * xm) > _EXP_UNDERFLOW)
        out = np.zeros((len(x), len(s)))
        if len(live):
            cols = slice(live[0], live[-1] + 1)
            f = out[:, cols]
            np.multiply.outer(x, rates[cols], out=f)
            f += log_norm[cols]
            f -= (c * np.exp(-beta * x))[:, None]
            np.exp(f, out=f)
        return out

    return integrand


def mean_exact(params: EnsembleParams, phi: TestFunction, t):
    """Exact E S(t) = int_0^t phi g_n at t, or at every point of a 1-d array t
    (which gives an array), where g_n = (1/n) sum_j f_j is the density of a
    particle chosen at random: one cumulative pass
    (:func:`hardedge.quadrature.cumulative`) over (phi g_n, g_n), with g_n
    summed over the particles _MEAN_CHUNK nodes at a time.  Max-norm error
    estimate to 1e-10 per gap, or ``ArithmeticError``.  t = +inf is truncated
    beyond the 1 - 1e-14 quantile of every particle (and every finite t),
    which costs at most bound * 1e-14.

    Certificate: every gap feeds int_0^T g_n at the largest point T, which is
    (1/n) sum_j cdf_u(j, T) in closed form (1 at t = +inf, up to the 1e-14
    tail).  Where cdf_u works in log space, ln P(s, x) is assembled from terms
    as large as s |ln x|, x and lnGamma(s), each good to a few eps of its
    size; that bound at the largest shape s_n is the closed form's own error
    (3.7e-9 at n = 1e5, where the worst particle is 2.7e-10 off mpmath).
    :func:`hardedge.quadrature.check_mass` compares the two.
    """
    points = np.atleast_1d(np.asarray(t, dtype=float))
    if not points.size:
        return points.copy()
    at_inf = points == np.inf
    top = points.max()
    if at_inf.any():
        top = max(_tail_cutoff(params, 1e-14), points[~at_inf].max(initial=0.0))
    upper = np.where(at_inf, top, points)
    density = _weighted_densities(params, params.shapes())

    def integrand(x: np.ndarray) -> np.ndarray:
        g = np.concatenate([density(x[k:k + _MEAN_CHUNK]).sum(axis=1)
                            for k in range(0, len(x), _MEAN_CHUNK)]) / params.n
        return np.stack((phi(x) * g, g), axis=1)

    F = cumulative(integrand, upper, "mean_exact", **_MEAN_QUAD)
    closed, slack = 1.0, 1e-14
    if not at_inf.any():
        closed = float(np.mean(cdf_u(params, np.arange(1, params.n + 1), top)))
        s = (params.n + params.alpha) / params.b
        size = s * (2.0 * abs(math.log(params.c)) + params.beta * top) + 2.0 * (
            params.c + math.lgamma(s))
        slack = 4.0 * np.finfo(float).eps * size
    check_mass(F, upper, closed, "mean_exact: the mean density", 1.0 + phi.bound, slack,
               **_MEAN_QUAD)
    m = F[:, 0]
    return float(m[0]) if np.ndim(t) == 0 else m
