"""The limiting Gaussian laws, as mixtures over exponential rates.

The scaled, centered statistic converges to a centered Gaussian process with
covariance cov(t1, t2) = m2(t1 ^ t2) - m12(t1, t2).  The densities omega1(x)
= int_0^1 s e^{-sx} ds = P(2, x)/x^2 and omega2(x) = int_0^1 s^2 e^{-sx} ds =
2 P(3, x)/x^3 (P the regularized lower incomplete gamma function; a Taylor
polynomial below x = 1e-5) mix exponential laws over the rate s, as the
finite-n theory swaps each particle for an exponential variable.  With
Y_s ~ Exp(s) and A_k(t, s) = E phi(Y_s)^k 1[Y_s <= t] = s int_0^t phi^k e^{-sx},
m_k(t) = kappa int_0^t phi^k omega1 = kappa int_0^1 A_k(t, s) ds, m12(t1, t2)
= kappa int_0^1 A_1(t1, s) A_1(t2, s) ds, and

    cov(t1, t2) = kappa int_0^1 Cov(phi(Y_s) 1[Y_s <= t1], phi(Y_s) 1[Y_s <= t2]) ds.

m1 and m2 at any set of points come from one cumulative pass
(:func:`hardedge.quadrature.cumulative`), which also integrates omega1 and
checks it against its closed form 1 + expm1(-t)/t at the largest point; a
residual above tolerance raises ``ArithmeticError``.  Second moments are
read off one table of A_1, A_2 on fixed Gauss-Legendre nodes in s, filled
the same way, with one vector quadrature in x per gap; no quadrature is
nested.  A Gram matrix is a weighted sum of covariance matrices, so it is
positive semidefinite by construction (up to the x tolerance), and it is
built exactly symmetric.  A_k <= phi.bound^k also at t = +inf, so one
absolute tolerance serves every column.  Every integral in x, of m_k and of
the table, goes through :func:`hardedge.quadrature.integrate`, which
evaluates all nodes of a round in one call and raises ``ArithmeticError``
when its error estimate exceeds its tolerance.  For positive phi, tau
inverts m1 below L = m1(inf) at all levels together: the pass gives m1 at
the doubling knots 1, 2, 4, ..., each level is bracketed between two knots
and runs its own safeguarded Newton iteration, and every iterate's m1(t) =
m1(knot) + int_knot^t comes from one batched quadrature over the levels not
yet converged.  By Shorack's delta method the hitting time at level h
behaves as -tau'(h) times the statistic at tau(h), so ``hitting`` reads
tau', the hitting-time Gram matrix tau'(h1) tau'(h2) cov(tau(h1), tau(h2))
and the cross block -tau'(h) cov(t, tau(h)) off one Gram matrix over the
times and tau(levels).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc

from .ensemble import EnsembleParams
from .process import TestFunction
from .quadrature import check_mass, cumulative, integrate

__all__ = ["omega1", "omega2", "LimitLaw", "HittingLimit"]

# The gamma ratios are 0/0 at x = 0 and x^k underflows near 1e-103; below this
# radius the first omitted Taylor term is under 1e-16 relative.
_TAYLOR_RADIUS = 1e-5


def _mixture_density(x, k: int, taylor):
    """int_0^1 s^(k-1) e^{-sx} ds = (k-1)! P(k, x) / x^k for x >= 0."""
    xa = np.asarray(x, dtype=float)
    if not (xa >= 0.0).all():  # also rejects NaN
        raise ValueError(f"omega functions are defined on x >= 0, got {x!r}")
    small = xa < _TAYLOR_RADIUS
    xg = np.where(small, 1.0, xa)
    out = np.where(small, taylor[0] + xa * (taylor[1] + xa * taylor[2]),
                   math.factorial(k - 1) * gammainc(k, xg) / xg**k)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def omega1(x):
    """First mixture density, int_0^1 s e^{-sx} ds = P(2, x)/x^2; a
    probability density."""
    return _mixture_density(x, 2, (1.0 / 2.0, -1.0 / 3.0, 1.0 / 8.0))


def omega2(x):
    """Second mixture density, int_0^1 s^2 e^{-sx} ds = 2 P(3, x)/x^3;
    integrates to 1/2."""
    return _mixture_density(x, 3, (1.0 / 3.0, -1.0 / 4.0, 1.0 / 10.0))


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=300)
_TAU_MAX_ITER = 200

# Rate nodes: 16-point Gauss-Legendre on each geometric panel [0, 2^-11],
# [2^-11, 2^-10], ..., [1/2, 1], which resolve the s ln s of a t = +inf column
# (phi = rational) near s = 0.  The table's max-norm tolerance per unit of its
# largest entry sits above the integrator's rounding estimate, 50 eps times
# the integral of |integrand| (about 1e-14).
_S_PANELS = 12
_TABLE_EPSABS = 1e-12


def _rate_nodes():
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - _S_PANELS, 1)))
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


_S_NODES, _S_WEIGHTS = _rate_nodes()

# tau brackets each level between the doubling knots 0, 1, 2, 4, ..., 2^46.
_TAU_KNOTS = np.concatenate(([0.0], 2.0 ** np.arange(47)))


class HittingLimit(NamedTuple):
    """Limits of the hitting times at a list of levels h."""

    tau: np.ndarray        # tau(h)
    tau_prime: np.ndarray  # tau'(h)
    gram: np.ndarray       # tau'(h_a) tau'(h_b) cov(tau(h_a), tau(h_b))
    cross: np.ndarray      # [i, k] = -tau'(h_k) cov(t_i, tau(h_k)) at the times t_i


class LimitLaw:
    """Evaluators for every limiting object attached to (kappa, phi).

    Only ``params.kappa`` enters the limits; the full parameter set is kept
    for provenance.
    """

    def __init__(self, params: EnsembleParams, phi: TestFunction):
        self.params = params
        self.phi = phi
        self.kappa = params.kappa

    # ---- moments of the limit ------------------------------------------

    def _moment_integrand(self, x: np.ndarray) -> np.ndarray:
        p = self.phi(x)
        w = omega1(x)
        return np.stack((p * w, p * p * w, w), axis=1)

    def moments(self, points) -> np.ndarray:
        """Rows (m1, m2) at every point of ``points`` (any order, repeats and
        +inf allowed), from one cumulative pass.

        The pass also integrates omega1, checked at the largest point t
        against its closed form 1 + expm1(-t)/t (1 at t = +inf) by
        :func:`hardedge.quadrature.check_mass`.
        """
        F = cumulative(self._moment_integrand, points, "m1 and m2", **_QUAD_OPTS)
        t = float(np.max(points, initial=0.0))
        closed = 1.0 + math.expm1(-t) / t if 0.0 < t < math.inf else float(t > 0.0)
        b = self.phi.bound
        check_mass(F, points, closed, "m1 and m2: omega1", 1.0 + b + b * b, **_QUAD_OPTS)
        return self.kappa * F[:, :2].T

    def m1(self, t):
        """kappa * int_0^t phi(x) omega1(x) dx; t may be +inf, or a 1-d array of
        such points, which gives an array."""
        m = self.moments(np.atleast_1d(np.asarray(t, dtype=float)))[0]
        return float(m[0]) if np.ndim(t) == 0 else m

    def _rate_table(self, points):
        """(A_1, A_2, w) with A_k[i, j] = s_j int_0^{points[i]} phi^k e^{-s_j x} dx
        and w_j the node weights; one vector quadrature over (k, j) per gap
        between sorted points, all gaps in one batch."""
        phi, s = self.phi, _S_NODES

        def integrand(x: np.ndarray) -> np.ndarray:
            p = phi(x)[:, None, None]
            e = s * np.exp(-np.multiply.outer(x, s))[:, None, :]
            return np.concatenate((p * e, p * p * e), axis=1)

        tol = _TABLE_EPSABS * max(phi.bound, phi.bound**2)
        table = cumulative(integrand, points, "rate table", epsabs=tol, epsrel=0.0,
                           limit=_QUAD_OPTS["limit"])
        return table[:, 0], table[:, 1], _S_WEIGHTS

    # ---- covariance kernels --------------------------------------------

    def gram_statistic(self, grid) -> np.ndarray:
        """Matrix cov(t_a, t_b) over the points of ``grid`` (any order, +inf
        allowed), exactly symmetric."""
        t = np.asarray(grid, dtype=float)
        a1, a2, w = self._rate_table(t)
        m2 = a2 @ w
        b = a1 * np.sqrt(w)
        gram = np.where(t[:, None] <= t[None, :], m2[:, None], m2[None, :]) - b @ b.T
        return self.kappa * 0.5 * (gram + gram.T)

    @cached_property
    def mass_limit(self) -> float:
        """L = m1(+inf), the total limiting mass (kappa for phi = 1)."""
        return self.m1(np.inf)

    @cached_property
    def _knot_means(self) -> np.ndarray:
        """m1 at the bracketing knots of the inverse mean."""
        return self.m1(_TAU_KNOTS)

    # ---- inverse mean and hitting limit --------------------------------

    def _m1_deriv(self, t):
        return self.kappa * self.phi(t) * omega1(t)

    def tau(self, h):
        """Functional inverse of m1 on [0, L) at a level, or at a 1-d array of
        levels solved together (which gives an array); errors for h >= L,
        where the hitting time diverges."""
        if not self.phi.positive:
            raise ValueError("tau requires a positive test function (strictly increasing m1)")
        levels = np.atleast_1d(np.asarray(h, dtype=float))
        if levels.ndim != 1 or not (levels >= 0.0).all():  # also rejects NaN
            raise ValueError(f"levels must be >= 0 (a number or a 1-d array), got {h!r}")
        top = float(levels.max(initial=0.0))
        if top >= self.mass_limit:
            raise ValueError(f"level {top} is not below the limiting mass L = {self.mass_limit:.12g}"
                             "; the limiting hitting time is infinite there")
        t = self._inverse_mean(levels)
        return float(t[0]) if np.ndim(h) == 0 else t

    def _inverse_mean(self, h: np.ndarray) -> np.ndarray:
        """Bracketed Newton on m1(t) = h with bisection fallback, every level
        on its own iterates; m1(t) = m1(knot) + int_knot^t from one batched
        quadrature over the levels not yet converged."""
        out = np.zeros_like(h)
        live = np.flatnonzero(h > 0.0)
        if not len(live):
            return out
        m = self._knot_means
        if m[-1] <= h.max():
            raise ArithmeticError("failed to bracket the inverse mean; this is a bug")
        k = np.searchsorted(m, h[live], side="right")
        base, m_base = _TAU_KNOTS[k - 1], m[k - 1]
        lo, hi = base, _TAU_KNOTS[k]
        t = 0.5 * (lo + hi)
        for _ in range(_TAU_MAX_ITER):
            f = (m_base + self.kappa * integrate(self._moment_integrand, base, t, "inverse mean",
                                                 **_QUAD_OPTS)[:, 0]) - h[live]
            above = f > 0.0
            lo, hi = np.where(above, lo, t), np.where(above, t, hi)
            d = self._m1_deriv(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_new = np.where(d > 0.0, t - f / d, 0.5 * (lo + hi))
            t_new = np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi))
            out[live] = np.where(f == 0.0, t, t_new)
            keep = (f != 0.0) & ~(np.abs(t_new - t) < 1e-14 * np.maximum(1.0, np.abs(t_new)))
            live, base, m_base, lo, hi, t = (a[keep] for a in (live, base, m_base, lo, hi, t_new))
            if not len(live):
                return out
        raise ArithmeticError(f"inverse mean at levels {h[live]!r} did not converge; this is a bug")

    def hitting(self, levels, times=()) -> HittingLimit:
        """tau, tau', the hitting-time Gram matrix over ``levels`` and the
        cross-covariances with the statistic at ``times``, all from one tau
        solve and one Gram matrix K over (times, tau(levels)): the joint
        covariance is diag(I, -tau') K diag(I, -tau')."""
        tau = self.tau(np.asarray(levels, dtype=float).reshape(-1))
        d = 1.0 / self._m1_deriv(tau)
        times = np.asarray(times, dtype=float).reshape(-1)
        k = len(times)
        gram = self.gram_statistic(np.concatenate((times, tau)))
        return HittingLimit(tau, d, np.outer(d, d) * gram[k:, k:], -gram[:k, k:] * d)
