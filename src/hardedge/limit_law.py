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

Second moments are read off one table of A_1, A_2 on fixed Gauss-Legendre
nodes in s, filled by one vector quadrature in x per gap between sorted
points; no quadrature is nested.  A Gram matrix is a weighted sum of
covariance matrices, so it is positive semidefinite by construction (up to
the x tolerance), and it is built exactly symmetric.  A_k <= phi.bound^k
also at t = +inf, so one absolute tolerance serves every column.  Every
quadrature raises ``ArithmeticError`` when its error estimate exceeds its
tolerance.  For positive phi, tau inverts m1 (a 1-d quadrature) below
L = m1(inf); the hitting-time limit has covariance tau'(h1) tau'(h2)
cov(tau(h1), tau(h2)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.special import gammainc, roots_legendre

from .ensemble import EnsembleParams
from .process import TestFunction, _checked

__all__ = [
    "omega1",
    "omega2",
    "LimitLaw",
    "GridSample",
    "sample_gaussian_path",
]

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

# Rate nodes: _S_ORDER-point Gauss-Legendre on each geometric panel [0, 2^-11],
# [2^-11, 2^-10], ..., [1/2, 1], which resolve the s ln s of a t = +inf column
# (phi = rational) near s = 0.  The table's max-norm tolerance per unit of its
# largest entry sits above quad_vec's own rounding estimate (about 1e-14).
_S_PANELS = 12
_S_ORDER = 16
_TABLE_EPSABS = 1e-12


def _rate_nodes():
    x, w = roots_legendre(_S_ORDER)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - _S_PANELS, 1)))
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class GridSample:
    """One Gaussian path sampled on a grid."""

    grid: np.ndarray
    values: np.ndarray
    seed: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValueError("grid and values must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def to_csv(self) -> str:
        lines = ["t,value"]
        for t, v in zip(self.grid, self.values):
            lines.append(f"{float(t)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "seed": int(self.seed),
            "grid": [float(t) for t in self.grid],
            "values": [float(v) for v in self.values],
        }
        return json.dumps(payload, sort_keys=True)


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

    def m_k(self, k: int, t) -> float:
        """kappa * int_0^t phi(x)^k omega1(x) dx for k in {1, 2}; t may be +inf."""
        if k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {k}")
        tf = float(t)
        if math.isnan(tf) or tf < 0.0:
            raise ValueError(f"t must be >= 0 (or +inf), got {t!r}")
        if tf == 0.0:
            return 0.0
        phi = self.phi

        def integrand(x: float) -> float:
            return float(phi(x)) ** k * omega1(x)

        return self.kappa * _checked(quad, integrand, 0.0, tf, f"m_{k}({tf!r})", **_QUAD_OPTS)

    def m1(self, t) -> float:
        return self.m_k(1, t)

    def m2(self, t) -> float:
        return self.m_k(2, t)

    def _rate_table(self, points):
        """(A_1, A_2, w) with A_k[i, j] = s_j int_0^{points[i]} phi^k e^{-s_j x} dx
        and w_j the node weights; one vector quadrature over (k, j) per gap
        between sorted points."""
        t = np.asarray(points, dtype=float)
        if t.ndim != 1 or not (t >= 0.0).all():  # also rejects NaN
            raise ValueError(f"points must be a 1-d array of t >= 0 (or +inf), got {points!r}")
        phi = self.phi
        s, w = _rate_nodes()

        def integrand(x: float) -> np.ndarray:
            p = float(phi(x))
            e = s * np.exp(-s * x)
            return np.stack((p * e, p * p * e))

        tol = _TABLE_EPSABS * max(phi.bound, phi.bound**2)
        order = np.argsort(t, kind="stable")
        gaps = np.zeros((len(t), 2, len(s)))
        lo = 0.0
        for i, hi in zip(order, t[order].tolist()):
            if hi > lo:
                gaps[i] = _checked(quad_vec, integrand, lo, hi, f"rate table on [{lo!r}, {hi!r}]",
                                   epsabs=tol, epsrel=0.0, norm="max")
                lo = hi
        table = np.empty_like(gaps)
        table[order] = np.cumsum(gaps[order], axis=0)
        return table[:, 0], table[:, 1], w

    def m12(self, t1, t2) -> float:
        """kappa * int_0^t1 int_0^t2 phi(x1) phi(x2) omega2(x1+x2); the
        arguments are sorted first, so m12(a, b) == m12(b, a) exactly."""
        a1, _, w = self._rate_table(sorted((float(t1), float(t2))))
        return self.kappa * float(np.dot(w * a1[0], a1[1]))

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

    def cov_statistic(self, t1, t2) -> float:
        """Limit covariance of the scaled centered statistic:
        m2(t1 ^ t2) - m12(t1, t2)."""
        return float(self.gram_statistic(sorted((float(t1), float(t2))))[0, 1])

    @cached_property
    def mass_limit(self) -> float:
        """L = m1(+inf), the total limiting mass (kappa for phi = 1)."""
        return self.m1(np.inf)

    # ---- inverse mean and hitting limit --------------------------------

    def _m1_deriv(self, t):
        return self.kappa * self.phi(t) * omega1(t)

    def tau(self, h) -> float:
        """Functional inverse of m1 on [0, L); errors for h >= L, where the
        hitting time diverges."""
        if not self.phi.positive:
            raise ValueError("tau requires a positive test function (strictly increasing m1)")
        hf = float(h)
        if math.isnan(hf) or hf < 0.0:
            raise ValueError(f"level must be >= 0, got {h!r}")
        if hf >= self.mass_limit:
            raise ValueError(f"level {hf} is not below the limiting mass L = {self.mass_limit:.12g}"
                             "; the limiting hitting time is infinite there")
        if hf == 0.0:
            return 0.0
        # bracketed Newton on m1(t) = h with bisection fallback
        lo, hi = 0.0, 1.0
        while self.m1(hi) <= hf:
            lo, hi = hi, 2.0 * hi
            if hi > 1e14:
                raise ArithmeticError("failed to bracket the inverse mean; this is a bug")
        t = 0.5 * (lo + hi)
        for _ in range(_TAU_MAX_ITER):
            f = self.m1(t) - hf
            if f == 0.0:
                return t
            lo, hi = (lo, t) if f > 0.0 else (t, hi)
            d = float(self._m1_deriv(t))
            t_new = t - f / d if d > 0.0 else 0.5 * (lo + hi)
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) < 1e-14 * max(1.0, abs(t_new)):
                return t_new
            t = t_new
        raise ArithmeticError(f"inverse mean at level {h!r} did not converge; this is a bug")

    def tau_prime(self, h) -> float:
        """Derivative of tau: 1 / (kappa * phi(tau(h)) * omega1(tau(h)))."""
        return 1.0 / float(self._m1_deriv(self.tau(h)))

    def gram_hitting(self, levels) -> np.ndarray:
        """Matrix tau'(h_a) tau'(h_b) cov(tau(h_a), tau(h_b)) over ``levels``,
        with tau solved once per level."""
        tau = np.array([self.tau(h) for h in np.asarray(levels, dtype=float)])
        d = 1.0 / self._m1_deriv(tau)
        return np.outer(d, d) * self.gram_statistic(tau)

    def cov_hitting(self, h1, h2) -> float:
        """Limit covariance of the scaled centered hitting time:
        tau'(h1) tau'(h2) cov(tau(h1), tau(h2))."""
        return float(self.gram_hitting(sorted((float(h1), float(h2))))[0, 1])

    def cov_cross(self, t, h) -> float:
        """Limit cross-covariance between the statistic at time t and the
        hitting time at level h: -tau'(h) * cov(t, tau(h))."""
        th = self.tau(h)
        return -self.cov_statistic(t, th) / float(self._m1_deriv(th))


def _cholesky_with_jitter(gram: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.diag(gram))) if len(gram) else 0.0
    jitter = 0.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(gram + jitter * np.eye(len(gram)))
        except np.linalg.LinAlgError:
            jitter = 1e-12 * max(scale, 1.0) * 10.0**attempt
    raise np.linalg.LinAlgError("Gram matrix is not positive semidefinite even after "
                                "jitter escalation")


def sample_gaussian_path(gram, grid, seed: int, stream: int = 0) -> GridSample:
    """Draw a centered Gaussian vector on ``grid`` with covariance ``gram``, a
    symmetric positive-semidefinite matrix such as ``law.gram_statistic(grid)``."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    if np.shape(gram) != (len(g), len(g)):
        raise ValueError(f"gram must have shape {(len(g), len(g))}, got {np.shape(gram)}")
    chol = _cholesky_with_jitter(np.asarray(gram, dtype=float))
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    z = gen.standard_normal(len(g))
    return GridSample(grid=g, values=chol @ z, seed=int(seed))
