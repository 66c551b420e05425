"""Closed-form and quadrature evaluation of the limiting Gaussian laws.

The scaled, centered statistic converges to a centered Gaussian process with
covariance

    cov(t1, t2) = m2(t1 ^ t2) - m12(t1, t2),

where m_k(t) = kappa * int_0^t phi^k omega1 and m12 is the double integral of
phi(x1) phi(x2) omega2(x1 + x2).  The mixture densities

    omega1(x) = int_0^1 s e^{-sx} ds = (e^x - 1 - x) e^{-x} / x^2,
    omega2(x) = int_0^1 s^2 e^{-sx} ds = 2 (e^x - 1 - x - x^2/2) e^{-x} / x^3,

decay only algebraically (x^-2 and x^-3), so semi-infinite integrals go
through QUADPACK's infinite-interval transformation rather than naive tail
truncation.  For positive phi the mean m1 is strictly increasing with finite
limit L; its inverse tau and the derivative tau' give the hitting-time limit
with covariance tau'(h1) tau'(h2) cov(tau(h1), tau(h2)).

Finite-dimensional samples of either limit process are drawn from the Gram
matrix by Cholesky with a tiny jitter escalation ladder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .ensemble import EnsembleParams
from .process import TestFunction

__all__ = [
    "omega1",
    "omega2",
    "LimitLaw",
    "GridSample",
    "sample_gaussian_path",
]

# Taylor branch below x = 0.05: twelve terms keep the truncation error under
# 1e-25 while the closed forms lose digits to cancellation only below ~0.02.
_SERIES_RADIUS = 0.05
_SERIES_TERMS = 12
_INV_FACT_1 = np.array([1.0 / math.factorial(k + 2) for k in range(_SERIES_TERMS)])
_INV_FACT_2 = np.array([1.0 / math.factorial(k + 3) for k in range(_SERIES_TERMS)])

# Beyond this point e^{-x}(1+x) is negligible next to 1 and expm1 would
# overflow anyway; switch to the multiplied-through form.
_LARGE_X = 30.0


def _omega_eval(x, inv_fact: np.ndarray, which: int):
    xa = np.asarray(x, dtype=float)
    if np.any(np.isnan(xa)) or np.any(xa < 0.0):
        raise ValueError(f"omega functions are defined on x >= 0, got {x!r}")
    out = np.empty(xa.shape)
    small = xa < _SERIES_RADIUS
    if small.any():
        xs = xa[small]
        acc = np.zeros_like(xs)
        for coeff in inv_fact[::-1]:
            acc = acc * xs + coeff
        out[small] = (which * acc) * np.exp(-xs)
    mid = ~small & (xa <= _LARGE_X)
    if mid.any():
        xm = xa[mid]
        if which == 1:
            out[mid] = (np.expm1(xm) - xm) / xm**2 * np.exp(-xm)
        else:
            out[mid] = 2.0 * (np.expm1(xm) - xm - 0.5 * xm**2) / xm**3 * np.exp(-xm)
    big = xa > _LARGE_X
    if big.any():
        xb = xa[big]
        if which == 1:
            out[big] = (1.0 - (1.0 + xb) * np.exp(-xb)) / xb**2
        else:
            out[big] = (2.0 - (2.0 + 2.0 * xb + xb**2) * np.exp(-xb)) / xb**3
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def omega1(x):
    """First mixture density, int_0^1 s e^{-sx} ds; a probability density."""
    return _omega_eval(x, _INV_FACT_1, 1)


def omega2(x):
    """Second mixture density, int_0^1 s^2 e^{-sx} ds; integrates to 1/2."""
    return _omega_eval(x, _INV_FACT_2, 2)


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=300)
_TAU_MAX_ITER = 200


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
    for provenance.  Instances are immutable; the memo caches behind the
    evaluators are thread-safe.
    """

    def __init__(self, params: EnsembleParams, phi: TestFunction):
        self.params = params
        self.phi = phi
        self.kappa = params.kappa
        self._m_cache = lru_cache(maxsize=4096)(self._m_k_impl)
        self._m12_cache = lru_cache(maxsize=4096)(self._m12_impl)
        self._tau_cache = lru_cache(maxsize=4096)(self._tau_impl)

    # ---- moments of the limit ------------------------------------------

    def _m_k_impl(self, k: int, t: float) -> float:
        phi = self.phi

        def integrand(x: float) -> float:
            return float(phi(x)) ** k * omega1(x)

        upper = t if math.isfinite(t) else np.inf
        val, _ = quad(integrand, 0.0, upper, **_QUAD_OPTS)
        return self.kappa * val

    def m_k(self, k: int, t) -> float:
        """kappa * int_0^t phi(x)^k omega1(x) dx for k in {1, 2}; t may be +inf."""
        if k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {k}")
        tf = float(t)
        if math.isnan(tf) or tf < 0.0:
            raise ValueError(f"t must be >= 0 (or +inf), got {t!r}")
        if tf == 0.0:
            return 0.0
        return self._m_cache(int(k), tf)

    def m1(self, t) -> float:
        return self.m_k(1, t)

    def m2(self, t) -> float:
        return self.m_k(2, t)

    def _m12_impl(self, t1: float, t2: float) -> float:
        phi = self.phi

        def inner(x1: float) -> float:
            val, _ = quad(
                lambda x2: float(phi(x2)) * omega2(x1 + x2),
                0.0,
                t2 if math.isfinite(t2) else np.inf,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=300,
            )
            return float(phi(x1)) * val

        val, _ = quad(inner, 0.0, t1 if math.isfinite(t1) else np.inf, epsabs=1e-11,
                      epsrel=1e-10, limit=300)
        return self.kappa * val

    def m12(self, t1, t2) -> float:
        """kappa * int_0^t1 int_0^t2 phi(x1) phi(x2) omega2(x1+x2); symmetric.

        Arguments are canonicalized (sorted) before integrating, so the
        symmetry m12(a, b) == m12(b, a) holds exactly.
        """
        a, b = float(t1), float(t2)
        if math.isnan(a) or math.isnan(b) or a < 0.0 or b < 0.0:
            raise ValueError(f"t1, t2 must be >= 0 (or +inf), got {t1!r}, {t2!r}")
        if a == 0.0 or b == 0.0:
            return 0.0
        lo, hi = (a, b) if a <= b else (b, a)
        return self._m12_cache(lo, hi)

    # ---- covariance kernels --------------------------------------------

    def cov_statistic(self, t1, t2) -> float:
        """Limit covariance of the scaled centered statistic:
        m2(t1 ^ t2) - m12(t1, t2)."""
        return self.m2(min(float(t1), float(t2))) - self.m12(t1, t2)

    @property
    def mass_limit(self) -> float:
        """L = m1(+inf), the total limiting mass (kappa for phi = 1)."""
        return self.m1(np.inf)

    # ---- inverse mean and hitting limit --------------------------------

    def _m1_deriv(self, t: float) -> float:
        return self.kappa * float(self.phi(t)) * omega1(t)

    def _tau_impl(self, h: float) -> float:
        # bracketed Newton on m1(t) = h with bisection fallback
        lo, hi = 0.0, 1.0
        while self.m1(hi) <= h:
            lo = hi
            hi *= 2.0
            if hi > 1e14:
                raise ArithmeticError("failed to bracket the inverse mean; this is a bug")
        t = 0.5 * (lo + hi)
        for _ in range(_TAU_MAX_ITER):
            f = self.m1(t) - h
            if f > 0.0:
                hi = t
            elif f < 0.0:
                lo = t
            else:
                return t
            d = self._m1_deriv(t)
            t_new = t - f / d if d > 0.0 else 0.5 * (lo + hi)
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) < 1e-14 * max(1.0, abs(t_new)):
                return t_new
            t = t_new
        raise ArithmeticError(f"inverse mean at level {h!r} did not converge; this is a bug")

    def tau(self, h) -> float:
        """Functional inverse of m1 on [0, L); errors for h >= L, where the
        hitting time diverges."""
        if not self.phi.positive:
            raise ValueError("tau requires a positive test function (strictly increasing m1)")
        hf = float(h)
        if math.isnan(hf) or hf < 0.0:
            raise ValueError(f"level must be >= 0, got {h!r}")
        if hf >= self.mass_limit:
            raise ValueError(
                f"level {hf} is not below the limiting mass L = {self.mass_limit:.12g}; "
                "the limiting hitting time is infinite there"
            )
        if hf == 0.0:
            return 0.0
        return self._tau_cache(hf)

    def tau_prime(self, h) -> float:
        """Derivative of tau: 1 / (kappa * phi(tau(h)) * omega1(tau(h)))."""
        t = self.tau(h)
        return 1.0 / self._m1_deriv(t)

    def cov_hitting(self, h1, h2) -> float:
        """Limit covariance of the scaled centered hitting time:
        tau'(h1) tau'(h2) cov(tau(h1), tau(h2))."""
        return (
            self.tau_prime(h1)
            * self.tau_prime(h2)
            * self.cov_statistic(self.tau(h1), self.tau(h2))
        )

    def cov_cross(self, t, h) -> float:
        """Limit cross-covariance between the statistic at time t and the
        hitting time at level h: -tau'(h) * cov(t, tau(h))."""
        return -self.tau_prime(h) * self.cov_statistic(t, self.tau(h))

    # ---- Gram matrices ---------------------------------------------------

    def gram_statistic(self, grid) -> np.ndarray:
        return _gram_matrix(self.cov_statistic, grid)

    def gram_hitting(self, levels) -> np.ndarray:
        return _gram_matrix(self.cov_hitting, levels)


def _gram_matrix(kernel, points) -> np.ndarray:
    """Symmetric matrix kernel(p_i, p_j), evaluated once per entry on and above
    the diagonal, row by row."""
    p = np.asarray(points, dtype=float)
    out = np.empty((len(p), len(p)))
    for i1 in range(len(p)):
        for i2 in range(i1, len(p)):
            out[i1, i2] = out[i2, i1] = kernel(p[i1], p[i2])
    return out


def _cholesky_with_jitter(gram: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.diag(gram))) if len(gram) else 0.0
    jitter = 0.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(gram + jitter * np.eye(len(gram)))
        except np.linalg.LinAlgError:
            jitter = 1e-12 * max(scale, 1.0) * 10.0**attempt
    raise np.linalg.LinAlgError(
        "Gram matrix is not positive semidefinite even after jitter escalation"
    )


def sample_gaussian_path(kernel, grid, seed: int, stream: int = 0) -> GridSample:
    """Draw a centered Gaussian vector with Gram matrix kernel(t_i, t_j).

    ``kernel`` is a symmetric positive-semidefinite bivariate callable (for
    example ``law.cov_statistic`` or ``law.cov_hitting``).
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    chol = _cholesky_with_jitter(_gram_matrix(kernel, g))
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    z = gen.standard_normal(len(g))
    return GridSample(grid=g, values=chol @ z, seed=int(seed))
