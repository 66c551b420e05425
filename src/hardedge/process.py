"""Path algebra of the radius-dependent statistic.

Given a configuration (U_1, ..., U_n) and a bounded test function phi, the
statistic

    S(t) = (1/n) * sum_j phi(U_j) * 1[U_j <= t]

is a cadlag step path.  This module builds that path, evaluates it (right
continuously) by binary search, answers first-hitting queries

    Q(h) = inf{ s >= 0 : S(s) > h }      (+inf when the set is empty),

and computes the exact finite-n mean E S(t) = (1/n) sum_j int_0^t phi f_j by
adaptive vector quadrature against the per-particle densities, one component
per particle: E S over a whole grid of t comes from one cumulative pass
(:func:`hardedge.quadrature.cumulative`) per block of particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .ensemble import EnsembleParams, RadialConfiguration, _log_norm
from .quadrature import cumulative
from .special_functions import log_reg_lower_gamma

__all__ = [
    "TestFunction",
    "StepProcess",
    "build_statistic",
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
        derivative_bound=float(np.max(np.abs(slopes))) if len(slopes) else 0.0,
        name=name,
    )


@dataclass(frozen=True)
class StepProcess:
    """Right-continuous staircase: value at t is the sum of increments at
    locations <= t.  Equal locations are merged at construction, so the jump
    locations are strictly increasing."""

    locations: np.ndarray
    increments: np.ndarray
    nondecreasing: bool

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        inc = np.asarray(self.increments, dtype=float)
        if loc.shape != inc.shape or loc.ndim != 1:
            raise ValueError("locations and increments must be matching 1-d arrays")
        if np.any(np.diff(loc) <= 0.0):
            raise ValueError("jump locations must be strictly increasing")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "_cumulative", np.cumsum(inc))
        loc.setflags(write=False)
        inc.setflags(write=False)

    def value(self, t):
        """S(t), right-continuous; t >= 0 or +inf."""
        ta = np.asarray(t, dtype=float)
        if np.any(np.isnan(ta)):
            raise ValueError("t must not be NaN")
        idx = np.searchsorted(self.locations, ta, side="right")
        cum = np.concatenate(([0.0], self._cumulative))
        out = cum[idx]
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def hitting_time(self, h):
        """First time the path strictly exceeds level h; +inf if never.

        Requires a path built from a positive test function (monotone
        staircase) -- the infimum formula is only meaningful there.
        """
        if not self.nondecreasing:
            raise ValueError("hitting_time requires a nondecreasing path (positive phi)")
        ha = np.asarray(h, dtype=float)
        if np.any(np.isnan(ha)) or np.any(ha < 0.0):
            raise ValueError(f"level must be >= 0, got {h!r}")
        idx = np.searchsorted(self._cumulative, ha, side="right")
        loc = np.concatenate((self.locations, [np.inf]))
        out = loc[idx]
        return float(out) if np.isscalar(h) or out.ndim == 0 else out


def build_statistic(config: RadialConfiguration, phi: TestFunction) -> StepProcess:
    """Step path of (1/n) sum_j phi(U_j) 1[U_j <= t] with ties merged."""
    n = config.params.n
    order = np.argsort(config.u, kind="stable")
    su = config.u[order]
    w = np.asarray(phi(su), dtype=float) / n
    uniq, start = np.unique(su, return_index=True)
    inc = np.add.reduceat(w, start) if len(w) else w
    return StepProcess(locations=uniq, increments=inc, nondecreasing=bool(phi.positive))


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
# Particles per vector quadrature in mean_exact; larger n is split into
# interleaved blocks of at most this many, which keeps the node arrays in
# cache and memory bounded as n grows.
_MEAN_BLOCK = 8192
# np.exp is exactly 0 below this.
_EXP_UNDERFLOW = -746.0


def _weighted_densities(params: EnsembleParams, phi: TestFunction, s: np.ndarray):
    """x -> phi(x) f_j(x) for the particles of shapes s, an array (nodes,
    particles) with the particle axis contiguous.  ln f_j is concave in x with
    its maximum at ln(c/s_j)/beta, so a particle whose maximum over the
    nodes' range lies below the exp underflow is left 0 unevaluated."""
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
            f *= phi(x)[:, None]
        return out

    return integrand


def mean_exact(params: EnsembleParams, phi: TestFunction, t):
    """Exact E S(t) = (1/n) sum_j int_0^t phi(x) f_j(x) dx at t, or at every
    point of a 1-d array t (which gives an array), from one cumulative pass
    (:func:`hardedge.quadrature.cumulative`) per block of particles.

    Adaptive Gauss-Kronrod on the vector integrand (one component per
    particle, every node of a rule in one call), max-norm error controlled to
    1e-10 per component and gap; an error estimate above that raises
    ``ArithmeticError``.  Above _MEAN_BLOCK particles, every k-th particle
    shares one pass, so each block spans the whole support.  t = +inf is
    truncated at a point beyond the 1 - 1e-14 quantile of every particle,
    which costs at most bound * 1e-14 per component.
    """
    points = np.atleast_1d(np.asarray(t, dtype=float))
    total = np.zeros(points.shape)
    if points.size:
        upper = np.where(points == np.inf, _tail_cutoff(params, 1e-14), points)
        shapes = params.shapes()
        blocks = -(-params.n // _MEAN_BLOCK)
        for k in range(blocks):
            integrand = _weighted_densities(params, phi, shapes[k::blocks])
            total += cumulative(integrand, upper, "mean_exact", **_MEAN_QUAD).sum(axis=1)
    m = total / params.n
    return float(m[0]) if np.ndim(t) == 0 else m
