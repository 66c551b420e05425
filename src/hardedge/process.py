"""Path algebra of the radius-dependent statistic.

Given a configuration (U_1, ..., U_n) and a bounded test function phi, the
statistic

    S(t) = (1/n) * sum_j phi(U_j) * 1[U_j <= t]

is a cadlag step path.  This module builds that path, evaluates it (right
continuously) by binary search, answers first-hitting queries

    Q(h) = inf{ s >= 0 : S(s) > h }      (+inf when the set is empty),

and computes the exact finite-n mean E S(t) = (1/n) sum_j int_0^t phi f_j by
adaptive vector quadrature against the per-particle densities.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import gammaln

from . import ensemble
from .ensemble import EnsembleParams, RadialConfiguration
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

    @property
    def cumulative(self) -> np.ndarray:
        return self._cumulative

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["location", "value"])
        for loc, cum in zip(self.locations, self._cumulative):
            w.writerow([repr(float(loc)), repr(float(cum))])
        return buf.getvalue()


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
    """
    s1 = (1.0 + params.alpha) / params.b
    return float(ensemble._u_from_uniform(params, s1, log_reg_lower_gamma(s1, params.c), eps))


def _checked(integrate, f, a: float, b: float, what: str, **opts):
    """integrate(f, a, b, **opts) for ``quad`` or ``quad_vec``, raising
    ``ArithmeticError`` when the error estimate exceeds max(epsabs, epsrel *
    max|value|)."""
    val, err = integrate(f, a, b, **opts)
    tol = max(opts["epsabs"], opts["epsrel"] * float(np.max(np.abs(val))))
    if not err <= tol:
        raise ArithmeticError(f"{what}: quadrature error estimate {err:.3g} exceeds {tol:.3g}")
    return val


_MEAN_QUAD = dict(epsabs=1e-10, epsrel=1e-12, norm="max")


def mean_exact(params: EnsembleParams, phi: TestFunction, t) -> float:
    """Exact E S(t) = (1/n) sum_j int_0^t phi(x) f_j(x) dx.

    Adaptive Gauss-Kronrod on the vector integrand (one component per
    particle), max-norm error controlled to 1e-10 per component; an error
    estimate above that raises ``ArithmeticError``.  t = +inf is truncated at
    a point beyond the 1 - 1e-14 quantile of every particle, which costs at
    most bound * 1e-14 per component.
    """
    tf = float(t)
    if math.isnan(tf) or tf < 0.0:
        raise ValueError(f"t must be >= 0 (or +inf), got {t!r}")
    if tf == 0.0:
        return 0.0
    upper = tf if math.isfinite(tf) else _tail_cutoff(params, 1e-14)
    shapes = params.shapes()
    log_a2 = (
        shapes * math.log(params.c)
        - gammaln(shapes)
        - log_reg_lower_gamma(shapes, params.c)
    )
    beta = params.beta
    c = params.c

    def integrand(x: float) -> np.ndarray:
        log_f = log_a2 + math.log(beta) - beta * shapes * x - c * math.exp(-beta * x)
        return phi(x) * np.exp(log_f)

    return float(np.mean(_checked(quad_vec, integrand, 0.0, upper, f"mean_exact({tf!r})",
                                  **_MEAN_QUAD)))
