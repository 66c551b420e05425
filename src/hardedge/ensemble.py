"""Exact sampling of the hard-edge scaled radial configuration.

A rotationally-invariant determinantal ensemble confined to the disk of
radius ``rho`` has radii distributed like a family of *independent* random
variables.  In hard-edge coordinates the j-th particle is

    U_j = -(n * kappa / b) * ln R_j,

where R_j follows a Gamma(shape s_j, rate c) law conditioned on R_j <= 1,
with shape s_j = (j + alpha) / b and rate c = n * rho^(2b).  This module
samples U_j exactly by inverse-CDF (never rejection: the mass beyond the
truncation point dominates for high-index particles, so rejection would
stall), evaluates the exact per-particle CDF/density in log space, and
provides the exponential approximation of the high-index particles together
with its total-variation diagnostics: the bound as a positive series, the
exact distance by quadrature as its oracle.

Reproducibility: uniforms come from counter-based Philox streams keyed by
(seed, stream), so a configuration is bit-identical for a fixed key no
matter how sampling work is batched or scheduled.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln

from .special_functions import (
    inv_log_reg_lower_gamma,
    log_reg_lower_gamma,
)

__all__ = [
    "EnsembleParams",
    "RadialConfiguration",
    "theta",
    "sample_radius_u",
    "sample_configuration",
    "sample_batch",
    "cdf_u",
    "density_u",
    "exp_rate",
    "weight_w",
    "tv_upper_bound",
]

# Uniforms are clamped into [2^-53, 1 - 2^-53] so the inverse CDF never sees
# the p = 0 / p = 1 sentinels.
_U_LO = 2.0**-53
_U_HI = 1.0 - 2.0**-53

# The TV series needs at most about 9 sqrt(c) terms, reached as theta -> 1
# (394 at n = 1e5 for theta > 1.1); more than this means a bug.
_TV_MAX_TERMS = 100_000


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble parameters (alpha, b, rho, n) plus derived constants.

    Constraints: alpha > -1, b > 0, n >= 1, and 0 < rho < b^(-1/(2b)) so the
    hard wall sits strictly inside the droplet.  Derived: kappa = 1 - b*rho^(2b)
    in (0, 1) and c = n * rho^(2b) > 0.
    """

    alpha: float
    b: float
    rho: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be > 0, got {self.b}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        rho_max = self.b ** (-1.0 / (2.0 * self.b))
        if not (math.isfinite(self.rho) and 0.0 < self.rho < rho_max):
            raise ValueError(
                f"hard wall must lie inside the droplet: need 0 < rho < "
                f"b**(-1/(2b)) = {rho_max:.6g}, got rho = {self.rho}"
            )

    @property
    def kappa(self) -> float:
        return 1.0 - self.b * self.rho ** (2.0 * self.b)

    @property
    def c(self) -> float:
        return self.n * self.rho ** (2.0 * self.b)

    @property
    def beta(self) -> float:
        # decay rate of the hard-edge map: U = -ln(R)/beta
        return self.b / (self.n * self.kappa)

    @property
    def u_scale(self) -> float:
        return self.n * self.kappa / self.b

    def shapes(self) -> np.ndarray:
        """Gamma shape parameters s_j = (j + alpha)/b for j = 1..n."""
        return (np.arange(1, self.n + 1, dtype=float) + self.alpha) / self.b

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "b": self.b, "rho": self.rho, "n": int(self.n)}

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleParams":
        return cls(alpha=float(d["alpha"]), b=float(d["b"]), rho=float(d["rho"]), n=int(d["n"]))


@dataclass(frozen=True)
class RadialConfiguration:
    """One sampled hard-edge configuration (U_1, ..., U_n), unordered."""

    u: np.ndarray
    params: EnsembleParams
    seed: int
    stream: int = 0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "u", u)
        if u.shape != (self.params.n,):
            raise ValueError(f"expected {self.params.n} coordinates, got shape {u.shape}")
        if not np.all(np.isfinite(u)) or np.any(u < 0.0):
            raise ValueError("coordinates must be finite and >= 0")
        u.setflags(write=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        p = self.params
        w.writerow(["alpha", "b", "rho", "n", "seed", "stream"])
        w.writerow([repr(p.alpha), repr(p.b), repr(p.rho), p.n, self.seed, self.stream])
        w.writerow(["u"])
        for v in self.u:
            w.writerow([repr(float(v))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RadialConfiguration":
        rows = list(csv.reader(io.StringIO(text)))
        header = dict(zip(rows[0], rows[1]))
        params = EnsembleParams(
            alpha=float(header["alpha"]), b=float(header["b"]),
            rho=float(header["rho"]), n=int(header["n"]),
        )
        u = np.array([float(r[0]) for r in rows[3:] if r], dtype=float)
        return cls(u=u, params=params, seed=int(header["seed"]), stream=int(header["stream"]))

    def to_json(self) -> str:
        payload = {
            "params": self.params.to_dict(),
            "seed": int(self.seed),
            "stream": int(self.stream),
            "u": [float(v) for v in self.u],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RadialConfiguration":
        d = json.loads(text)
        return cls(
            u=np.asarray(d["u"], dtype=float),
            params=EnsembleParams.from_dict(d["params"]),
            seed=int(d["seed"]),
            stream=int(d.get("stream", 0)),
        )


def _check_index(params: EnsembleParams, j) -> np.ndarray:
    ja = np.asarray(j)
    if not np.issubdtype(ja.dtype, np.integer):
        raise IndexError(f"particle index must be an integer, got {j!r}")
    if np.any(ja < 1) or np.any(ja > params.n):
        raise IndexError(f"particle index out of range [1, {params.n}]: {j!r}")
    return ja.astype(float)


def theta(params: EnsembleParams, j):
    """Normalized index theta_j = (j + alpha) / (b n rho^(2b)) for j in [1, n]."""
    ja = _check_index(params, j)
    out = (ja + params.alpha) / (params.b * params.c)
    return float(out) if np.ndim(out) == 0 else out


def _u_from_uniform(params: EnsembleParams, shapes, log_p_c, uniforms) -> np.ndarray:
    """Inverse-CDF map: uniform -> U, all arrays broadcastable.

    Solves P(s, x)/P(s, c) = u for x in log space, then U = -ln(x/c)/beta.
    """
    u = np.clip(np.asarray(uniforms, dtype=float), _U_LO, _U_HI)
    target = np.log(u) + log_p_c
    x = inv_log_reg_lower_gamma(shapes, target)
    return -params.u_scale * (np.log(x) - math.log(params.c))


def sample_radius_u(params: EnsembleParams, j: int, uniform: float) -> float:
    """One exact draw of U_j from its uniform, deterministic in (params, j, uniform)."""
    ja = _check_index(params, j)
    uf = float(uniform)
    if not (0.0 < uf < 1.0):
        raise ValueError(f"uniform must lie strictly inside (0, 1), got {uniform!r}")
    s = (ja + params.alpha) / params.b
    out = _u_from_uniform(params, s, log_reg_lower_gamma(s, params.c), uf)
    return float(out)


def _uniform_stream(seed: int, stream: int, count: int) -> np.ndarray:
    if not (0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if not (0 <= int(stream) < 2**64):
        raise ValueError(f"stream must be a 64-bit unsigned integer, got {stream!r}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(count)


def sample_configuration(params: EnsembleParams, seed: int, stream: int = 0) -> RadialConfiguration:
    """Sample all n particles independently; bit-reproducible for a fixed key."""
    u = sample_batch(params, seed, [stream])[0]
    return RadialConfiguration(u=u, params=params, seed=int(seed), stream=int(stream))


def sample_batch(params: EnsembleParams, seed: int, streams) -> np.ndarray:
    """Stack of configurations, one row per stream index.

    Row i equals ``sample_configuration(params, seed, streams[i]).u`` bit for
    bit; batching only amortizes the special-function calls.
    """
    streams = list(streams)
    uni = np.empty((len(streams), params.n))
    for row, s in enumerate(streams):
        uni[row] = _uniform_stream(seed, s, params.n)
    shapes = params.shapes()
    log_p_c = log_reg_lower_gamma(shapes, params.c)
    return _u_from_uniform(params, shapes[None, :], log_p_c[None, :], uni)


def cdf_u(params: EnsembleParams, j, t):
    """Exact Prob[U_j <= t]; t >= 0 or +inf, broadcastable over j and t."""
    ja = _check_index(params, j)
    ta = np.asarray(t, dtype=float)
    if np.any(np.isnan(ta)) or np.any(ta < 0.0):
        raise ValueError(f"t must be >= 0 (or +inf), got {t!r}")
    s, ta = np.broadcast_arrays((ja + params.alpha) / params.b, ta)
    xt = params.c * np.exp(-params.beta * ta)
    p_c = gammainc(s, params.c * np.ones_like(s))
    out = np.empty(s.shape)
    # Bulk regime: complement difference avoids cancellation when both CDFs
    # are near one; deep regime: everything in log space.
    bulk = p_c > 0.5
    if bulk.any():
        out[bulk] = (gammaincc(s[bulk], xt[bulk]) - gammaincc(s[bulk], params.c)) / p_c[bulk]
    rest = ~bulk
    if rest.any():
        lp_t = log_reg_lower_gamma(s[rest], xt[rest])
        lp_c = log_reg_lower_gamma(s[rest], params.c)
        out[rest] = -np.expm1(lp_t - lp_c)
    out = np.clip(out, 0.0, 1.0)
    scalar = np.isscalar(j) and np.isscalar(t)
    return float(out) if scalar or out.ndim == 0 else out


def log_density_u(params: EnsembleParams, j, x):
    """ln f_j(x) for the law of U_j, assembled fully in log space.

    f_j(x) = a^2 * beta * exp(-beta*s*x) * exp(-c * exp(-beta*x)) with the
    normalizer a^2 = c^s / (Gamma(s) P(s, c)).
    """
    ja = _check_index(params, j)
    xa = np.asarray(x, dtype=float)
    if np.any(np.isnan(xa)) or np.any(xa < 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    s = (ja + params.alpha) / params.b
    log_a2 = s * math.log(params.c) - gammaln(s) - log_reg_lower_gamma(s, params.c)
    out = (
        log_a2
        + math.log(params.beta)
        - params.beta * s * xa
        - params.c * np.exp(-params.beta * xa)
    )
    scalar = np.isscalar(j) and np.isscalar(x)
    return float(out) if scalar or np.ndim(out) == 0 else out


def density_u(params: EnsembleParams, j, x):
    """Density of U_j at x >= 0; integrates to one over [0, inf)."""
    out = np.exp(log_density_u(params, j, x))
    scalar = np.isscalar(j) and np.isscalar(x)
    return float(out) if scalar or np.ndim(out) == 0 else out


def _theta_above_one(params: EnsembleParams, j):
    th = theta(params, j)
    if np.any(np.asarray(th) <= 1.0):
        raise ValueError(
            f"exponential approximation requires theta > 1, got theta = {th!r}"
        )
    return th


def exp_rate(params: EnsembleParams, j):
    """Rate of the approximating exponential law, defined for theta_j > 1."""
    th = _theta_above_one(params, j)
    out = (params.b * params.rho ** (2.0 * params.b) / params.kappa) * (np.asarray(th) - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def weight_w(params: EnsembleParams, x):
    """Reweighting factor tying the exact law of U_j to its exponential
    approximant; equals exp(-c*(e^{-beta x} - 1 + beta x)), in (0, 1],
    non-increasing, and -> 1 pointwise as n grows."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.isnan(xa)) or np.any(xa < 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    bx = params.beta * xa
    out = np.exp(-params.c * (np.expm1(-bx) + bx))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def tv_upper_bound(params: EnsembleParams, j):
    """Upper bound on the total-variation distance between the law of U_j
    and its exponential approximant (theta_j > 1 required), broadcast over j:

        int_0^inf (1 - w(x)) rate e^{-rate x} dx = (c/s) sum_{k>=0} (k+1)/(s+k+1) T_k

    with s = s_j, T_0 = 1 and T_k = T_{k-1} c/(s+k).  The terms are positive
    (the equal 1 - (s-c) e^c c^{-s} gamma(s, c) cancels) and unimodal in k, so
    a term below 1e-17 of its running total is past the mode and adds nothing:
    each entry is independent of the rest of the batch.  The bound dominates
    the exact TV distance and decays like 1/(n rho^(2b) (theta-1)^2).
    """
    _theta_above_one(params, j)
    s = (np.asarray(j, dtype=float) + params.alpha) / params.b
    c = params.c
    t = np.ones_like(s)
    term = 1.0 / (s + 1.0)
    total = term
    k = 0
    while np.any(term > 1e-17 * total):
        k += 1
        if k > _TV_MAX_TERMS:
            raise ArithmeticError("TV bound series did not converge; this is a bug")
        t = t * c / (s + k)
        term = (k + 1) * t / (s + k + 1)
        total = total + term
    out = c / s * total
    return float(out) if np.ndim(out) == 0 else out


def exact_tv_exponential(params: EnsembleParams, j) -> float:
    """Exact TV distance (1/2) * int |f_U - f_E| between U_j and its
    exponential approximant, by adaptive quadrature; oracle for the bound."""
    rate = exp_rate(params, j)
    val, _ = quad(
        lambda x: abs(density_u(params, j, x) - rate * math.exp(-rate * x)),
        0.0,
        np.inf,
        epsabs=1e-11,
        epsrel=1e-9,
        limit=300,
    )
    return 0.5 * float(val)
