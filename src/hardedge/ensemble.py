"""Exact sampling of the hard-edge scaled radial configuration.

A rotationally-invariant determinantal ensemble confined to the disk of
radius ``rho`` has radii distributed like a family of *independent* random
variables.  In hard-edge coordinates the j-th particle is

    U_j = -(n * kappa / b) * ln R_j,

where R_j follows a Gamma(shape s_j, rate c) law conditioned on R_j <= 1,
with shape s_j = (j + alpha) / b and rate c = n * rho^(2b).  Each particle
is sampled exactly by the cheapest of three methods:

- high-index particles (s_j > c) by the paper's exponential coupling: the
  density of U_j is rate e^{-rate x} w(x) / Z_j with w <= 1, so an
  Exp(rate) proposal kept with probability w is exact, and it is rejected
  with probability 1 - Z_j, the total-variation bound of the approximation;
- low-index particles by a Gamma(s_j, 1) proposal kept when it lies below
  the truncation point c, which it does with probability P(s_j, c);
- the O(sqrt(c)) particles near theta = 1, where either rejection would
  stall, by the inverse CDF.

A particle takes a rejection method when that method keeps at least half of
its proposals.  The module also evaluates the exact per-particle CDF/density
in log space, and the exponential approximation's total-variation
diagnostics: the bound as a positive series, the exact distance by
quadrature as its oracle.

Reproducibility: each configuration draws from its own counter-based Philox
stream keyed by (seed, stream), in a fixed order, so it is bit-identical for
a fixed key no matter how sampling work is batched or scheduled.
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
    "sample_configuration",
    "sample_batch",
    "cdf_u",
    "density_u",
    "exp_rate",
    "weight_w",
    "tv_upper_bound",
]

# Uniforms are clamped into [2^-53, 1 - 2^-53] so the inverse CDF never sees
# the p = 0 / p = 1 sentinels and no logarithm sees 0.
_U_LO = 2.0**-53
_U_HI = 1.0 - 2.0**-53

# Smallest acceptance rate for which a particle is sampled by rejection; it
# needs at most 1/_MIN_ACCEPT proposals on average.
_MIN_ACCEPT = 0.5
# Each retry round keeps an entry with probability >= _MIN_ACCEPT, so an
# entry outlasts this many rounds with probability <= 2^-200.
_MAX_ROUNDS = 200

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


def _classes(params: EnsembleParams, shapes, log_p_c):
    """Column indices of the exponential, gamma and inverse-window classes.

    Z = (s - c) e^c c^{-s} Gamma(s) P(s, c) = 1 - TV is the acceptance rate of
    the exponential proposal (s > c only), P(s, c) that of the gamma one.
    """
    c, log_min = params.c, math.log(_MIN_ACCEPT)
    above = shapes > c
    log_z = np.full(shapes.shape, -np.inf)
    sa = shapes[above]
    log_z[above] = np.log(sa - c) + c - sa * math.log(c) + gammaln(sa) + log_p_c[above]
    exp = log_z >= log_min
    gam = ~exp & (log_p_c >= log_min)
    return np.flatnonzero(exp), np.flatnonzero(gam), np.flatnonzero(~(exp | gam))


def _exp_proposal(params: EnsembleParams, rate, prop, accept):
    """U = -ln(prop)/rate, kept when ln(accept) <= ln w(U) = -c (e^{-beta U} - 1 + beta U)."""
    u = np.log(prop)
    u /= -rate
    bu = params.beta * u
    log_w = np.expm1(-bu)
    log_w += bu
    log_w *= -params.c
    return u, np.log(accept) <= log_w


def _gamma_proposal(params: EnsembleParams, x):
    """X ~ Gamma(s, 1) is c R, kept when R <= 1; U = -(n kappa / b) ln(X/c)."""
    return -params.u_scale * (np.log(x) - math.log(params.c)), x <= params.c


def _generator(seed: int, stream: int) -> np.random.Generator:
    if not (0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if not (0 <= int(stream) < 2**64):
        raise ValueError(f"stream must be a 64-bit unsigned integer, got {stream!r}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_stream(seed: int, stream: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of stream (seed, stream)."""
    return _generator(seed, stream).random(count)


def _sample(params: EnsembleParams, js, seed: int, streams):
    """U over the particles ``js`` (columns, repeats allowed), one row per
    stream, and the first-round rejection counts of the exponential and
    gamma classes.

    Each row draws from its own generator, in this order: one uniform per
    column (exponential proposals, inverse-CDF uniforms), one acceptance
    uniform per exponential column, one Gamma(s) proposal per gamma column,
    then per retry round, over the rejected entries in column order, their
    proposal and acceptance uniforms and their gamma proposals.  A row
    therefore depends only on (params, js, seed, its stream).
    """
    shapes = (np.asarray(js, dtype=float) + params.alpha) / params.b
    log_p_c = log_reg_lower_gamma(shapes, params.c)
    exp, gam, win = _classes(params, shapes, log_p_c)
    rate = params.beta * (shapes[exp] - params.c)
    shape_g = shapes[gam]
    gens = [_generator(seed, s) for s in streams]
    m, me = len(shapes), len(exp)
    first = np.empty((len(gens), m + me))
    x = np.empty((len(gens), len(gam)))
    for r, gen in enumerate(gens):
        first[r] = gen.random(m + me)
        x[r] = gen.standard_gamma(shape_g)
    np.maximum(first, _U_LO, out=first)

    u = np.empty((len(gens), m))
    u[:, win] = _u_from_uniform(params, shapes[win], log_p_c[win], first[:, win])
    ue, ok_e = _exp_proposal(params, rate, first[:, exp], first[:, m:])
    ug, ok_g = _gamma_proposal(params, x)
    u[:, exp], u[:, gam] = ue, ug
    rejected = (int(ok_e.size - np.count_nonzero(ok_e)), int(ok_g.size - np.count_nonzero(ok_g)))

    e_rows, e_cols = np.nonzero(~ok_e)
    g_rows, g_cols = np.nonzero(~ok_g)
    row_ends = np.arange(len(gens) + 1)
    rounds = 0
    while e_rows.size or g_rows.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ArithmeticError(f"rejection sampler still rejecting after {_MAX_ROUNDS} "
                                  "retry rounds; this is a bug")
        pu = np.empty((2, e_rows.size))
        xg = np.empty(g_rows.size)
        sg = shape_g[g_cols]
        eo = np.searchsorted(e_rows, row_ends).tolist()
        go = np.searchsorted(g_rows, row_ends).tolist()
        for r in np.union1d(e_rows, g_rows).tolist():
            e0, e1, g0, g1 = eo[r], eo[r + 1], go[r], go[r + 1]
            if e1 > e0:
                pu[:, e0:e1] = gens[r].random((2, e1 - e0))
            if g1 > g0:
                xg[g0:g1] = gens[r].standard_gamma(sg[g0:g1])
        np.maximum(pu, _U_LO, out=pu)
        ue, ok = _exp_proposal(params, rate[e_cols], pu[0], pu[1])
        u[e_rows[ok], exp[e_cols[ok]]] = ue[ok]
        e_rows, e_cols = e_rows[~ok], e_cols[~ok]
        ug, ok = _gamma_proposal(params, xg)
        u[g_rows[ok], gam[g_cols[ok]]] = ug[ok]
        g_rows, g_cols = g_rows[~ok], g_cols[~ok]
    return u, rejected


def sample_configuration(params: EnsembleParams, seed: int, stream: int = 0) -> RadialConfiguration:
    """Sample all n particles independently; bit-reproducible for a fixed key."""
    u = sample_batch(params, seed, [stream])[0]
    return RadialConfiguration(u=u, params=params, seed=int(seed), stream=int(stream))


def sample_batch(params: EnsembleParams, seed: int, streams) -> np.ndarray:
    """Stack of configurations, one row per stream index.

    Row i equals ``sample_configuration(params, seed, streams[i]).u`` bit for
    bit; batching only amortizes the per-parameter constants and the
    arithmetic across rows.
    """
    return _sample(params, np.arange(1, params.n + 1), seed, streams)[0]


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


def _log_norm(params: EnsembleParams, s):
    """ln(a^2 beta) = ln(c^s beta / (Gamma(s) P(s, c))), the constant of ln f_j."""
    log_a2 = s * math.log(params.c) - gammaln(s) - log_reg_lower_gamma(s, params.c)
    return log_a2 + math.log(params.beta)


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
    out = _log_norm(params, s) - params.beta * s * xa - params.c * np.exp(-params.beta * xa)
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
    s = (j + params.alpha) / params.b
    beta, c = params.beta, params.c
    log_norm = _log_norm(params, s)
    val, _ = quad(
        lambda x: abs(math.exp(log_norm - beta * s * x - c * math.exp(-beta * x))
                      - rate * math.exp(-rate * x)),
        0.0,
        np.inf,
        epsabs=1e-11,
        epsrel=1e-9,
        limit=300,
    )
    return 0.5 * float(val)
