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
- low-index particles by a Gamma(s_j, 1) proposal (Marsaglia-Tsang, from a
  normal and a uniform) kept when it lies below the truncation point c,
  which it does with probability P(s_j, c); below s_j = 1 the proposal is
  drawn in log space so it cannot underflow to 0;
- the O(sqrt(c)) particles near theta = 1, where either rejection would
  stall, by the inverse CDF.

A particle takes a rejection method when that method keeps at least half of
its proposals.  Z_j rises with j and P(s_j, c) falls, so the three classes
are index ranges split at two edges, both within O(sqrt(c)) of theta = 1;
a sampler call evaluates ln P only on a bracket of O(sqrt(c)) indices
around them.  The module also evaluates the exact per-particle
CDF/density in log space, and the exponential approximation's
total-variation diagnostics: the bound as a positive series, the exact
distance by quadrature as its oracle.

Reproducibility: each configuration draws from its own counter-based Philox
stream keyed by (seed, stream), in a fixed order: one draw holds its
first-round uniforms and a reservoir for the retry rounds, and a row that
exhausts its reservoir refills from its own substream.  A configuration is
therefore bit-identical for a fixed key no matter how sampling work is
batched or scheduled.  Seeds and streams must be integers in [0, 2^64).
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln, ndtri

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
# Each retry round keeps an entry with probability >= _MIN_ACCEPT times the
# Marsaglia-Tsang acceptance rate (> 0.95), so an entry outlasts this many
# rounds with probability below 2^-200.
_MAX_ROUNDS = 200
# Retry slots per row, drawn with its first-round uniforms:
# ceil(_RESERVOIR (sqrt(c) + 8)).  A row's expected retry demand is O(sqrt(c)),
# the rejections of the particles within O(sqrt(c)) of theta = 1; a row that
# needs more draws a refill from its own substream.
_RESERVOIR = 4.0

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


def _classes(params: EnsembleParams, js):
    """Column indices of the exponential, gamma and inverse-window classes of
    the particles ``js`` (any order, repeats allowed), and ln P(s, c) of the
    window columns.

    Z = (s - c) e^c c^{-s} Gamma(s) P(s, c) = 1 - TV is the acceptance rate of
    the exponential proposal (s > c only) and rises with j; P(s, c), that of
    the gamma one, falls with j.  So the gamma class is j <= an edge near
    theta = 1 and the exponential class j >= an edge O(sqrt(c)) above it.
    Both edges come from one vectorised evaluation on a bracket of about
    3 b sqrt(c) indices either side of j = b c - alpha, doubled until its
    lowest entry is gamma class (or j = 1) and its highest exponential class
    (or j = n); each column is then placed by comparing its j with the edges.
    The window lies inside the bracket, so its ln P is read from there.
    """
    c, n, log_min = params.c, params.n, math.log(_MIN_ACCEPT)
    mid = min(max(round(params.b * c - params.alpha), 1), n)
    half = math.ceil(3.0 * params.b * math.sqrt(c))
    while True:
        lo, hi = max(mid - half, 1), min(mid + half, n)
        j = np.arange(lo, hi + 1)
        s = (j + params.alpha) / params.b
        log_p = log_reg_lower_gamma(s, c)
        above = s > c
        sa = s[above]
        log_z = np.full(s.shape, -np.inf)
        log_z[above] = np.log(sa - c) + c - sa * math.log(c) + gammaln(sa) + log_p[above]
        exp = log_z >= log_min
        gam = ~exp & (log_p >= log_min)
        if (gam[0] or lo == 1) and (exp[-1] or hi == n):
            break
        half *= 2
    first_exp = j[exp][0] if exp.any() else n + 1
    last_gam = j[gam][-1] if gam.any() else 0
    ja = np.asarray(js)
    e, g = ja >= first_exp, ja <= last_gam
    win = np.flatnonzero(~(e | g))
    return np.flatnonzero(e), np.flatnonzero(g), win, log_p[ja[win] - lo]


def _exp_proposal(params: EnsembleParams, rate, prop, accept):
    """U = -ln(prop)/rate, kept when ln(accept) <= ln w(U) = -c (e^{-beta U} - 1 + beta U)."""
    u = np.log(prop)
    u /= -rate
    bu = params.beta * u
    log_w = np.expm1(-bu)
    log_w += bu
    log_w *= -params.c
    return u, np.log(accept) <= log_w


def _gamma_proposal(params: EnsembleParams, shapes, z, accept, v):
    """Marsaglia-Tsang Gamma(d, 1) proposal X = c R, kept when R <= 1.

    d = s, except where s < 1: there d = s + 1 and ln X = ln Y + ln(V)/s with
    Y ~ Gamma(s + 1, 1) and the uniforms ``v`` (one per s < 1 entry, in
    order), so X = Y V^{1/s} cannot underflow to 0.  The normal is ndtri(z);
    with a = d - 1/3 and t = 1 + normal/sqrt(9a), Y = a t^3 is kept when
    t > 0 and ln(accept) < normal^2/2 + a (1 - t^3 + 3 ln t).  Returns
    U = -(n kappa / b) ln(X/c), the Marsaglia-Tsang verdict, and that verdict
    and ln X <= ln c together.
    """
    small = shapes < 1.0
    a = np.where(small, shapes + 1.0, shapes) - 1.0 / 3.0
    x = ndtri(z)
    t = x / np.sqrt(9.0 * a)
    t += 1.0
    log_t = np.log(t, out=np.full(t.shape, -np.inf), where=t > 0.0)
    log_x = np.log(a) + 3.0 * log_t
    if np.any(small):
        log_x[..., small] += np.log(v) / shapes[small]
    mt = np.log(accept) < 0.5 * x * x + a * (1.0 - t * t * t + 3.0 * log_t)
    log_c = math.log(params.c)
    return -params.u_scale * (log_x - log_c), mt, mt & (log_x <= log_c)


def _keys(seed, streams) -> np.ndarray:
    """Philox keys (seed, stream), one row per stream; seed and streams must be
    integers in [0, 2^64)."""
    def check(name, value):
        try:
            k = operator.index(value)
        except TypeError:
            k = -1
        if not 0 <= k < 2**64:
            raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
        return k

    seed = check("seed", seed)
    return np.array([(seed, check("stream", s)) for s in streams], dtype=np.uint64).reshape(-1, 2)


def _row_uniforms(gen: np.random.Generator, key: np.ndarray, refill: int, out: np.ndarray):
    """Fill ``out`` with uniforms from the Philox stream ``key``: its first draw
    from counter 0, refill k from counter high word k.  Re-keying gives the
    same stream as a fresh ``Philox(key=key)`` without seeding one."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, 0, refill], dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    gen.random(out=out)


def _sample(params: EnsembleParams, js, seed: int, streams):
    """U over the particles ``js`` (columns, repeats allowed), one row per
    stream, and three first-round counts: exponential rejections, gamma
    truncation rejections among Marsaglia-Tsang acceptances, and those
    acceptances per gamma column.

    Each row makes one Philox draw from its own stream, in this order: one
    uniform per column (exponential proposals, gamma normals, inverse-CDF
    uniforms), one acceptance uniform per exponential column, one per gamma
    column, one uniform per gamma column of shape s < 1, then a reservoir of
    retry slots, three uniforms each.  Every retry round runs over the whole
    block: each rejected entry takes its row's next unused slot, in column
    order, and draws its proposal (or normal), acceptance uniform and, where
    s < 1, V from it.  A row with more rejected entries than unused slots
    drops those slots and draws max(slots, entries) fresh ones from its own
    substream (counter high word = the row's refill count).  A row therefore
    depends only on (params, js, seed, its stream).  ln P(s, c) is evaluated
    only on the class-edge bracket.
    """
    shapes = (np.asarray(js, dtype=float) + params.alpha) / params.b
    exp, gam, win, log_p_win = _classes(params, js)
    m, me, mg = len(shapes), len(exp), len(gam)
    shape_g = shapes[gam]
    width = m + me + mg + int(np.count_nonzero(shape_g < 1.0))
    slots = math.ceil(_RESERVOIR * (math.sqrt(params.c) + 8.0))
    keys = _keys(seed, streams)
    rows = len(keys)
    gen = np.random.Generator(np.random.Philox(0))
    first = np.empty((rows, width + 3 * slots))
    for r in range(rows):
        _row_uniforms(gen, keys[r], 0, first[r])
    head = first[:, :width]
    np.maximum(head, _U_LO, out=head)

    rate = np.zeros(m)
    rate[exp] = params.beta * (shapes[exp] - params.c)
    u = np.empty((rows, m))
    u[:, win] = _u_from_uniform(params, shapes[win], log_p_win, first[:, win])
    u[:, exp], ok_e = _exp_proposal(params, rate[exp], first[:, exp], first[:, m:m + me])
    u[:, gam], mt, ok_g = _gamma_proposal(params, shape_g, first[:, gam],
                                          first[:, m + me:m + me + mg], first[:, m + me + mg:width])
    counts = (int(ok_e.size - np.count_nonzero(ok_e)), int(np.count_nonzero(mt & ~ok_g)),
              np.count_nonzero(mt, axis=0))

    pending = np.zeros((rows, m), dtype=bool)
    pending[:, exp], pending[:, gam] = ~ok_e, ~ok_g
    p_rows, p_cols = np.nonzero(pending)
    is_exp = np.zeros(m, dtype=bool)
    is_exp[exp] = True
    res = first[:, width:].reshape(rows * slots, 3)
    cursor = np.arange(rows) * slots    # each row's next unused slot in res
    free = np.full(rows, slots)
    refills = [0] * rows
    rounds = 0
    while p_rows.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ArithmeticError(f"rejection sampler still rejecting after {_MAX_ROUNDS} "
                                  "retry rounds; this is a bug")
        need = np.bincount(p_rows, minlength=rows)
        fresh, top = [], len(res)
        for r in np.flatnonzero(need > free).tolist():
            refills[r] += 1
            fresh.append(np.empty((max(slots, int(need[r])), 3)))
            _row_uniforms(gen, keys[r], refills[r], fresh[-1].reshape(-1))
            cursor[r], free[r] = top, len(fresh[-1])
            top += len(fresh[-1])
        if fresh:
            res = np.concatenate([res, *fresh])
        # entries are sorted by (row, column): rank within the row picks the slot
        rank = np.arange(p_rows.size) - (np.cumsum(need) - need)[p_rows]
        uni = np.maximum(res[cursor[p_rows] + rank], _U_LO)
        cursor += need
        free -= need
        e = is_exp[p_cols]
        g = ~e
        val = np.empty(p_rows.size)
        ok = np.empty(p_rows.size, dtype=bool)
        val[e], ok[e] = _exp_proposal(params, rate[p_cols[e]], uni[e, 0], uni[e, 1])
        sg, ug = shapes[p_cols[g]], uni[g]
        val[g], _, ok[g] = _gamma_proposal(params, sg, ug[:, 0], ug[:, 1], ug[sg < 1.0, 2])
        u[p_rows[ok], p_cols[ok]] = val[ok]
        p_rows, p_cols = p_rows[~ok], p_cols[~ok]
    return u, counts


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
