"""Exact sampling of the hard-edge scaled radial configuration.

A rotationally-invariant determinantal ensemble confined to the disk of
radius ``rho`` has radii distributed like a family of *independent* random
variables.  In hard-edge coordinates the j-th particle is

    U_j = -(n * kappa / b) * ln R_j,

where R_j follows a Gamma(shape s_j, rate c) law conditioned on R_j <= 1,
with shape s_j = (j + alpha) / b and rate c = n * rho^(2b).  Each particle
is sampled exactly by one of two rejection methods:

- high-index particles by the paper's exponential coupling: the density of
  U_j is rate e^{-rate x} w(x) / Z_j with w <= 1 (s_j > c), so an Exp(rate)
  proposal kept with probability w is exact, and it is rejected with
  probability 1 - Z_j, the total-variation bound of the approximation;
- low-index particles by a Gamma(s_j, 1) proposal (Marsaglia-Tsang, from a
  normal and a uniform) kept when it lies below the truncation point c,
  which it does with probability P(s_j, c); below s_j = 1 the proposal is
  drawn in log space so it cannot underflow to 0.

A particle takes the method that keeps more of its proposals: the
exponential one where Z_j >= P(s_j, c).  As Z = (s - c) e^c c^{-s} Gamma(s)
P(s, c), P cancels: the rule is s > c and ln(Z/P) = ln(s - c) + c - s ln c +
ln Gamma(s) >= 0, with no incomplete gamma function.  Its derivative in s,
1/(s - c) - ln c + psi(s) > 1/(s - c) - 1/s + ln(s/c) > 0, so the
exponential class is the indices from one edge on (``_exp_edge``, by
bisection), within O(sqrt(c)) of theta = 1, and the better method keeps more
than a third of its proposals (as c grows, with s = c + x sqrt(c),
P -> Phi(-x) and Z -> x times the Mills ratio, which meet near 0.355).  The
module also evaluates the exact per-particle CDF, the log-normalizer of the
per-particle density (for :func:`hardedge.process.mean_exact`), and the
exponential approximation's total-variation diagnostics: the bound as a
positive series, whose entries each stop at their own term count (sum_j K_j
term updates for a batch), and the exact distance in closed form, at the one
point where the two densities cross (the test suite checks it against
quadrature).

A campaign that reads U only on a window [0, T] need not sample the
particles that cannot reach it: ``_first_reaching`` gives j0 with
F_j(T) = Prob[U_j <= T] < 2^-53, the resolution of the sampler's uniforms,
for every j < j0, from Chernoff's bound on the gamma tail (no special
function).  Leaving them out moves the law of a replicate's window by at
most sum_{j<j0} F_j(T) < (j0 - 1) 2^-53 in total variation: 2.6e-12 at
n = 1e5 and T = 10, the order of the 2^-53 clamp on the uniforms.

Reproducibility: configuration r (its stream) reads its first round and a
reservoir of retry uniforms from its own range of draws of the PCG64 stream
seeded by ``seed``, so consecutive streams are one generator call, and
refills from its own spawned streams; retry round i gives every rejected
particle min(2^i, 32) candidates and keeps the first accepted (details in
``_sample``).  A configuration is therefore bit-identical for a fixed (seed,
stream) no matter how sampling work is batched or scheduled.  Seeds and
streams must be integers in [0, 2^64), and the sampled particle indices a
1-D run of integers in [1, n] in nondecreasing order (the gamma class is
then a prefix of the columns); anything else raises ValueError before a draw.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, ndtri

from .special_functions import log_reg_lower_gamma

__all__ = [
    "EnsembleParams",
    "theta",
    "sample_batch",
    "cdf_u",
    "exp_rate",
    "tv_upper_bound",
]

# Uniforms are clamped below at 2^-53 so no logarithm sees 0.
_U_LO = 2.0**-53
_LOG_U_LO = math.log(_U_LO)

# Retry round i (from 1) gives each rejected entry min(2^i, _MAX_CANDIDATES)
# candidates, each from its own slot (``_sample`` keeps the first accepted).
_MAX_CANDIDATES = 32
# Each candidate is kept with probability above 0.355 (its class's
# acceptance rate) times the Marsaglia-Tsang acceptance rate (> 0.95), so an
# entry outlasts this many rounds (2 + 4 + ... + 32 + 11 x 32 = 414
# candidates) with probability below 0.663^414 < 2^-245.
_MAX_ROUNDS = 16
# Retry slots per row, drawn with its first-round uniforms:
# ceil(_RESERVOIR (sqrt(c) + 8)).  With doubling candidates a row's retry
# demand averages 3.9 sqrt(c) slots (at most 7.9 sqrt(c) over 2048 rows at
# c = 125, 4.5 sqrt(c) over 16 at c = 25 000), and a 128-row block at c = 125
# draws 0.44 refills (11.9 at _RESERVOIR = 3.0); a row that needs more draws
# a refill from its own spawned stream.
_RESERVOIR = 4.0

# Newton on the TV crossing point converges quadratically once above the
# root, to within rounding (a few 1e-16 in y); more steps than this means a bug.
_TV_MAX_NEWTON = 100

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
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)
                and self.n >= 1):
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


def _check_index(params: EnsembleParams, j) -> np.ndarray:
    ja = np.asarray(j)
    # an empty index is an integer index, though np.asarray([]) is float64
    if ja.size and not np.issubdtype(ja.dtype, np.integer):
        raise IndexError(f"particle index must be an integer, got {j!r}")
    if np.any(ja < 1) or np.any(ja > params.n):
        raise IndexError(f"particle index out of range [1, {params.n}]: {j!r}")
    return ja.astype(float)


def theta(params: EnsembleParams, j):
    """Normalized index theta_j = (j + alpha) / (b n rho^(2b)) for j in [1, n]."""
    ja = _check_index(params, j)
    out = (ja + params.alpha) / (params.b * params.c)
    return float(out) if np.ndim(out) == 0 else out


def _log_z_over_p(params: EnsembleParams, s):
    """ln(Z/P) = ln(s - c) + c - s ln c + ln Gamma(s) for s > c: the
    exponential proposal's acceptance rate Z = (s - c) e^c c^{-s} Gamma(s)
    P(s, c) over the gamma proposal's, P(s, c), which cancels."""
    c = params.c
    return np.log(s - c) + c - s * math.log(c) + gammaln(s)


def _first_index(n: int, holds) -> int:
    """The first j in [1, n] where ``holds(j)``, or n + 1 where there is none,
    by bisection: ``holds`` must be false on a prefix of [1, n] and true after."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _exp_edge(params: EnsembleParams) -> int:
    """The first index of the exponential class, s > c and ln(Z/P) >= 0, or
    n + 1.  ln(Z/P) rises with s from -inf at s = c+ (psi(s) > ln s - 1/s
    bounds its derivative, see the module docstring); its rounding, about
    1e-10 at n = 1e5, is far below its step per index, about 0.02 there."""
    def exp_class(j: int) -> bool:
        s = (j + params.alpha) / params.b
        return s > params.c and _log_z_over_p(params, s) >= 0.0

    return _first_index(params.n, exp_class)


class _Workspace:
    """Memory that ``_sample`` reuses from call to call: a float buffer for
    the first-round draws and the proposal scratch, and a bool buffer for the
    verdicts, each grown when a call needs more.  One per thread."""

    def __init__(self):
        self.floats = np.empty(0)
        self.flags = np.empty(0, dtype=bool)

    def carve(self, floats: int, flags: int):
        """The first ``floats`` floats and ``flags`` bools, contents undefined."""
        if len(self.floats) < floats:
            self.floats = np.empty(floats)
        if len(self.flags) < flags:
            self.flags = np.empty(flags, dtype=bool)
        return self.floats[:floats], self.flags[:flags]


def _exp_proposal(params: EnsembleParams, rate, prop, accept, y, ok):
    """Exponential proposals in place: ``prop`` becomes U = -ln(prop)/rate,
    and ``ok`` tells whether ln(accept) <= ln w(U) = -c (expm1(-y) + y) with
    y = beta U, tested as ln(accept)/(-c) - y >= expm1(-y).  ``accept`` and
    the scratch ``y`` are overwritten."""
    np.log(prop, out=prop)
    prop /= -rate
    np.multiply(prop, params.beta, out=y)
    np.log(accept, out=accept)
    accept /= -params.c
    accept -= y
    np.negative(y, out=y)
    np.expm1(y, out=y)
    np.greater_equal(accept, y, out=ok)


def _gamma_proposal(params: EnsembleParams, shapes, z, accept, v, tmp, mt, ok):
    """Marsaglia-Tsang Gamma(d, 1) proposals X = c R in place, kept when R <= 1.

    d = s, except where s < 1: there d = s + 1 and ln X = ln Y + ln(V)/s with
    Y ~ Gamma(s + 1, 1) and the uniforms ``v`` (one per s < 1 entry, in
    order), so X = Y V^{1/s} cannot underflow to 0.  The normal is ndtri(z);
    with a = d - 1/3 and t = 1 + normal/sqrt(9a), Y = a t^3 is kept when
    t > 0 and ln(accept) - normal^2/2 < a (1 - t^3 + 3 ln t).  ``z`` becomes
    U = -(n kappa / b) ln(X/c), ``mt`` the Marsaglia-Tsang verdict and ``ok``
    that verdict and ln X <= ln c together.  ``accept`` and the scratch pair
    ``tmp`` are overwritten.
    """
    small = shapes < 1.0
    a = np.where(small, shapes + 1.0, shapes) - 1.0 / 3.0
    t, log_t = tmp
    x = ndtri(z, out=z)
    np.divide(x, np.sqrt(9.0 * a), out=t)
    t += 1.0
    # ln t where t > 0; the -inf elsewhere also hides whatever the scratch held
    log_t.fill(-np.inf)
    np.log(t, out=log_t, where=np.greater(t, 0.0, out=ok))
    np.log(accept, out=accept)
    np.square(x, out=x)
    x *= 0.5
    accept -= x
    np.multiply(t, t, out=x)
    x *= t
    np.multiply(log_t, 3.0, out=t)
    np.subtract(1.0, x, out=x)
    x += t
    x *= a
    np.less(accept, x, out=mt)
    log_x = t
    log_x += np.log(a)
    if np.any(small):
        log_x[..., small] += np.log(v) / shapes[small]
    log_c = math.log(params.c)
    np.less_equal(log_x, log_c, out=ok)
    ok &= mt
    np.subtract(log_x, log_c, out=z)
    z *= -params.u_scale


def _keys(seed, streams):
    """The seed and the streams as ints, each checked to lie in [0, 2^64)."""
    def check(name, value):
        try:
            k = -1 if isinstance(value, bool) else operator.index(value)
        except TypeError:
            k = -1
        if not 0 <= k < 2**64:
            raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
        return k

    return check("seed", seed), [check("stream", s) for s in streams]


def _uniforms(entropy, offset: int, out: np.ndarray):
    """Fill ``out`` with uniforms, one 64-bit draw each, from the PCG64 stream
    seeded by ``entropy`` (an int or a SeedSequence), from draw ``offset`` on."""
    bits = np.random.PCG64(entropy)
    bits.advance(offset)
    np.random.Generator(bits).random(out=out)


def _sample(params: EnsembleParams, js, seed: int, streams, workspace=None):
    """U over the particles ``js`` (columns: integers in [1, n], nondecreasing,
    else ValueError), one row per stream, and three first-round counts:
    exponential rejections, gamma truncation rejections among Marsaglia-Tsang
    acceptances, and those acceptances per gamma column.

    U is a view of ``workspace`` (a fresh one if None), or of a larger copy
    when refills outgrow it, valid until the workspace's next use.  Every row
    reads the PCG64 stream seeded by ``seed``.  Its B draws are one uniform
    per column (exponential proposals, gamma normals), one acceptance uniform
    per exponential column, one per gamma column, one uniform per gamma
    column of shape s < 1, then a reservoir of retry slots,
    three uniforms each: the row of stream r reads draws [r B, (r + 1) B), so
    a run of consecutive streams is one generator call.  The proposals
    overwrite the first m draws of each row with U.  Every retry round runs
    over the whole block: in round i each rejected entry takes its row's next
    K = min(2^i, _MAX_CANDIDATES) unused slots (gamma-class entries first,
    then exponential ones, each in column order) and draws one candidate from
    each (proposal or normal, acceptance uniform and, where s < 1, V); it
    keeps the first candidate accepted, which has the law of sequential
    rejection.  A row with fewer unused slots than its entries need drops them
    and draws max(slots, need) fresh ones: refill k of stream r reads the
    PCG64 stream seeded by SeedSequence(seed, spawn_key=(r, k)).  A row
    therefore depends only on (params, js, seed, its stream).  The class
    edge is ``_exp_edge``: a bisection on a closed form, no incomplete gamma
    function.
    """
    ja = np.asarray(js)
    if not (ja.ndim == 1 and np.issubdtype(ja.dtype, np.integer)
            and np.all(ja[:1] >= 1) and np.all(ja[-1:] <= params.n)
            and np.all(ja[1:] >= ja[:-1])):
        raise ValueError(f"particle columns must be integers in [1, {params.n}] "
                         f"in nondecreasing order, got {js!r}")
    shapes = (ja + params.alpha) / params.b
    m, k = len(shapes), int(np.searchsorted(ja, _exp_edge(params)))
    me = m - k
    # js ascends, so the gamma class is the first k columns
    gam, exp = slice(0, k), slice(k, m)
    shape_g = shapes[gam]
    width = 2 * m + int(np.count_nonzero(shape_g < 1.0))
    slots = math.ceil(_RESERVOIR * (math.sqrt(params.c) + 8.0))
    row = width + 3 * slots
    seed, streams = _keys(seed, streams)
    rows = len(streams)
    ws = _Workspace() if workspace is None else workspace
    # the rows' draws, then scratch for the first-round proposals, which
    # refills reuse; verdicts: exponential, then Marsaglia-Tsang and gamma
    store, flags = ws.carve(rows * (row + max(me, 2 * k)), rows * (me + 2 * k))
    first = store[:rows * row].reshape(rows, row)
    runs = [i for i in range(1, rows) if streams[i] != streams[i - 1] + 1]
    for i0, i1 in zip([0, *runs], [*runs, rows]):
        _uniforms(seed, streams[i0] * row, first[i0:i1].reshape(-1))
    head = first[:, :width]
    np.maximum(head, _U_LO, out=head)

    rate = params.beta * (shapes - params.c)
    scratch = store[rows * row:]
    ok_e = flags[:rows * me].reshape(rows, me)
    mt, ok_g = flags[rows * me:].reshape(2, rows, k)
    _exp_proposal(params, rate[exp], first[:, exp], first[:, m:m + me],
                  scratch[:rows * me].reshape(rows, me), ok_e)
    _gamma_proposal(params, shape_g, first[:, gam], first[:, m + me:2 * m],
                    first[:, 2 * m:width], scratch[:2 * rows * k].reshape(2, rows, k), mt, ok_g)
    tried = np.count_nonzero(mt, axis=0)
    counts = (int(ok_e.size - np.count_nonzero(ok_e)),
              int(tried.sum() - np.count_nonzero(ok_g)), tried)

    def propose_gamma(cols, uni):
        s = shapes[cols]
        ok = np.empty(uni[0].shape, dtype=bool)
        _gamma_proposal(params, s, uni[0], uni[1], uni[2][:, s < 1.0], np.empty((2, *ok.shape)),
                        np.empty_like(ok), ok)
        return ok

    def propose_exp(cols, uni):
        ok = np.empty(uni[0].shape, dtype=bool)
        _exp_proposal(params, rate[cols], uni[0], uni[1], np.empty(ok.shape), ok)
        return ok

    # rejected entries (rows, columns) of each class, sorted by row then column
    pending = []
    for start, ok in ((0, ok_g), (k, ok_e)):
        r, i = np.nonzero(np.logical_not(ok, out=ok))
        pending.append((r, start + i))
    # slots are addressed by the offset of their first uniform in ``store``;
    # refills go after the rows' draws, over the dead scratch
    cursor = np.arange(rows) * row + width    # each row's next unused slot
    free = np.full(rows, slots)
    top = rows * row
    refills = [0] * rows
    rounds = 0
    while any(len(r) for r, _ in pending):
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ArithmeticError(f"rejection sampler still rejecting after {_MAX_ROUNDS} "
                                  "retry rounds; this is a bug")
        K = min(2**rounds, _MAX_CANDIDATES)
        take = [K * np.bincount(r, minlength=rows) for r, _ in pending]
        need = take[0] + take[1]
        for r in np.flatnonzero(need > free).tolist():
            refills[r] += 1
            size = 3 * max(slots, int(need[r]))
            if top + size > len(store):
                store = np.concatenate((store[:top], np.empty(max(size, top))))
            _uniforms(np.random.SeedSequence(seed, spawn_key=(streams[r], refills[r])), 0,
                      store[top:top + size])
            cursor[r], free[r] = top, size // 3
            top += size
        free -= need
        for cls, propose in enumerate((propose_gamma, propose_exp)):
            p_rows, p_cols = pending[cls]
            if not len(p_rows):
                continue
            # entry i of its class in a row takes the row's next K slots
            pos = cursor[p_rows] + 3 * (K * np.arange(len(p_rows))
                                        - (np.cumsum(take[cls]) - take[cls])[p_rows])
            cursor += 3 * take[cls]
            uni = store[pos + 3 * np.arange(K)[:, None] + np.arange(3)[:, None, None]]
            np.maximum(uni, _U_LO, out=uni)
            ok = propose(p_cols, uni)
            # keep the first accepted candidate, as sequential rejection does
            done = ok.any(axis=0)
            kept = uni[0][ok.argmax(axis=0)[done], np.flatnonzero(done)]
            store[p_rows[done] * row + p_cols[done]] = kept
            pending[cls] = p_rows[~done], p_cols[~done]
    return store[:rows * row].reshape(rows, row)[:, :m], counts


def sample_batch(params: EnsembleParams, seed: int, streams) -> np.ndarray:
    """Configurations (U_1, ..., U_n), one row per stream index, as an owned
    C-contiguous (len(streams), n) array.

    Row i depends only on (params, seed, streams[i]), bit for bit: batching
    only amortizes the per-parameter constants and the arithmetic across rows.
    """
    return _sample(params, np.arange(1, params.n + 1), seed, streams)[0].copy()


def _first_reaching(params: EnsembleParams, T: float) -> int:
    """j0 in [1, n] with F_j(T) = cdf_u(j, T) < 2^-53 for every j < j0, from a
    closed-form bound: no special function, O(log n) scalar evaluations
    (``_first_index``, the bisection ``_exp_edge`` also uses).

    With x_T = c e^{-beta T} and X ~ Gamma(s_j, 1), F_j(T) =
    Prob[x_T <= X <= c] / P(s_j, c).  For s_j < x_T Chernoff's bound gives
    Prob[X >= x_T] <= (x_T/s)^s e^{-(x_T - s)}, and P(s, c) >= P(s, s) > 1/2
    because the median of Gamma(s) lies below s, so

        ln F_j(T) <= ln 2 + s (ln(x_T/s) + 1) - x_T.

    The bound's derivative in s is ln(x_T/s) > 0, so the particles it puts
    below 2^-53 are a prefix of the indices, found by bisection on j.  Its
    rounding (relative 1e-11 at n = 1e5) is far inside the factor the bound
    gives away (60 to 270 at the cut at rho = 0.5, n = 500 to 1e5).  T = +inf,
    or x_T <= s_1, gives j0 = 1; j0 <= n keeps one column at least.
    """
    x = params.c * math.exp(-params.beta * T)

    def reaching(j: int) -> bool:
        s = (j + params.alpha) / params.b
        return not (s < x and math.log(2.0) + s * (math.log(x / s) + 1.0) - x < _LOG_U_LO)

    return min(_first_index(params.n, reaching), params.n)


def cdf_u(params: EnsembleParams, j, t):
    """Exact Prob[U_j <= t]; t >= 0 or +inf, broadcastable over j and t."""
    ja = _check_index(params, j)
    ta = np.asarray(t, dtype=float)
    if np.any(np.isnan(ta)) or np.any(ta < 0.0):
        raise ValueError(f"t must be >= 0 (or +inf), got {t!r}")
    s, ta = np.broadcast_arrays((ja + params.alpha) / params.b, ta)
    xt = params.c * np.exp(-params.beta * ta)
    p_c = gammainc(s, params.c * np.ones_like(s))
    out = np.zeros(s.shape)
    # Bulk regime: the complement difference avoids cancellation when both
    # lower CDFs are near one, but loses the last bit of a result near one,
    # which then dips in j; results above 1/2 and the deep regime are taken
    # in log space, where -expm1 saturates at 1 monotonically.
    bulk = p_c > 0.5
    if bulk.any():
        out[bulk] = (gammaincc(s[bulk], xt[bulk]) - gammaincc(s[bulk], params.c)) / p_c[bulk]
    rest = ~bulk | (out > 0.5)
    if rest.any():
        sr, tr = s[rest], ta[rest]
        lp_t = log_reg_lower_gamma(sr, xt[rest])
        # where c e^{-beta t} underflows, P(s, x) = x^s / Gamma(s + 1) to double
        # precision, not 0 for a tiny shape (0.0117 at s = 0.001, beta t = 4444)
        gone = (xt[rest] == 0.0) & (tr < np.inf)
        lp_t[gone] = (sr[gone] * (math.log(params.c) - params.beta * tr[gone])
                      - gammaln(sr[gone] + 1.0))
        lp_c = log_reg_lower_gamma(sr, params.c)
        out[rest] = -np.expm1(lp_t - lp_c)
    out = np.clip(out, 0.0, 1.0)
    scalar = np.isscalar(j) and np.isscalar(t)
    return float(out) if scalar or out.ndim == 0 else out


def _log_norm(params: EnsembleParams, s):
    """ln(a^2 beta) = ln(c^s beta / (Gamma(s) P(s, c))), the constant of ln f_j:
    U_j has density f_j(x) = a^2 beta exp(-beta s x - c exp(-beta x))."""
    log_a2 = s * math.log(params.c) - gammaln(s) - log_reg_lower_gamma(s, params.c)
    return log_a2 + math.log(params.beta)


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


def tv_upper_bound(params: EnsembleParams, j):
    """Upper bound on the total-variation distance between the law of U_j
    and its exponential approximant (theta_j > 1 required), broadcast over j:

        int_0^inf (1 - w(x)) rate e^{-rate x} dx = (c/s) sum_{k>=0} (k+1)/(s+k+1) T_k

    with s = s_j, T_0 = 1 and T_k = T_{k-1} c/(s+k).  The terms are positive
    (the equal 1 - (s-c) e^c c^{-s} gamma(s, c) cancels) and unimodal in k, so
    an entry whose term falls to 1e-17 of its running total is past the mode
    and converged.  The bound dominates the exact TV distance and decays like
    1/(n rho^(2b) (theta-1)^2).

    Cost: sum_j K_j term updates, K_j being entry j's own term count (it
    falls as s_j grows).  The entries run sorted by s, slowest first, on a
    live prefix cut back to one past the last unconverged entry every 8
    terms.  A converged entry left in the prefix adds terms of at most 1e-17
    of its total, below half an ulp of it, so they round away: each entry
    equals a scalar call bit for bit, whatever the batch.
    """
    _theta_above_one(params, j)
    s_in = (np.asarray(j, dtype=float) + params.alpha) / params.b
    order = np.argsort(s_in, axis=None, kind="stable")
    c = params.c
    # rows s, t, term, total and s + k; the names view the live prefix
    work = np.empty((5, len(order)))
    s, t, term, total, sk = work
    s[:] = s_in.ravel()[order]
    t.fill(1.0)
    np.divide(1.0, s + 1.0, out=term)
    total[:] = term
    k = 0
    while True:
        if k % 8 == 0 or k >= _TV_MAX_TERMS:
            live = np.flatnonzero(term > 1e-17 * total)
            if not len(live):
                break
            if k >= _TV_MAX_TERMS:
                raise ArithmeticError("TV bound series did not converge; this is a bug")
            s, t, term, total, sk = work[:, :live[-1] + 1]
        k += 1
        # t = t c / (s + k), term = (k + 1) t / (s + k + 1), rounded as written
        np.add(s, k, out=sk)
        t *= c
        t /= sk
        sk += 1
        np.multiply(t, k + 1, out=term)
        term /= sk
        total += term
    out = np.empty(s_in.shape)
    out.reshape(-1)[order] = c / work[0] * work[3]
    return float(out) if np.ndim(out) == 0 else out


def exact_tv_exponential(params: EnsembleParams, j) -> float:
    """Exact TV distance (1/2) int |f_U - f_E| between U_j and its
    exponential approximant, in closed form.

    f_U / f_E = w / Z with w non-increasing from w(0) = 1, so the densities
    cross once, where w(x*) = Z, and the distance is F_U(x*) - F_E(x*).  With
    y = beta x*, c (e^{-y} - 1 + y) = -ln Z is solved by Newton's method: the
    left side is convex and increasing, so from its quadratic approximation
    the first step lands above the root and the rest decrease to it; the
    distance is stationary at x*, so an error in x* enters it squared.  ln Z
    is the closed form ln(Z/P) of ``_log_z_over_p`` plus ln P(s, c),
    independent of the series of ``tv_upper_bound``, which the distance is
    checked against.
    """
    rate = exp_rate(params, j)
    s = (j + params.alpha) / params.b
    c = params.c
    target = -float(_log_z_over_p(params, s) + log_reg_lower_gamma(s, c))
    y = math.sqrt(2.0 * target / c)
    for _ in range(_TV_MAX_NEWTON):
        step = (c * (math.expm1(-y) + y) - target) / (-c * math.expm1(-y))
        y -= step
        if abs(step) <= 1e-10 * y + 1e-15:
            x = y / params.beta
            return float(cdf_u(params, j, x)) + math.expm1(-rate * x)
    raise ArithmeticError(f"TV crossing point of particle {j} did not converge; this is a bug")
