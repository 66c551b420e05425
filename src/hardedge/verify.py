"""Monte Carlo campaigns confronting finite-n simulation with the limit laws.

Each campaign draws many independent configurations, forms the scaled
centered statistic and/or its first-hitting times, and z-scores empirical
moments against the quadrature targets from :mod:`hardedge.limit_law`.  The
acceptance threshold |z| <= 5 is crude but assumption-light.  Its
false-failure rate per campaign, measured over seeds 0.. at n = 500 and
phi = 1: the clt campaign on the grid (0.5, 1, 2, 4) failed on 50 of 1000
seeds at M = 16 and on none of 200 at M = 5000; the hitting campaign (levels
0.075, 0.225, 0.375; cross times 1, 2) failed on 52 of 1000 at M = 16 and on
about 1% at M = 5000 (2 of seeds 1700-1899, each on a diagonal
hitting-covariance entry with |z| between 5.1 and 5.4), so a perfbench
``mc_bulk`` run on such a seed reads pass_frac 0 with nothing wrong.  The
standard errors come from sample moments, so small-M campaigns are smoke
tests, not verdicts.

Verdicts: every z-score is a gate filed in a named family of
:class:`_Verdicts`, which judges each family as one assertion.  A constant
phi with a statistic time at +inf (grid or cross time) raises ValueError:
S(+inf) = phi(0) on every replicate and its limit variance is 0, so a
z-score there would measure rounding noise.  The escape horizon and the
lemma horizon must be finite and positive for any phi.

Determinism: replicate i is stream i of :mod:`hardedge.ensemble`, its own
range of draws of the PCG64 stream seeded by the master seed.  Replicates
are processed in blocks of at most 128 rows and 2^20 sampled particles (one
row at least), each worker thread sampling into one workspace that it
reuses from block to block; results are written into preallocated arrays
indexed by replicate, and all reductions run after assembly, so a report is
byte-identical for a fixed seed regardless of the worker count or the block
size.

Window cut: a campaign whose reads are fixed by U on [0, T], T its largest
grid point, samples only the particles that can reach T (each left out does
so with probability below 2^-53; see ``_simulate_statistic``).  That is
clt, moments and escape with a constant phi (derivative bound 0, as for
phi = 1), on a finite grid.  hitting, its lemma ladder, escape with another
phi and any grid holding +inf sample every particle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import ensemble as ens
from . import process as proc
from .ensemble import EnsembleParams
from .limit_law import LimitLaw
from .process import TestFunction

__all__ = [
    "PhiSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "run_campaign",
]

SCHEMA_VERSION = 2
# Replicates per block: at most _BLOCK, and at most _BLOCK_PARTICLES
# particles (but one replicate at least), so block temporaries stay bounded
# as n grows.
_BLOCK = 128
_BLOCK_PARTICLES = 2**20


@dataclass(frozen=True)
class PhiSpec:
    """Recipe for a test function from the builtin family, as a config holds
    it and a report records it; ``build`` makes the function.

    kind: one | exp_decay | rational | table.  ``param`` is the decay rate
    for exp_decay; ``table_x``/``table_y`` hold the knots for a piecewise
    linear table.  Campaigns branch on what the built function certifies (a
    constant has derivative bound 0), not on ``kind``.
    """

    kind: str = "one"
    param: float = 1.0
    table_x: tuple = ()
    table_y: tuple = ()

    def build(self) -> TestFunction:
        if self.kind == "one":
            return proc.phi_one()
        if self.kind == "exp_decay":
            return proc.phi_exp_decay(self.param)
        if self.kind == "rational":
            return proc.phi_rational()
        if self.kind == "table":
            return proc.phi_from_table(np.asarray(self.table_x), np.asarray(self.table_y))
        raise ValueError(f"unknown phi kind {self.kind!r}; expected one of "
                         "one | exp_decay | rational | table")

    @classmethod
    def parse(cls, text: str) -> "PhiSpec":
        """Parse CLI syntax: 'one', 'rational', 'exp_decay:0.5', 'table:FILE.csv'."""
        head, sep, arg = text.partition(":")
        if head == "one" or head == "rational":
            if sep:
                raise ValueError(f"phi selector {head!r} takes no argument, got {text!r}")
            return cls(kind=head)
        if head == "exp_decay":
            return cls(kind="exp_decay", param=float(arg) if sep else 1.0)
        if head == "table":
            with open(arg, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
            start = 1 if rows and not _is_number(rows[0][0]) else 0
            x = tuple(float(r[0]) for r in rows[start:])
            y = tuple(float(r[1]) for r in rows[start:])
            return cls(kind="table", table_x=x, table_y=y)
        raise ValueError(f"unknown phi selector {text!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "exp_decay":
            d["param"] = float(self.param)
        if self.kind == "table":
            d["table_x"] = list(self.table_x)
            d["table_y"] = list(self.table_y)
        return d


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign configuration.  ``params``, ``seed`` (an integer in [0, 2^64),
    as the sampler takes it) and ``workers`` are common to every kind; of the
    other knobs each kind reads those it declares at its
    ``@_campaign`` registration, and construction raises ValueError if any
    other knob is off its default.  ``to_dict`` records just what is read."""

    kind: str
    params: EnsembleParams
    phi: PhiSpec = PhiSpec()
    grid: tuple = ()
    levels: tuple = ()
    replicates: int = 100
    seed: int = 0
    workers: int = 1
    z_max: float = 5.0
    delta: float = 0.1              # index margin for escape / tv campaigns
    horizon: float = 10.0           # time horizon T for the escape campaign
    n_ladder: tuple = ()
    tv_threshold: float = 0.05
    escape_threshold: float = 1e-3
    slope_max: float = -0.8
    cross_times: tuple = ()         # statistic times for hitting cross-covariance
    lemma_levels_horizon: float = 50.0
    lemma_replicates: int = 1000
    moment_orders: tuple = ()       # multi-indices aligned with grid
    center_empirical: bool = False

    def __post_init__(self):
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}; expected one of {CAMPAIGN_KINDS}")
        reads = _CAMPAIGNS[self.kind].reads
        for f in fields(self):
            if f.name in ("kind", "params", "seed", "workers") or not self._set(f):
                continue
            if f.name not in reads:
                raise ValueError(f"the {self.kind} campaign does not read {f.name}; it reads "
                                 f"{', '.join(reads)}, besides params, seed and workers")
            # the hitting lemma ladder runs only along an n_ladder
            if f.name.startswith("lemma_") and not len(self.n_ladder):
                raise ValueError(f"the {self.kind} campaign reads {f.name} only with an "
                                 "n_ladder, and n_ladder is empty")
        for name, lo in (("seed", 0), ("replicates", 2), ("workers", 1), ("lemma_replicates", 1)):
            ens._integer(name, getattr(self, name), lo)
        for name in ("grid", "levels", "cross_times"):
            if list(getattr(self, name)) != sorted(getattr(self, name)):
                raise ValueError(f"{name} must be sorted ascending")
        # the ladder's assertions compare consecutive rungs, and int() would
        # run a rung at n = 100 for 100.9, or n = 1 for True
        ladder = [ens._integer("an n_ladder entry", n, 1) for n in self.n_ladder]
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"n_ladder must be strictly ascending, got {self.n_ladder!r}")
        for name in ("delta", "tv_threshold", "escape_threshold", "slope_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # NaN, negative or infinite thresholds fail or pass every gate
        if not 0.0 <= self.z_max < math.inf:
            raise ValueError(f"z_max must be finite and >= 0, got {self.z_max}")
        # no particle is below a NaN or negative time, and all are below +inf
        for name in ("horizon", "lemma_levels_horizon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def _set(self, f) -> bool:
        """Whether field ``f`` is off its default, as a report would record it."""
        value = getattr(self, f.name)
        return value is not f.default and (
            self._record(f.name, value) != self._record(f.name, f.default))

    def _record(self, name: str, value):
        """``value`` of field ``name`` as a report records it: typed like the
        field's default, tuples as lists of floats (``n_ladder``: of ints)."""
        if hasattr(value, "to_dict"):
            return value.to_dict()
        default = self.__dataclass_fields__[name].default
        if isinstance(default, tuple):
            item = {"n_ladder": int, "moment_orders": list}.get(name, float)
            return [item(v) for v in value]
        return value if default is MISSING else type(default)(value)

    def to_dict(self) -> dict:
        # `workers` does not change the results, so it is left out: a report's
        # bytes are the same for any worker count, and so is a rerun from it.
        return {name: self._record(name, getattr(self, name))
                for name in ("kind", "params", "seed", *_CAMPAIGNS[self.kind].reads)}


_ROW_FIELDS = ("record", "n", "arg1", "arg2", "estimate", "target", "se", "z")


@dataclass
class ExperimentReport:
    """Uniform long-format report: one row per measured quantity.

    ``wall_time_s`` is informational only and deliberately excluded from the
    canonical JSON/CSV bytes so that reruns with identical (config, seed) are
    byte-identical regardless of worker count.
    """

    campaign: str
    config: dict
    rows: list
    assertions: list
    passed: bool
    wall_time_s: Optional[float] = None

    def _text(self, fmt: str) -> str:
        header = {"schema_version": SCHEMA_VERSION, "campaign": self.campaign,
                  "config": self.config, "assertions": self.assertions, "passed": self.passed}
        return _table_text(fmt, header, _ROW_FIELDS, self.rows)

    def to_json(self) -> str:
        return self._text("json")

    def to_csv(self) -> str:
        return self._text("csv")

    def failures(self) -> list:
        return [a for a in self.assertions if not a["passed"]]


def _table_text(fmt: str, header: dict, fields: tuple, rows: list) -> str:
    """A long-format table, ``rows`` of dicts keyed by ``fields``, as text.
    JSON: ``header`` plus ``"rows"``, keys sorted.  CSV: the fields, then one
    line per row, None as an empty cell and floats by ``repr``."""
    if fmt == "json":
        return json.dumps({**header, "rows": rows}, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(fields)
    for row in rows:
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                    for v in (row[k] for k in fields)])
    return buf.getvalue()


class _Verdicts:
    """A campaign's rows and assertions in report order.  ``row`` and
    ``check`` add plain ones; ``gate`` adds a row with z = (estimate - target)
    / se (None with no spread or a NaN estimate) and files (label, z) under
    ``family`` (None: reported, not judged); ``judge`` makes the family its
    one assertion: every z ``_within`` z_max, a missing z failing."""

    def __init__(self):
        self.rows, self.assertions, self._families = [], [], {}

    def row(self, record, n=None, arg1=None, arg2=None, estimate=None, target=None, se=None,
            z=None):
        def f(x):
            return None if x is None or math.isnan(x) else float(x)
        self.rows.append({
            "record": record,
            "n": None if n is None else int(n),
            "arg1": f(arg1),
            "arg2": f(arg2),
            "estimate": f(estimate),
            "target": f(target),
            "se": f(se),
            "z": f(z),
        })

    def check(self, name: str, passed: bool, detail: str):
        self.assertions.append({"name": name, "passed": bool(passed), "detail": detail})

    def gate(self, family, label, record, n=None, arg1=None, arg2=None, *, estimate, target, se):
        # the row maps a NaN z (no spread, or a NaN estimate) to None
        self.row(record, n, arg1, arg2, estimate, target, se,
                 (estimate - target) / se if se > 0.0 else math.nan)
        if family is not None:
            self._families.setdefault(family, []).append((label, self.rows[-1]["z"]))

    @staticmethod
    def _within(z, z_max) -> bool:
        return z is not None and abs(z) <= z_max

    def judge(self, family: str, z_max: float):
        zs = self._families.pop(family)
        missing = [label for label, z in zs if z is None]
        if missing:
            detail = f"no z-score at {missing[0]}: the sample has no spread"
        else:
            label, worst = max(zs, key=lambda r: abs(r[1]))
            detail = f"max |z| = {abs(worst):.3f} at {label} (threshold {z_max})"
        self.check(family, all(self._within(z, z_max) for _label, z in zs), detail)


_CAMPAIGNS = {}


def _campaign(kind: str, reads: tuple):
    """Register a campaign body, (config, out) -> None, as campaign ``kind``,
    which reads the config knobs ``reads`` (kept as ``body.reads``) besides
    params, seed and workers.  The body writes its rows and assertions to
    ``out``, a fresh :class:`_Verdicts` from :func:`run_campaign`, judging
    each family of gates it files."""
    def register(body):
        body.reads = reads
        _CAMPAIGNS[kind] = body
        return body
    return register


def _run_blocks(replicates: int, n: int, workers: int, block_fn):
    """Run block_fn(i0, i1) over blocks of replicates of n sampled particles each,
    in a thread pool of at most one thread per block (serially for one);
    returns results ordered by block start."""
    size = min(_BLOCK, max(1, _BLOCK_PARTICLES // n))
    blocks = [(i0, min(i0 + size, replicates)) for i0 in range(0, replicates, size)]
    workers = min(workers, len(blocks))
    if workers <= 1:
        return [block_fn(i0, i1) for i0, i1 in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(block_fn, i0, i1) for i0, i1 in blocks]
        return [f.result() for f in futures]


def _simulate_statistic(config: ExperimentConfig, params: EnsembleParams,
                        phi: TestFunction, grid: np.ndarray, levels=(),
                        replicates: Optional[int] = None, total: bool = False):
    """:func:`hardedge.process.statistic_paths` over every replicate, block by
    block: (S, S_inf, Q) with one row per replicate, S_inf being S(+inf) if
    ``total`` (the caller reads it) and None otherwise.

    Without levels, with T = max(grid) finite, and with S(+inf) unread or phi
    certified constant (derivative bound 0), all that is read is fixed by U
    on [0, T].  Then only the particles from j0 =
    ``ensemble._first_reaching(params, T)`` on are sampled: each one left out
    reaches T with probability below 2^-53, the resolution of the sampler's
    uniforms, so it adds nothing to S, and phi/n to S(+inf).  Everywhere else
    j0 = 1 and every particle is sampled.  A constant phi with +inf on the
    grid raises ValueError (see the module docstring).
    """
    if phi.derivative_bound == 0.0 and np.any(np.isposinf(grid)):
        raise ValueError(f"phi = {phi.name} is constant, so S(+inf) does not fluctuate: "
                         "take inf off the grid or cross times")
    M = replicates if replicates is not None else config.replicates
    S = np.empty((M, len(grid)))
    S_inf = np.empty(M)
    Q = np.empty((M, len(levels)))
    cut = len(grid) > 0 and not len(levels) and (not total or phi.derivative_bound == 0.0)
    j0 = ens._first_reaching(params, float(np.max(grid))) if cut else 1
    js = np.arange(j0, params.n + 1)
    # one sampler workspace per worker thread, reused by its blocks
    spaces = threading.local()

    def block(i0: int, i1: int):
        if not hasattr(spaces, "ws"):
            spaces.ws = ens._Workspace()
        u = ens._sample(params, js, config.seed, range(i0, i1), spaces.ws)[0]
        S[i0:i1], S_inf[i0:i1], Q[i0:i1] = proc.statistic_paths(u, phi, grid, levels, params.n)

    _run_blocks(M, len(js), config.workers, block)
    if not total:
        return S, None, Q
    if j0 > 1:
        S_inf += (j0 - 1) * float(phi(0.0)) / params.n
    return S, S_inf, Q


def _cov_se(cov: np.ndarray, m: int) -> np.ndarray:
    """Asymptotic standard error of each sample-covariance entry under
    Gaussian fourth moments: sqrt((C_ii C_jj + C_ij^2)/M)."""
    d = np.diag(cov)
    return np.sqrt((np.outer(d, d) + cov**2) / m)


def _skew_exkurt(x: np.ndarray):
    """Sample skewness and excess kurtosis per column; NaN for a constant column."""
    xc = x - x.mean(axis=0)
    m2 = np.mean(xc**2, axis=0)
    spread = m2 > 0.0
    skew = np.divide(np.mean(xc**3, axis=0), m2**1.5, out=np.full(m2.shape, np.nan), where=spread)
    kurt = np.divide(np.mean(xc**4, axis=0), m2**2, out=np.full(m2.shape, np.nan), where=spread)
    return skew, kurt - 3.0


@_campaign("clt", reads=("phi", "grid", "replicates", "z_max", "center_empirical"))
def _clt(config: ExperimentConfig, out: _Verdicts) -> None:
    """Scaled centered statistic on a time grid vs the limit covariance,
    plus marginal Gaussianity diagnostics (skewness, excess kurtosis)."""
    params = config.params
    phi = config.phi.build()
    law = LimitLaw(params, phi)
    grid = np.asarray(config.grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("clt campaign needs a nonempty time grid")
    M = config.replicates

    S, _, _ = _simulate_statistic(config, params, phi, grid)
    if config.center_empirical:
        center = S.mean(axis=0)
    else:
        center = proc.mean_exact(params, phi, grid)
    X = math.sqrt(params.n) * (S - center)

    mean = X.mean(axis=0)
    cov = np.cov(X.T, ddof=1).reshape(len(grid), len(grid))
    cov_se = _cov_se(cov, M)
    gram = law.gram_statistic(grid)
    mean_se = np.sqrt(np.diag(cov) / M)
    skew, exkurt = _skew_exkurt(X)
    gates = "all_z_within_threshold"
    # empirically centered means are 0 by construction: reported, not judged
    mean_family = None if config.center_empirical else gates
    for i, t in enumerate(grid):
        out.gate(mean_family, f"mean({t}, None)", "mean", params.n, t,
                 estimate=mean[i], target=0.0, se=mean_se[i])
        out.gate(gates, f"skewness({t}, None)", "skewness", params.n, t,
                 estimate=skew[i], target=0.0, se=math.sqrt(6.0 / M))
        out.gate(gates, f"excess_kurtosis({t}, None)", "excess_kurtosis", params.n, t,
                 estimate=exkurt[i], target=0.0, se=math.sqrt(24.0 / M))
    for i1 in range(len(grid)):
        for i2 in range(i1, len(grid)):
            out.gate(gates, f"covariance({grid[i1]}, {grid[i2]})", "covariance", params.n,
                     grid[i1], grid[i2], estimate=cov[i1, i2], target=gram[i1, i2],
                     se=cov_se[i1, i2])
    out.judge(gates, config.z_max)


@_campaign("escape", reads=("phi", "n_ladder", "delta", "horizon", "escape_threshold",
                              "replicates", "z_max"))
def _escape(config: ExperimentConfig, out: _Verdicts) -> None:
    """Low-index particles leave every fixed window: exact CDF ladder plus a
    Monte Carlo check that the statistic concentrates on the limit mean.

    The largest cdf_u(j, T) over theta_j < 1 - delta is that of the last such
    j, because theta_j grows with j and so does cdf_u(j, T).  U_j has density
    proportional to exp(-beta s_j x - c e^{-beta x}) on x > 0, with
    s_j = (j + alpha)/b increasing, so f_{j+1}/f_j is proportional to
    exp(-beta (s_{j+1} - s_j) x), decreasing in x.  U_{j+1} is therefore
    below U_j in likelihood ratio, hence stochastically, and
    Prob[U_{j+1} <= T] >= Prob[U_j <= T].  A rung with no such j has
    nothing to check and raises ValueError, as in ``_tv_decay``.

    With a constant phi (phi = 1, or a constant table) S(+inf) = phi(0)
    exactly, which ``total_mass_is_one`` checks, and the Monte Carlo samples
    only the particles that can reach T (``_simulate_statistic``); S(+inf)
    counts each one left out as phi(0)/n.  The escape of those left out is
    the exact ladder's to check, and the test suite checks it on sampled rows
    too.  Any other phi samples every particle, since S(+inf) reads them all.
    """
    phi = config.phi.build()
    ladder = tuple(config.n_ladder) or (config.params.n,)
    T = config.horizon
    exact_col = []
    for n in ladder:
        p = replace(config.params, n=int(n))
        th = ens.theta(p, np.arange(1, p.n + 1))
        last = int(np.count_nonzero(th < 1.0 - config.delta))
        if not last:
            raise ValueError(f"no particles with theta < 1-delta at n={n}; "
                             "increase n or decrease delta")
        mx = ens.cdf_u(p, last, T)
        exact_col.append(mx)
        out.row("escape_exact_max_cdf", n=n, arg1=T, estimate=mx, target=0.0)
        retained = float(np.count_nonzero(th > 1.0)) / p.n
        out.row("retained_fraction", n=n, estimate=retained, target=p.kappa)
        out.check(
            f"retained_fraction_matches_kappa_n{n}",
            abs(retained - p.kappa) <= (2.0 + abs(p.alpha)) / p.n,
            f"|{retained:.6f} - kappa {p.kappa:.6f}| <= {(2.0 + abs(p.alpha)) / p.n:.2e}",
        )
    decreasing = all(a > b for a, b in zip(exact_col, exact_col[1:]))
    out.check(
        "escape_exact_strictly_decreasing", decreasing,
        f"max cdf_u(theta<1-delta, T={T}) along ladder: "
        + ", ".join(f"{v:.3e}" for v in exact_col),
    )
    out.check(
        "escape_exact_below_threshold",
        exact_col[-1] < config.escape_threshold,
        f"{exact_col[-1]:.3e} < {config.escape_threshold:.1e} at n={ladder[-1]}",
    )

    # Monte Carlo at the largest ladder n: S(T) concentrates on m1(T); the
    # comparison scale is the per-replicate standard deviation because the
    # centering bias m_n - m1 = O(log n / n) dominates the mean's own SE.
    p = replace(config.params, n=int(ladder[-1]))
    law = LimitLaw(p, phi)
    grid = np.array([T])
    S, S_inf, _ = _simulate_statistic(config, p, phi, grid, total=True)
    out.gate("statistic_concentrates_on_limit_mean", f"S({T})", "statistic_vs_limit_mean",
             p.n, T, estimate=float(S.mean(axis=0)[0]), target=law.m1(T),
             se=float(np.std(S[:, 0], ddof=1)))
    out.judge("statistic_concentrates_on_limit_mean", config.z_max)
    total = float(S_inf.mean())
    if phi.derivative_bound == 0.0:
        # a certified constant phi: S(+inf) = phi(0) exactly, in every replicate
        mass = float(phi(0.0))
        out.row("total_mass", n=p.n, estimate=total, target=mass)
        out.check(
            "total_mass_is_one", abs(total - mass) <= 1e-12 * mass,
            f"|S(inf) - {mass:g}| = {abs(total - mass):.2e}",
        )
    else:
        out.gate("total_mass_matches_exact_mean", "S(inf)", "total_mass", p.n,
                 estimate=total, target=proc.mean_exact(p, phi, np.inf),
                 se=float(np.std(S_inf, ddof=1)) / math.sqrt(len(S_inf)))
        out.judge("total_mass_matches_exact_mean", config.z_max)


@_campaign("tv_decay", reads=("n_ladder", "delta", "tv_threshold"))
def _tv_decay(config: ExperimentConfig, out: _Verdicts) -> None:
    """Worst-case TV bound between high-index particles and their exponential
    approximants, tabulated along an n-ladder."""
    ladder = tuple(config.n_ladder) or (config.params.n,)
    col = []
    for n in ladder:
        p = replace(config.params, n=int(n))
        th = ens.theta(p, np.arange(1, p.n + 1))
        js = np.flatnonzero(th > 1.0 + config.delta) + 1
        if len(js) == 0:
            raise ValueError(f"no particles with theta > 1+delta at n={n}; "
                             "increase n or decrease delta")
        bounds = ens.tv_upper_bound(p, js)
        k = int(np.argmax(bounds))
        mx = float(bounds[k])
        col.append(mx)
        out.row("tv_bound_max", n=n, arg1=float(th[js[k] - 1]), estimate=mx)
        exact = ens.exact_tv_exponential(p, int(js[k]))
        out.row("tv_exact_at_argmax", n=n, arg1=float(th[js[k] - 1]), estimate=exact,
                target=mx)
        out.check(
            f"exact_tv_below_bound_n{n}", exact <= mx + 1e-12,
            f"exact TV {exact:.5f} <= bound {mx:.5f}",
        )
    decreasing = all(a > b for a, b in zip(col, col[1:]))
    out.check(
        "tv_bound_monotone_decreasing", decreasing,
        "max bound along ladder: " + ", ".join(f"{v:.4f}" for v in col),
    )
    out.check(
        "tv_bound_below_threshold", col[-1] <= config.tv_threshold,
        f"{col[-1]:.4f} <= {config.tv_threshold} at n={ladder[-1]}",
    )


@_campaign("centering_rate", reads=("phi", "grid", "n_ladder", "slope_max"))
def _centering_rate(config: ExperimentConfig, out: _Verdicts) -> None:
    """Decay of sup_t |E S(t) - m1(t)| along an n-ladder, with a fitted
    log-log exponent."""
    phi = config.phi.build()
    if phi.derivative_bound is None:
        raise ValueError("centering_rate requires a phi with a certified derivative bound")
    ladder = tuple(config.n_ladder) or (config.params.n,)
    grid = np.asarray(config.grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("centering_rate needs a nonempty time grid")
    errs = []
    m1_grid = LimitLaw(config.params, phi).m1(grid)  # the limit does not depend on n
    for n in ladder:
        p = replace(config.params, n=int(n))
        me = proc.mean_exact(p, phi, grid)
        err = float(np.max(np.abs(me - m1_grid)))
        errs.append(err)
        out.row("centering_sup_error", n=n, estimate=err)
    slope = float(np.polyfit(np.log(np.asarray(ladder, float)), np.log(errs), 1)[0])
    out.row("fitted_slope", estimate=slope, target=config.slope_max)
    out.check(
        "errors_positive_and_decreasing",
        all(e > 0 for e in errs) and all(a > b for a, b in zip(errs, errs[1:])),
        "sup errors: " + ", ".join(f"{e:.3e}" for e in errs),
    )
    out.check(
        "fitted_slope_within_bound", slope <= config.slope_max,
        f"fitted log-log slope {slope:.4f} <= {config.slope_max}",
    )


@_campaign("hitting", reads=("phi", "levels", "cross_times", "replicates", "z_max",
                               "n_ladder", "lemma_levels_horizon", "lemma_replicates"))
def _hitting(config: ExperimentConfig, out: _Verdicts) -> None:
    """Hitting-time fluctuations vs their limit covariance, the joint
    cross-covariance with the statistic, and the divergence at the top level."""
    params = config.params
    phi = config.phi.build()
    if not phi.positive:
        raise ValueError("hitting campaign requires a positive test function")
    if phi.derivative_bound is None:
        raise ValueError("hitting campaign requires a phi with a certified derivative bound")
    law = LimitLaw(params, phi)
    levels = np.asarray(config.levels, dtype=float)
    if len(levels) == 0:
        raise ValueError("hitting campaign needs a nonempty level grid")
    L = law.mass_limit
    if np.any(levels >= L) or not np.all(levels > 0.0):
        # at h = 0 the limit variance is 0 but Q, the smallest particle, varies:
        # that gate's z would depend on M alone
        raise ValueError(f"levels must lie strictly between 0 and the limiting mass L = {L:.6g}")
    cross_times = np.asarray(config.cross_times, dtype=float)
    M = config.replicates

    hit = law.hitting(levels, cross_times)
    S, _, Q = _simulate_statistic(config, params, phi, cross_times, levels=levels)
    center = proc.mean_exact(params, phi, cross_times)
    X = math.sqrt(params.n) * (S - center)

    inf_counts = np.sum(~np.isfinite(Q), axis=0)
    for i, h in enumerate(levels):
        out.row("infinite_hit_frequency", n=params.n, arg1=h,
                estimate=float(inf_counts[i]) / M, target=0.0)
    out.check(
        "no_infinite_hits_below_limit_mass", int(inf_counts.sum()) == 0,
        f"{int(inf_counts.sum())} infinite hitting times across levels",
    )

    finite = np.all(np.isfinite(Q), axis=1)
    Y = math.sqrt(params.n) * (Q[finite] - hit.tau)
    Xf = X[finite]
    mf = int(finite.sum())
    gates = "all_z_within_threshold"
    covQ = np.cov(Y.T, ddof=1).reshape(len(levels), len(levels))
    gramQ = hit.gram
    seQ = _cov_se(covQ, mf)
    for i1 in range(len(levels)):
        for i2 in range(i1, len(levels)):
            out.gate(gates, f"hitting_covariance({levels[i1]:.4g}, {levels[i2]:.4g})",
                     "hitting_covariance", params.n, levels[i1], levels[i2],
                     estimate=covQ[i1, i2], target=gramQ[i1, i2], se=seQ[i1, i2])
    # The hitting time is centered at the limit tau, not at its exact finite-n
    # mean, so sqrt(n)(mean Q - tau) carries an O(log n / sqrt(n)) bias that a
    # mean-of-M standard error would flag spuriously; the comparison scale is
    # therefore the per-replicate spread, as in the escape campaign.
    meanY = Y.mean(axis=0)
    sdY = np.sqrt(np.diag(covQ))
    for i, h in enumerate(levels):
        out.gate(gates, f"hitting_mean({h:.4g}, {h:.4g})", "hitting_mean", params.n, h,
                 estimate=meanY[i], target=0.0, se=sdY[i])

    if len(cross_times):
        varX = X.var(axis=0, ddof=1)
        for it, t in enumerate(cross_times):
            for ih, h in enumerate(levels):
                c = float(np.cov(Xf[:, it], Y[:, ih], ddof=1)[0, 1])
                out.gate(gates, f"cross_covariance({t:.4g}, {h:.4g})", "cross_covariance",
                         params.n, t, h, estimate=c, target=float(hit.cross[it, ih]),
                         se=math.sqrt((varX[it] * covQ[ih, ih] + c * c) / mf))
    out.judge(gates, config.z_max)

    # Divergence at the top level: the probability of hitting L before a
    # fixed horizon must decay along an n-ladder.  At moderate n that
    # probability is within ~1e-8 of one, far beyond Monte Carlo resolution,
    # so for a constant phi, a multiple of the counting statistic, the
    # decrease is asserted on the exact crossing probability of the particle
    # count; the Monte Carlo fractions are reported alongside.
    if config.n_ladder:
        fracs = []
        exact_cross = []
        for n in config.n_ladder:
            p = replace(params, n=int(n))
            _, _, Qn = _simulate_statistic(config, p, phi, np.empty(0), levels=np.array([L]),
                                           replicates=config.lemma_replicates)
            frac = float(np.mean(Qn[:, 0] <= config.lemma_levels_horizon))
            fracs.append(frac)
            out.row("hit_limit_mass_by_horizon", n=n, arg1=L,
                    arg2=config.lemma_levels_horizon, estimate=frac)
            if phi.derivative_bound == 0.0:
                # a constant phi makes S = phi(0) N / n, N the particle count
                cross = _counting_crossing_probability(
                    p, config.lemma_levels_horizon, L / float(phi(0.0))
                )
                exact_cross.append(cross)
                out.row("hit_limit_mass_by_horizon_exact", n=n, arg1=L,
                        arg2=config.lemma_levels_horizon, estimate=cross)
        if exact_cross:
            out.check(
                "hit_probability_at_limit_mass_decreasing",
                all(a > b for a, b in zip(exact_cross, exact_cross[1:]))
                and all(m >= e or abs(m - e) <= 5.0 / math.sqrt(config.lemma_replicates)
                        for m, e in zip(fracs, exact_cross)),
                "exact crossing probabilities along ladder: "
                + ", ".join(f"{1.0 - v:.3e} below one" for v in exact_cross),
            )
        else:
            out.check(
                "hit_fraction_at_limit_mass_nonincreasing",
                all(a >= b for a, b in zip(fracs, fracs[1:])),
                "fractions along ladder: " + ", ".join(f"{v:.4f}" for v in fracs),
            )


def _counting_crossing_probability(params: EnsembleParams, horizon: float,
                                   level: float) -> float:
    """Exact Prob[S(horizon) > level] for the counting statistic: the count
    of particles below the horizon is Poisson-binomial with success
    probabilities cdf_u(j, horizon), convolved by dynamic programming."""
    probs = ens.cdf_u(params, np.arange(1, params.n + 1), float(horizon))
    need = int(math.floor(level * params.n)) + 1  # crossing means count >= need
    if need > params.n:
        return 0.0
    # lower-tail DP over counts 0..need-1; mass flowing past the cap is
    # dropped (counts only increase), so sum(dp) = P(count < need)
    dp = np.zeros(need)
    dp[0] = 1.0
    for f in probs:
        dp[1:] = dp[1:] * (1.0 - f) + dp[:-1] * f
        dp[0] *= 1.0 - f
    return float(1.0 - dp.sum())


def _isserlis(cov: np.ndarray, idx: list) -> float:
    """Gaussian moment E[x_{i1} ... x_{ik}] by recursive pair expansion."""
    if len(idx) == 0:
        return 1.0
    if len(idx) % 2 == 1:
        return 0.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for pos in range(len(rest)):
        pair = cov[first, rest[pos]]
        total += pair * _isserlis(cov, rest[:pos] + rest[pos + 1:])
    return total


@_campaign("moments", reads=("phi", "grid", "moment_orders", "replicates", "z_max"))
def _moments(config: ExperimentConfig, out: _Verdicts) -> None:
    """Joint moments of the scaled centered statistic vs Gaussian targets
    computed from the limit covariance by Isserlis pairing."""
    params = config.params
    phi = config.phi.build()
    law = LimitLaw(params, phi)
    grid = np.asarray(config.grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("moments campaign needs a nonempty time grid")
    M = config.replicates
    orders = tuple(config.moment_orders)
    if not orders:
        orders = tuple(
            tuple(p if i == k else 0 for i in range(len(grid)))
            for k in range(len(grid)) for p in (1, 2, 3, 4)
        )
    for m_idx in orders:
        if len(m_idx) != len(grid) or any(p < 0 for p in m_idx) or sum(m_idx) == 0:
            raise ValueError(f"bad moment multi-index {m_idx!r} for grid of size {len(grid)}")

    S, _, _ = _simulate_statistic(config, params, phi, grid)
    center = proc.mean_exact(params, phi, grid)
    X = math.sqrt(params.n) * (S - center)
    gram = law.gram_statistic(grid)

    gates = "all_moment_z_within_threshold"
    for m_idx in orders:
        sample = np.ones(M)
        flat = []
        for i, p in enumerate(m_idx):
            if p:
                sample = sample * X[:, i] ** p
                flat.extend([i] * p)
        out.gate(gates, "*".join(f"X(t{i})^{p}" for i, p in enumerate(m_idx) if p), "moment",
                 params.n, float(sum(m_idx)), estimate=float(sample.mean()),
                 target=_isserlis(gram, flat),
                 se=float(np.std(sample, ddof=1)) / math.sqrt(M))
    out.judge(gates, config.z_max)


CAMPAIGN_KINDS = tuple(_CAMPAIGNS)


def run_campaign(config: ExperimentConfig) -> ExperimentReport:
    """Run the campaign ``config.kind``: its body fills a fresh
    :class:`_Verdicts`, timed, and the report is assembled from it."""
    t0 = time.perf_counter()
    out = _Verdicts()
    _CAMPAIGNS[config.kind](config, out)
    return ExperimentReport(
        campaign=config.kind, config=config.to_dict(), rows=out.rows,
        assertions=out.assertions, passed=all(a["passed"] for a in out.assertions),
        wall_time_s=time.perf_counter() - t0,
    )
