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

Determinism: replicate i is stream i of :mod:`hardedge.ensemble`, its own
range of draws of the PCG64 stream seeded by the master seed.  Replicates
are processed in blocks of at most 128 rows and 2^20 particles (one row at
least), each worker thread sampling into one workspace that it reuses from
block to block; results are written into preallocated arrays indexed by
replicate, and all reductions run after assembly, so a report is
byte-identical for a fixed seed regardless of the worker count or the block
size.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
    "run_clt",
    "run_escape",
    "run_tv_decay",
    "run_centering_rate",
    "run_hitting",
    "run_moments",
]

SCHEMA_VERSION = 1
# Replicates per block: at most _BLOCK, and at most _BLOCK_PARTICLES
# particles (but one replicate at least), so block temporaries stay bounded
# as n grows.
_BLOCK = 128
_BLOCK_PARTICLES = 2**20

CAMPAIGN_KINDS = ("clt", "hitting", "escape", "centering_rate", "tv_decay", "moments")


@dataclass(frozen=True)
class PhiSpec:
    """Picklable recipe for a test function from the builtin family.

    kind: one | exp_decay | rational | table.  ``param`` is the decay rate
    for exp_decay; ``table_x``/``table_y`` hold the knots for a piecewise
    linear table.
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
    """Campaign configuration; unused knobs are ignored by other kinds."""

    kind: str
    params: EnsembleParams
    phi: PhiSpec = PhiSpec()
    grid: tuple = ()
    levels: tuple = ()
    replicates: int = 2
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
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        for name in ("grid", "levels", "cross_times"):
            if list(getattr(self, name)) != sorted(getattr(self, name)):
                raise ValueError(f"{name} must be sorted ascending")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lemma_replicates < 1:
            raise ValueError(f"lemma_replicates must be >= 1, got {self.lemma_replicates}")

    def to_dict(self) -> dict:
        # `workers` is an execution knob with no effect on the results, so it
        # is deliberately left out: reports must be byte-identical for a fixed
        # (config, seed) regardless of worker count, and a rerun from this
        # header reproduces the run with any parallelism.
        return {
            "kind": self.kind,
            "params": self.params.to_dict(),
            "phi": self.phi.to_dict(),
            "grid": [float(t) for t in self.grid],
            "levels": [float(h) for h in self.levels],
            "replicates": int(self.replicates),
            "seed": int(self.seed),
            "z_max": float(self.z_max),
            "delta": float(self.delta),
            "horizon": float(self.horizon),
            "n_ladder": [int(n) for n in self.n_ladder],
            "tv_threshold": float(self.tv_threshold),
            "escape_threshold": float(self.escape_threshold),
            "slope_max": float(self.slope_max),
            "cross_times": [float(t) for t in self.cross_times],
            "lemma_levels_horizon": float(self.lemma_levels_horizon),
            "lemma_replicates": int(self.lemma_replicates),
            "moment_orders": [list(m) for m in self.moment_orders],
            "center_empirical": bool(self.center_empirical),
        }


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

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "campaign": self.campaign,
            "config": self.config,
            "rows": self.rows,
            "assertions": self.assertions,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_ROW_FIELDS)
        for row in self.rows:
            w.writerow([_csv_cell(row.get(k)) for k in _ROW_FIELDS])
        return buf.getvalue()

    def failures(self) -> list:
        return [a for a in self.assertions if not a["passed"]]


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def _row(record, n=None, arg1=None, arg2=None, estimate=None, target=None, se=None, z=None):
    def f(x):
        return None if x is None or math.isnan(x) else float(x)
    return {
        "record": record,
        "n": None if n is None else int(n),
        "arg1": f(arg1),
        "arg2": f(arg2),
        "estimate": f(estimate),
        "target": f(target),
        "se": f(se),
        "z": f(z),
    }


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _z(estimate, target, se):
    """(estimate - target) / se, or None where no z-score exists: the sample
    has no spread (se = 0) or the estimate is undefined (NaN)."""
    z = (estimate - target) / se if se > 0.0 else math.nan
    return None if math.isnan(z) else float(z)


def _z_assertion(name: str, zs: list, z_max: float) -> dict:
    """Every (label, z) in ``zs`` within z_max; the detail names the worst.
    A missing z-score (None) fails."""
    missing = [label for label, z in zs if z is None]
    if missing:
        return _assertion(name, False, f"no z-score at {missing[0]}: the sample has no spread")
    label, worst = max(zs, key=lambda r: abs(r[1]))
    return _assertion(name, all(abs(z) <= z_max for _label, z in zs),
                      f"max |z| = {abs(worst):.3f} at {label} (threshold {z_max})")


_RUNNERS = {}


def _campaign(kind: str):
    """Register a campaign body, config -> (rows, assertions), as the runner
    for ``kind``; the runner checks the kind, times the body and assembles
    the report."""
    def register(body):
        @functools.wraps(body)
        def run(config: ExperimentConfig) -> ExperimentReport:
            if config.kind != kind:
                raise ValueError(f"{body.__name__} requires kind={kind!r}")
            t0 = time.perf_counter()
            rows, assertions = body(config)
            return ExperimentReport(
                campaign=kind, config=config.to_dict(), rows=rows, assertions=assertions,
                passed=all(a["passed"] for a in assertions),
                wall_time_s=time.perf_counter() - t0,
            )
        _RUNNERS[kind] = run
        return run
    return register


def _run_blocks(replicates: int, n: int, workers: int, block_fn):
    """Run block_fn(i0, i1) over blocks of replicates of n particles each,
    optionally in a thread pool; returns results ordered by block start."""
    size = min(_BLOCK, max(1, _BLOCK_PARTICLES // n))
    blocks = [(i0, min(i0 + size, replicates)) for i0 in range(0, replicates, size)]
    if workers <= 1:
        return [block_fn(i0, i1) for i0, i1 in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(block_fn, i0, i1) for i0, i1 in blocks]
        return [f.result() for f in futures]


def _simulate_statistic(config: ExperimentConfig, params: EnsembleParams,
                        phi: TestFunction, grid: np.ndarray, levels=(),
                        replicates: Optional[int] = None):
    """:func:`hardedge.process.statistic_paths` over every replicate, block by
    block: (S, S_inf, Q) with one row per replicate."""
    M = replicates if replicates is not None else config.replicates
    S = np.empty((M, len(grid)))
    S_inf = np.empty(M)
    Q = np.empty((M, len(levels)))
    js = np.arange(1, params.n + 1)
    # one sampler workspace per worker thread, reused by its blocks
    spaces = threading.local()

    def block(i0: int, i1: int):
        if not hasattr(spaces, "ws"):
            spaces.ws = ens._Workspace()
        u = ens._sample(params, js, config.seed, range(i0, i1), spaces.ws)[0]
        S[i0:i1], S_inf[i0:i1], Q[i0:i1] = proc.statistic_paths(u, phi, grid, levels)

    _run_blocks(M, params.n, config.workers, block)
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


@_campaign("clt")
def run_clt(config: ExperimentConfig) -> ExperimentReport:
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

    rows = []
    mean = X.mean(axis=0)
    cov = np.cov(X.T, ddof=1).reshape(len(grid), len(grid))
    cov_se = _cov_se(cov, M)
    gram = law.gram_statistic(grid)
    mean_se = np.sqrt(np.diag(cov) / M)
    skew, exkurt = _skew_exkurt(X)
    zs = []
    for i, t in enumerate(grid):
        z = _z(mean[i], 0.0, mean_se[i])
        rows.append(_row("mean", n=params.n, arg1=t, estimate=mean[i], target=0.0,
                         se=mean_se[i], z=z))
        if not config.center_empirical:
            zs.append((f"mean({t}, None)", z))
        z = _z(skew[i], 0.0, math.sqrt(6.0 / M))
        rows.append(_row("skewness", n=params.n, arg1=t, estimate=skew[i], target=0.0,
                         se=math.sqrt(6.0 / M), z=z))
        zs.append((f"skewness({t}, None)", z))
        z = _z(exkurt[i], 0.0, math.sqrt(24.0 / M))
        rows.append(_row("excess_kurtosis", n=params.n, arg1=t, estimate=exkurt[i],
                         target=0.0, se=math.sqrt(24.0 / M), z=z))
        zs.append((f"excess_kurtosis({t}, None)", z))
    for i1 in range(len(grid)):
        for i2 in range(i1, len(grid)):
            z = _z(cov[i1, i2], gram[i1, i2], cov_se[i1, i2])
            rows.append(_row("covariance", n=params.n, arg1=grid[i1], arg2=grid[i2],
                             estimate=cov[i1, i2], target=gram[i1, i2],
                             se=cov_se[i1, i2], z=z))
            zs.append((f"covariance({grid[i1]}, {grid[i2]})", z))
    return rows, [_z_assertion("all_z_within_threshold", zs, config.z_max)]


@_campaign("escape")
def run_escape(config: ExperimentConfig) -> ExperimentReport:
    """Low-index particles leave every fixed window: exact CDF ladder plus a
    Monte Carlo check that the statistic concentrates on the limit mean.

    The largest cdf_u(j, T) over theta_j < 1 - delta is that of the last such
    j, because theta_j grows with j and so does cdf_u(j, T).  U_j has density
    proportional to exp(-beta s_j x - c e^{-beta x}) on x > 0, with
    s_j = (j + alpha)/b increasing, so f_{j+1}/f_j is proportional to
    exp(-beta (s_{j+1} - s_j) x), decreasing in x.  U_{j+1} is therefore
    below U_j in likelihood ratio, hence stochastically, and
    Prob[U_{j+1} <= T] >= Prob[U_j <= T].  (Where the column saturates, within
    an ulp of 1, cdf_u's rounding is not monotone, so the row may read one ulp
    below the largest value over all those j.)
    """
    phi = config.phi.build()
    ladder = tuple(config.n_ladder) or (config.params.n,)
    T = config.horizon
    rows = []
    assertions = []

    exact_col = []
    for n in ladder:
        p = replace(config.params, n=int(n))
        th = ens.theta(p, np.arange(1, p.n + 1))
        last = int(np.count_nonzero(th < 1.0 - config.delta))
        mx = ens.cdf_u(p, last, T) if last else 0.0
        exact_col.append(mx)
        rows.append(_row("escape_exact_max_cdf", n=n, arg1=T, estimate=mx, target=0.0))
        retained = float(np.count_nonzero(th > 1.0)) / p.n
        rows.append(_row("retained_fraction", n=n, estimate=retained, target=p.kappa))
        assertions.append(_assertion(
            f"retained_fraction_matches_kappa_n{n}",
            abs(retained - p.kappa) <= (2.0 + abs(p.alpha)) / p.n,
            f"|{retained:.6f} - kappa {p.kappa:.6f}| <= {(2.0 + abs(p.alpha)) / p.n:.2e}",
        ))
    decreasing = all(a > b for a, b in zip(exact_col, exact_col[1:]))
    assertions.append(_assertion(
        "escape_exact_strictly_decreasing", decreasing,
        f"max cdf_u(theta<1-delta, T={T}) along ladder: "
        + ", ".join(f"{v:.3e}" for v in exact_col),
    ))
    assertions.append(_assertion(
        "escape_exact_below_threshold",
        exact_col[-1] < config.escape_threshold,
        f"{exact_col[-1]:.3e} < {config.escape_threshold:.1e} at n={ladder[-1]}",
    ))

    # Monte Carlo at the largest ladder n: S(T) concentrates on m1(T); the
    # comparison scale is the per-replicate standard deviation because the
    # centering bias m_n - m1 = O(log n / n) dominates the mean's own SE.
    p = replace(config.params, n=int(ladder[-1]))
    law = LimitLaw(p, phi)
    grid = np.array([T])
    S, S_inf, _ = _simulate_statistic(config, p, phi, grid)
    m1_T = law.m1(T)
    sd = float(np.std(S[:, 0], ddof=1))
    z = _z(float(S.mean(axis=0)[0]), m1_T, sd)
    rows.append(_row("statistic_vs_limit_mean", n=p.n, arg1=T,
                     estimate=float(S.mean(axis=0)[0]), target=m1_T, se=sd, z=z))
    assertions.append(_z_assertion("statistic_concentrates_on_limit_mean",
                                   [(f"S({T})", z)], config.z_max))
    total = float(S_inf.mean())
    if config.phi.kind == "one":
        rows.append(_row("total_mass", n=p.n, estimate=total, target=1.0))
        assertions.append(_assertion(
            "total_mass_is_one", abs(total - 1.0) <= 1e-12,
            f"|S(inf) - 1| = {abs(total - 1.0):.2e}",
        ))
    else:
        target = proc.mean_exact(p, phi, np.inf)
        sdt = float(np.std(S_inf, ddof=1)) / math.sqrt(len(S_inf))
        zt = _z(total, target, sdt)
        rows.append(_row("total_mass", n=p.n, estimate=total, target=target, se=sdt, z=zt))
        assertions.append(_z_assertion("total_mass_matches_exact_mean", [("S(inf)", zt)],
                                       config.z_max))
    return rows, assertions


@_campaign("tv_decay")
def run_tv_decay(config: ExperimentConfig) -> ExperimentReport:
    """Worst-case TV bound between high-index particles and their exponential
    approximants, tabulated along an n-ladder."""
    ladder = tuple(config.n_ladder) or (config.params.n,)
    rows = []
    assertions = []
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
        rows.append(_row("tv_bound_max", n=n, arg1=float(th[js[k] - 1]), estimate=mx))
        exact = ens.exact_tv_exponential(p, int(js[k]))
        rows.append(_row("tv_exact_at_argmax", n=n, arg1=float(th[js[k] - 1]),
                         estimate=exact, target=mx))
        assertions.append(_assertion(
            f"exact_tv_below_bound_n{n}", exact <= mx + 1e-12,
            f"exact TV {exact:.5f} <= bound {mx:.5f}",
        ))
    decreasing = all(a > b for a, b in zip(col, col[1:]))
    assertions.append(_assertion(
        "tv_bound_monotone_decreasing", decreasing,
        "max bound along ladder: " + ", ".join(f"{v:.4f}" for v in col),
    ))
    assertions.append(_assertion(
        "tv_bound_below_threshold", col[-1] <= config.tv_threshold,
        f"{col[-1]:.4f} <= {config.tv_threshold} at n={ladder[-1]}",
    ))
    return rows, assertions


@_campaign("centering_rate")
def run_centering_rate(config: ExperimentConfig) -> ExperimentReport:
    """Decay of sup_t |E S(t) - m1(t)| along an n-ladder, with a fitted
    log-log exponent."""
    phi = config.phi.build()
    if phi.derivative_bound is None:
        raise ValueError("centering_rate requires a phi with a certified derivative bound")
    ladder = tuple(config.n_ladder) or (config.params.n,)
    grid = np.asarray(config.grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("centering_rate needs a nonempty time grid")
    rows = []
    assertions = []
    errs = []
    m1_grid = None
    for n in ladder:
        p = replace(config.params, n=int(n))
        law = LimitLaw(p, phi)
        if m1_grid is None:
            m1_grid = law.m1(grid)
        me = proc.mean_exact(p, phi, grid)
        err = float(np.max(np.abs(me - m1_grid)))
        errs.append(err)
        rows.append(_row("centering_sup_error", n=n, estimate=err))
    slope = float(np.polyfit(np.log(np.asarray(ladder, float)), np.log(errs), 1)[0])
    rows.append(_row("fitted_slope", estimate=slope, target=config.slope_max))
    assertions.append(_assertion(
        "errors_positive_and_decreasing",
        all(e > 0 for e in errs) and all(a > b for a, b in zip(errs, errs[1:])),
        "sup errors: " + ", ".join(f"{e:.3e}" for e in errs),
    ))
    assertions.append(_assertion(
        "fitted_slope_within_bound", slope <= config.slope_max,
        f"fitted log-log slope {slope:.4f} <= {config.slope_max}",
    ))
    return rows, assertions


@_campaign("hitting")
def run_hitting(config: ExperimentConfig) -> ExperimentReport:
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

    rows = []
    assertions = []
    inf_counts = np.sum(~np.isfinite(Q), axis=0)
    for i, h in enumerate(levels):
        rows.append(_row("infinite_hit_frequency", n=params.n, arg1=h,
                         estimate=float(inf_counts[i]) / M, target=0.0))
    assertions.append(_assertion(
        "no_infinite_hits_below_limit_mass", int(inf_counts.sum()) == 0,
        f"{int(inf_counts.sum())} infinite hitting times across levels",
    ))

    finite = np.all(np.isfinite(Q), axis=1)
    Y = math.sqrt(params.n) * (Q[finite] - hit.tau)
    Xf = X[finite]
    mf = int(finite.sum())
    zs = []
    covQ = np.cov(Y.T, ddof=1).reshape(len(levels), len(levels))
    gramQ = hit.gram
    seQ = _cov_se(covQ, mf)
    for i1 in range(len(levels)):
        for i2 in range(i1, len(levels)):
            z = _z(covQ[i1, i2], gramQ[i1, i2], seQ[i1, i2])
            rows.append(_row("hitting_covariance", n=params.n, arg1=levels[i1],
                             arg2=levels[i2], estimate=covQ[i1, i2],
                             target=gramQ[i1, i2], se=seQ[i1, i2], z=z))
            zs.append((f"hitting_covariance({levels[i1]:.4g}, {levels[i2]:.4g})", z))
    # The hitting time is centered at the limit tau, not at its exact finite-n
    # mean, so sqrt(n)(mean Q - tau) carries an O(log n / sqrt(n)) bias that a
    # mean-of-M standard error would flag spuriously; the comparison scale is
    # therefore the per-replicate spread, as in the escape campaign.
    meanY = Y.mean(axis=0)
    sdY = np.sqrt(np.diag(covQ))
    for i, h in enumerate(levels):
        z = _z(meanY[i], 0.0, sdY[i])
        rows.append(_row("hitting_mean", n=params.n, arg1=h, estimate=meanY[i],
                         target=0.0, se=sdY[i], z=z))
        zs.append((f"hitting_mean({h:.4g}, {h:.4g})", z))

    if len(cross_times):
        varX = X.var(axis=0, ddof=1)
        for it, t in enumerate(cross_times):
            for ih, h in enumerate(levels):
                c = float(np.cov(Xf[:, it], Y[:, ih], ddof=1)[0, 1])
                target = float(hit.cross[it, ih])
                se = math.sqrt((varX[it] * covQ[ih, ih] + c * c) / mf)
                z = _z(c, target, se)
                rows.append(_row("cross_covariance", n=params.n, arg1=t, arg2=h,
                                 estimate=c, target=target, se=se, z=z))
                zs.append((f"cross_covariance({t:.4g}, {h:.4g})", z))
    assertions.append(_z_assertion("all_z_within_threshold", zs, config.z_max))

    # Divergence at the top level: the probability of hitting L before a
    # fixed horizon must decay along an n-ladder.  At moderate n that
    # probability is within ~1e-8 of one, far beyond Monte Carlo resolution,
    # so for the counting statistic the decrease is asserted on the exact
    # crossing probability of the particle count; the Monte Carlo fractions
    # are reported alongside.
    if config.n_ladder:
        fracs = []
        exact_cross = []
        for n in config.n_ladder:
            p = replace(params, n=int(n))
            _, _, Qn = _simulate_statistic(config, p, phi, np.empty(0), levels=np.array([L]),
                                           replicates=config.lemma_replicates)
            frac = float(np.mean(Qn[:, 0] <= config.lemma_levels_horizon))
            fracs.append(frac)
            rows.append(_row("hit_limit_mass_by_horizon", n=n, arg1=L,
                             arg2=config.lemma_levels_horizon, estimate=frac))
            if config.phi.kind == "one":
                cross = _counting_crossing_probability(
                    p, config.lemma_levels_horizon, L
                )
                exact_cross.append(cross)
                rows.append(_row("hit_limit_mass_by_horizon_exact", n=n, arg1=L,
                                 arg2=config.lemma_levels_horizon, estimate=cross))
        if exact_cross:
            assertions.append(_assertion(
                "hit_probability_at_limit_mass_decreasing",
                all(a > b for a, b in zip(exact_cross, exact_cross[1:]))
                and all(m >= e or abs(m - e) <= 5.0 / math.sqrt(config.lemma_replicates)
                        for m, e in zip(fracs, exact_cross)),
                "exact crossing probabilities along ladder: "
                + ", ".join(f"{1.0 - v:.3e} below one" for v in exact_cross),
            ))
        else:
            assertions.append(_assertion(
                "hit_fraction_at_limit_mass_nonincreasing",
                all(a >= b for a, b in zip(fracs, fracs[1:])),
                "fractions along ladder: " + ", ".join(f"{v:.4f}" for v in fracs),
            ))
    return rows, assertions


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


@_campaign("moments")
def run_moments(config: ExperimentConfig) -> ExperimentReport:
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

    rows = []
    zs = []
    for m_idx in orders:
        sample = np.ones(M)
        flat = []
        for i, p in enumerate(m_idx):
            if p:
                sample = sample * X[:, i] ** p
                flat.extend([i] * p)
        target = _isserlis(gram, flat)
        est = float(sample.mean())
        se = float(np.std(sample, ddof=1)) / math.sqrt(M)
        z = _z(est, target, se)
        label = "*".join(f"X(t{i})^{p}" for i, p in enumerate(m_idx) if p)
        rows.append(_row("moment", n=params.n, arg1=float(sum(m_idx)),
                         estimate=est, target=target, se=se, z=z))
        zs.append((label, z))
    return rows, [_z_assertion("all_moment_z_within_threshold", zs, config.z_max)]


def run_campaign(config: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[config.kind](config)
