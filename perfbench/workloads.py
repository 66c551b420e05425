"""The benchmark's workloads: inputs built from the seed, one timed call into
hardedge's public API, and a check of that call's output.

Why these four (each stresses a different layer):

- ``mc_bulk``: the criterion-8 hitting campaign at n=500.  Inversion runs on
  the gammaincinv ("mid") branch only; the only workload on the levels
  branch of the statistic reduction, ``tau``, ``gram_hitting`` and the
  Poisson-binomial crossing probability.
- ``mc_deep``: the criterion-6 escape campaign at n=1e5, M=8, where about
  two thirds of the particles take the deep-tail Newton branch; it runs the
  no-levels branch of the statistic reduction and sets the memory peak.
- ``limit_table``: ``hardedge limit`` for phi=rational on a 6-point grid
  with six levels; no sampling, nearly all nested m12 quadrature.
- ``tv_ladder``: the criterion-7 TV-decay campaign; nearly all scalar
  ``tv_upper_bound`` quadratures.

``limit_table`` and ``tv_ladder`` are deterministic computations: the seed
is passed to the program but does not change their outputs, which are
compared with ``reference.json`` (recorded from hardedge 0.1.0).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import hardedge.cli
import hardedge.verify
from hardedge.ensemble import EnsembleParams
from hardedge.verify import ExperimentConfig, PhiSpec

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Reference values are quadrature results good to ~1e-10; a different but
# correct evaluation agrees well within this, a wrong formula does not.
REL_TOL = 1e-8

_ROW_NUMBERS = ("arg1", "arg2", "estimate", "target", "se", "z")


def _close(value, ref) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0)


def _campaign_problems(report) -> list:
    problems = [f"assertion {a['name']} failed: {a['detail']}" for a in report.failures()]
    if not report.passed:
        problems.append("report.passed is false")
    for row in report.rows:
        for key in _ROW_NUMBERS:
            v = row.get(key)
            if v is not None and not math.isfinite(v):
                problems.append(f"row {row['record']} has non-finite {key} = {v}")
    return problems


class Campaign:
    """A verification campaign run through ``hardedge.verify.run_campaign``."""

    def __init__(self, config: ExperimentConfig, work: int, work_unit: str):
        self.config = config
        self.work = work
        self.work_unit = work_unit

    def run(self):
        return hardedge.verify.run_campaign(self.config)

    def check(self, report):
        """(problems, canonical output bytes)."""
        return self.extra_problems(report) + _campaign_problems(report), report.to_json()

    def extra_problems(self, report) -> list:
        return []


class TvLadder(Campaign):
    def extra_problems(self, report) -> list:
        got = [(r["n"], r["arg1"], r["estimate"])
               for r in report.rows if r["record"] == "tv_bound_max"]
        ref = [tuple(r) for r in REFERENCE["tv_bound_max"]]
        if len(got) != len(ref):
            return [f"expected {len(ref)} tv_bound_max rows, got {len(got)}"]
        return [f"tv_bound_max at n={n}: ({theta!r}, {bound!r}) != reference {r!r}"
                for (n, theta, bound), r in zip(got, ref)
                if n != r[0] or not (_close(theta, r[1]) and _close(bound, r[2]))]


class LimitTable:
    """``hardedge limit`` through ``hardedge.cli.main``, JSON to a file."""

    work_unit = "table entries"

    def __init__(self, seed: int, tmp_dir: Path):
        self.out = tmp_dir / "limit_table.json"
        self.argv = ["limit", "--n", "500", "--phi", "rational",
                     "--grid", "logspace:-1:1.5:6",
                     "--levels", "0.05,0.1,0.15,0.2,0.25,0.3",
                     "--seed", str(seed), "--format", "json", "--out", str(self.out)]
        self.work = len(REFERENCE["limit_table"])

    def run(self):
        return hardedge.cli.main(self.argv)

    def check(self, exit_code):
        if exit_code != 0:
            return [f"hardedge limit exited with {exit_code}"], None
        text = self.out.read_text()
        self.out.unlink()
        rows = [(r["quantity"], r["arg1"], r["arg2"], r["value"])
                for r in json.loads(text)["rows"]]
        ref = REFERENCE["limit_table"]
        if len(rows) != len(ref):
            return [f"expected {len(ref)} table rows, got {len(rows)}"], text
        problems = []
        for got, want in zip(rows, ref):
            same_args = all(g == w or (g is not None and w is not None and _close(g, w))
                            for g, w in zip(got[1:3], want[1:3]))
            if got[0] != want[0] or not same_args or not _close(got[3], want[3]):
                problems.append(f"table row {got!r} != reference {want!r}")
        return problems, text


def _tv_particles(params: EnsembleParams, ladder, delta: float) -> int:
    """Particles with theta_j = (j + alpha) / (b c) > 1 + delta, over the ladder."""
    total = 0
    for n in ladder:
        c = n * params.rho ** (2.0 * params.b)
        theta = (np.arange(1, n + 1) + params.alpha) / (params.b * c)
        total += int(np.count_nonzero(theta > 1.0 + delta))
    return total


def build(name: str, seed: int, tmp_dir: Path):
    """The workload ``name`` with its inputs for ``seed``."""
    if name == "mc_bulk":
        config = ExperimentConfig(
            kind="hitting", params=EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500),
            phi=PhiSpec(kind="one"), levels=(0.075, 0.225, 0.375), cross_times=(1.0, 2.0),
            replicates=5000, seed=seed, n_ladder=(100, 400),
            lemma_levels_horizon=50.0, lemma_replicates=1000,
        )
        return Campaign(config, config.replicates, "replicates")
    if name == "mc_deep":
        # An escape campaign, not a CLT one: at M=16 the CLT campaign's z
        # gates fail on about 7% of seeds, while every escape gate stays
        # valid at small M (per-replicate z scale, exact total mass for
        # phi=one).
        config = ExperimentConfig(
            kind="escape", params=EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100_000),
            phi=PhiSpec(kind="one"), delta=0.2, horizon=10.0, replicates=8, seed=seed,
            escape_threshold=1e-3,
        )
        return Campaign(config, config.replicates, "replicates")
    if name == "limit_table":
        return LimitTable(seed, tmp_dir)
    if name == "tv_ladder":
        params = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=10_000)
        config = ExperimentConfig(
            kind="tv_decay", params=params, phi=PhiSpec(kind="one"),
            n_ladder=(100, 1000, 10_000), delta=0.1, seed=seed, tv_threshold=0.05,
        )
        return TvLadder(config, _tv_particles(params, config.n_ladder, config.delta),
                        "particles bounded")
    raise ValueError(f"unknown workload {name!r}")
