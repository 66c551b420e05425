"""Command-line entry point: sample configurations, tabulate limit laws,
and run verification campaigns.

Exit codes: 0 success (and all campaign assertions pass), 1 campaign
assertion failure, 2 configuration/validation error, 3 a numerical routine
missed its stated tolerance (``ArithmeticError``).  Every run logs its
fully resolved configuration (defaults and seed included) into the output,
so a rerun from the header reproduces the run byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import ensemble as ens
from .ensemble import EnsembleParams
from .limit_law import LimitLaw
from .verify import (
    CAMPAIGN_KINDS,
    ExperimentConfig,
    PhiSpec,
    SCHEMA_VERSION,
    run_campaign,
)

__all__ = ["main", "parse_grid"]


def parse_grid(text: str) -> tuple:
    """Grid syntax: '0.5,1,2,4' | 'linspace:a:b:count' | 'logspace:a:b:count'
    (logspace bounds are base-10 exponents); strictly ascending in every
    syntax."""
    if text.startswith("linspace:") or text.startswith("logspace:"):
        kind, a, b, count = text.split(":")
        a, b, count = float(a), float(b), int(count)
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        vals = np.linspace(a, b, count) if kind == "linspace" else np.logspace(a, b, count)
        vals = tuple(float(v) for v in vals)
    else:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"grid must be strictly ascending: {text!r}")
    return vals


def _parse_ladder(text: str) -> tuple:
    """An n-ladder: a grid of integers."""
    vals = parse_grid(text)
    if not all(v.is_integer() for v in vals):
        raise ValueError(f"n-ladder values must be integers: {text!r}")
    return tuple(int(v) for v in vals)


def _add_ensemble_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="hardedge",
        description="simulation and verification lab for hard-edge scaled "
                    "radial statistics of the constrained Mittag-Leffler ensemble",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample radial configurations")
    _add_ensemble_args(sp)
    sp.add_argument("--replicates", type=int, default=1)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    lp = sub.add_parser("limit", help="tabulate the limiting Gaussian law")
    _add_ensemble_args(lp)
    lp.add_argument("--phi", type=str, default="one")
    lp.add_argument("--grid", type=str, required=True)
    lp.add_argument("--levels", type=str, default="")
    lp.add_argument("--out", type=Path, required=True)
    lp.add_argument("--format", choices=("csv", "json"), default="csv")

    vp = sub.add_parser("verify", help="run a Monte Carlo verification campaign")
    _add_ensemble_args(vp)
    vp.add_argument("--campaign", choices=CAMPAIGN_KINDS, required=True)
    vp.add_argument("--phi", type=str, default="one")
    vp.add_argument("--grid", type=str, default="")
    vp.add_argument("--levels", type=str, default="")
    vp.add_argument("--replicates", type=int, default=100)
    vp.add_argument("--threads", type=int, default=1)
    vp.add_argument("--z-max", type=float, default=5.0)
    vp.add_argument("--delta", type=float, default=0.1)
    vp.add_argument("--horizon", type=float, default=10.0)
    vp.add_argument("--n-ladder", type=str, default="")
    vp.add_argument("--tv-threshold", type=float, default=0.05)
    vp.add_argument("--escape-threshold", type=float, default=1e-3)
    vp.add_argument("--slope-max", type=float, default=-0.8)
    vp.add_argument("--cross-times", type=str, default="")
    vp.add_argument("--lemma-horizon", type=float, default=50.0)
    vp.add_argument("--lemma-replicates", type=int, default=1000)
    vp.add_argument("--center-empirical", action="store_true")
    vp.add_argument("--out", type=Path, required=True)
    vp.add_argument("--format", choices=("csv", "json"), default="json")
    return ap


def _params_from_args(args) -> EnsembleParams:
    return EnsembleParams(alpha=args.alpha, b=args.b, rho=args.rho, n=args.n)


def _cmd_sample(args) -> int:
    params = _params_from_args(args)
    if args.replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {args.replicates}")
    configs = [
        ens.RadialConfiguration(u=u, params=params, seed=int(args.seed), stream=i)
        for i, u in enumerate(ens.sample_batch(params, args.seed, range(args.replicates)))
    ]
    if args.format == "json":
        if len(configs) == 1:
            text = configs[0].to_json() + "\n"
        else:
            payload = {
                "params": params.to_dict(),
                "seed": int(args.seed),
                "configurations": [
                    {"stream": c.stream, "u": [float(v) for v in c.u]} for c in configs
                ],
            }
            text = json.dumps(payload, sort_keys=True) + "\n"
        args.out.write_text(text)
    else:
        if len(configs) == 1:
            args.out.write_text(configs[0].to_csv())
        else:
            for c in configs:
                path = args.out.with_name(f"{args.out.stem}-r{c.stream:04d}{args.out.suffix}")
                path.write_text(c.to_csv())
    return 0


def _limit_rows(law: LimitLaw, grid, levels) -> list:
    rows = [("kappa", None, None, law.kappa)]
    for t, m1, m2 in zip(grid, *law.moments(grid)):
        rows.append(("m1", float(t), None, float(m1)))
        rows.append(("m2", float(t), None, float(m2)))
    rows.append(("m1", float("inf"), None, law.mass_limit))
    rows += _upper_triangle("cov", grid, law.gram_statistic(grid))
    if law.phi.positive and levels:
        hit = law.hitting(levels)
        for h, tau, tau_prime in zip(levels, hit.tau, hit.tau_prime):
            rows.append(("tau", float(h), None, float(tau)))
            rows.append(("tau_prime", float(h), None, float(tau_prime)))
        rows += _upper_triangle("cov_hitting", levels, hit.gram)
    return rows


def _upper_triangle(quantity: str, points, gram: np.ndarray) -> list:
    return [(quantity, float(points[i1]), float(points[i2]), gram[i1, i2])
            for i1 in range(len(points)) for i2 in range(i1, len(points))]


def _cmd_limit(args) -> int:
    params = _params_from_args(args)
    spec = PhiSpec.parse(args.phi)
    grid = parse_grid(args.grid) if args.grid else ()
    if not grid:
        raise ValueError("limit command requires a nonempty --grid")
    levels = parse_grid(args.levels) if args.levels else ()
    law = LimitLaw(params, spec.build())
    rows = _limit_rows(law, grid, levels)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "params": params.to_dict(),
            "phi": spec.to_dict(),
            "grid": [float(t) for t in grid],
            "levels": [float(h) for h in levels],
            "rows": [
                {"quantity": q, "arg1": a1, "arg2": a2, "value": float(v)}
                for q, a1, a2, v in rows
            ],
        }
        args.out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = ["quantity,arg1,arg2,value"]
        for q, a1, a2, v in rows:
            cells = [q, "" if a1 is None else repr(a1), "" if a2 is None else repr(a2),
                     repr(float(v))]
            lines.append(",".join(cells))
        args.out.write_text("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    params = _params_from_args(args)
    config = ExperimentConfig(
        kind=args.campaign,
        params=params,
        phi=PhiSpec.parse(args.phi),
        grid=parse_grid(args.grid) if args.grid else (),
        levels=parse_grid(args.levels) if args.levels else (),
        replicates=args.replicates,
        seed=args.seed,
        workers=args.threads,
        z_max=args.z_max,
        delta=args.delta,
        horizon=args.horizon,
        n_ladder=_parse_ladder(args.n_ladder) if args.n_ladder else (),
        tv_threshold=args.tv_threshold,
        escape_threshold=args.escape_threshold,
        slope_max=args.slope_max,
        cross_times=parse_grid(args.cross_times) if args.cross_times else (),
        lemma_levels_horizon=args.lemma_horizon,
        lemma_replicates=args.lemma_replicates,
        center_empirical=args.center_empirical,
    )
    t0 = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - t0
    args.out.write_text(report.to_json() if args.format == "json" else report.to_csv())
    for a in report.assertions:
        status = "ok" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}", file=sys.stderr)
    print(f"campaign {args.campaign}: {'PASS' if report.passed else 'FAIL'} "
          f"({elapsed:.1f} s)", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "limit":
            return _cmd_limit(args)
        return _cmd_verify(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
