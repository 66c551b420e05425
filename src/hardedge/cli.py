"""Command-line entry point: sample configurations, tabulate limit laws,
and run verification campaigns.

Exit codes: 0 success (and all campaign assertions pass), 1 campaign
assertion failure, 2 configuration/validation error, 3 a numerical routine
missed its stated tolerance (``ArithmeticError``).  ``verify`` passes on
only the knob flags given, and one the campaign does not read exits 2
unless it repeats the default.  Every run logs its resolved configuration
(defaults and seed included; for ``verify``, every knob the campaign reads)
into the output, so a rerun from the header reproduces the run byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import ensemble as ens
from .ensemble import EnsembleParams
from .limit_law import LimitLaw
from .verify import (
    CAMPAIGN_KINDS,
    ExperimentConfig,
    PhiSpec,
    _table_text,
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


# verify's knob flags: (flag, ExperimentConfig field, parser of the text).
# Only flags given reach the config, so each knob's one default is on
# ExperimentConfig, which rejects knobs a campaign ignores.
_KNOB_FLAGS = (
    ("--phi", "phi", PhiSpec.parse),
    ("--grid", "grid", parse_grid),
    ("--levels", "levels", parse_grid),
    ("--replicates", "replicates", int),
    ("--threads", "workers", int),
    ("--z-max", "z_max", float),
    ("--delta", "delta", float),
    ("--horizon", "horizon", float),
    ("--n-ladder", "n_ladder", _parse_ladder),
    ("--tv-threshold", "tv_threshold", float),
    ("--escape-threshold", "escape_threshold", float),
    ("--slope-max", "slope_max", float),
    ("--cross-times", "cross_times", parse_grid),
    ("--lemma-horizon", "lemma_levels_horizon", float),
    ("--lemma-replicates", "lemma_replicates", int),
)


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
    # argparse converts numbers itself, so its messages name a bad flag
    how = {int: {"type": int}, float: {"type": float}}
    for flag, field, parse in _KNOB_FLAGS:
        vp.add_argument(flag, dest=field, default=argparse.SUPPRESS, **how.get(parse, {}))
    vp.add_argument("--out", type=Path, required=True)
    vp.add_argument("--format", choices=("csv", "json"), default="json")
    return ap


def _params_from_args(args) -> EnsembleParams:
    return EnsembleParams(alpha=args.alpha, b=args.b, rho=args.rho, n=args.n)


def _sample_csv(params: EnsembleParams, seed: int, stream: int, u) -> str:
    p = params
    lines = ["alpha,b,rho,n,seed,stream", f"{p.alpha!r},{p.b!r},{p.rho!r},{p.n},{seed},{stream}",
             "u", *(repr(float(v)) for v in u)]
    return "\n".join(lines) + "\n"


def _cmd_sample(args) -> int:
    """One configuration per replicate (stream i for replicate i): a CSV file
    each, with a header of params, seed and stream, or one JSON document."""
    params = _params_from_args(args)
    if args.replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {args.replicates}")
    rows = ens.sample_batch(params, args.seed, range(args.replicates))
    if args.format == "json":
        us = [[float(v) for v in u] for u in rows]
        payload = {"params": params.to_dict(), "seed": args.seed}
        if len(us) == 1:
            payload.update(stream=0, u=us[0])
        else:
            payload["configurations"] = [{"stream": i, "u": u} for i, u in enumerate(us)]
        args.out.write_text(json.dumps(payload, sort_keys=True) + "\n")
    elif len(rows) == 1:
        args.out.write_text(_sample_csv(params, args.seed, 0, rows[0]))
    else:
        for i, u in enumerate(rows):
            path = args.out.with_name(f"{args.out.stem}-r{i:04d}{args.out.suffix}")
            path.write_text(_sample_csv(params, args.seed, i, u))
    return 0


_LIMIT_FIELDS = ("quantity", "arg1", "arg2", "value")


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
    header = {
        "schema_version": 1,  # the limit table's own format
        "params": params.to_dict(),
        "phi": spec.to_dict(),
        "grid": [float(t) for t in grid],
        "levels": [float(h) for h in levels],
    }
    rows = [dict(zip(_LIMIT_FIELDS, (q, a1, a2, float(v))))
            for q, a1, a2, v in _limit_rows(law, grid, levels)]
    args.out.write_text(_table_text(args.format, header, _LIMIT_FIELDS, rows))
    return 0


def _cmd_verify(args) -> int:
    knobs = {field: parse(getattr(args, field))
             for _flag, field, parse in _KNOB_FLAGS if hasattr(args, field)}
    config = ExperimentConfig(kind=args.campaign, params=_params_from_args(args),
                              seed=args.seed, **knobs)
    report = run_campaign(config)
    args.out.write_text(report.to_json() if args.format == "json" else report.to_csv())
    for a in report.assertions:
        status = "ok" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}", file=sys.stderr)
    print(f"campaign {args.campaign}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wall_time_s:.1f} s)", file=sys.stderr)
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
