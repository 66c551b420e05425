#!/usr/bin/env python3
"""Convergence study: how fast does the empirical covariance of the scaled
centered statistic approach the limit kernel as n grows?

For each n in a ladder, runs a CLT campaign and tabulates the worst
covariance z-score together with the largest relative deviation of the
empirical variance from the limit variance.  Writes a CSV table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardedge.ensemble import EnsembleParams  # noqa: E402
from hardedge.verify import ExperimentConfig, PhiSpec, run_campaign  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/covariance_convergence.csv"))
    ap.add_argument("--ladder", type=str, default="50,100,200,400,800")
    ap.add_argument("--replicates", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    lines = ["n,max_abs_z,max_rel_var_dev"]
    for n in (int(v) for v in args.ladder.split(",")):
        cfg = ExperimentConfig(
            kind="clt",
            params=EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n),
            phi=PhiSpec(kind="one"),
            grid=(0.5, 1.0, 2.0, 4.0),
            replicates=args.replicates,
            seed=args.seed,
            workers=args.workers,
        )
        report = run_campaign(cfg)
        cov_rows = [r for r in report.rows if r["record"] == "covariance"]
        max_z = max(abs(r["z"]) for r in cov_rows)
        rel = max(
            abs(r["estimate"] - r["target"]) / r["target"]
            for r in cov_rows if r["arg1"] == r["arg2"]
        )
        lines.append(f"{n},{max_z!r},{rel!r}")
        print(f"n={n:5d}  max |z| = {max_z:5.2f}   max rel var dev = {rel:.4f}")
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
