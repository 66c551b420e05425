"""Benchmark of hardedge campaigns, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload mc_deep --seed 7 --seconds 24 --trace 0

Each run starts ``worker.py`` in a fresh interpreter with ``src`` on the path
and BLAS/OpenMP threads pinned to 1; campaigns use ``workers=1``.  The worker
calls the workload repeatedly for ``--seconds`` and checks every output.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median wall time of one call, from the call to its verdict;
- ``work_per_s``: work items per second at that median (replicates for the
  campaigns, table entries for ``limit_table``, particles bounded for
  ``tv_ladder``);
- ``peak_rss_mb``: peak resident memory of the worker process;
- ``setup_s``: median over several fresh interpreters of the time from
  process start to hardedge imported and inputs built;
- ``pass_frac``: calls that passed their check over calls attempted.  A call
  fails if it raises, if a campaign assertion fails, or if its output fails
  the check; failures are also counted in ``failed``.

``--trace 1`` alternates untraced and traced calls and reports the per-layer
metrics from ``tracing.py`` (medians over the traced calls); a per-call cost
reads 0 where the workload makes no such call.

Every result is preceded by a human-readable table and an ``env`` line; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("mc_bulk", "mc_deep", "limit_table", "tv_ladder")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0
HERE = Path(__file__).resolve().parent


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _start_worker(args, tmp: Path, env: dict, setup_only: bool):
    """(seconds from process start to ready, stdout lines after ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker for {args.workload} ran over {TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"worker for {args.workload} failed (exit {proc.returncode})")
    return float(lines[0].split()[1]) - t0, lines[1:]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args, root: Path) -> dict:
    """One benchmark run; prints its tables and returns the result object."""
    env = _child_env(root)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setups = []
        if not args.trace:
            setups = [_start_worker(args, Path(tmp), env, True)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
        setup, lines = _start_worker(args, Path(tmp), env, False)
    setups.append(setup)
    raw = json.loads(lines[-1])
    attempted, failed = raw["attempted"], raw["failed"]

    environment = dict(raw["versions"], workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       nproc=len(os.sched_getaffinity(0)),
                       threads={var: env[var] for var in THREAD_VARS})
    print("env " + json.dumps(environment, sort_keys=True))
    walls = raw["walls"]
    wall = statistics.median(walls)
    print(f"{args.workload}: {attempted - failed} of {attempted} calls passed their check; "
          f"untraced wall_s median {wall:.4g} s of {len(walls)} calls "
          f"(min {min(walls):.4g}, max {max(walls):.4g})")
    if args.trace:
        metrics = raw["layers"]
        _print_layers(metrics)
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "work_per_s": _metric(raw["work"] / wall, "1/s"),
            "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "pass_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
        notes = {"work_per_s": f"{raw['work']} {raw['work_unit']} per call",
                 "setup_s": f"median of {len(setups)} fresh interpreters"}
        for key, m in metrics.items():
            print(f"  {key:<14} {m['value']:>12.6g} {m['unit']:<6} {notes.get(key, '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_layers(metrics: dict):
    layers = [key[:-len(".share")] for key in metrics if key.endswith(".share")]
    print(f"  {'layer':<18} {'self share':>10} {'busy_s':>10} {'calls':>8} {'errors':>6}")
    for name in layers:
        print(f"  {name:<18} {metrics[name + '.share']['value']:>10.3f} "
              f"{metrics[name + '.busy_s']['value']:>10.4g} "
              f"{int(metrics[name + '.calls']['value']):>8d} "
              f"{int(metrics[name + '.errors']['value']):>6d}")
    for key, m in metrics.items():
        print(f"  {key:<42} {m['value']:>12.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hardedge" / "__init__.py").is_file():
        print("error: run from the root of a hardedge checkout (src/hardedge not found)",
              file=sys.stderr)
        return 2
    runs = [(w, t) for w in (WORKLOADS if args.workload == "all" else (args.workload,))
            for t in ((0, 1) if args.trace is None else (args.trace,))]
    results = {}
    try:
        for workload, trace in runs:
            results[workload, trace] = run_workload(
                argparse.Namespace(**dict(vars(args), workload=workload, trace=trace)), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    traced = {w: r["metrics"] for (w, t), r in results.items() if t == 1}
    if len(traced) > 1:
        print("self-time share of wall_s by layer (traced calls)")
        print(f"  {'layer':<18}" + "".join(f" {w:>12}" for w in traced))
        for key in next(iter(traced.values())):
            if key.endswith(".share"):
                print(f"  {key[:-len('.share')]:<18}"
                      + "".join(f" {m[key]['value']:>12.3f}" for m in traced.values()))
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for (w, _t), r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
