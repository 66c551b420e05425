"""One benchmark process: set up a workload, then run and check it for a
fixed time.  Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP
threads pinned to 1; not meant to be run by hand.

Protocol on stdout: ``ready <time.monotonic()>`` once hardedge is imported
and the inputs are built (the parent measures set-up time against its own
monotonic clock, which Linux shares between processes), then one JSON line
with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import hardedge  # noqa: F401  (set-up time includes the package import)
import tracing
import workloads


def _run_once(workload, tracer):
    """(wall seconds, check problems, output bytes) of one call."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = perf_counter()
    raised = False
    try:
        out = workload.run()
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        raised = True
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if raised:
        return wall, ["call raised"], None
    try:
        problems, output = workload.check(out)
    except Exception as exc:  # unreadable output fails the call
        return wall, [f"check raised {exc!r}"], None
    return wall, problems, output


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.tmp)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    # With tracing on, untraced and traced calls alternate so the overhead
    # is measured in the same process.  A call starts only if one more call
    # as long as the last still fits in --seconds, so a run's length stays
    # within --seconds plus set-up (one call of each kind always runs).
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, layer_samples = [], [], []
    attempted = failed = 0
    reference_output = None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        wall, problems, output = _run_once(workload, tracer if traced else None)
        attempted += 1
        # repeated calls on the same inputs must give identical bytes
        reference_output = reference_output or output
        if output is not None and output != reference_output:
            problems.append("output differs from the first call's")
        if problems:
            failed += 1
            print(f"{args.workload}: check failed: " + "; ".join(problems), file=sys.stderr)
        if traced:
            traced_walls.append(wall)
            layer_samples.append(tracer.metrics(wall))
        else:
            walls.append(wall)
        if (perf_counter() - start + wall > args.seconds
                and (tracer is None or traced_walls)):
            break

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "work": workload.work,
        "work_unit": workload.work_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "hardedge": hardedge.__version__},
    }
    if layer_samples:
        layers = {key: statistics.median(s[key] for s in layer_samples)
                  for key in layer_samples[0]}
        layers["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        result["layers"] = {key: {"value": value, "unit": tracing.unit(key)}
                            for key, value in layers.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
