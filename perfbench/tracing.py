"""Per-layer spans for hardedge, recorded from outside the package.

The tracer replaces the functions at hardedge's layer boundaries with
wrappers that record a span (layer, function, parent span, start, end,
result size, raised) in memory, and puts the originals back afterwards.
A name is replaced wherever callers look it up: ``ensemble`` and ``process``
import the special functions by name, so those module globals are patched
too, and ``LimitLaw`` methods are patched on the class.

Functions evaluated once per quadrature node (``TestFunction.__call__``,
``omega1``/``omega2``, ``density_u``, ``one_minus_weight_w``) are left
unwrapped: a span per node would cost more than the node, and their time is
self time of the layer that integrates them.

The inversion ``inv_log_reg_lower_gamma`` is additionally split at the
documented ``ln 1e-280`` threshold: each call is evaluated separately on its
gammaincinv ("mid") and deep-tail Newton ("deep") entries, which gives the
same values because the inversion is elementwise and batch-invariant.

Spans assume one thread, so campaigns run with ``workers=1``.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

import hardedge
from hardedge import cli, ensemble, limit_law, process, special_functions, verify

LAYERS = ("special_functions", "ensemble", "process", "limit_law", "verify", "cli")

# Module functions wrapped per layer: the calls that cross a layer boundary
# in the workloads, plus the ones a per-layer metric is defined on.
FUNCTIONS = {
    special_functions: ("inv_log_reg_lower_gamma", "log_reg_lower_gamma"),
    ensemble: ("sample_batch", "cdf_u", "tv_upper_bound", "exact_tv_exponential"),
    process: ("mean_exact",),
    verify: ("run_campaign",),
    cli: ("main",),
}
_MODULES = (hardedge, special_functions, ensemble, process, limit_law, verify, cli)

# Deep-tail threshold of inv_log_reg_lower_gamma: ln P <= ln 1e-280.
LOG_FLOOR = math.log(1e-280)

# Span record fields.
_LAYER, _NAME, _PARENT, _START, _END, _SIZE, _RAISED = range(7)


_UNITS = (("_ns_per_elem", "ns"), ("_ns_per_particle", "ns"), ("_us_per_particle", "us"),
          ("_us_per_entry", "us"), ("_ms_per_call", "ms"), ("_s", "s"),
          (".calls", "count"), (".errors", "count"))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name; the rest are ratios."""
    return next((u for end, u in _UNITS if metric.endswith(end)), "ratio")


class Tracer:
    """Spans of one traced call; ``install`` before it, ``uninstall`` after."""

    def __init__(self):
        self.spans = []
        self.inversion = {"mid": [0, 0.0], "deep": [0, 0.0]}  # entries, seconds
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        for acc in self.inversion.values():
            acc[:] = [0, 0.0]

    def install(self):
        for module, names in FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = module.__dict__.get(name)
                if fn is None:  # renamed or removed: its metrics read 0
                    continue
                inner = self._split_inversion(fn) if name == "inv_log_reg_lower_gamma" else fn
                wrapped = self._span(layer, name, inner)
                for mod in _MODULES:
                    if mod.__dict__.get(name) is fn:
                        self._patch(mod, name, wrapped)
        # every public method of LimitLaw, patched on the class
        for name, fn in list(vars(limit_law.LimitLaw).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                self._patch(limit_law.LimitLaw, name, self._span("limit_law", name, fn))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapped):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def _span(self, layer, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, 1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[_RAISED] = True
                raise
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if isinstance(out, np.ndarray):
                rec[_SIZE] = out.size
            return out

        return traced

    def _split_inversion(self, fn):
        acc = self.inversion

        def timed(key, a, log_p):
            t0 = perf_counter()
            out = fn(a, log_p)
            acc[key][0] += np.size(a)
            acc[key][1] += perf_counter() - t0
            return out

        @functools.wraps(fn)
        def inverse(a, log_p):
            aa, la = np.broadcast_arrays(np.asarray(a, dtype=float),
                                         np.asarray(log_p, dtype=float))
            deep = np.isfinite(la) & (la <= LOG_FLOOR)
            mid = (la > LOG_FLOOR) & (la < 0.0)
            if aa.ndim == 0:
                if deep or mid:
                    return timed("deep" if deep else "mid", a, log_p)
                return fn(a, log_p)
            out = np.empty(aa.shape)
            for key, sel in (("mid", mid), ("deep", deep)):
                if sel.any():
                    out[sel] = timed(key, aa[sel], la[sel])
            rest = ~(mid | deep)
            if rest.any():
                out[rest] = fn(aa[rest], la[rest])
            return out

        return inverse

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since ``reset``.

        A layer's busy time is covered by its outermost spans, its self time
        is its spans' durations minus their child spans, and its share is
        self time over ``wall_s``.  A per-call cost averages a function's
        outermost spans and reads 0 when the function was not called.
        """
        spans = self.spans
        dur = [s[_END] - s[_START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += dur[i]
        layer = {name: defaultdict(float) for name in LAYERS}
        # per function, over its outermost spans: inclusive s, calls, result size
        fn = defaultdict(lambda: [0.0, 0, 0])
        fn_self = defaultdict(float)
        for i, s in enumerate(spans):
            key = (s[_LAYER], s[_NAME])
            acc = layer[s[_LAYER]]
            acc["self_s"] += dur[i] - child[i]
            acc["calls"] += 1
            acc["errors"] += s[_RAISED]
            fn_self[key] += dur[i] - child[i]
            same_layer = same_fn = False
            p = s[_PARENT]
            while p >= 0:
                q = spans[p]
                same_layer |= q[_LAYER] == s[_LAYER]
                same_fn |= (q[_LAYER], q[_NAME]) == key
                p = q[_PARENT]
            if not same_layer:
                acc["busy_s"] += dur[i]
                acc["entries"] += s[_SIZE]
            if not same_fn:
                f = fn[key]
                f[0] += dur[i]
                f[1] += 1
                f[2] += s[_SIZE]

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        def per_call(layer_name, name, scale):
            incl, calls, _ = fn[(layer_name, name)]
            return per(incl, calls, scale)

        (mid_n, mid_s), (deep_n, deep_s) = self.inversion["mid"], self.inversion["deep"]
        sample = fn[("ensemble", "sample_batch")]
        out = {
            "special_functions.inv_mid_ns_per_elem": per(mid_s, mid_n, 1e9),
            "special_functions.inv_deep_ns_per_elem": per(deep_s, deep_n, 1e9),
            "special_functions.deep_fraction": per(deep_n, mid_n + deep_n, 1.0),
            "ensemble.sample_ns_per_particle": per(sample[0], sample[2], 1e9),
            "ensemble.sample_self_s": fn_self[("ensemble", "sample_batch")],
            "ensemble.tv_bound_us_per_particle": per_call("ensemble", "tv_upper_bound", 1e6),
            "ensemble.tv_oracle_s": fn[("ensemble", "exact_tv_exponential")][0],
            "process.mean_exact_ms_per_call": per_call("process", "mean_exact", 1e3),
            # limit-law time per value handed to another layer (a Gram
            # matrix counts its entries)
            "limit_law.table_us_per_entry": per(layer["limit_law"]["busy_s"],
                                                layer["limit_law"]["entries"], 1e6),
            "limit_law.m12_ms_per_call": per_call("limit_law", "m12", 1e3),
            "limit_law.tau_ms_per_call": per_call("limit_law", "tau", 1e3),
            "verify.self_s": layer["verify"]["self_s"],
            "cli.self_s": layer["cli"]["self_s"],
        }
        for name in LAYERS:
            acc = layer[name]
            out[f"{name}.busy_s"] = acc["busy_s"]
            out[f"{name}.share"] = acc["self_s"] / wall_s
            out[f"{name}.calls"] = int(acc["calls"])
            out[f"{name}.errors"] = int(acc["errors"])
        return out
