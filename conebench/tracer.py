"""Span tracer that wraps conecalc's layers from outside the package.

Every public module-level function of each layer module (and the
``lru_cache`` objects in ``sampling``) is replaced by a wrapper that
records a span.  The wrapper is rebound by object identity wherever the
original is bound in a ``conecalc`` module namespace or module-level dict,
because ``conormal``, ``geometry`` and ``analysis`` import names with
``from .cones import ...`` and would otherwise keep calling the original.
``FunctionHandle.__call__`` is patched on the class and counts the points
it evaluates.

Spans stay in memory and are written out after the run.  A span's self
time is its duration minus the durations of its direct child spans, so the
self times of all spans partition the time under the outermost span.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

LAYERS = ("cli", "funcs", "sampling", "dini", "geometry", "cones",
          "conormal", "analysis")

# per-function metrics named in the benchmark's per-layer list
FUNCTION_METRICS = (
    ("cones.polar", ("s", "calls")),
    ("sampling.sphere_points", ("s", "calls")),
    ("sampling.min_angle_to_set", ("s",)),
    ("geometry.whitney_cone", ("s",)),
    ("geometry.graph_whitney", ("calls",)),
    ("conormal.conormal_upper_bound", ("s",)),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records (function, parent, start, end, rss growth, points) spans."""

    def __init__(self, clock=time.perf_counter, maxrss=_maxrss_kb):
        self.clock = clock
        self.maxrss = maxrss
        self.layers: list[str] = []
        self.names: list[str] = []      # "layer.function" per function id
        self.layer_of: list[int] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._layer_depth: list[int] = []
        self._fn_depth: list[int] = []

    def _function_id(self, layer: str, name: str) -> tuple[int, int]:
        if layer not in self.layers:
            self.layers.append(layer)
            self._layer_depth.append(0)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(self.layers.index(layer))
        self._fn_depth.append(0)
        return len(self.names) - 1, self.layers.index(layer)

    def wrap(self, layer: str, name: str, fn, count_points: bool = False):
        """A wrapper of ``fn`` that records one span per call."""
        fid, lid = self._function_id(layer, name)
        spans, stack = self.spans, self._stack
        layer_depth, fn_depth = self._layer_depth, self._fn_depth
        clock, maxrss = self.clock, self.maxrss

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fn_depth[fid]:
                # recursion folds into the open span of the same function
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_layer = layer_depth[lid] == 0
            layer_depth[lid] += 1
            fn_depth[fid] = 1
            rss0 = maxrss() if outer_layer else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                growth = maxrss() - rss0 if outer_layer else None
                layer_depth[lid] -= 1
                fn_depth[fid] = 0
                stack.pop()
                points = 0
                if count_points:
                    handle, X = args[0], args[1]
                    points = max(1, int(getattr(X, "size", len(X))) // handle.m)
                spans[idx] = (fid, parent, t0, t1, growth, points)

        return traced

    # ------------------------------------------------------------------
    # installing into conecalc

    def install(self) -> "Tracer":
        """Wrap every layer of the imported ``conecalc`` package."""
        import conecalc.funcs

        originals = {}   # id -> (original, wrapper); holds the originals alive
        for layer in LAYERS:
            mod = sys.modules[f"conecalc.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or id(obj) in originals:
                    continue
                inner = getattr(obj, "__wrapped__", obj)
                if not (inspect.isfunction(inner) and inner.__module__ == mod.__name__):
                    continue
                wrapper = self.wrap(layer, name, obj)
                for attr in ("cache_info", "cache_clear"):
                    if hasattr(obj, attr):
                        setattr(wrapper, attr, getattr(obj, attr))
                originals[id(obj)] = (obj, wrapper)

        for modname, mod in list(sys.modules.items()):
            if modname != "conecalc" and not modname.startswith("conecalc."):
                continue
            for namespace in [vars(mod)] + [v for v in vars(mod).values()
                                            if isinstance(v, dict)]:
                for key, val in list(namespace.items()):
                    if id(val) in originals:
                        namespace[key] = originals[id(val)][1]

        cls = conecalc.funcs.FunctionHandle
        cls.__call__ = self.wrap("funcs", "FunctionHandle.__call__",
                                 cls.__call__, count_points=True)
        return self

    # ------------------------------------------------------------------
    # results

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics for a run whose untraced span took ``wall_s``."""
        n_layers = len(self.layers)
        busy = [0.0] * n_layers
        self_s = [0.0] * n_layers
        calls = [0] * n_layers
        rss_kb = [0] * n_layers
        child = [0.0] * len(self.spans)
        fn_s = [0.0] * len(self.names)
        fn_calls = [0] * len(self.names)
        points = 0
        root_s = 0.0
        for fid, parent, t0, t1, growth, pts in self.spans:
            dur = t1 - t0
            if parent >= 0:
                child[parent] += dur
            else:
                root_s += dur
        for i, (fid, parent, t0, t1, growth, pts) in enumerate(self.spans):
            lid = self.layer_of[fid]
            dur = t1 - t0
            self_s[lid] += dur - child[i]
            calls[lid] += 1
            fn_calls[fid] += 1
            if growth is not None:
                busy[lid] += dur
                rss_kb[lid] += growth
            fn_s[fid] += dur
            points += pts

        out = {}
        for layer in LAYERS:
            lid = self.layers.index(layer) if layer in self.layers else None
            get = (lambda seq: seq[lid]) if lid is not None else (lambda seq: 0)
            out[f"{layer}.busy_s"] = get(busy)
            out[f"{layer}.self_s"] = get(self_s)
            out[f"{layer}.calls"] = get(calls)
            out[f"{layer}.rss_growth_mb"] = get(rss_kb) / 1024.0
        by_name = {name: i for i, name in enumerate(self.names)}
        for fname, kinds in FUNCTION_METRICS:
            i = by_name.get(fname)
            for kind in kinds:
                seq = fn_s if kind == "s" else fn_calls
                out[f"{fname}.{kind}"] = seq[i] if i is not None else 0
        render = by_name.get("cli.render_report")
        out["cli.render_s"] = fn_s[render] if render is not None else 0.0
        handle = by_name.get("funcs.FunctionHandle.__call__")
        handle_calls = fn_calls[handle] if handle is not None else 0
        out["funcs.points"] = points
        out["funcs.points_per_call"] = points / handle_calls if handle_calls else 0.0
        out["trace.glue_s"] = wall_s - root_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, parent index, start, end,
        rss growth in KiB (outermost spans of a layer, else null), points."""
        with open(path, "w") as fh:
            for fid, parent, t0, t1, growth, pts in self.spans:
                fh.write(json.dumps([self.names[fid], parent, t0, t1, growth, pts]))
                fh.write("\n")
