"""Per-layer spans recorded from outside the library.

``Tracer`` wraps the public layer functions listed in ``LAYERS`` at every
relaysynth module attribute that holds them (``element_maxflow`` is looked up
in both ``connectivity`` and ``beads``, ``realize`` in four modules), so every
call path goes through the wrapper.  Spans nest on a stack: a span's self time
is its duration minus the time of the wrapped spans it encloses.  Spans are
folded into per-function totals as they close, because one pass of the exact
sweep opens about 270,000 of them.  Counts the library computes and drops
(branch-and-bound nodes, cut rows, candidate points, exact flags) are read
from the wrapped functions' arguments and return values.
"""

from __future__ import annotations

import importlib
import sys
import time


def _rows(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    return {"rows": len(rows)}


# layer function -> extractor of extra counts from (args, kwargs, result)
LAYERS = {
    "connectivity.element_maxflow": None,
    "connectivity.verify_feasible": None,
    "connectivity.prune_minimal": None,
    "connectivity.fractional_feasible": None,
    "connectivity.tau_star": lambda a, k, r: {"cuts": r.cuts},
    "simplex.solve_min_cover": _rows,
    "beads.tau_integral": lambda a, k, r: {
        "nodes": r.nodes_explored,
        "uncertified": int(not r.certified),
    },
    "beads.realize": None,
    "survivable.sn_backend_primal_dual": None,
    "survivable.solve_sn_msp_012": None,
    "steiner.build_candidate_universe": lambda a, k, r: {
        "points": len(r.points),
        "truncated": int(r.truncated),
    },
    "steiner.exact_component_oracle": lambda a, k, r: {"exact": int(r.exact)},
    "steiner.build_component_hypergraph": lambda a, k, r: {
        "edges": len(r.edges),
        "exact": sum(1 for e in r.edges if e.exact),
    },
    "local_replacement.local_replacement": lambda a, k, r: {"steps": len(r.trace.steps)},
    "local_replacement.st_msp_scheme": None,
}


class Tracer:
    """Context manager: wrappers are installed on entry and removed on exit."""

    def __init__(self):
        self.totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
        self._stack = []  # per open span: time covered by its child spans
        self._patched = []

    def _wrap(self, name, fn, extract):
        totals = self.totals[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                totals["calls"] += 1
                totals["s"] += dt
                totals["self_s"] += dt - children
                if stack:
                    stack[-1] += dt
            if extract is not None:
                for key, value in extract(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "relaysynth" or key.startswith("relaysynth.")
        ]
        for name, extract in LAYERS.items():
            module_name, attr = name.split(".")
            fn = getattr(importlib.import_module("relaysynth." + module_name), attr)
            wrapper = self._wrap(name, fn, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))
        return self

    def __exit__(self, *exc):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
        return False


# (metric name, unit, better); a name is "<layer function>.<total>".
PER_LAYER = [
    ("connectivity.element_maxflow.calls", "count", "lower"),
    ("connectivity.element_maxflow.self_s", "s", "lower"),
    ("beads.tau_integral.calls", "count", "lower"),
    ("beads.tau_integral.self_s", "s", "lower"),
    ("beads.tau_integral.nodes", "count", "lower"),
    ("beads.tau_integral.uncertified", "count", "lower"),
    ("connectivity.tau_star.calls", "count", "lower"),
    ("connectivity.tau_star.self_s", "s", "lower"),
    ("connectivity.tau_star.cuts", "count", "lower"),
    ("simplex.solve_min_cover.calls", "count", "lower"),
    ("simplex.solve_min_cover.s", "s", "lower"),
    ("simplex.solve_min_cover.rows", "count", "lower"),
    ("connectivity.prune_minimal.s", "s", "lower"),
    ("connectivity.verify_feasible.calls", "count", "lower"),
    ("connectivity.verify_feasible.self_s", "s", "lower"),
    ("connectivity.fractional_feasible.s", "s", "lower"),
    ("survivable.sn_backend_primal_dual.self_s", "s", "lower"),
    ("survivable.solve_sn_msp_012.self_s", "s", "lower"),
    ("steiner.build_candidate_universe.s", "s", "lower"),
    ("steiner.build_candidate_universe.points", "count", "lower"),
    ("steiner.build_candidate_universe.truncated", "count", "lower"),
    ("steiner.exact_component_oracle.calls", "count", "lower"),
    ("steiner.exact_component_oracle.s", "s", "lower"),
    ("steiner.exact_component_oracle.exact", "count", "higher"),
    ("steiner.build_component_hypergraph.self_s", "s", "lower"),
    ("steiner.build_component_hypergraph.edges", "count", "lower"),
    ("steiner.build_component_hypergraph.exact", "count", "higher"),
    ("local_replacement.local_replacement.s", "s", "lower"),
    ("local_replacement.local_replacement.steps", "count", "lower"),
    ("local_replacement.st_msp_scheme.self_s", "s", "lower"),
    ("beads.realize.calls", "count", "lower"),
    ("beads.realize.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(tracer, traced_wall, plain_wall):
    """{metric name: (value, unit)} for every entry of PER_LAYER.

    ``traced_wall`` and ``plain_wall`` are the median traced and untraced
    pass (raw seconds); their difference is the tracing overhead.
    """
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - plain_wall
        else:
            layer, total = name.rsplit(".", 1)
            value = tracer.totals[layer].get(total, 0)
        out[name] = (value, unit)
    return out
