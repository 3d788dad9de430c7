"""Spans around the public entry points of greenbvp's modules.

The benchmark wraps each entry point from outside the program: a method is
replaced on its class, and a function is replaced in every greenbvp module
that holds it, so that names brought in with `from ... import` are wrapped
where they are used.  Every call records a span (name, start, end, parent);
a layer's self time is the time of its spans minus the time of their child
spans.  Entry points that no longer exist are listed as absent.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer, module, entry point); the layer is the module's short name
ENTRY_POINTS = [
    ("kernel", "greenbvp.kernel", "GreenKernel.eval"),
    ("spectrum", "greenbvp.spectrum", "bound_constants"),
    ("spectrum", "greenbvp.spectrum", "classify_sign"),
    ("spectrum", "greenbvp.spectrum", "delta"),
    ("quadrature", "greenbvp.quadrature", "QuadratureRule.row_nodes_weights"),
    ("profile", "greenbvp.profile", "SolutionProfile.__call__"),
    ("linear", "greenbvp.linear", "verify_solution"),
    ("fdsolve", "greenbvp.fdsolve", "solve_fd_newton"),
    ("expr", "greenbvp.expr", "Expression.eval"),
    ("nonlinear", "greenbvp.nonlinear", "solve_positive"),
    ("nonlinear", "greenbvp.nonlinear", "growth_report"),
    ("nonlinear", "greenbvp.nonlinear", "cone_membership"),
    ("cli", "greenbvp.cli", "main"),
]
LAYERS = sorted({layer for layer, _, _ in ENTRY_POINTS})
# layers whose calls also count points: the size of the returned array
POINT_LAYERS = ("kernel", "expr")


class Tracer:
    """Collects spans of one process; one operation runs at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._layer_of: list[int] = []
        # one entry per span: operation, parent span (-1 at the top), name index
        self.op = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []   # [span id, child time]
        self._op_index = -1
        self._reset_counts()

    def _reset_counts(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.points = [0] * n
        self.failed = [0] * n
        self.self_s = [0.0] * n

    def install(self):
        """Wrap every entry point of ENTRY_POINTS in the loaded greenbvp modules."""
        for layer, module_name, qualname in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(LAYERS.index(layer), qualname, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "greenbvp" or name.startswith("greenbvp.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, layer: int, qualname: str, fn):
        span_name = len(self.names)
        self.names.append(qualname)
        self._layer_of.append(layer)
        counts_points = LAYERS[layer] in POINT_LAYERS
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.op.append(self._op_index)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(span_name)
            frame = [span, 0.0]
            stack.append(frame)
            self.start.append(0.0)
            self.end.append(0.0)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.start[span] = t0
                self.end[span] = t1
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[1]
                if not ok:
                    self.failed[layer] += 1
                elif counts_points:
                    self.points[layer] += int(np.size(out))

        return functools.wraps(fn)(traced)

    def begin_op(self, index: int):
        self._op_index = index
        self._reset_counts()

    def end_op(self) -> dict:
        """Per-layer counts and self times of the operation that just ended."""
        return {layer: {"calls": self.calls[k], "points": self.points[k],
                        "failed": self.failed[k], "self_s": self.self_s[k]}
                for k, layer in enumerate(LAYERS)}

    def write_spans(self, path: str):
        """Write every span as one CSV line: op, id, parent, layer, name, start, end."""
        with open(path, "w") as fh:
            fh.write("op,id,parent,layer,name,start,end\n")
            for k in range(len(self.start)):
                nm = self.name[k]
                fh.write(f"{self.op[k]},{k},{self.parent[k]},{LAYERS[self._layer_of[nm]]},"
                         f"{self.names[nm]},{self.start[k]!r},{self.end[k]!r}\n")
