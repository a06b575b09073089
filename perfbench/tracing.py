"""Span tracing of quadfield's public functions, from outside the package.

``Tracer.install`` rebinds every public function of each layer module to a
span-recording wrapper, in every ``quadfield`` module namespace that holds
the function (so ``algebra_core.mul`` called from ``calculus`` is traced
too), and wraps the public class constructors ``Loop.circle``,
``Loop.from_points`` and ``Poly.from_coefficients``.  ``Quad``
construction and validation (``Quad.__post_init__``) is an
``algebra_core`` span of its own, so it is measured wherever it happens.

A span records name, start, end, parent span and operation id.  Self
time (a span's duration minus the time its child spans cover) and call
counts are aggregated per layer as spans close, so memory stays bounded;
the first ``max_spans`` raw spans are also kept and written out at the
end.  The kernels are called through dispatch tables, not module names,
so the kernel layer is timed by direct rows instead (see ``run.py``).
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter_ns

LAYERS = ("algebra_core", "canonical", "elementary", "matrix_rep",
          "calculus", "polynomial", "cli")

_CLASS_METHODS = (("calculus", "Loop", "circle"),
                  ("calculus", "Loop", "from_points"),
                  ("polynomial", "Poly", "from_coefficients"))


class Stats:
    """Per-layer and per-function aggregates of closed spans."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.fn_ns = {}      # "layer.fn" -> inclusive ns
        self.fn_calls = {}   # "layer.fn" -> calls


class Tracer:
    def __init__(self, max_spans=50_000):
        self.on = False
        self.op_id = 0
        self.stats = Stats()
        self.spans = []
        self.max_spans = max_spans
        self._stack = []       # child-time accumulators of open spans
        self._ids = []         # ids of open spans
        self._next_id = 1
        self._undo = []

    def reset(self):
        """Start a fresh aggregate (raw spans are kept)."""
        self.stats = Stats()

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack, ids = tracer._stack, tracer._ids
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = ids[-1] if ids else 0
            stack.append(0)
            ids.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                child = stack.pop()
                ids.pop()
                dur = end - start
                if stack:
                    stack[-1] += dur
                st = tracer.stats
                st.self_ns[layer] += dur - child
                st.calls[layer] += 1
                st.fn_ns[key] = st.fn_ns.get(key, 0) + dur
                st.fn_calls[key] = st.fn_calls.get(key, 0) + 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((sid, parent, tracer.op_id, key,
                                         start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Rebind the public functions of every layer module of ``package``."""
        prefix = package.__name__
        replacement = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{prefix}.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    replacement[id(obj)] = (obj, self._wrap(layer, name, obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = replacement.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        for layer, cls_name, meth in _CLASS_METHODS:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            wrapped = self._wrap(layer, f"{cls_name}.{meth}", raw.__func__)
            setattr(cls, meth, classmethod(wrapped))
            self._undo.append((cls, meth, raw))
        quad = sys.modules[f"{prefix}.algebra_core"].Quad
        post_init = quad.__dict__["__post_init__"]
        quad.__post_init__ = self._wrap("algebra_core", "Quad", post_init)
        self._undo.append((quad, "__post_init__", post_init))

    def uninstall(self):
        for target, attr, val in reversed(self._undo):
            setattr(target, attr, val)
        self._undo.clear()

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "parent", "op", "name",
                                  "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
