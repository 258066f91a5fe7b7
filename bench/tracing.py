"""Per-layer tracing of coxbruhat from outside the package.

``Tracer.install`` wraps the public functions of each layer module and the
``normalize``/``multiply``/``elements`` methods of ``CoxeterSystem``.  Every
module attribute that holds one of those functions (``from .bruhat import
leq`` makes ``coset_max.leq`` such an attribute) is rebound to the wrapper,
so calls between layers are seen.  No file of the package is changed, and
``uninstall`` puts every original back.

Each call records a span (name, start, end, parent) and adds to its name's
call count and self time: its duration minus the time covered by the spans
it caused.  The runner wraps each benchmark operation as a root span named
``bench.op``, so the spans of one operation share a root.  Work done in private helpers (``_mul_gen``, ``_lmul_gen``) counts
in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

#: Layer modules whose public functions are wrapped.
LAYERS = ("core", "bruhat", "parabolic", "coset_max", "poincare", "dot", "cli", "oracle")
#: Public CoxeterSystem methods wrapped as ``core.<name>``.
CORE_METHODS = ("normalize", "multiply", "elements")
#: Spans kept in memory and written out; later calls still count in the totals.
MAX_SPANS = 300_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")  # name id, start ns, end ns, parent span; 4 per span
        self.span_count = 0
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        stack, calls, self_ns, spans = self._stack, self.calls, self.self_ns, self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.span_count
            tracer.span_count += 1
            if index < MAX_SPANS:
                spans.extend((nid, 0, 0, stack[-1][0] if stack else -1))
            frame = [index, 0]  # span index, ns covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if index < MAX_SPANS:
                    spans[4 * index + 1] = start
                    spans[4 * index + 2] = end

        return traced

    def install(self):
        """Wrap every layer of the coxbruhat modules now in ``sys.modules``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "coxbruhat" or name.startswith("coxbruhat.")]
        for layer in LAYERS:
            mod = sys.modules[f"coxbruhat.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, name, wrapper)
        cls = sys.modules["coxbruhat.core"].CoxeterSystem
        for attr in CORE_METHODS:
            self._set(cls, attr, self.wrap(f"core.{attr}", getattr(cls, attr)))

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patched:
            obj, attr, value = self._patched.pop()
            setattr(obj, attr, value)

    def totals(self):
        """name -> (calls, self ms), summed over wrappers of the same name."""
        out: dict[str, list] = {}
        for name, calls, ns in zip(self.names, self.calls, self.self_ns):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += ns / 1e6
        return out

    def write_spans(self, path):
        """Recorded spans as tab-separated lines; times relative to the first span."""
        spans = self.spans
        t0 = spans[1] if spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(spans) // 4):
                nid, start, end, parent = spans[4 * i:4 * i + 4]
                fh.write(f"{i}\t{self.names[nid]}\t{start - t0}\t{end - t0}\t{parent}\n")
