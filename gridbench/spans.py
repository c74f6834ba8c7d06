"""Per-layer tracing for the benchmark: wraps gridlab's public functions
from outside the package and aggregates call counts and self times.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the spans it caused.  Spans are aggregated by
name, so nothing is kept per call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

# gridlab module -> span prefix (metric names must start with a letter)
LAYERS = {
    "gridlab.cli": "cli",
    "gridlab.graph": "graph",
    "gridlab.embedding": "embedding",
    "gridlab.decomposition": "decomposition",
    "gridlab._kernels": "kernels",
    "gridlab.minors": "minors",
    "gridlab.generators": "generators",
}

# the kernel's interface; its inner helpers (q_set) are not layer calls
KERNEL_FUNCTIONS = ("treewidth_order", "min_fill_order", "degeneracy")

# (module, class, method) pairs traced besides the public functions
METHODS = (
    ("gridlab.embedding", "EmbeddedGraph", "__init__"),
    ("gridlab.embedding", "EmbeddedGraph", "vertex_darts"),
    ("gridlab.decomposition", "TreeDecomposition", "validate"),
    ("gridlab.minors", "ContractionSequence", "replay"),
    ("gridlab.graph", "SimpleGraph", "subgraph"),
)


class Tracer:
    """Aggregated spans plus named counters.

    `install` replaces every reference to a traced function in every
    loaded gridlab module namespace (functions imported by name and the
    package re-exports included), and `uninstall` puts the originals
    back.
    """

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self._child = [0.0]  # per open span: time covered by its children
        self._patches = []   # (namespace, attribute, original)

    @property
    def spanned_s(self):
        """Total duration of the top-level spans."""
        return self._child[0]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name, started):
        duration = time.perf_counter() - started
        children = self._child.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        self._child[-1] += duration

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, *args)
            self._child.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started)
        return traced

    def install(self):
        """Patch the currently imported gridlab modules."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod_name, prefix in LAYERS.items():
            mod = sys.modules[mod_name]
            if mod_name == "gridlab._kernels":
                names = KERNEL_FUNCTIONS
            else:
                names = [n for n, obj in vars(mod).items()
                         if not n.startswith("_") and inspect.isfunction(obj)
                         and obj.__module__ == mod_name]
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self.wrap(f"{prefix}.{n}", fn))
        for name, mod in list(sys.modules.items()):
            if name != "gridlab" and not name.startswith("gridlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            hook = _count_bag_vertices if meth == "validate" else None
            name = f"{LAYERS[mod_name]}.{cls_name}.{meth}"
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def cli_call(self, command, reads, writes):
        """Span around one in-process CLI invocation (click included)."""
        self.count("cli.bytes_read", sum(os.path.getsize(p) for p in reads))
        return _CliSpan(self, "cli." + command, writes)


def _count_bag_vertices(tracer, td, *_):
    tracer.count("decomposition.validate.bag_vertices",
                 sum(len(bag) for bag in td.bags))


class _CliSpan:
    """Span around one CLI call; counts the bytes of the files it wrote."""

    __slots__ = ("tracer", "name", "writes", "started")

    def __init__(self, tracer, name, writes):
        self.tracer = tracer
        self.name = name
        self.writes = writes

    def __enter__(self):
        self.tracer._child.append(0.0)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.started)
        self.tracer.count("cli.bytes_written",
                          sum(os.path.getsize(p) for p in self.writes
                              if os.path.exists(p)))
        return False


class NullTracer:
    """Stand-in with tracing off: spans and counters cost nothing."""

    def cli_call(self, command, reads, writes):
        return contextlib.nullcontext()

    def count(self, name, amount=1):
        pass
