"""Span tracing of the birsphere layers, installed from outside the package.

`SpanTracer.install()` wraps the public entry points of each layer module
(every public function defined in it, plus the methods listed in
`METHODS`) and rebinds every `birsphere.*` module attribute that referred
to the original, because `from .poly import poly_gcd` binds a second
reference.  Each call records one span (name, start, end, parent) in flat
in-memory arrays; `summary()` turns them into per-name and per-layer counts
and times once the run is over.  The scalar arithmetic dunders stay
unwrapped: they run hundreds of thousands of times per query, and their
cost shows up as self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("scalars", "poly", "positivity", "projmat", "sphere", "involutions", "etatwist", "classify")

# Public methods that get spans: the ones the workloads reach that are not
# arithmetic plumbing.
METHODS = {
    "scalars": {"TowerReal": ("sign", "sqrt", "inverse"), "CoeffScalar": ("sqrt", "inverse")},
    "poly": {"RealAlgebraic": ("roots_of_rational_poly", "refined", "sign")},
    "projmat": {"ProjMat": ("__mul__", "inverse", "reflect_z", "order")},
    "sphere": {"SphereMap": ("compose", "inverse", "order", "reality_check", "trivial_base_part", "is_diffeo")},
    "involutions": {"ConjugacyCertificate": ("verify",)},
}

# The bridge to sympy is its own layer.
RENAMES = {"poly.factor_rational_poly": ("sympy", "sympy.factor")}


class SpanTracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.stack: list[int] = [-1]
        self.lru: dict[str, object] = {}
        self.lru_delta: dict[str, list[int]] = {}

    # -- recording ---------------------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.parent)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, layer: str, name: str):
        nid = self._register(layer, name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def span(self, name: str):
        """Context manager for the benchmark's own root span per query.

        Only spans under a root span are aggregated, so untimed input
        generation between queries leaves no trace; cache hits and misses
        are likewise counted inside root spans only."""
        tracer, nid = self, self._register("query", name)

        class _Span:
            def __enter__(self):
                self.lru = tracer.lru_counts()
                self.idx = tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close(self.idx)
                for key, (hits, misses) in tracer.lru_counts().items():
                    before = self.lru[key]
                    total = tracer.lru_delta.setdefault(key, [0, 0])
                    total[0] += hits - before[0]
                    total[1] += misses - before[1]

        return _Span()

    # -- installing --------------------------------------------------------------------

    def install(self) -> int:
        """Wrap every layer's entry points; returns the number wrapped."""
        pkg_modules = [m for n, m in sys.modules.items() if n == "birsphere" or n.startswith("birsphere.")]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"birsphere.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
                if not inspect.isfunction(target) or target.__module__ != mod.__name__:
                    continue
                span_layer, name = RENAMES.get(f"{layer}.{attr}", (layer, f"{layer}.{attr}"))
                if hasattr(obj, "cache_info"):
                    self.lru[name] = obj
                replaced[id(obj)] = self.wrap(obj, span_layer, name)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(raw.__func__, layer, f"{layer}.{cls_name}.{meth}")))
                    else:
                        setattr(cls, meth, self.wrap(raw, layer, f"{layer}.{cls_name}.{meth}"))
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return len(replaced)

    def lru_counts(self) -> dict[str, tuple[int, int]]:
        return {name: (fn.cache_info().hits, fn.cache_info().misses) for name, fn in self.lru.items()}

    # -- aggregation ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self time (ns), and per-layer self
        time, over the spans under root spans.  Inclusive time counts only
        the outermost span of a name, so recursion is not counted twice."""
        n = len(self.parent)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        rooted = [False] * n  # parents precede children in the arrays
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                rooted[i] = rooted[p]
            else:
                rooted[i] = self.layer_of[self.name_id[i]] == "query"
        per_name = {name: [0, 0, 0] for name in self.names}
        per_layer: dict[str, int] = {}
        # a span is outermost for its name when no ancestor has that name;
        # spans are stored in start order, so ancestors come first
        active: dict[int, list[int]] = {}
        ends_stack: list[int] = []
        for i in range(n):
            while ends_stack and ends_stack[-1] != self.parent[i]:
                done = ends_stack.pop()
                active[self.name_id[done]].pop()
            ends_stack.append(i)
            nid = self.name_id[i]
            chain = active.setdefault(nid, [])
            outer = not chain
            chain.append(i)
            if not rooted[i]:
                continue
            stats = per_name[self.names[nid]]
            stats[0] += 1
            if outer:
                stats[1] += dur[i]
            own = dur[i] - child[i]
            stats[2] += own
            layer = self.layer_of[nid]
            per_layer[layer] = per_layer.get(layer, 0) + own
        return {
            "spans": sum(rooted),
            "lru": self.lru_delta,
            "per_name": {k: {"calls": v[0], "incl_ns": v[1], "self_ns": v[2]} for k, v in per_name.items() if v[0]},
            "per_layer_self_ns": per_layer,
        }
