"""Span tracing of tracelab's layers, installed from outside the package.

Every public function of each layer module is replaced, in every tracelab
module that holds a reference to it, by a wrapper that records a span:
name, parent span, request id, start and end.  ``TriPoly.__mul__``,
``GF.__init__`` and the ``TraceCache`` methods are wrapped on their
classes.  Generator functions get one span per produced item.  Spans live
in flat integer arrays until the run ends; self time is a span's duration
minus the durations of its direct children.

Counts that the spans cannot show (terms returned, cache hits, witnesses
found, repeated words) are recorded by small hooks on the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Optional

import numpy as np

LAYERS = (
    "words",
    "tripoly",
    "unipoly",
    "gf",
    "trace",
    "decompose",
    "sl2",
    "probes",
    "experiments",
    "cache",
)

# (module, class, method) wrapped on the class itself
METHODS = (
    ("tripoly", "TriPoly", "__mul__"),
    ("gf", "GF", "__init__"),
    ("cache", "TraceCache", "lookup"),
    ("cache", "TraceCache", "save"),
)

# name -> unit, in report order
PER_LAYER = {
    "words.calls": "count",
    "words.busy_s": "s",
    "trace.calls": "count",
    "trace.busy_s": "s",
    "trace.repeat_share": "ratio",
    "tripoly.mul_calls": "count",
    "tripoly.mul_s": "s",
    "tripoly.terms_out": "count",
    "unipoly.calls": "count",
    "unipoly.busy_s": "s",
    "decompose.calls": "count",
    "decompose.busy_s": "s",
    "decompose.dickson_tries": "count",
    "decompose.general_tries": "count",
    "decompose.general_s": "s",
    "decompose.witness_share": "ratio",
    "cache.lookups": "count",
    "cache.hit_share": "ratio",
    "cache.lookup_s": "s",
    "cache.save_s": "s",
    "cache.bytes_written": "B",
    "gf.fields_built": "count",
    "gf.build_s": "s",
    "gf.table_bytes": "B",
    "sl2.class_tables_built": "count",
    "sl2.class_table_s": "s",
    "sl2.group_enums": "count",
    "sl2.group_enum_s": "s",
    "sl2.fiber_s": "s",
    "sl2.word_evals": "count",
    "sl2.epsilon_s": "s",
    "sl2.image_s": "s",
    "sl2.psl_s": "s",
    "sl2.screen_s": "s",
    "probes.calls": "count",
    "probes.busy_s": "s",
    "probes.grid_points": "count",
    "experiments.busy_s": "s",
    "trace_overhead_share": "ratio",
}


class Tracer:
    """Records spans for every wrapped call between install() and uninstall()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._seen_words: set = set()
        self._patched: Optional[list[tuple[Any, str, Any, Callable]]] = None

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.request.append(self.current_request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        nid = self._name_id(name)
        begin, finish = self._begin, self._finish
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    # -- hooks for counts the spans do not carry ----------------------------

    def _hooks(self, canonicalize: Callable) -> dict[str, tuple[Optional[Callable], Callable]]:
        counts = self.counts
        seen = self._seen_words

        def trace_poly(args, result, state):
            w = args[0]
            key = canonicalize(w)[0].blocks if w.blocks else ()
            counts["trace.repeats"] += key in seen
            seen.add(key)
            counts["tripoly.terms_out"] += len(result.f)

        def found(args, result, state):
            counts["decompose.witnesses"] += result is not None

        def lookup(args, result, state):
            counts["cache.hits"] += result is not None

        def save(args, result, was_dirty):
            path = args[0].path
            if was_dirty and path and os.path.exists(path):
                counts["cache.bytes_written"] += os.path.getsize(path)

        def gf_init(args, result, state):
            q = args[1]
            counts["gf.table_bytes"] += 2 * q * q * 8

        def fibers(args, result, state):
            counts["sl2.word_evals"] += len(result.rows) * result.order

        def level_counts(args, result, state):
            counts["probes.grid_points"] += len(result) ** 3

        return {
            "trace.trace_poly": (None, trace_poly),
            "decompose.dickson_decompose": (None, found),
            "decompose.decompose_in_u": (None, found),
            "cache.TraceCache.lookup": (None, lookup),
            "cache.TraceCache.save": (lambda args: args[0].dirty, save),
            "gf.GF.__init__": (None, gf_init),
            "sl2.fiber_distribution": (None, fibers),
            "probes.level_set_counts": (None, level_counts),
        }

    # -- installation ---------------------------------------------------------

    def _patches(self) -> list[tuple[Any, str, Any, Callable]]:
        """(owner, attribute, original, wrapper) for every place to patch."""
        words = importlib.import_module("tracelab.words")
        hooks = self._hooks(words.canonicalize)
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tracelab.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                is_func = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                is_cached = hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == mod.__name__
                if is_func or is_cached:
                    name = f"{layer}.{attr}"
                    before, after = hooks.get(name, (None, None))
                    wrapped[id(obj)] = self.wrap(obj, name, after, before)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "tracelab" and not modname.startswith("tracelab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    patches.append((mod, attr, obj, wrapped[id(obj)]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"tracelab.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            before, after = hooks.get(name, (None, None))
            patches.append((cls, meth, orig, self.wrap(orig, name, after, before)))
        return patches

    def install(self) -> None:
        """Wrap every layer's public functions wherever tracelab refers to them."""
        if self._patched is None:
            self._patched = self._patches()
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patched or ():
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("parent", "name", "request", "start", "end")
        }

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        a = self._arrays()
        n = len(a["start"])
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child[:n], minlength=k)
        return {
            self.names[i]: (int(calls[i]), incl[i] / 1e9, own[i] / 1e9)
            for i in range(k)
            if calls[i]
        }

    def metrics(self, overhead_share: float) -> dict[str, float]:
        by_name = self.per_name()
        c = self.counts

        def layer_sum(layer: str, field: int) -> float:
            return sum(v[field] for k, v in by_name.items() if k.split(".")[0] == layer)

        def get(name: str, field: int) -> float:
            return by_name.get(name, (0, 0.0, 0.0))[field]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        trace_calls = get("trace.trace_poly", 0)
        tries = get("decompose.dickson_decompose", 0) + get("decompose.decompose_in_u", 0)
        lookups = get("cache.TraceCache.lookup", 0)
        out = {
            "words.calls": layer_sum("words", 0),
            "words.busy_s": layer_sum("words", 2),
            "trace.calls": layer_sum("trace", 0),
            "trace.busy_s": layer_sum("trace", 2),
            "trace.repeat_share": ratio(c["trace.repeats"], trace_calls),
            "tripoly.mul_calls": get("tripoly.TriPoly.__mul__", 0),
            "tripoly.mul_s": get("tripoly.TriPoly.__mul__", 2),
            "tripoly.terms_out": c["tripoly.terms_out"],
            "unipoly.calls": layer_sum("unipoly", 0),
            "unipoly.busy_s": layer_sum("unipoly", 2),
            "decompose.calls": layer_sum("decompose", 0),
            "decompose.busy_s": layer_sum("decompose", 2),
            "decompose.dickson_tries": get("decompose.dickson_decompose", 0),
            "decompose.general_tries": get("decompose.decompose_in_u", 0),
            "decompose.general_s": get("decompose.decompose_in_u", 1),
            "decompose.witness_share": ratio(c["decompose.witnesses"], tries),
            "cache.lookups": lookups,
            "cache.hit_share": ratio(c["cache.hits"], lookups),
            "cache.lookup_s": get("cache.TraceCache.lookup", 1),
            "cache.save_s": get("cache.TraceCache.save", 1),
            "cache.bytes_written": c["cache.bytes_written"],
            "gf.fields_built": get("gf.GF.__init__", 0),
            "gf.build_s": get("gf.GF.__init__", 1),
            "gf.table_bytes": c["gf.table_bytes"],
            "sl2.class_tables_built": get("sl2.build_class_table", 0),
            "sl2.class_table_s": get("sl2.build_class_table", 2),
            "sl2.group_enums": get("sl2.enumerate_group", 0),
            "sl2.group_enum_s": get("sl2.enumerate_group", 2),
            "sl2.fiber_s": get("sl2.fiber_distribution", 2),
            "sl2.word_evals": c["sl2.word_evals"],
            "sl2.epsilon_s": get("sl2.equidist_epsilon", 2),
            "sl2.image_s": get("sl2.image_analysis", 2),
            "sl2.psl_s": get("sl2.psl_fiber_distribution", 2),
            "sl2.screen_s": get("sl2.lang_weil_check", 2) + get("sl2.spectrum_probe", 2),
            "probes.calls": layer_sum("probes", 0),
            "probes.busy_s": layer_sum("probes", 2),
            "probes.grid_points": c["probes.grid_points"],
            "experiments.busy_s": layer_sum("experiments", 2),
            "trace_overhead_share": overhead_share,
        }
        if list(out) != list(PER_LAYER):
            raise RuntimeError("per-layer metrics out of step with PER_LAYER")
        return out

    def write_spans(self, path: str) -> None:
        """All spans as parallel arrays (row i is span i) plus the name table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self._arrays())
