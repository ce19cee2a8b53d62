"""Span recorder that wraps quandlekit's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  Names that a module binds with
`from .x import f` are rebound too, because the caller looks them up in
its own globals (`criteria` calls `galex`, `isomorphic`,
`invariant_profile`, `automorphisms` and `census_catalog` that way).
`uninstall()` restores the originals.  The program's source is untouched.

A few spans also carry work counts computed from their arguments or
result (see COUNTERS).  Spans stay in memory; `summarize()` turns them
into per-name totals.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

PACKAGE = "quandlekit"
TRACED_MODULES = ("groups", "quandles", "_kernels", "criteria", "tangles", "cli")


def _coloring_count(res):
    if isinstance(res, int):
        return res                 # "count" mode
    if isinstance(res, list):
        return len(res)            # "list" mode
    return 0                       # "admissibility" mode stops early


def _sd_work(args, result):
    n = args[0].shape[0]
    # The numpy kernel materialises two int64 n^3 arrays and one bool n^3
    # mask, so 17 bytes per triple; computed from the size, not measured.
    return {"triples": n ** 3, "bytes_computed": 17 * n ** 3}


# span name -> f(args, result) -> {counter: amount}
COUNTERS = {
    "quandles.isomorphic": lambda a, r: {"found": int(r is not None)},
    "quandles.parse_quandle_file": lambda a, r: {"entries": r.order ** 2},
    "groups.automorphisms": lambda a, r: {"maps": len(r)},
    "kernels.self_distrib_violation": _sd_work,
    "tangles.enumerate_colorings": lambda a, r: {"colorings": _coloring_count(r)},
    "criteria.dedup_by_isomorphism":
        lambda a, r: {"kept": len(r[0]), "input": len(a[0])},
}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, counts]
        self._stack = []
        self._patches = []         # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        mods = [importlib.import_module(f"{PACKAGE}.{m}")
                for m in TRACED_MODULES]
        wrapped = {}               # (id(original), attr) -> wrapper
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                w = self._wrap(f"{short}.{attr}", obj)
                wrapped[(id(obj), attr)] = w
                self._patch(mod, attr, w)
        for mod in mods:           # names bound by `from .x import f`
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get((id(obj), attr))
                if w is not None and obj.__module__ != mod.__name__:
                    self._patch(mod, attr, w)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def summarize(spans):
    """Per span name: calls, inclusive seconds (outermost span of that name
    only, so recursion is not counted twice), self seconds (duration minus
    the children's durations) and summed work counts."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += t1 - t0
        for k, v in (counts or {}).items():
            row[k] = row.get(k, 0) + v
    return dict(out)
