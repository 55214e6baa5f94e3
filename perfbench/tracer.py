"""Span recorder wrapped around the public functions of each layer.

A layer is one module of the package.  `Tracer.install` replaces every
public function, every public method (plus the arithmetic operators) of the
classes a layer defines, the private primitives named in EXTRA, and each
`CheckDef.fn` with a wrapper that records a span.  Layers import names with
``from .x import y``, so every module attribute that holds a wrapped
function is rebound, not only the defining one.  `uninstall` restores all of
them, so untraced runs execute the unmodified program.

Spans stay in memory as (name, start, end, parent) and are folded into
per-name totals by `fold`, which the caller runs between operations, outside
any timed region.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "tautverify"
LAYERS = ("cli", "data", "checks", "linalg", "rings", "surfaces", "grr", "poly", "series", "chern", "counts")
OPERATORS = ("__add__", "__sub__", "__mul__")
# private callables traced by name: the elimination kernel, and the Repo
# load and file-read boundaries behind data.load_ms and data.read_ms
EXTRA = {"linalg": ("_rref_rows",), "data": ("Repo.__init__", "Repo._read")}
# functions whose first argument names the work they do: the distinct
# values over the calls of one operation give the useful-work ratio
KEYED = ("checks.solve_multiplicities", "grr.locus_lambda2")
RUN_ALL = "checks.run_all"
# leaf helpers that do less work per call than a span costs to record (each
# runs 200 to 5000 times per run_all); their time counts to their caller
UNTRACED = (
    "linalg.as_fraction",
    "linalg.as_vector",
    "poly.monomial_degree",
    "rings.product_label",
    "rings.RingSpace.basis",
    "rings.RingSpace.basis_index",
)


class Stats:
    """Per-name totals over one or more folded operations."""

    FIELDS = ("calls", "self_s", "total_s", "distinct", "in_run_all")

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.distinct = defaultdict(int)  # summed per operation
        self.in_run_all = defaultdict(int)  # calls made inside checks.run_all

    def merge(self, other: "Stats") -> None:
        for field in self.FIELDS:
            mine = getattr(self, field)
            for k, v in getattr(other, field).items():
                mine[k] += v

    def to_json(self) -> dict:
        return {f: dict(getattr(self, f)) for f in self.FIELDS}

    @classmethod
    def from_json(cls, doc: dict) -> "Stats":
        stats = cls()
        for field, values in doc.items():
            getattr(stats, field).update(values)
        return stats


def _is_layer_function(obj, module_name: str) -> bool:
    return inspect.isfunction(obj) and obj.__module__ == module_name


class Tracer:
    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._keys: dict[str, list] = {name: [] for name in KEYED}
        self._patches: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        keys = self._keys.get(name)

        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(args[0] if args else next(iter(kwargs.values()), None))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def fold(self) -> Stats:
        """Turn the spans recorded since the last fold into totals."""
        stats = Stats()
        spans = self._spans
        child = defaultdict(float)
        inside = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                # a parent is recorded before its children
                inside[i] = inside[parent] or spans[parent][0] == RUN_ALL
        for i, (name, start, end, parent) in enumerate(spans):
            stats.calls[name] += 1
            stats.in_run_all[name] += inside[i]
            stats.total_s[name] += end - start
            stats.self_s[name] += end - start - child[i]
        for name, keys in self._keys.items():
            stats.distinct[name] += len(set(keys))
            keys.clear()
        spans.clear()
        return stats

    # -- patching --------------------------------------------------------

    def _targets(self):
        """(function or (class, attribute, raw attribute), span name) pairs."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            mod_name = mod.__name__
            for attr, obj in vars(mod).items():
                if _is_layer_function(obj, mod_name) and (not attr.startswith("_") or attr in EXTRA.get(layer, ())):
                    if f"{layer}.{attr}" not in UNTRACED:
                        yield obj, f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod_name:
                    for meth, raw in vars(obj).items():
                        qual = f"{attr}.{meth}"
                        if meth.startswith("_") and meth not in OPERATORS and qual not in EXTRA.get(layer, ()):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if _is_layer_function(fn, mod_name) and f"{layer}.{qual}" not in UNTRACED:
                            yield (obj, meth, raw), f"{layer}.{qual}"

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}  # original function -> wrapper
        for target, name in list(self._targets()):
            if isinstance(target, tuple):
                cls, meth, raw = target
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
            else:
                wrappers[target] = self._wrap(target, name)
        # rebind every module attribute holding a wrapped function, so that
        # names imported with `from .x import y` are traced too
        for mod_name in [m for m in list(sys.modules) if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        checks = importlib.import_module(f"{PACKAGE}.checks")
        traced_checks = tuple(
            dataclasses.replace(c, fn=self._wrap(c.fn, f"check.{c.id}")) for c in checks.CHECKS
        )
        self._patches.append((checks, "CHECKS", checks.CHECKS))
        self._patches.append((checks, "_CHECK_INDEX", checks._CHECK_INDEX))
        checks.CHECKS = traced_checks
        checks._CHECK_INDEX = {c.id: c for c in traced_checks}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
