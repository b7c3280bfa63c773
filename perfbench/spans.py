"""Spans around the public functions of fskit's layers.

The tracer replaces each listed function, in every fskit module namespace
that binds it, by a wrapper that records a span (name, start, end, parent)
while tracing is on.  It is on only inside the benchmark's timed
operations, which get a root span each.  Spans stay in memory and are
written when the run ends.  `ev_periodic` is counted, not spanned: it runs
tens of thousands of times per round.  Nothing inside src/ is edited;
`uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (module, function): the layer boundaries that get spans
SPANNED = (
    ("cli", "main"),
    ("probe", "probe"),
    ("probe", "kappa_omega"),
    ("presentation", "enumerate_good_words"),
    ("dynamics", "evaluate_fraction"),
    ("dynamics", "is_order_preserving"),
    ("dynamics", "is_cyclic_order_preserving"),
    ("eppm", "compose"),
    ("eppm", "restrict"),
    ("eppm", "canonicalize"),
    ("eppm", "region_subset"),
    ("eppm", "equals"),
    ("plrender", "to_interval_map"),
    ("plrender", "to_circle_map"),
    ("plrender", "emit_svg"),
)
GENERATORS = {("presentation", "enumerate_good_words")}
COUNTED = (("sequences", "ev_periodic"),)
# output sizes: atoms of an Eppm, pieces of a PlMap
SIZED = {
    "eppm.compose": lambda eppm: len(eppm.atoms),
    "plrender.to_interval_map": lambda plmap: len(plmap.pieces),
    "plrender.to_circle_map": lambda plmap: len(plmap.pieces),
}
MODULES = (
    "fskit", "fskit.cli", "fskit.probe", "fskit.presentation", "fskit.dynamics",
    "fskit.eppm", "fskit.sequences", "fskit.plrender", "fskit.forest", "fskit.smith",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # name, start, end, parent
        self.sizes: dict[int, int] = {}  # span index -> output size
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, fname in SPANNED + COUNTED:
            name = f"{layer}.{fname}"
            original = getattr(importlib.import_module(f"fskit.{layer}"), fname)
            if (layer, fname) in COUNTED:
                wrapper = self._counter(name, original)
            elif (layer, fname) in GENERATORS:
                wrapper = self._generator(name, original)
            else:
                wrapper = self._spanner(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanner(self, name: str, fn):
        name_id = self.name_id(name)
        size_of = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if size_of is not None:
                self.sizes[index] = size_of(result)
            return result

        return wrapper

    def _generator(self, name: str, fn):
        """A span from the call until the generator is exhausted; a caller
        that drains it at once (probe does) gets its iteration time."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                yield from fn(*args, **kwargs)
                return
            index = self.open(name_id)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def open(self, name_id: int) -> int:
        index = len(self.spans)
        self.spans.append((name_id, time.perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        name_id, start, _, parent = self.spans[index]
        self.spans[index] = (name_id, start, time.perf_counter_ns(), parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


class Summary:
    """Per-name totals over the spans first..last-1 (whole operations)."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        spans, names = tracer.spans, tracer.names
        child_ns = [0] * (last - first)
        for i in range(first, last):
            _, start, end, parent = spans[i]
            if parent >= first:
                child_ns[parent - first] += end - start
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}  # outermost spans of a name
        self.sizes: dict[str, list[int]] = {}
        self.parent_calls: dict[tuple[str, str], int] = {}
        equals_walking: set[int] = set()
        for i in range(first, last):
            name_id, start, end, parent = spans[i]
            name = names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_ns[i - first]) / 1e9
            if i in tracer.sizes:
                self.sizes.setdefault(name, []).append(tracer.sizes[i])
            if parent >= 0:
                key = (names[spans[parent][0]], name)
                self.parent_calls[key] = self.parent_calls.get(key, 0) + 1
            outermost = True
            ancestor = parent
            while ancestor >= 0:
                ancestor_name_id = spans[ancestor][0]
                if ancestor_name_id == name_id:
                    outermost = False
                if name == "eppm.region_subset" and names[ancestor_name_id] == "eppm.equals":
                    equals_walking.add(ancestor)
                ancestor = spans[ancestor][3]
            if outermost:
                self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + (end - start) / 1e9
        self.equals_with_region_walk = len(equals_walking)
