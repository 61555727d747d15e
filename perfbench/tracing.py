"""Spans around the public functions of each taskclust module, recorded from outside.

Tracer.install replaces every public function of the layer modules by a
wrapper that records a span (name, start, end, parent) in memory, and rebinds
each module-level name that refers to the original (``from .x import f``
copies), so calls made between modules are traced too. The benchmark opens
one span per CLI command; those op spans are the ``cli`` layer. A span
opened in a worker thread with nothing open in that thread takes the main
thread's innermost open span as its parent, so pool work nests under the
call that started the pool.

Nothing in the program changes: the wrappers only time and count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "fileio", "synthdata", "transfer", "filtering", "completion",
          "spectral", "learning", "bench")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent)
        self.results = []        # (name, args, kwargs, result) of observed calls
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _wrap(self, name: str, fn, observe: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if observe:
                self.results.append((name, args, kwargs, result))
            return result

        return traced

    def install(self, observed=()) -> None:
        """Wrap the public functions of every layer module."""
        modules = {layer: importlib.import_module(f"taskclust.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, name in observed)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(mod, attr, wrappers[id(value)])

    @contextlib.contextmanager
    def op(self, name: str):
        """One CLI command, recorded as a ``cli`` span."""
        stack, sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, f"cli.{name}", start, end, parent))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; per layer: self seconds."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _ in spans:
        row = by_name[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[sid]
    layers = {layer: 0.0 for layer in LAYERS}
    for name, row in by_name.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return {"functions": dict(by_name), "layer_self_s": layers}


def observed_counts(results) -> dict:
    """Counters computed from the return values of observed calls."""
    out = defaultdict(float)
    for name, args, kwargs, result in results:
        if name == "completion.complete":
            out["completion.iterations"] += result.iterations
            out["completion.converged"] += bool(result.converged)
            out["completion.x_rank_sum"] += int(np.linalg.matrix_rank(result.X))
        elif name == "filtering.filter_scores":
            out["filtering.decided_pairs"] += int(result.observed.sum() - result.n) // 2
        elif name == "learning.adaptive_fsl":
            out["learning.adaptive_fsl.fallbacks"] += bool(result.used_fallback)
        elif name.startswith("fileio.write_"):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            out["fileio.bytes_written"] += os.path.getsize(path)
    return dict(out)


OBSERVED = ("completion.complete", "filtering.filter_scores", "learning.adaptive_fsl",
            "fileio.write_json", "fileio.write_transfer_csv", "fileio.write_partial_csv",
            "fileio.write_dense_csv", "fileio.write_sweep_csv")
