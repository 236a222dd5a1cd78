"""Outside-in spans around the public functions of every rfscreen module.

The library imports functions across modules by name (``rfms`` does
``from .forest import train_forest``), so rebinding
``rfscreen.forest.train_forest`` alone would record nothing for the calls
``screen`` makes.  :class:`Tracer` therefore rebinds every attribute, in
the defining module and in each caller, that refers to a wrapped function,
and restores all of them on exit.

Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# The rfscreen modules whose public functions get a span; the module name is
# the layer name.  ``rng`` is a helper below every layer and stays untraced.
LAYERS = ("data", "forest", "rfms", "baselines", "evaluate", "synth", "serialize", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _file_size(argument):
    def hook(tracer, span, fn, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(_bound(fn, args, kwargs, argument))
        return result
    return hook


def _keep_model(tracer, span, fn, args, kwargs, result):
    tracer.models.append(result)
    return result


def _count_rounds(tracer, span, fn, args, kwargs, result):
    span.attrs["rounds"] = len(result.rounds)
    return result


def _count_rows(tracer, span, fn, args, kwargs, result):
    span.attrs["rows"] = len(_bound(fn, args, kwargs, "X"))
    return result


def _trace_predict(tracer, span, fn, args, kwargs, result):
    # The fitted classifier's predict is a closure, not a module function,
    # so its span is attached to the object fit_classifier returns.
    result.predict = tracer.traced_predict(result.predict)
    return result


# Hooks run after a span closes; they add counts to it and may wrap the result.
HOOKS = {
    "data.load_csv": _file_size("path"),
    "data.write_csv": _file_size("path"),
    "serialize.write_json": _file_size("path"),
    "forest.train_forest": _keep_model,
    "forest.forest_predict_batch": _count_rows,
    "rfms.screen": _count_rounds,
    "evaluate.fit_classifier": _trace_predict,
}


class Tracer:
    """Records a span per call of a public rfscreen function while entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self.models: list = []  # forests returned by train_forest
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            return hook(self, span, fn, args, kwargs, result) if hook else result

        traced.__wrapped__ = fn
        return traced

    def traced_predict(self, predict):
        def traced(X):
            span = self.open("evaluate.predict")
            tracemalloc.start()
            try:
                return predict(X)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.close(span)
                span.attrs.update(rows=len(X), alloc_peak_bytes=peak)
        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"rfscreen.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [importlib.import_module("rfscreen"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def round_times(spans: list[Span]) -> list[float]:
    """Per-round seconds of every ``rfms.screen`` span.

    A round runs from the start of its forest training to the start of the
    next round's, and the last round ends with the screen.
    """
    by_parent = defaultdict(list)
    for s in spans:
        if s.name == "forest.train_forest":
            by_parent[s.parent].append(s.start)
    out = []
    for s in spans:
        if s.name == "rfms.screen":
            marks = sorted(by_parent[s.id]) + [s.end]
            out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out


def layer_metrics(spans: list[Span], models: list) -> dict[str, float]:
    """Per-layer metrics from the spans and forests of one traced run.

    Node counts use public API only: a binary tree has one more leaf than
    internal nodes, and the selection frequencies sum to the internal nodes.
    """
    selection_frequency = inspect.unwrap(
        importlib.import_module("rfscreen.forest").selection_frequency)
    trees = sum(m.params.n_trees for m in models)
    nodes = trees + sum(2 * int(selection_frequency(m).sum()) for m in models)
    total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attrs[s.name][key] += value
    own = self_times(spans)
    rounds = round_times(spans)
    train_s = total["forest.train_forest"]
    load_s, write_s = total["data.load_csv"], total["data.write_csv"]
    load_bytes = attrs["data.load_csv"]["bytes"]
    write_bytes = attrs["data.write_csv"]["bytes"]
    predicts = [s.attrs["alloc_peak_bytes"] for s in spans if s.name == "evaluate.predict"]
    return {
        "forest.train_s": train_s,
        "forest.train_calls": calls["forest.train_forest"],
        "forest.trees": trees,
        "forest.nodes": nodes,
        "forest.us_per_node": 1e6 * train_s / nodes if nodes else 0.0,
        "forest.predict_s": total["forest.forest_predict_batch"] + total["forest.forest_predict"],
        "forest.predict_rows": attrs["forest.forest_predict_batch"]["rows"]
        + calls["forest.forest_predict"],
        "rfms.screen_s": total["rfms.screen"],
        "rfms.rounds": attrs["rfms.screen"]["rounds"],
        "rfms.round_s_p50": statistics.median(rounds) if rounds else 0.0,
        "rfms.round_s_max": max(rounds, default=0.0),
        "rfms.self_s": sum(own[s.id] for s in spans if s.layer == "rfms"),
        "baselines.kbest_s": total["baselines.kbest_fscore"],
        "baselines.kbest_calls": calls["baselines.kbest_fscore"],
        "evaluate.cv_s": total["evaluate.cross_validate"],
        "evaluate.cells": calls["evaluate.cross_validate"],
        "evaluate.fit_screener_s": total["evaluate.fit_screener"],
        "evaluate.fit_classifier_s": total["evaluate.fit_classifier"],
        "evaluate.predict_s": total["evaluate.predict"],
        "evaluate.predict_rows": attrs["evaluate.predict"]["rows"],
        "evaluate.alloc_peak_mb": max(predicts, default=0) / 2**20,
        "data.load_csv_s": load_s,
        "data.load_csv_calls": calls["data.load_csv"],
        "data.write_csv_s": write_s,
        "data.csv_bytes": write_bytes,
        "data.csv_load_mb_per_s": load_bytes / 1e6 / load_s if load_s else 0.0,
        "data.csv_write_mb_per_s": write_bytes / 1e6 / write_s if write_s else 0.0,
        "synth.generate_s": total["synth.generate"],
        "serialize.document_s": sum(v for k, v in total.items()
                                    if k.startswith("serialize.") and k.endswith("_document")),
        "serialize.write_json_s": total["serialize.write_json"],
        "serialize.json_bytes": attrs["serialize.write_json"]["bytes"],
    }
