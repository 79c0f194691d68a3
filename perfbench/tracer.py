"""Outside-in span tracing of the cnapwp layers.

The tracer replaces names in the package's module and class namespaces with
timing wrappers, at the place where the caller looks each name up (the engine
imports ``train_window`` into its own namespace, so that is where it is
wrapped). Nothing under ``src/`` changes. Spans stay in memory as
``[name, start_ns, end_ns, parent, event, stage, units]`` and are written out
once the run ends; ``restore`` puts every original object back.

A name that no longer exists is recorded in ``absent`` instead of raising, so
a refactor that inlines or renames a function cannot break the traced run.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

NAME, START, END, PARENT, EVENT, STAGE, UNITS = range(7)


class Wrap(NamedTuple):
    """One name to wrap: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    span: str
    units: Callable | None = None  # (args, kwargs, result) -> work units of the call


def _stacked_rows(args, kwargs, result) -> int:
    return len(args[0])


def _reactivated(args, kwargs, result) -> int:
    return int(result is not None)


def _methods(owner: str, layer: str, names: Iterable[str]) -> list[Wrap]:
    return [Wrap(owner, name, f"{layer}.{name}") for name in names]


WRAPS: tuple[Wrap, ...] = (
    Wrap("cnapwp.stream", "parse_stream_with_sidecars", "stream.parse_stream_with_sidecars"),
    Wrap("cnapwp.stream", "split_validation", "stream.split_validation"),
    Wrap("cnapwp.engine", "build_prefix", "preprocessing.build_prefix"),
    Wrap("cnapwp.engine", "encode", "preprocessing.encode"),
    Wrap("cnapwp.engine", "train_window", "model.train_window"),
    Wrap("cnapwp.engine", "grow_vocabulary", "model.grow_vocabulary"),
    Wrap("cnapwp.engine", "partition_batches", "window.partition_batches"),
    Wrap("cnapwp.engine", "build_from_buffer", "task_recognition.build_from_buffer"),
    Wrap("cnapwp.engine", "match_task", "task_recognition.match_task", _reactivated),
    Wrap("cnapwp.engine", "forgetting_matrix", "metrics.forgetting_matrix"),
    Wrap("cnapwp.model", "softmax", "model.softmax"),
    Wrap("cnapwp.model", "sgd_step", "model.sgd_step"),
    Wrap("cnapwp.model", "stack_samples", "model.stack_samples", _stacked_rows),
    Wrap("cnapwp.model", "attach_prefix", "model.attach_prefix"),
    Wrap("cnapwp.task_recognition", "dissimilarity", "task_recognition.dissimilarity"),
    *_methods("cnapwp.engine:OnlineEngine", "engine", ("prepare", "consume", "process_event", "task_store_snapshot")),
    *_methods("cnapwp.model:AttentionPredictor", "model", ("forward", "backward", "predict", "grow")),
    *_methods("cnapwp.window:SlidingWindow", "window", ("push", "samples", "activities_for_case")),
    *_methods("cnapwp.task_recognition:PrefixTree", "task_recognition", ("extend_case", "node_count", "to_dict")),
    *_methods("cnapwp.engine:RunReport", "metrics", ("save", "summary", "forgetting")),
)

# forward and softmax serve both the predict path and the update pass; their
# spans are keyed by whichever of these encloses them.
CONTEXTS = ("model.predict", "model.train_window")
SPLIT_BY_CONTEXT = {"model.forward": "forward", "model.softmax": "softmax"}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(target, class_name, None) if class_name else target


class Tracer:
    """Collects spans from wrapped names; use as a context manager."""

    def __init__(self, wraps: Iterable[Wrap] = WRAPS):
        self.wraps = tuple(wraps)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.stage = ""
        self.event = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def install(self) -> None:
        for wrap in self.wraps:
            owner = _resolve(wrap.owner)
            original = vars(owner).get(wrap.attr) if owner is not None else None
            if not inspect.isfunction(original):
                self.absent.append(f"{wrap.owner}.{wrap.attr}")
                continue
            setattr(owner, wrap.attr, self._wrapper(original, wrap))
            self._patched.append((owner, wrap.attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, wrap: Wrap):
        spans, stack, name, units = self.spans, self._stack, wrap.span, wrap.units
        clock = time.perf_counter_ns
        sets_event = name == "engine.process_event"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_event = self.event
            if sets_event:
                self.event = kwargs["index"] if "index" in kwargs else args[2]
            span = [name, 0, 0, stack[-1] if stack else -1, self.event, self.stage, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.event = outer_event
            if units is not None:
                span[UNITS] = units(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "event", "stage", "units"))
            for i, span in enumerate(self.spans):
                writer.writerow((i, *span))


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def span_keys(spans: list[list]) -> list[str]:
    """Span names, with forward and softmax keyed by their predict or update context."""
    keys = []
    for span in spans:
        name = span[NAME]
        key = name
        if name in SPLIT_BY_CONTEXT:
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] not in CONTEXTS:
                parent = spans[parent][PARENT]
            if parent >= 0:
                key = f"{spans[parent][NAME]}.{SPLIT_BY_CONTEXT[name]}"
        keys.append(key)
    return keys


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per key: calls, total_ms, self_ms and summed work units."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "units": 0})
    for span, key, own in zip(spans, span_keys(spans), self_times(spans)):
        row = out[key]
        row["calls"] += 1
        row["total_ms"] += (span[END] - span[START]) / 1e6
        row["self_ms"] += own / 1e6
        row["units"] += span[UNITS]
    return dict(out)


def _under(spans: list[list], name: str, ancestor: str) -> int:
    """Count spans called ``name`` inside an ``ancestor`` span."""
    count = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        count += parent >= 0
    return count


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from one traced session."""
    agg = aggregate(spans)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "units": 0}

    def get(key: str, field: str) -> float:
        return agg.get(key, empty)[field]

    train = "model.train_window"
    out: dict[str, float] = {f"{train}.{f}": get(train, f) for f in ("calls", "total_ms", "self_ms")}
    event_ms = get("engine.process_event", "total_ms")
    out[f"{train}.share"] = get(train, "total_ms") / event_ms if event_ms else 0.0
    out[f"{train}.steps"] = _under(spans, "model.backward", train)
    out[f"{train}.samples"] = sum(s[UNITS] for s in spans if s[NAME] == "model.stack_samples")
    for key in (
        f"{train}.forward",
        f"{train}.softmax",
        "model.backward",
        "model.sgd_step",
        "model.stack_samples",
        "model.attach_prefix",
        "model.predict.forward",
        "model.predict.softmax",
        "preprocessing.build_prefix",
        "preprocessing.encode",
        "window.push",
        "engine.process_event",
        "window.partition_batches",
        "stream.parse_stream_with_sidecars",
        "engine.prepare",
        "metrics.save",
        "metrics.forgetting_matrix",
    ):
        out[f"{key}.self_ms"] = get(key, "self_ms")
    out["model.predict.calls"] = get("model.predict", "calls")
    for key in (
        "task_recognition.extend_case",
        "task_recognition.build_from_buffer",
        "task_recognition.match_task",
        "task_recognition.dissimilarity",
        "model.grow_vocabulary",
    ):
        out[f"{key}.calls"] = get(key, "calls")
        out[f"{key}.self_ms"] = get(key, "self_ms")
    attempts = get("task_recognition.match_task", "calls")
    out["task_recognition.match_task.reactivated_ratio"] = (
        get("task_recognition.match_task", "units") / attempts if attempts else 0.0
    )
    return out
