"""Event streams: parsing, synthetic drift-stream generation, and splitting.

An event log is a CSV with header ``case_id,activity,timestamp[,resource][,drift]``.
Timestamps may be ISO-8601 strings or integer ticks; they are only used to order
the stream and are not retained on events. Drift positions can come from a
boolean ``drift`` column or from a sidecar file of newline-separated 0-based
indices; when both are given the sidecar wins.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from datetime import datetime
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, StreamParseError

_TRUTHY = {"1", "true", "t", "yes", "y"}


@dataclass(frozen=True)
class Event:
    """One event of one case. Timestamps are consumed at parse time, not stored."""

    case_id: str
    activity: str
    resource: str | None = None


@dataclass(frozen=True)
class EventStream:
    """An ordered event sequence plus externally known drift positions.

    ``drift_indices`` are 0-based positions where a new segment begins; index 0
    is implicitly the start of segment 1 and never appears here. ``task_labels``
    optionally names the concept of each segment (one label per segment, so
    ``len(task_labels) == len(drift_indices) + 1``).
    """

    events: tuple[Event, ...]
    drift_indices: tuple[int, ...] = ()
    task_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        prev = 0
        for i in self.drift_indices:
            if i <= prev:
                raise ConfigurationError(
                    f"drift indices must be strictly increasing and positive, got {self.drift_indices}"
                )
            if i >= len(self.events):
                raise ConfigurationError(f"drift index {i} out of bounds for {len(self.events)} events")
            prev = i
        if self.task_labels is not None and len(self.task_labels) != len(self.drift_indices) + 1:
            raise ConfigurationError(
                f"need one task label per segment: {len(self.drift_indices) + 1} segments, "
                f"{len(self.task_labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class DriftSchedule:
    """Recurrent-drift schedule: concepts in order, each emitting segment_length events."""

    segment_length: int
    concept_order: tuple[str, ...]

    def __post_init__(self):
        if self.segment_length < 1:
            raise ConfigurationError("segment_length must be >= 1")
        if not self.concept_order:
            raise ConfigurationError("concept_order must not be empty")


@dataclass(frozen=True)
class LogSchema:
    """Column-name map for event-log CSVs.

    ``case``, ``activity`` and ``timestamp`` must exist in the header. The
    resource and drift columns participate only when present.
    """

    case: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    resource: str = "resource"
    drift: str = "drift"


DEFAULT_SCHEMA = LogSchema()


@dataclass
class GenerationReport:
    """What the generator had to cut: cases truncated at segment boundaries."""

    truncated_cases: tuple[str, ...] = ()
    events_emitted: int = 0


def _parse_timestamp(text: str, line: int):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise StreamParseError(f"unparseable timestamp {text!r}", line) from None


def parse_event_log(source: str | os.PathLike | IO[str], schema: LogSchema = DEFAULT_SCHEMA) -> EventStream:
    """Parse a CSV event log into an ordered EventStream.

    Events are stably ordered by timestamp (ties keep file order), then
    timestamps are dropped. Rows with an empty case id are dropped; an empty
    activity or timestamp excludes the whole case. Columns outside the schema
    are discarded.
    """
    if hasattr(source, "read"):
        return _parse_rows(csv.reader(source), schema)
    with open(source, "r", newline="", encoding="utf-8") as fh:
        return _parse_rows(csv.reader(fh), schema)


def _parse_rows(reader, schema: LogSchema) -> EventStream:
    try:
        header = next(reader)
    except StopIteration:
        raise StreamParseError("empty input, no header", 1) from None
    col = {name: i for i, name in enumerate(header)}
    for required in (schema.case, schema.activity, schema.timestamp):
        if required not in col:
            raise ConfigurationError(f"schema column {required!r} not found in header {header}")
    i_case = col[schema.case]
    i_act = col[schema.activity]
    i_ts = col[schema.timestamp]
    i_res = col.get(schema.resource)
    i_drift = col.get(schema.drift)

    rows: list[tuple[object, Event, bool]] = []  # (timestamp, event, drift flag)
    excluded: set[str] = set()
    ts_kind: tuple[type, bool] | None = None  # (timestamp type, tz-aware)
    for line_no, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) != len(header):
            raise StreamParseError(f"expected {len(header)} fields, got {len(raw)}", line_no)
        case = raw[i_case]
        if not case:
            continue  # no case to attribute the row to
        activity = raw[i_act]
        ts_text = raw[i_ts]
        if not activity or not ts_text:
            excluded.add(case)
            continue
        ts = _parse_timestamp(ts_text, line_no)
        kind = (type(ts), isinstance(ts, datetime) and ts.utcoffset() is not None)
        if ts_kind is None:
            ts_kind = kind
        elif kind[0] is not ts_kind[0]:
            raise StreamParseError("mixed integer-tick and ISO-8601 timestamps", line_no)
        elif kind != ts_kind:
            raise StreamParseError("mixed timezone-aware and naive ISO-8601 timestamps", line_no)
        resource = raw[i_res] if i_res is not None and raw[i_res] else None
        drift = i_drift is not None and raw[i_drift].strip().lower() in _TRUTHY
        rows.append((ts, Event(case, activity, resource), drift))

    kept = [r for r in rows if r[1].case_id not in excluded]
    kept.sort(key=lambda r: r[0])  # stable: equal timestamps keep file order
    events = tuple(ev for _, ev, _ in kept)
    drifts = tuple(i for i, (_, _, flag) in enumerate(kept) if flag and i > 0)
    return EventStream(events, drifts)


def load_drift_indices(path: str | os.PathLike) -> tuple[int, ...]:
    """Read a drift sidecar: newline-separated 0-based indices."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                out.append(int(text))
            except ValueError:
                raise StreamParseError(f"bad drift index {text!r}", line_no) from None
    return tuple(out)


def load_task_labels(path: str | os.PathLike) -> tuple[str, ...]:
    """Read a task-label sidecar: one label per segment."""
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(line.strip() for line in fh if line.strip())


def parse_stream_with_sidecars(
    csv_path: str | os.PathLike,
    drifts_path: str | os.PathLike | None = None,
    tasks_path: str | os.PathLike | None = None,
    schema: LogSchema = DEFAULT_SCHEMA,
) -> tuple[EventStream, str | None]:
    """Parse a log plus optional sidecars.

    Returns (stream, drift_source) where drift_source is "sidecar", "column" or
    None when no drift information was provided at all. A sidecar overrides any
    drift column.
    """
    stream = parse_event_log(csv_path, schema)
    source = "column" if stream.drift_indices else None
    if drifts_path is not None:
        drifts = load_drift_indices(drifts_path)
        stream = EventStream(stream.events, drifts, None)
        source = "sidecar"
    labels = load_task_labels(tasks_path) if tasks_path is not None else None
    if labels is not None:
        stream = EventStream(stream.events, stream.drift_indices, labels)
    return stream, source


def write_event_log(stream: EventStream, path: str | os.PathLike, include_drift_column: bool = False) -> None:
    """Serialize a stream with integer-tick timestamps so parse round-trips the order."""
    drift_set = set(stream.drift_indices)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["case_id", "activity", "timestamp", "resource"]
        if include_drift_column:
            header.append("drift")
        writer.writerow(header)
        for i, ev in enumerate(stream.events):
            row = [ev.case_id, ev.activity, str(i), ev.resource or ""]
            if include_drift_column:
                row.append("1" if i in drift_set else "0")
            writer.writerow(row)


def write_drift_sidecar(stream: EventStream, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in stream.drift_indices:
            fh.write(f"{i}\n")


def write_task_sidecar(stream: EventStream, path: str | os.PathLike) -> None:
    if stream.task_labels is None:
        raise ConfigurationError("stream has no task labels to write")
    with open(path, "w", encoding="utf-8") as fh:
        for label in stream.task_labels:
            fh.write(f"{label}\n")


def load_concept_pool(csv_path: str | os.PathLike, schema: LogSchema = DEFAULT_SCHEMA) -> list[tuple[str, ...]]:
    """Load a concept pool CSV as a list of traces (activity sequences per case)."""
    stream = parse_event_log(csv_path, schema)
    by_case: dict[str, list[str]] = {}
    for ev in stream.events:
        by_case.setdefault(ev.case_id, []).append(ev.activity)
    traces = [tuple(acts) for acts in by_case.values() if acts]
    if not traces:
        raise ConfigurationError(f"concept pool {csv_path} contains no traces")
    return traces


def generate_drift_stream(
    concept_pools: Mapping[str, Sequence[Sequence[str]]],
    schedule: DriftSchedule,
    seed: int,
    concurrency: int = 3,
    report: GenerationReport | None = None,
) -> EventStream:
    """Build a recurrent-drift stream by replaying sampled traces per segment.

    Each segment draws whole traces uniformly with replacement from its
    concept's pool and interleaves their events so cases overlap; exactly
    ``segment_length`` events are emitted per segment. Traces still open at a
    segment boundary are cut there; their case ids are flagged on ``report``.
    Consecutive identical concepts still produce a drift index (the schedule is
    taken literally), so ground-truth labels only change at every boundary when
    neighbouring concepts differ.
    """
    if concurrency < 1:
        raise ConfigurationError("concurrency must be >= 1")
    for concept in schedule.concept_order:
        pool = concept_pools.get(concept)
        if pool is None:
            raise ConfigurationError(f"concept {concept!r} missing from pools")
        if not any(len(t) for t in pool):
            raise ConfigurationError(f"concept {concept!r} has no non-empty traces")

    rng = np.random.default_rng(seed)
    events: list[Event] = []
    truncated: list[str] = []
    case_counter = 0

    for concept in schedule.concept_order:
        pool = [list(t) for t in concept_pools[concept] if len(t)]
        active: list[tuple[str, list[str]]] = []
        emitted = 0
        while emitted < schedule.segment_length:
            while len(active) < concurrency:
                trace = list(pool[int(rng.integers(len(pool)))])
                active.append((f"c{case_counter}", trace))
                case_counter += 1
            pick = int(rng.integers(len(active)))
            case_id, remaining = active[pick]
            events.append(Event(case_id, remaining.pop(0)))
            emitted += 1
            if not remaining:
                active.pop(pick)
        truncated.extend(case_id for case_id, _ in active)

    n_segments = len(schedule.concept_order)
    drifts = tuple(schedule.segment_length * i for i in range(1, n_segments))
    if report is not None:
        report.truncated_cases = tuple(truncated)
        report.events_emitted = len(events)
    return EventStream(tuple(events), drifts, tuple(schedule.concept_order))


def split_validation(stream: EventStream, fraction: float) -> tuple[EventStream, EventStream]:
    """Split off the leading floor(fraction * n) events as a validation stream.

    Drift indices are rebased into each half; a drift landing exactly on the
    cut becomes the implicit start of the evaluation half and is dropped.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"validation fraction must be in (0, 1), got {fraction}")
    n = len(stream.events)
    cut = int(fraction * n)
    val_events = stream.events[:cut]
    eval_events = stream.events[cut:]
    val_drifts = tuple(d for d in stream.drift_indices if 0 < d < cut)
    eval_drifts = tuple(d - cut for d in stream.drift_indices if d > cut)
    if stream.task_labels is None:
        val_labels = eval_labels = None
    else:
        val_labels = stream.task_labels[: len(val_drifts) + 1] if cut > 0 else None
        passed = sum(1 for d in stream.drift_indices if d <= cut)
        eval_labels = stream.task_labels[passed:] if n - cut > 0 else None
    return (
        EventStream(val_events, val_drifts, val_labels),
        EventStream(eval_events, eval_drifts, eval_labels),
    )
