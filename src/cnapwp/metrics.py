"""Accuracy, timing, and forgetting measurements over prediction records.

Forgetting is measured on a task/occurrence grid: a task's accuracy on its
first occurrence is the reference, and the delta at a later occurrence is
reference minus current, so positive values mean the predictor got worse on a
task it had seen before. Segmentation prefers ground-truth drift indices and
task labels when the stream carries them, and falls back to the engine's own
task assignments otherwise.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, StreamParseError

RECORD_COLUMNS = ("index", "case_id", "y", "y_hat", "correct", "task_id", "buffering")


@dataclass(frozen=True)
class PredictionRecord:
    """One test-then-train step: what arrived, what was predicted, under which task."""

    index: int
    case_id: str
    y: str
    y_hat: str
    correct: bool
    task_id: int
    buffering: bool
    latency_ns: int = 0


@dataclass(frozen=True)
class Segment:
    """A contiguous stretch of records attributed to one occurrence of one task."""

    task: str
    occurrence: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def average_accuracy(records: Sequence[PredictionRecord], include_buffering: bool = True) -> float:
    pool = records if include_buffering else [r for r in records if not r.buffering]
    if not pool:
        return 0.0
    return sum(1 for r in pool if r.correct) / len(pool)


def accuracy_at_index(records: Sequence[PredictionRecord], index: int, window: int) -> float:
    """Rolling accuracy over the inclusive window [max(0, index - window), index].

    The divisor is the actual number of records in the window, so early
    indices average over fewer points instead of phantom zeros.
    """
    if not 0 <= index < len(records):
        raise ConfigurationError(f"index {index} outside the record range")
    if window < 0:
        raise ConfigurationError("window must be >= 0")
    lo = max(0, index - window)
    span = records[lo : index + 1]
    return sum(1 for r in span if r.correct) / len(span)


def rolling_accuracy_curve(records: Sequence[PredictionRecord], window: int) -> np.ndarray:
    """accuracy_at_index for every index, computed in one cumulative-sum pass."""
    if window < 0:
        raise ConfigurationError("window must be >= 0")
    hits = np.fromiter((1.0 if r.correct else 0.0 for r in records), dtype=np.float64, count=len(records))
    if len(hits) == 0:
        return hits
    csum = np.concatenate(([0.0], np.cumsum(hits)))
    idx = np.arange(len(hits))
    lo = np.maximum(0, idx - window)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)


# -- segmentation -------------------------------------------------------------


def segments_from_ground_truth(
    n_records: int, drift_indices: Sequence[int], task_labels: Sequence[str]
) -> list[Segment]:
    if len(task_labels) != len(drift_indices) + 1:
        raise ConfigurationError(
            f"{len(drift_indices)} drifts need {len(drift_indices) + 1} labels, got {len(task_labels)}"
        )
    bounds = [0, *drift_indices, n_records]
    seen: dict[str, int] = {}
    segments = []
    for i, label in enumerate(task_labels):
        seen[label] = seen.get(label, 0) + 1
        segments.append(Segment(label, seen[label], bounds[i], bounds[i + 1]))
    return segments


def segments_from_records(records: Sequence[PredictionRecord]) -> list[Segment]:
    """Runs of equal task_id in arrival order, occurrence-numbered per task."""
    segments: list[Segment] = []
    seen: dict[str, int] = {}
    start = 0
    for i in range(1, len(records) + 1):
        if i == len(records) or records[i].task_id != records[start].task_id:
            label = str(records[start].task_id)
            seen[label] = seen.get(label, 0) + 1
            segments.append(Segment(label, seen[label], start, i))
            start = i
    return segments


def segment_accuracy(records: Sequence[PredictionRecord], segment: Segment) -> float:
    span = records[segment.start : segment.end]
    if not span:
        return 0.0
    return sum(1 for r in span if r.correct) / len(span)


# -- forgetting ---------------------------------------------------------------


@dataclass
class ForgettingMatrix:
    """Per-(task, occurrence) accuracies with first-occurrence deltas."""

    tasks: tuple[str, ...]
    accuracies: dict[tuple[str, int], float] = field(default_factory=dict)
    deltas: dict[tuple[str, int], float] = field(default_factory=dict)
    sizes: dict[tuple[str, int], int] = field(default_factory=dict)

    @property
    def max_occurrence(self) -> int:
        return max((occ for _, occ in self.accuracies), default=0)

    @property
    def revisit_cells(self) -> list[tuple[str, int]]:
        return sorted((k for k in self.deltas if k[1] >= 2), key=lambda k: (self.tasks.index(k[0]), k[1]))

    @property
    def mean_positive_delta(self) -> float:
        """Average forgetting over revisits, clamping improvement to zero."""
        cells = self.revisit_cells
        if not cells:
            return 0.0
        return sum(max(self.deltas[c], 0.0) for c in cells) / len(cells)


def forgetting_matrix(
    records: Sequence[PredictionRecord],
    drift_indices: Sequence[int] | None = None,
    task_labels: Sequence[str] | None = None,
) -> ForgettingMatrix:
    """Build the forgetting matrix, preferring ground-truth segmentation."""
    if task_labels is not None:
        segments = segments_from_ground_truth(len(records), drift_indices or (), task_labels)
    else:
        segments = segments_from_records(records)
    tasks: list[str] = []
    matrix = ForgettingMatrix(tasks=())
    for seg in segments:
        if seg.task not in tasks:
            tasks.append(seg.task)
        acc = segment_accuracy(records, seg)
        matrix.accuracies[(seg.task, seg.occurrence)] = acc
        matrix.sizes[(seg.task, seg.occurrence)] = seg.size
    matrix.tasks = tuple(tasks)
    for (task, occ), acc in matrix.accuracies.items():
        matrix.deltas[(task, occ)] = matrix.accuracies[(task, 1)] - acc
    return matrix


# -- timing -------------------------------------------------------------------


def time_per_event(latencies_ns: Iterable[int]) -> tuple[float, float]:
    """(mean, population std) of per-event processing time in milliseconds."""
    ms = np.fromiter((t / 1e6 for t in latencies_ns), dtype=np.float64)
    if len(ms) == 0:
        return 0.0, 0.0
    return float(ms.mean()), float(ms.std(ddof=0))


def latency_percentiles(latencies_ns: Iterable[int]) -> dict[str, float]:
    """Median, 99th percentile and maximum of per-event processing time in
    milliseconds; the mean hides the rare update stalls.

    Percentiles interpolate linearly between order statistics, as
    ``np.percentile`` does by default; that function is not called because it
    imports ``numpy.ma``, about 2 MiB of resident memory for two numbers.
    """
    ms = np.sort(np.fromiter((t / 1e6 for t in latencies_ns), dtype=np.float64))
    if len(ms) == 0:
        return {"p50": 0.0, "p99": 0.0, "max": 0.0}

    def at(q: float) -> float:
        pos = q * (len(ms) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ms) - 1)
        return float(ms[lo] + (ms[hi] - ms[lo]) * (pos - lo))

    return {"p50": at(0.50), "p99": at(0.99), "max": float(ms[-1])}


# -- csv ----------------------------------------------------------------------


def write_records_csv(records: Sequence[PredictionRecord], path: str | os.PathLike | IO[str]) -> None:
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow(
                (r.index, r.case_id, r.y, r.y_hat, int(r.correct), r.task_id, int(r.buffering))
            )


def write_timings_csv(records: Sequence[PredictionRecord], path: str | os.PathLike | IO[str]) -> None:
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "latency_ns"))
        for r in records:
            writer.writerow((r.index, r.latency_ns))


def read_records_csv(path: str | os.PathLike) -> list[PredictionRecord]:
    """Read a records.csv back. A missing column raises ConfigurationError; a
    short row or a non-integer field raises StreamParseError with its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        line_no = 1
        try:
            header = next(reader, [])
            missing = [c for c in RECORD_COLUMNS if c not in header]
            if missing:
                raise ConfigurationError(f"{path}: columns {missing} not found in header {header}")
            i_index, i_case, i_y, i_y_hat, i_correct, i_task, i_buffering = map(header.index, RECORD_COLUMNS)
            out = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                out.append(
                    PredictionRecord(
                        index=int(row[i_index]),
                        case_id=row[i_case],
                        y=row[i_y],
                        y_hat=row[i_y_hat],
                        correct=bool(int(row[i_correct])),
                        task_id=int(row[i_task]),
                        buffering=bool(int(row[i_buffering])),
                    )
                )
        except IndexError:
            raise StreamParseError(
                f"bad record in {path}: expected {len(header)} fields, got {len(row)}", line_no
            ) from None
        except ValueError as exc:  # a non-integer field, or bytes that are not text
            raise StreamParseError(f"bad record in {path}: {exc}", line_no) from None
        return out


def write_forgetting_csv(matrix: ForgettingMatrix, path: str | os.PathLike | IO[str]) -> None:
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("task", "occurrence", "delta", "accuracy_first", "accuracy_this"))
        for task in matrix.tasks:
            occs = sorted(occ for t, occ in matrix.accuracies if t == task)
            for occ in occs:
                writer.writerow(
                    (
                        task,
                        occ,
                        f"{matrix.deltas[(task, occ)]:.6f}",
                        f"{matrix.accuracies[(task, 1)]:.6f}",
                        f"{matrix.accuracies[(task, occ)]:.6f}",
                    )
                )


def write_accuracy_curve_csv(curve: np.ndarray, path: str | os.PathLike | IO[str]) -> None:
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("index", "accuracy"))
        for i, acc in enumerate(curve):
            writer.writerow((i, f"{acc:.6f}"))


# -- json ---------------------------------------------------------------------

_JSON_INDENT = "  "


def write_json(obj, path: str | os.PathLike | IO[str]) -> None:
    """Write ``json.dump(obj, fh, indent=2, sort_keys=True)`` plus a newline, without recursion.

    The standard encoder recurses once per nesting level when indenting, so a
    task tree holding one case path of ~500 events raised ``RecursionError``.
    This walks an explicit stack of open containers and writes the same bytes.
    """
    with _opened(path) as fh:
        # Each frame: pending (key, value) items, closing bracket, depth, whether one was written.
        stack = [[iter(((None, obj),)), "", 0, False]]
        while stack:
            frame = stack[-1]
            items, closer, depth, started = frame
            item = next(items, None)
            if item is None:
                stack.pop()
                if closer:
                    fh.write("\n" + _JSON_INDENT * (depth - 1) + closer)
                continue
            frame[3] = True
            if closer:
                fh.write((",\n" if started else "\n") + _JSON_INDENT * depth)
            key, value = item
            if key is not None:  # non-string keys are written as the json text of the key, quoted
                fh.write(json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
            if isinstance(value, dict) and value:
                fh.write("{")
                stack.append([iter(sorted(value.items())), "}", depth + 1, False])
            elif isinstance(value, (list, tuple)) and value:
                fh.write("[")
                stack.append([((None, v) for v in value), "]", depth + 1, False])
            else:
                fh.write(json.dumps(value))
        fh.write("\n")


class _opened:
    """Open a path for writing, or pass a file object through unclosed."""

    def __init__(self, target):
        self.target = target
        self._own = None

    def __enter__(self):
        if hasattr(self.target, "write"):
            return self.target
        self._own = open(self.target, "w", newline="")
        return self._own

    def __exit__(self, *exc):
        if self._own is not None:
            self._own.close()
        return False
