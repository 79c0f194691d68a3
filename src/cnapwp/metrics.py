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
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def average_accuracy(records: Sequence[PredictionRecord], include_buffering: bool = True) -> float:
    pool = records if include_buffering else [r for r in records if not r.buffering]
    if not pool:
        return 0.0
    return sum(1 for r in pool if r.correct) / len(pool)


def rolling_accuracy_curve(records: Sequence[PredictionRecord], window: int) -> np.ndarray:
    """Rolling accuracy at every index over the inclusive window [max(0, index - window), index].

    The divisor is the actual number of records in the window, so early
    indices average over fewer points instead of phantom zeros. One
    cumulative-sum pass computes every index.
    """
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
    if not records:
        return []
    starts = [i for i in range(1, len(records)) if records[i].task_id != records[i - 1].task_id]
    return segments_from_ground_truth(len(records), starts, [str(records[i].task_id) for i in (0, *starts)])


# -- forgetting ---------------------------------------------------------------


@dataclass(frozen=True)
class ForgettingMatrix:
    """Per-(task, occurrence) accuracies in segment order; every other view derives from them."""

    accuracies: dict[tuple[str, int], float]

    @property
    def tasks(self) -> tuple[str, ...]:
        """Tasks in first-seen order."""
        return tuple(dict.fromkeys(task for task, _ in self.accuracies))

    @property
    def deltas(self) -> dict[tuple[str, int], float]:
        """Each cell's task's first-occurrence accuracy minus its own."""
        return {(task, occ): self.accuracies[(task, 1)] - acc for (task, occ), acc in self.accuracies.items()}

    @property
    def max_occurrence(self) -> int:
        return max((occ for _, occ in self.accuracies), default=0)

    @property
    def cells(self) -> list[tuple[str, int]]:
        """Every (task, occurrence), tasks in first-seen order, occurrences ascending."""
        order = {task: i for i, task in enumerate(self.tasks)}
        return sorted(self.accuracies, key=lambda cell: (order[cell[0]], cell[1]))

    @property
    def revisit_cells(self) -> list[tuple[str, int]]:
        return [cell for cell in self.cells if cell[1] >= 2]

    @property
    def mean_positive_delta(self) -> float:
        """Average forgetting over revisits, clamping improvement to zero."""
        cells, deltas = self.revisit_cells, self.deltas
        return sum(max(deltas[c], 0.0) for c in cells) / len(cells) if cells else 0.0


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
    return ForgettingMatrix({(s.task, s.occurrence): average_accuracy(records[s.start : s.end]) for s in segments})


# -- timing -------------------------------------------------------------------


def latency_summary(latencies_ns: Iterable[int]) -> dict[str, float]:
    """Mean, population std, median, 99th percentile and maximum of per-event
    processing time in milliseconds; the mean hides the rare update stalls.

    Percentiles interpolate linearly between order statistics, as
    ``np.percentile`` does by default; that function is not called because it
    imports ``numpy.ma``, about 2 MiB of resident memory for two numbers.
    """
    ms = np.fromiter((t / 1e6 for t in latencies_ns), dtype=np.float64)
    if len(ms) == 0:
        return dict.fromkeys(("mean", "std", "p50", "p99", "max"), 0.0)
    ordered = np.sort(ms)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))

    mean, std = float(ms.mean()), float(ms.std(ddof=0))
    return {"mean": mean, "std": std, "p50": at(0.50), "p99": at(0.99), "max": float(ordered[-1])}


# -- csv ----------------------------------------------------------------------


def _write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows in the one dialect of every run-folder CSV: UTF-8, ``\\n`` line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records: Sequence[PredictionRecord], path: str | os.PathLike) -> None:
    rows = ((r.index, r.case_id, r.y, r.y_hat, int(r.correct), r.task_id, int(r.buffering)) for r in records)
    _write_csv(path, RECORD_COLUMNS, rows)


def write_timings_csv(records: Sequence[PredictionRecord], path: str | os.PathLike) -> None:
    _write_csv(path, ("index", "latency_ns"), ((r.index, r.latency_ns) for r in records))


def read_records_csv(path: str | os.PathLike) -> list[PredictionRecord]:
    """Read a records.csv back. A missing column raises ConfigurationError; a
    short row or a non-integer field raises StreamParseError with its line."""
    with open(path, newline="", encoding="utf-8") as fh:
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


def write_forgetting_csv(matrix: ForgettingMatrix, path: str | os.PathLike) -> None:
    acc, deltas = matrix.accuracies, matrix.deltas
    rows = ((t, occ, f"{deltas[t, occ]:.6f}", f"{acc[t, 1]:.6f}", f"{acc[t, occ]:.6f}") for t, occ in matrix.cells)
    _write_csv(path, ("task", "occurrence", "delta", "accuracy_first", "accuracy_this"), rows)


def write_accuracy_curve_csv(curve: np.ndarray, path: str | os.PathLike) -> None:
    _write_csv(path, ("index", "accuracy"), ((i, f"{acc:.6f}") for i, acc in enumerate(curve)))


# -- json ---------------------------------------------------------------------


def write_json(obj, path: str | os.PathLike) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
