"""FIFO sliding window over (case, sample) pairs, with per-case activity-index histories."""
from __future__ import annotations

from collections import deque

from .errors import ConfigurationError
from .preprocessing import EncodedSample


class SlidingWindow:
    """Keeps the newest ``capacity`` events and each case's activity indices among them."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("window capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[tuple[str, EncodedSample | None]] = deque()
        self._by_case: dict[str, deque[int]] = {}

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, case_id: str, activity: int, sample: EncodedSample | None = None) -> None:
        self._buffer.append((case_id, sample))
        self._by_case.setdefault(case_id, deque()).append(activity)
        if len(self._buffer) > self.capacity:
            old_case, _ = self._buffer.popleft()
            case_hist = self._by_case[old_case]
            case_hist.popleft()
            if not case_hist:
                del self._by_case[old_case]

    def activities_for_case(self, case_id: str) -> tuple[int, ...]:
        """The case's activity indices currently in the window, oldest first."""
        return tuple(self._by_case.get(case_id, ()))

    def samples(self) -> list[EncodedSample]:
        return [sample for _, sample in self._buffer if sample is not None]


def partition_batches(
    samples: list[EncodedSample], batch_size: int
) -> list[tuple[int, list[list[EncodedSample]]]]:
    """Group samples by their encoded bucket (ascending id), keeping arrival order, in chunks <= batch_size."""
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    groups: dict[int, list[EncodedSample]] = {}
    for sample in samples:
        groups.setdefault(sample.bucket, []).append(sample)
    out = []
    for bucket in sorted(groups):
        members = groups[bucket]
        chunks = [members[i : i + batch_size] for i in range(0, len(members), batch_size)]
        out.append((bucket, chunks))
    return out
