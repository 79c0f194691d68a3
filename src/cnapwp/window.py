"""FIFO sliding window over (event, sample) pairs, with per-case histories."""
from __future__ import annotations

from collections import deque

from .errors import ConfigurationError
from .preprocessing import EncodedSample
from .stream import Event


class SlidingWindow:
    """Keeps the newest ``capacity`` events and each case's activities among them."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("window capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[tuple[Event, EncodedSample | None]] = deque()
        self._by_case: dict[str, deque[str]] = {}

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, event: Event, sample: EncodedSample | None = None) -> None:
        self._buffer.append((event, sample))
        self._by_case.setdefault(event.case_id, deque()).append(event.activity)
        if len(self._buffer) > self.capacity:
            old_event, _ = self._buffer.popleft()
            case_hist = self._by_case[old_event.case_id]
            case_hist.popleft()
            if not case_hist:
                del self._by_case[old_event.case_id]

    def activities_for_case(self, case_id: str) -> list[str]:
        """The case's activities currently in the window, oldest first."""
        return list(self._by_case.get(case_id, ()))

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
