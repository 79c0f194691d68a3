"""Prefix construction, sample encoding, and prefix-length bucketing.

Activity index 0 is the padding token and is never assigned to a real
activity. A prefix is a tuple of the activity indices of a case's in-window
history, left padded to ``max_len``. Buckets group prefixes by length:
bucket 1 holds only empty prefixes, the rest partition lengths >= 1 at
quantile boundaries fitted once on a validation histogram.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigurationError

log = logging.getLogger(__name__)

PAD_INDEX = 0
PAD_LABEL = "None"


class ActivityVocabulary:
    """Insertion-ordered activity labels; indices start at 1, 0 is padding."""

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._index: dict[str, int] = {}
        for label in labels:
            self.intern(label)

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def width(self) -> int:
        """One-hot width: real labels plus the padding slot."""
        return len(self._labels) + 1

    def intern(self, label: str) -> int:
        """Return the label's index, appending an unseen label. Existing labels keep their index forever."""
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels) + 1
            self._labels.append(label)
            self._index[label] = idx
        return idx

    def label_of(self, index: int) -> str:
        if index == PAD_INDEX:
            return PAD_LABEL
        return self._labels[index - 1]


@dataclass(frozen=True)
class EncodedSample:
    """Model-ready sample: left-padded activity indices, ordinal target, bucket id.

    The indices stay valid as the vocabulary grows; ``cnapwp.model.one_hot``
    turns them into rows at the model's current width.
    """

    activities: tuple[int, ...]  # max_len indices in [0, |V|], 0 is padding
    target: int  # in [1, |V|]
    bucket: int


@dataclass(frozen=True)
class BucketConfig:
    """Inclusive upper length bounds, one per bucket, strictly increasing."""

    boundaries: tuple[int, ...]

    def __post_init__(self):
        if not self.boundaries:
            raise ConfigurationError("bucket boundaries must not be empty")
        if any(b >= a for b, a in zip(self.boundaries, self.boundaries[1:])):
            raise ConfigurationError(f"bucket boundaries must be strictly increasing, got {self.boundaries}")

    @property
    def bucket_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.boundaries) + 1))


def build_prefix(case_id: str, window, max_len: int) -> tuple[int, ...]:
    """The case's most recent max_len activity indices in a SlidingWindow, left
    padded. A case with no prior events in the window yields all padding."""
    recent = window.activities_for_case(case_id)[-max_len:]
    return (PAD_INDEX,) * (max_len - len(recent)) + recent


def prefix_length(prefix: tuple[int, ...]) -> int:
    """The count of real activities in a padded prefix; no activity has index PAD_INDEX."""
    return len(prefix) - prefix.count(PAD_INDEX)


def encode(
    prefix: tuple[int, ...],
    target_activity: str,
    vocab: ActivityVocabulary,
    bucket_config: BucketConfig,
) -> EncodedSample:
    """Pair a prefix with its target index and length bucket.

    Interning an unseen target label appends a new index, so the vocabulary's
    width can outgrow the model's: the caller compares the two and widens it.
    """
    target = vocab.intern(target_activity)
    return EncodedSample(prefix, target, assign_bucket(prefix_length(prefix), bucket_config))


def fit_buckets(length_histogram: Mapping[int, int], bucket_count: int, max_len: int) -> BucketConfig:
    """Fit bucket boundaries to a prefix-length histogram.

    Bucket 1 always covers only length 0. The remaining buckets partition the
    observed lengths >= 1 greedily: walk lengths in ascending order and close a
    bucket once its cumulative mass reaches the ideal share (total / (B - 1)),
    or earlier when every remaining bucket needs a length of its own. The last
    bound is always ``max_len``. Degenerate histograms collapse with a warning:
    too few distinct lengths gives one bucket per length, only empty prefixes
    gives a single bucket.
    """
    if bucket_count < 2:
        raise ConfigurationError("bucket_count must be >= 2")
    if any(k < 0 or k > max_len for k in length_histogram):
        raise ConfigurationError("histogram lengths must fall in [0, max_len]")
    lengths = sorted(k for k, count in length_histogram.items() if k >= 1 and count > 0)
    if not lengths:
        log.warning("length histogram holds only empty prefixes, falling back to a single bucket")
        return BucketConfig((max_len,))
    if bucket_count - 1 > len(lengths):
        log.warning(
            "requested %d buckets but only %d distinct non-zero lengths, collapsing",
            bucket_count,
            len(lengths),
        )
        boundaries = [0, *lengths]
        boundaries[-1] = max_len
        return BucketConfig(tuple(boundaries))

    total = sum(length_histogram[k] for k in lengths)
    target = total / (bucket_count - 1)
    boundaries = [0]
    acc = 0.0
    remaining = bucket_count - 1
    for pos, k in enumerate(lengths):
        if remaining == 1:
            break
        acc += length_histogram[k]
        tail = len(lengths) - pos - 1
        if tail > 0 and (acc >= target or tail == remaining - 1):
            boundaries.append(k)
            remaining -= 1
            acc = 0.0
    boundaries.append(max_len)
    return BucketConfig(tuple(boundaries))


def assign_bucket(effective_len: int, config: BucketConfig) -> int:
    """Smallest bucket whose bound covers the length; beyond the last bound, the last bucket."""
    if effective_len < 0:
        raise ConfigurationError("prefix length must be >= 0")
    idx = bisect_left(config.boundaries, effective_len)
    return min(idx, len(config.boundaries) - 1) + 1
