"""Sliding-window eviction, update cadence, and batch partitioning."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.errors import ConfigurationError
from cnapwp.preprocessing import PAD_INDEX, ActivityVocabulary, BucketConfig, Prefix, build_prefix, encode
from cnapwp.stream import Event
from cnapwp.window import SlidingWindow, partition_batches


def test_window_keeps_newest_capacity_events():
    window = SlidingWindow(3)
    for i in range(5):
        window.push(Event("c", str(i)))
    assert len(window) == 3
    assert window.activities_for_case("c") == ["2", "3", "4"]


def test_window_signals_every_capacity_pushes():
    window = SlidingWindow(3)
    signals = [window.push(Event("c", str(i))) for i in range(9)]
    fired = [i for i, full in enumerate(signals) if full is True]
    assert fired == [2, 5, 8]


def test_eviction_does_not_reset_the_counter():
    window = SlidingWindow(4)
    for i in range(6):  # two evictions happen before the second signal
        window.push(Event("c", str(i)))
    assert window.push(Event("c", "x")) is False
    assert window.push(Event("c", "y")) is True


def test_per_case_history_tracks_eviction():
    window = SlidingWindow(3)
    window.push(Event("a", "1"))
    window.push(Event("b", "2"))
    window.push(Event("a", "3"))
    assert window.activities_for_case("a") == ["1", "3"]
    window.push(Event("b", "4"))  # evicts a's "1"
    assert window.activities_for_case("a") == ["3"]
    window.push(Event("b", "5"))  # evicts b's "2"
    window.push(Event("b", "6"))  # evicts a's "3" entirely
    assert window.activities_for_case("a") == []


def test_samples_skip_none():
    vocab = ActivityVocabulary(["a"])
    window = SlidingWindow(5)
    prefix = build_prefix(Event("c", "a"), window, vocab, 2)
    sample = encode(prefix, "a", vocab, BucketConfig((2,)))
    window.push(Event("c", "a"), sample)
    window.push(Event("c", "b"))
    assert window.samples() == [sample]


def test_window_capacity_validation():
    with pytest.raises(ConfigurationError):
        SlidingWindow(0)


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=10), n=st.integers(min_value=0, max_value=60))
def test_signal_cadence_property(capacity, n):
    window = SlidingWindow(capacity)
    count = sum(1 for i in range(n) if window.push(Event("c", str(i))) is True)
    assert count == n // capacity
    assert len(window) == min(n, capacity)


# -- partitioning ---------------------------------------------------------------


def _samples_with_lengths(lengths, bucket_config):
    vocab = ActivityVocabulary(["a"])
    out = []
    for n in lengths:
        prefix = Prefix("c", (PAD_INDEX,) * (8 - n) + (1,) * n, n)
        out.append(encode(prefix, "a", vocab, bucket_config))
    return out


def test_partition_orders_buckets_and_chunks():
    config = BucketConfig((0, 2, 8))
    samples = _samples_with_lengths([3, 0, 1, 4, 2, 5], config)
    batches = partition_batches(samples, batch_size=2)
    assert [bucket for bucket, _ in batches] == [1, 2, 3]
    by_bucket = {bucket: [8 - s.activities.count(PAD_INDEX) for chunk in chunks for s in chunk] for bucket, chunks in batches}
    assert by_bucket == {1: [0], 2: [1, 2], 3: [3, 4, 5]}  # arrival order within buckets
    assert all(len(chunk) <= 2 for _, chunks in batches for chunk in chunks)


def test_partition_batch_size_validation():
    with pytest.raises(ConfigurationError):
        partition_batches([], 0)


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=8), max_size=30),
    batch_size=st.integers(min_value=1, max_value=7),
)
def test_partition_preserves_every_sample_once(lengths, batch_size):
    config = BucketConfig((0, 3, 8))
    samples = _samples_with_lengths(lengths, config)
    batches = partition_batches(samples, batch_size)
    flattened = [s for _, chunks in batches for chunk in chunks for s in chunk]
    assert sorted(map(id, flattened)) == sorted(map(id, samples))
    assert [b for b, _ in batches] == sorted({b for b, _ in batches})
