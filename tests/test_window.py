"""Sliding-window eviction, update cadence, and batch partitioning."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.baselines import CNAPWP, STRATEGIES
from cnapwp.engine import OnlineEngine
from cnapwp.errors import ConfigurationError
from cnapwp.preprocessing import PAD_INDEX, ActivityVocabulary, BucketConfig, build_prefix, encode
from cnapwp.stream import EventStream
from cnapwp.window import SlidingWindow, partition_batches

from test_engine import chain_stream, log_updates, recognition_config


def test_window_keeps_newest_capacity_events():
    window = SlidingWindow(3)
    for i in range(1, 6):
        window.push("c", i)
    assert len(window) == 3
    assert window.activities_for_case("c") == (3, 4, 5)


def test_eviction_does_not_reset_the_counter(monkeypatch):
    stream = chain_stream(8)
    engine = OnlineEngine(recognition_config(window_size=4), CNAPWP)
    seen = log_updates(monkeypatch, engine)
    engine.prepare(stream)
    for i, event in enumerate(stream.events[:6]):  # two evictions happen before the second update
        engine.process_event(event, i, is_drift=False)
    assert len(engine.window) == 4 and seen == [4]
    engine.process_event(stream.events[6], 6, is_drift=False)
    assert seen == [4]
    engine.process_event(stream.events[7], 7, is_drift=False)
    assert seen == [4, 8]


def test_per_case_history_tracks_eviction():
    window = SlidingWindow(3)
    window.push("a", 1)
    window.push("b", 2)
    window.push("a", 3)
    assert window.activities_for_case("a") == (1, 3)
    window.push("b", 4)  # evicts a's 1
    assert window.activities_for_case("a") == (3,)
    window.push("b", 5)  # evicts b's 2
    window.push("b", 6)  # evicts a's 3 entirely
    assert window.activities_for_case("a") == ()


def test_samples_skip_none():
    vocab = ActivityVocabulary(["a"])
    window = SlidingWindow(5)
    sample = encode(build_prefix("c", window, 2), "a", vocab, BucketConfig((2,)))
    window.push("c", sample.target, sample)
    window.push("c", vocab.intern("b"))
    assert window.samples() == [sample]


def test_window_capacity_validation():
    with pytest.raises(ConfigurationError):
        SlidingWindow(0)


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=10), n=st.integers(min_value=0, max_value=60))
def test_window_holds_the_newest_events_property(capacity, n):
    window = SlidingWindow(capacity)
    for i in range(1, n + 1):
        window.push("c", i)
    assert len(window) == min(n, capacity)
    assert window.activities_for_case("c") == tuple(range(max(0, n - capacity) + 1, n + 1))


@settings(max_examples=40, deadline=None)
@given(
    window_size=st.integers(min_value=1, max_value=10),
    n_warm=st.integers(min_value=0, max_value=30),
    n_measured=st.integers(min_value=0, max_value=30),
    drift_at=st.integers(min_value=1, max_value=30),
    name=st.sampled_from(sorted(STRATEGIES)),
)
def test_signal_cadence_property(window_size, n_warm, n_measured, drift_at, name):
    """The engine updates on every ``window_size``-th event, counted across warm-up and measured passes."""
    engine = OnlineEngine(recognition_config(window_size=window_size), STRATEGIES[name])
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = log_updates(monkeypatch, engine)
        warm = chain_stream(n_warm)
        measured = chain_stream(n_measured, case="d")
        if drift_at < n_measured:
            measured = EventStream(measured.events, (drift_at,))
        engine.prepare(warm)
        engine.consume(warm, record=False)
        engine.consume(measured)
    assert len(seen) == (n_warm + n_measured) // window_size
    assert all(n % window_size == 0 for n in seen)
    assert len(engine.window) == min(n_warm + n_measured, window_size)


# -- partitioning ---------------------------------------------------------------


def _samples_with_lengths(lengths, bucket_config):
    vocab = ActivityVocabulary(["a"])
    out = []
    for n in lengths:
        out.append(encode((PAD_INDEX,) * (8 - n) + (1,) * n, "a", vocab, bucket_config))
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
