"""Vocabulary, prefix building, sample encoding, and length buckets."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.errors import ConfigurationError
from cnapwp.model import one_hot
from cnapwp.preprocessing import (
    PAD_INDEX,
    PAD_LABEL,
    ActivityVocabulary,
    BucketConfig,
    assign_bucket,
    build_prefix,
    encode,
    fit_buckets,
)
from cnapwp.stream import Event
from cnapwp.window import SlidingWindow


# -- vocabulary ----------------------------------------------------------------


def test_vocabulary_interning():
    vocab = ActivityVocabulary()
    assert vocab.intern("a") == 1
    assert vocab.intern("b") == 2
    assert vocab.intern("a") == 1
    assert len(vocab) == 2
    assert vocab.width == 3
    assert "a" in vocab and "z" not in vocab


def test_vocabulary_labels_roundtrip():
    vocab = ActivityVocabulary(["x", "y"])
    assert vocab.label_of(PAD_INDEX) == PAD_LABEL
    assert vocab.label_of(1) == "x"
    assert vocab.index_of("y") == 2
    assert vocab.index_of("missing") is None
    assert vocab.labels == ("x", "y")


# -- prefixes --------------------------------------------------------------------


def test_build_prefix_replays_window_history():
    vocab = ActivityVocabulary()
    window = SlidingWindow(10)
    for act in ("a", "b", "c"):
        window.push(Event("case", act))
    window.push(Event("other", "z"))
    prefix = build_prefix(Event("case", "next"), window, vocab, max_len=4)
    assert prefix.effective_len == 3
    assert prefix.activities == (PAD_INDEX, vocab.index_of("a"), vocab.index_of("b"), vocab.index_of("c"))


def test_build_prefix_keeps_only_most_recent():
    vocab = ActivityVocabulary()
    window = SlidingWindow(10)
    for act in "abcdef":
        window.push(Event("c", act))
    prefix = build_prefix(Event("c", "g"), window, vocab, max_len=3)
    assert prefix.effective_len == 3
    assert [vocab.label_of(i) for i in prefix.activities] == ["d", "e", "f"]


def test_build_prefix_fresh_case_is_all_padding():
    vocab = ActivityVocabulary()
    prefix = build_prefix(Event("new", "a"), SlidingWindow(5), vocab, max_len=3)
    assert prefix.activities == (PAD_INDEX,) * 3
    assert prefix.effective_len == 0


def test_build_prefix_accepts_plain_iterables():
    vocab = ActivityVocabulary()
    history = [Event("c", "a"), Event("d", "x"), Event("c", "b")]
    prefix = build_prefix(Event("c", "y"), history, vocab, max_len=4)
    assert prefix.effective_len == 2
    assert [vocab.label_of(i) for i in prefix.activities if i != PAD_INDEX] == ["a", "b"]


@settings(max_examples=50, deadline=None)
@given(
    acts=st.lists(st.sampled_from("abcde"), max_size=30),
    max_len=st.integers(min_value=1, max_value=8),
    capacity=st.integers(min_value=1, max_value=20),
)
def test_build_prefix_matches_bruteforce_replay(acts, max_len, capacity):
    """The windowed per-case lookup equals filtering the raw window contents."""
    vocab = ActivityVocabulary()
    window = SlidingWindow(capacity)
    interleaved = []
    for i, act in enumerate(acts):
        case = "even" if i % 2 == 0 else "odd"
        interleaved.append(Event(case, act))
        window.push(interleaved[-1])
    target = Event("even", "t")
    expected = build_prefix(target, list(window.events()), ActivityVocabulary(vocab.labels), max_len)
    got = build_prefix(target, window, vocab, max_len)
    assert got.activities == expected.activities
    assert got.effective_len == expected.effective_len


# -- encoding ---------------------------------------------------------------------


def test_encode_one_hot_rows():
    vocab = ActivityVocabulary(["a", "b"])
    window = SlidingWindow(5)
    window.push(Event("c", "a"))
    window.push(Event("c", "b"))
    prefix = build_prefix(Event("c", "a"), window, vocab, max_len=3)
    sample = encode(prefix, "a", vocab, None)
    assert sample.activities == (PAD_INDEX, 1, 2)
    x = one_hot(sample.activities, vocab.width)
    assert x.shape == (3, vocab.width)
    assert np.array_equal(x.sum(axis=1), np.ones(3))
    assert x[0, PAD_INDEX] == 1.0
    assert x[1, 1] == 1.0
    assert x[2, 2] == 1.0
    assert sample.target == 1
    assert sample.bucket == 1


def test_encode_flags_vocabulary_growth():
    vocab = ActivityVocabulary(["a"])
    prefix = build_prefix(Event("c", "new"), SlidingWindow(5), vocab, max_len=2)
    assert vocab.width == 2
    sample = encode(prefix, "new", vocab, None)
    assert vocab.width == 3  # the engine widens its model on this
    assert sample.target == 2
    again = encode(prefix, "new", vocab, None)
    assert vocab.width == 3 and again == sample


def test_encode_assigns_bucket():
    vocab = ActivityVocabulary(["a"])
    window = SlidingWindow(5)
    window.push(Event("c", "a"))
    prefix = build_prefix(Event("c", "a"), window, vocab, max_len=4)
    sample = encode(prefix, "a", vocab, BucketConfig((0, 2, 4)))
    assert sample.bucket == 2


# -- buckets ----------------------------------------------------------------------


def test_fit_buckets_quantile_oracle():
    histogram = {0: 10, 1: 10, 2: 10, 3: 10}
    assert fit_buckets(histogram, 3, max_len=3).boundaries == (0, 2, 3)


def test_fit_buckets_tail_guarantee():
    """Even mass far right: earlier buckets close so every later one gets a length."""
    histogram = {0: 5, 1: 1, 2: 1, 3: 1, 4: 97}
    assert fit_buckets(histogram, 3, max_len=4).boundaries == (0, 3, 4)


def test_fit_buckets_last_bound_is_max_len():
    histogram = {1: 50, 2: 50}
    config = fit_buckets(histogram, 3, max_len=8)
    assert config.boundaries == (0, 1, 8)


def test_fit_buckets_only_empty_prefixes():
    config = fit_buckets({0: 100}, 4, max_len=6)
    assert config.boundaries == (6,)
    assert config.count == 1


def test_fit_buckets_too_few_distinct_lengths():
    config = fit_buckets({0: 3, 2: 5}, 4, max_len=7)
    assert config.boundaries == (0, 7)


def test_fit_buckets_validation():
    with pytest.raises(ConfigurationError):
        fit_buckets({1: 5}, 1, max_len=4)
    with pytest.raises(ConfigurationError):
        fit_buckets({9: 5}, 2, max_len=4)


@settings(max_examples=60, deadline=None)
@given(
    histogram=st.dictionaries(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=9,
    ),
    bucket_count=st.integers(min_value=2, max_value=6),
)
def test_fit_buckets_always_well_formed(histogram, bucket_count):
    config = fit_buckets(histogram, bucket_count, max_len=8)
    assert config.boundaries[-1] == 8
    assert all(a < b for a, b in zip(config.boundaries, config.boundaries[1:]))
    assert 1 <= config.count <= bucket_count
    # every observed length lands in a bucket
    for length in histogram:
        assert 1 <= assign_bucket(length, config) <= config.count


def test_bucket_config_validation():
    with pytest.raises(ConfigurationError):
        BucketConfig(())
    with pytest.raises(ConfigurationError):
        BucketConfig((3, 3))
    assert BucketConfig((0, 2, 5)).bucket_ids == (1, 2, 3)


def test_assign_bucket_boundaries_are_inclusive():
    config = BucketConfig((0, 2, 3))
    assert assign_bucket(0, config) == 1
    assert assign_bucket(1, config) == 2
    assert assign_bucket(2, config) == 2
    assert assign_bucket(3, config) == 3
    assert assign_bucket(9, config) == 3  # beyond the last bound: last bucket
    with pytest.raises(ConfigurationError):
        assign_bucket(-1, config)
