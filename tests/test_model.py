"""Backbone forward pass, prompts, growth, loss, training, and the prediction cache."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cnapwp.errors import ConfigurationError, NumericError
from cnapwp.model import (
    PREFIX_MODE,
    PROMPT_MODE,
    AttentionPredictor,
    ModelConfig,
    Parameter,
    attach_prefix,
    grow_vocabulary,
    init_expert_prompts,
    init_general_prompt,
    mean_cross_entropy,
    one_hot,
    softmax,
    stack_samples,
    train_window,
)
from cnapwp.preprocessing import ActivityVocabulary, BucketConfig, build_prefix, encode


def make_model(mode=PREFIX_MODE, input_width=5, n_classes=4, seed=11, **cfg_kwargs):
    defaults = dict(max_len=4, heads=2, layers=2, dropout=0.0, prompt_len=2,
                    general_layers=(0,), expert_layers=(1,), prompt_mode=mode)
    defaults.update(cfg_kwargs)
    cfg = ModelConfig(**defaults)
    return AttentionPredictor(cfg, input_width, n_classes, seed)


def make_prompts(model, seed=11, bucket_ids=(1, 2)):
    general = init_general_prompt(model.cfg, model.d_model, model.layer_widths, seed)
    expert = init_expert_prompts(model.cfg, bucket_ids, model.d_model, model.layer_widths, seed, task_id=1)
    return general, expert


def one_hot_batch(model, rng, batch=3):
    return one_hot(rng.integers(0, model.input_width, size=(batch, model.cfg.max_len)), model.input_width)


# -- loss ------------------------------------------------------------------------


def test_cross_entropy_uniform_oracle():
    probs = np.full((1, 4), 0.25)
    assert mean_cross_entropy(probs, np.array([1])) == pytest.approx(1.3862943611198906, abs=1e-15)


def test_cross_entropy_tenth_oracle():
    probs = np.array([[0.1, 0.9]])
    assert mean_cross_entropy(probs, np.array([1])) == pytest.approx(2.302585092994046, abs=1e-15)


def test_cross_entropy_floors_zero_probability():
    probs = np.array([[0.0, 1.0]])
    assert mean_cross_entropy(probs, np.array([1])) == pytest.approx(-np.log(1e-12))


def test_cross_entropy_target_bounds():
    with pytest.raises(ConfigurationError):
        mean_cross_entropy(np.full((1, 3), 1 / 3), np.array([0]))
    with pytest.raises(ConfigurationError):
        mean_cross_entropy(np.full((1, 3), 1 / 3), np.array([4]))


def test_mean_cross_entropy_matches_per_sample_mean():
    probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8], [0.2, 0.4, 0.4]])
    targets = np.array([1, 3, 2])
    # -(log 0.5 + log 0.8 + log 0.4) / 3 = log(1 / 0.16) / 3
    assert mean_cross_entropy(probs, targets) == pytest.approx(0.6108604879161034, abs=1e-15)


def test_softmax_rows_normalize():
    rng = np.random.default_rng(1)
    s = softmax(rng.normal(scale=30, size=(4, 7)))
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s > 0).all()


# -- configuration ------------------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=4, dropout=1.0)
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=4, prompt_mode="sideways")
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=4, layers=2, general_layers=(2,))
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=4, prompt_len=-1)


def test_rows_attached_at():
    cfg = ModelConfig(max_len=4, layers=2, prompt_len=3, general_layers=(0,), expert_layers=(1,))
    assert cfg.rows_attached_at(0) == 3  # general only
    assert cfg.rows_attached_at(1) == 6  # task + bucket
    shared = ModelConfig(max_len=4, layers=2, prompt_len=3, general_layers=(0,), expert_layers=(0,))
    assert shared.rows_attached_at(0) == 9


def test_d_model_is_smallest_multiple_of_heads():
    model = make_model(input_width=5, heads=2)
    assert model.d_model == 6
    assert make_model(input_width=4, heads=2).d_model == 4


def test_model_size_validation():
    with pytest.raises(ConfigurationError):
        make_model(input_width=0)
    with pytest.raises(ConfigurationError):
        make_model(n_classes=0)


# -- forward ----------------------------------------------------------------------


def test_forward_shapes_and_normalization():
    model = make_model()
    general, expert = make_prompts(model)
    rng = np.random.default_rng(2)
    x = one_hot_batch(model, rng)
    probs, cache = model.forward(x, general=general, expert=expert, bucket_id=1)
    assert probs.shape == (3, model.n_classes)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    assert cache.batch_size == 3


def test_forward_single_sample_squeezes():
    model = make_model()
    rng = np.random.default_rng(3)
    x = one_hot_batch(model, rng, batch=1)[0]
    probs, _ = model.forward(x, want_cache=False)
    assert probs.shape == (model.n_classes,)


def test_forward_rejects_wrong_shapes():
    model = make_model(input_width=4)
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((2, 4, 9)))  # wider than the model
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((2, 4, 3)))  # narrower than the model
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((2, 3, 4)))  # wrong sequence length


def test_forward_requires_bucket_for_expert():
    model = make_model()
    _, expert = make_prompts(model)
    x = one_hot_batch(model, np.random.default_rng(4))
    with pytest.raises(ConfigurationError):
        model.forward(x, expert=expert, bucket_id=None)
    with pytest.raises(ConfigurationError):
        model.forward(x, expert=expert, bucket_id=9)


def test_forward_dropout_needs_rng():
    model = make_model(dropout=0.5)
    x = one_hot_batch(model, np.random.default_rng(5))
    with pytest.raises(ConfigurationError):
        model.forward(x, train=True)


def test_forward_is_deterministic_outside_training():
    model = make_model(dropout=0.5)
    x = one_hot_batch(model, np.random.default_rng(6))
    a, _ = model.forward(x, want_cache=False)
    b, _ = model.forward(x, want_cache=False)
    assert np.array_equal(a, b)


def test_forward_flags_nonfinite_weights():
    model = make_model()
    model.layers_qkv[0][0].value[0, 0] = np.nan
    x = one_hot_batch(model, np.random.default_rng(7))
    with pytest.raises(NumericError):
        model.forward(x, want_cache=False)


def test_same_seed_same_parameters():
    a = make_model(seed=21)
    b = make_model(seed=21)
    c = make_model(seed=22)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)
    assert any(
        not np.array_equal(pa.value, pc.value) for pa, pc in zip(a.parameters(), c.parameters())
    )


# -- prompt geometry ------------------------------------------------------------------


def test_prefix_mode_keeps_sequence_lengths():
    for prompt_len in (0, 1, 5, 16):
        model = make_model(PREFIX_MODE, prompt_len=prompt_len)
        general, expert = make_prompts(model)
        x = one_hot_batch(model, np.random.default_rng(8))
        _, cache = model.forward(x, general=general, expert=expert, bucket_id=1)
        assert model.final_seq_len == model.cfg.max_len
        assert cache.layer_output_lengths == [model.cfg.max_len] * model.cfg.layers
        # keys grew by the attached rows while queries did not
        assert cache.layers[0]["prompt_rows"] == prompt_len
        assert cache.layers[1]["prompt_rows"] == 2 * prompt_len


def test_prompt_mode_extends_sequence_lengths():
    model = make_model(PROMPT_MODE, prompt_len=2)
    general, expert = make_prompts(model)
    assert model.layer_seq_lens == [4, 6]  # general adds 2 rows after layer 0
    assert model.final_seq_len == 10  # expert adds 4 more after layer 1
    x = one_hot_batch(model, np.random.default_rng(9))
    probs, cache = model.forward(x, general=general, expert=expert, bucket_id=2)
    assert cache.layer_output_lengths == [6, 10]
    assert probs.shape == (3, model.n_classes)


def test_attach_prefix_validation():
    keys = np.zeros((2, 4, 6))
    with pytest.raises(ValueError):
        attach_prefix(np.zeros((2, 6)), np.zeros((3, 6)), keys, keys)
    with pytest.raises(ValueError):
        attach_prefix(np.zeros((2, 5)), np.zeros((2, 5)), keys, keys)
    k, v = attach_prefix(np.ones((2, 6)), np.ones((2, 6)), keys, keys)
    assert k.shape == (2, 6, 6) and v.shape == (2, 6, 6)


def test_zero_length_prompt_equals_promptless_forward():
    model = make_model(PREFIX_MODE, prompt_len=0)
    general, expert = make_prompts(model)
    x = one_hot_batch(model, np.random.default_rng(10))
    with_prompts, _ = model.forward(x, general=general, expert=expert, bucket_id=1, want_cache=False)
    without, _ = model.forward(x, want_cache=False)
    assert np.array_equal(with_prompts, without)


def test_prompt_init_is_bounded_and_seeded():
    model = make_model(PREFIX_MODE, prompt_len=4)
    general, _ = make_prompts(model, seed=33)
    again, _ = make_prompts(model, seed=33)
    other, _ = make_prompts(model, seed=34)
    for p, q in zip(general.parameters(), again.parameters()):
        assert np.array_equal(p.value, q.value)
        assert np.abs(p.value).max() <= 0.1
    assert any(not np.array_equal(p.value, q.value) for p, q in zip(general.parameters(), other.parameters()))


def test_expert_prompts_differ_by_task():
    model = make_model()
    e1 = init_expert_prompts(model.cfg, (1, 2), model.d_model, model.layer_widths, 11, task_id=1)
    e2 = init_expert_prompts(model.cfg, (1, 2), model.d_model, model.layer_widths, 11, task_id=2)
    p1 = e1.parameters()
    p2 = e2.parameters()
    assert len(p1) == len(p2)
    assert any(not np.array_equal(a.value, b.value) for a, b in zip(p1, p2))


# -- growth -----------------------------------------------------------------------


def _encode_under(vocab, history, target, max_len=4):
    prefix = build_prefix_like(history, vocab, max_len)
    return encode(prefix, target, vocab, BucketConfig((0, max_len)))


def build_prefix_like(history, vocab, max_len):
    from cnapwp.stream import Event

    events = [Event("c", a) for a in history]
    return build_prefix(Event("c", "?"), events, vocab, max_len)


def _logits_for(model, sample, general, expert):
    x = one_hot(sample.activities, model.input_width)
    _, cache = model.forward(x, general=general, expert=expert, bucket_id=sample.bucket)
    return cache.dense_out @ model.cls_w.value + model.cls_b.value


def test_growth_preserves_old_logits():
    vocab = ActivityVocabulary(["a", "b", "c"])
    model = make_model(input_width=vocab.width, n_classes=len(vocab))
    general, expert = make_prompts(model)
    sample = _encode_under(vocab, ["a", "b"], "c")
    before = _logits_for(model, sample, general, expert)
    vocab.intern("d")
    grow_vocabulary(model, vocab.width, len(vocab), general=general, expert_sets=[expert])
    after = _logits_for(model, sample, general, expert)
    assert model.input_width == 5 and model.n_classes == 4
    # the zero extensions cancel mathematically; BLAS may regroup the sums
    assert np.allclose(before, after[:, : before.shape[1]], rtol=1e-12, atol=1e-15)
    assert np.array_equal(after[:, -1], np.zeros(1))  # fresh class starts at logit zero


def test_growing_twice_equals_growing_once():
    a = make_model(input_width=5, n_classes=4, seed=17)
    b = make_model(input_width=5, n_classes=4, seed=17)
    grow_vocabulary(a, 6, 5)
    grow_vocabulary(a, 7, 6)
    grow_vocabulary(b, 7, 6)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_growth_rejects_shrinking():
    model = make_model(input_width=5, n_classes=4)
    with pytest.raises(ConfigurationError):
        model.grow(input_width=4)
    with pytest.raises(ConfigurationError):
        model.grow(n_classes=3)


def test_prompt_mode_growth_widens_first_layer_tokens():
    model = make_model(PROMPT_MODE, input_width=5, n_classes=4, general_layers=(0,), expert_layers=(1,))
    general, expert = make_prompts(model)
    assert general.blocks[0].tokens.value.shape[1] == 5
    deep_shape = expert.task_blocks[1].tokens.value.shape
    grow_vocabulary(model, 7, 4, general=general, expert_sets=[expert])
    assert general.blocks[0].tokens.value.shape[1] == 7
    assert np.array_equal(general.blocks[0].tokens.value[:, 5:], np.zeros((model.cfg.prompt_len, 2)))
    assert expert.task_blocks[1].tokens.value.shape == deep_shape  # deeper layers keep d_model width


def test_did_growth_keep_internal_width():
    model = make_model(input_width=5, n_classes=4)
    d_before = model.d_model
    grow_vocabulary(model, 9, 8)
    assert model.d_model == d_before
    assert model.layers_qkv[0][0].value.shape[0] == 9


# -- sgd and batching -----------------------------------------------------------------


def test_sgd_step_skips_frozen_parameters():
    from cnapwp.model import sgd_step

    p = Parameter(np.ones(3), "trainable")
    q = Parameter(np.ones(3), "frozen", trainable=False)
    p.grad[...] = 1.0
    q.grad[...] = 1.0
    sgd_step([p, q], lr=0.5)
    assert np.array_equal(p.value, np.full(3, 0.5))
    assert np.array_equal(q.value, np.ones(3))
    assert np.array_equal(p.grad, np.zeros(3)) and np.array_equal(q.grad, np.zeros(3))


index_arrays = st.integers(1, 60).flatmap(
    lambda width: st.tuples(
        st.just(width),
        arrays(
            np.int64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12), elements=st.integers(0, width - 1)
        ),
    )
)


@given(index_arrays)
def test_one_hot_is_rows_of_the_identity(case):
    width, indices = case
    x = one_hot(indices, width)
    assert x.dtype == np.float64 and x.flags.c_contiguous
    assert np.array_equal(x, np.eye(width)[indices])


def test_train_window_learns_a_fixed_mapping():
    """A deterministic next-activity rule must be learnable from repetition.

    The three patterns use distinct activity sets, so they stay separable
    without positional information.
    """
    vocab = ActivityVocabulary(["a", "b", "c"])
    model = make_model(input_width=vocab.width, n_classes=len(vocab), seed=5)
    general, expert = make_prompts(model, seed=5)
    rule = [(["a", "b"], "c"), (["b", "c"], "a"), (["c", "a"], "b")]
    samples = [_encode_under(vocab, history, target) for history, target in rule * 4]
    batches = [(1, [samples])]
    x, targets = stack_samples(samples, model.input_width)

    def loss():
        probs, _ = model.forward(x, general=general, expert=expert, bucket_id=1, want_cache=False)
        return mean_cross_entropy(probs, targets)

    before = loss()
    train_window(model, batches, epochs=200, lr=0.1, general=general, expert=expert)
    after = loss()
    assert after < before * 0.2
    probs, _ = model.forward(x, general=general, expert=expert, bucket_id=1, want_cache=False)
    assert (np.argmax(probs, axis=-1) + 1 == targets).all()


def test_train_window_with_no_batches_is_a_noop():
    model = make_model()
    snapshot = [p.value.copy() for p in model.parameters()]
    train_window(model, [], epochs=3, lr=0.1)
    for p, before in zip(model.parameters(), snapshot):
        assert np.array_equal(p.value, before)


# -- prediction cache -------------------------------------------------------------------


def _cached_setup():
    vocab = ActivityVocabulary(["a", "b", "c"])
    model = make_model(input_width=vocab.width, n_classes=len(vocab))
    general, expert = make_prompts(model)
    return vocab, model, general, expert, _encode_under(vocab, ["a", "b"], "c")


def _uncached(model, sample, general, expert):
    x = one_hot(sample.activities, model.input_width)
    probs, _ = model.forward(x, general=general, expert=expert, bucket_id=sample.bucket, want_cache=False)
    return probs


def test_repeated_predict_returns_the_cached_read_only_result():
    _, model, general, expert, sample = _cached_setup()
    first = model.predict(sample, general, expert)
    assert model.predict(sample, general, expert) is first
    probs, index = first
    expected = _uncached(model, sample, general, expert)
    assert np.array_equal(probs, expected) and index == int(np.argmax(expected)) + 1
    assert not probs.flags.writeable
    with pytest.raises(ValueError):
        probs[0] = 1.0


def test_a_different_expert_set_or_bucket_misses():
    _, model, general, expert, sample = _cached_setup()
    first = model.predict(sample, general, expert)
    # An equal-valued but distinct prompt set is another key: prompts go in by identity.
    twin = init_expert_prompts(model.cfg, (1, 2), model.d_model, model.layer_widths, 11, task_id=1)
    other = init_expert_prompts(model.cfg, (1, 2), model.d_model, model.layer_widths, 11, task_id=2)
    other_bucket = dataclasses.replace(sample, bucket=3 - sample.bucket)
    for args in ((sample, general, twin), (sample, general, other), (other_bucket, general, expert)):
        probs, _ = model.predict(*args)
        assert probs is not first[0]
        assert np.array_equal(probs, _uncached(model, *args))
    assert len(model._predictions) == 4


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_window_clears_the_prediction_cache(epochs):
    _, model, general, expert, sample = _cached_setup()
    model.predict(sample, general, expert)
    train_window(model, [(sample.bucket, [[sample]])], epochs=epochs, lr=0.5, general=general, expert=expert)
    assert not model._predictions
    probs, _ = model.predict(sample, general, expert)
    assert np.array_equal(probs, _uncached(model, sample, general, expert))


def test_grow_vocabulary_clears_the_prediction_cache():
    vocab, model, general, expert, sample = _cached_setup()
    model.predict(sample, general, expert)
    vocab.intern("d")
    grow_vocabulary(model, vocab.width, len(vocab), general=general, expert_sets=[expert])
    assert not model._predictions
    probs, _ = model.predict(sample, general, expert)
    assert probs.shape == (len(vocab),)

