"""Finite-difference verification of the hand-written backward pass."""
import numpy as np
import pytest

from cnapwp.model import (
    PREFIX_MODE,
    PROMPT_MODE,
    AttentionPredictor,
    ModelConfig,
    init_prompts,
)

from gradcheck import full_gradients, gradient_errors, parameters, prompt_parameters, trainable_parameters

# Central differences with step 1e-5 carry ~1e-9 absolute noise, which turns
# into ~1e-5 relative error on near-zero coordinates; 1e-4 keeps headroom.
TOL = 1e-4


def build(mode, input_width=5, n_classes=4, seed=7, **cfg_kwargs):
    defaults = dict(max_len=3, heads=2, layers=2, dropout=0.0, prompt_len=2,
                    general_layers=(0,), expert_layers=(1,), prompt_mode=mode)
    defaults.update(cfg_kwargs)
    cfg = ModelConfig(**defaults)
    model = AttentionPredictor(cfg, input_width, n_classes, seed)
    # One sequence position per dense block, so the dense weight's gradient comes in several pieces.
    d = model.d_model
    model.dense_blocks = [slice(i, i + d) for i in range(0, model.final_seq_len * d, d)]
    general = init_prompts(model, cfg.general_layers, (), [seed, 101], "general")
    expert = init_prompts(model, cfg.expert_layers, (1, 2), [seed, 211, 1], "task1")
    return model, general, expert


def bucket_blocks(expert, bucket_id):
    return [block for (_, bucket), block in expert.blocks.items() if bucket == bucket_id]


def batch_for(model, seed=3, batch=3):
    rng = np.random.default_rng(seed)
    x = np.zeros((batch, model.cfg.max_len, model.input_width))
    idx = rng.integers(0, model.input_width, size=(batch, model.cfg.max_len))
    x[np.arange(batch)[:, None], np.arange(model.cfg.max_len)[None, :], idx] = 1.0
    targets = rng.integers(1, model.n_classes + 1, size=batch)
    return x, targets


def test_prefix_mode_gradients_every_coordinate():
    model, general, expert = build(PREFIX_MODE)
    x, targets = batch_for(model)
    errors = gradient_errors(model, x, targets, prompts=(general, expert), bucket_id=1)
    assert max(errors) < TOL


def test_prompt_mode_gradients_sampled():
    model, general, expert = build(PROMPT_MODE)
    x, targets = batch_for(model)
    errors = gradient_errors(
        model, x, targets, prompts=(general, expert), bucket_id=2, n_coords=600, seed=1
    )
    assert max(errors) < TOL


def test_promptless_gradients_every_coordinate():
    model, _, _ = build(PREFIX_MODE, general_layers=(), expert_layers=())
    x, targets = batch_for(model, seed=9)
    errors = gradient_errors(model, x, targets)
    assert max(errors) < TOL


def test_single_layer_shared_attachment_gradients():
    """General and expert prompts on the same layer still check out."""
    model, general, expert = build(
        PREFIX_MODE, layers=1, general_layers=(0,), expert_layers=(0,), prompt_len=1
    )
    x, targets = batch_for(model, seed=11)
    errors = gradient_errors(model, x, targets, prompts=(general, expert), bucket_id=1)
    assert max(errors) < TOL


def test_gradients_under_replayed_dropout():
    """With the mask sequence replayed per evaluation, dropout is differentiable."""
    model, general, expert = build(PREFIX_MODE, dropout=0.3)
    x, targets = batch_for(model, seed=5)
    errors = gradient_errors(
        model,
        x,
        targets,
        prompts=(general, expert),
        bucket_id=1,
        n_coords=150,
        seed=2,
        rng_factory=lambda: np.random.default_rng(123),
    )
    assert max(errors) < TOL


def test_inactive_bucket_gets_no_gradient():
    model, general, expert = build(PREFIX_MODE)
    x, targets = batch_for(model)
    _, cache = model.forward(x, prompts=(general, expert), bucket_id=1)
    grads = full_gradients(model.backward(cache, targets))
    for p in bucket_blocks(expert, 2):
        assert p not in grads
    active = bucket_blocks(expert, 1)
    assert any(np.abs(grads[p]).max() > 0 for p in active)


def test_floored_probability_contributes_no_gradient():
    """Samples whose target probability hit the log floor are constant-loss."""
    model, general, expert = build(PREFIX_MODE)
    x, targets = batch_for(model)
    # Push every target class far below the floor.
    for t in np.unique(targets):
        model.cls_b.value[t - 1] = -2000.0
    _, cache = model.forward(x, prompts=(general, expert), bucket_id=1)
    grads = full_gradients(model.backward(cache, targets))
    for p in trainable_parameters(model, (general, expert), bucket_id=1):
        assert np.array_equal(grads[p], np.zeros_like(p.value))


def test_floored_sample_drops_out_of_the_batch_mean():
    """A floored sample contributes nothing; the rest keep their share."""
    model, general, expert = build(PREFIX_MODE)
    x, targets = batch_for(model, batch=2)
    targets = np.array([1, 2])
    model.cls_b.value[1] = -2000.0  # floors the second sample only

    _, cache = model.forward(x, prompts=(general, expert), bucket_id=1)
    paired = full_gradients(model.backward(cache, targets))

    _, cache = model.forward(x[:1], prompts=(general, expert), bucket_id=1)
    single = full_gradients(model.backward(cache, np.array([1])))
    for p in trainable_parameters(model, (general, expert), 1):
        assert np.allclose(paired[p] * 2.0, single[p], rtol=1e-12, atol=1e-15), p.name


# The layouts of test_model_bit_identity: the tuned recurrent layout, prompt
# rows prepended at layer 0, prefix mode.
LAYOUTS = [(PROMPT_MODE, (1,)), (PROMPT_MODE, (0,)), (PREFIX_MODE, (0,))]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("prompt_len", [2, 0])
def test_backward_pairs_each_used_trainable_parameter_once(layout, frozen, prompt_len):
    """sgd_step scales every gradient in place, so none may alias another or a value."""
    mode, general_layers = layout
    model, general, expert = build(mode, general_layers=general_layers, prompt_len=prompt_len)
    model.backbone_frozen = frozen  # as the engine freezes it: of the backbone only the classifier trains
    x, targets = batch_for(model)
    _, cache = model.forward(x, prompts=(general, expert), bucket_id=2)
    pieces = list(model.backward(cache, targets))
    grads = full_gradients(pieces)  # each entry covered once: the dense blocks tile dense_w

    every = parameters(model) + prompt_parameters((general, expert))
    expected = [p for p in trainable_parameters(model, (general, expert), bucket_id=2) if p.value.size]
    assert sorted(p.name for p in grads) == sorted(p.name for p in expected)
    assert {id(p) for p in grads} == {id(p) for p in expected}
    assert sum(p is model.dense_w for p, _, _ in pieces) == (0 if frozen else model.final_seq_len)
    for p, _, grad in pieces:
        assert not any(np.shares_memory(grad, q.value) for q in every), p.name
    for i, (p, _, grad) in enumerate(pieces):
        for q, _, other in pieces[i + 1 :]:
            assert not np.shares_memory(grad, other), (p.name, q.name)
