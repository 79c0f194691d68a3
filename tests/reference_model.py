"""Reference formulation of the update pass, in plain numpy.

``softmax``, ``forward``, ``backward``, ``sgd_step`` and ``train_window`` here
use numpy's own short-axis reductions, fresh temporaries and one stack per
epoch. ``test_model_bit_identity`` runs them beside ``cnapwp.model`` and
requires byte-identical parameters, so the faster code there cannot drift in
rounding. They take the model as an argument, read its parameters and prompt
layout, and change nothing but the ``.value`` and ``.grad`` of parameters.

The QKV weight gradient is one matrix product on the ``(batch * t, width)``
reshape of the layer input and of the projection gradient, as in
``cnapwp.model``. It groups its sums differently from
``einsum("btw,btk->wk", ...)`` over the same terms, so its bytes are pinned
here, and ``test_qkv_weight_gradient_is_the_einsum_contraction`` swaps
``qkv_weight_gradient`` for that ``einsum`` to show that it is the same sum.
"""
from __future__ import annotations

import math

import numpy as np

from cnapwp.errors import ConfigurationError, NumericError
from cnapwp.model import LOG_FLOOR, PREFIX_MODE, PROMPT_MODE, ForwardCache, attach_prefix, stack_samples


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def forward(model, x, general=None, expert=None, bucket_id=None, train=False, rng=None, want_cache=True):
    single = x.ndim == 2
    if single:
        x = x[np.newaxis]
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.cfg.max_len:
        raise ConfigurationError(f"expected {model.cfg.max_len} input rows, got {x.shape[1]}")
    batch = x.shape[0]
    cfg = model.cfg
    scale = 1.0 / math.sqrt(model.d_head)
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise ConfigurationError("training with dropout needs an rng")

    cache = ForwardCache() if want_cache else None
    if cache is not None:
        cache.batch_size = batch

    h = x
    for layer in range(cfg.layers):
        sources = model._gather_sources(layer, general, expert, bucket_id)
        prepended = 0
        if cfg.prompt_mode == PROMPT_MODE and sources:
            tokens = np.concatenate([src.tokens.value for _, src in sources], axis=0)
            prepended = tokens.shape[0]
            h = np.concatenate((np.broadcast_to(tokens, (batch, *tokens.shape)), h), axis=1)
        w, b = model.layers_qkv[layer]
        proj = h @ w.value + b.value
        d = model.d_model
        q, k, v = proj[..., :d], proj[..., d : 2 * d], proj[..., 2 * d :]
        if cfg.prompt_mode == PREFIX_MODE and sources:
            pk = np.concatenate([src.key.value for _, src in sources], axis=0)
            pv = np.concatenate([src.value.value for _, src in sources], axis=0)
            k_full, v_full = attach_prefix(pk, pv, k, v)
        else:
            k_full, v_full = k, v
        t_q = q.shape[1]
        t_k = k_full.shape[1]
        qh = q.reshape(batch, t_q, cfg.heads, model.d_head).transpose(0, 2, 1, 3)
        kh = k_full.reshape(batch, t_k, cfg.heads, model.d_head).transpose(0, 2, 1, 3)
        vh = v_full.reshape(batch, t_k, cfg.heads, model.d_head).transpose(0, 2, 1, 3)
        scores = (qh @ kh.swapaxes(-1, -2)) * scale
        attn = softmax(scores, axis=-1)
        out_h = attn @ vh
        out = out_h.transpose(0, 2, 1, 3).reshape(batch, t_q, d)
        if not np.isfinite(out).all():
            raise NumericError(f"non-finite activation in layer {layer}")
        mask = None
        if use_dropout:
            mask = (rng.random(out.shape) >= cfg.dropout).astype(np.float64)
            out = out * mask / (1.0 - cfg.dropout)
        if cache is not None:
            cache.layers.append(
                {
                    "h_in": h,
                    "qh": qh,
                    "kh": kh,
                    "vh": vh,
                    "attn": attn,
                    "mask": mask,
                    "sources": sources,
                    "prepended": prepended,
                    "prompt_rows": t_k - t_q,
                }
            )
            cache.layer_output_lengths.append(t_q)
        h = out

    flat = h.reshape(batch, -1)
    dense_out = flat @ model.dense_w.value + model.dense_b.value
    logits = dense_out @ model.cls_w.value + model.cls_b.value
    probs = softmax(logits, axis=-1)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite probabilities in the classifier head")
    if cache is not None:
        cache.flat = flat
        cache.dense_out = dense_out
        cache.probs = probs
    return (probs[0] if single else probs), cache


def backward(model, cache, targets):
    cfg = model.cfg
    batch = cache.batch_size
    targets = np.asarray(targets)
    if targets.shape != (batch,):
        raise ConfigurationError(f"expected {batch} targets, got shape {targets.shape}")
    if np.any(targets < 1) or np.any(targets > model.n_classes):
        raise ConfigurationError("targets must be ordinal activity indices in [1, n_classes]")

    rows = np.arange(batch)
    dz = cache.probs.copy()
    dz[rows, targets - 1] -= 1.0
    dz /= batch
    floored = cache.probs[rows, targets - 1] <= LOG_FLOOR
    dz[floored] = 0.0

    if model.cls_w.trainable:
        model.cls_w.grad += cache.dense_out.T @ dz
    if model.cls_b.trainable:
        model.cls_b.grad += dz.sum(axis=0)
    d_dense = dz @ model.cls_w.value.T
    if model.dense_w.trainable:
        model.dense_w.grad += cache.flat.T @ d_dense
    if model.dense_b.trainable:
        model.dense_b.grad += d_dense.sum(axis=0)
    d_flat = d_dense @ model.dense_w.value.T
    dh = d_flat.reshape(batch, model.final_seq_len, model.d_model)

    scale = 1.0 / math.sqrt(model.d_head)
    for layer in reversed(range(cfg.layers)):
        entry = cache.layers[layer]
        if entry["mask"] is not None:
            dh = dh * entry["mask"] / (1.0 - cfg.dropout)
        t_q = dh.shape[1]
        d_out_h = dh.reshape(batch, t_q, cfg.heads, model.d_head).transpose(0, 2, 1, 3)
        attn, qh, kh, vh = entry["attn"], entry["qh"], entry["kh"], entry["vh"]
        d_attn = d_out_h @ vh.swapaxes(-1, -2)
        d_vh = attn.swapaxes(-1, -2) @ d_out_h
        d_scores = (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * attn
        d_qh = (d_scores @ kh) * scale
        d_kh = (d_scores.swapaxes(-1, -2) @ qh) * scale

        t_k = kh.shape[2]
        dq = d_qh.transpose(0, 2, 1, 3).reshape(batch, t_q, model.d_model)
        dk_full = d_kh.transpose(0, 2, 1, 3).reshape(batch, t_k, model.d_model)
        dv_full = d_vh.transpose(0, 2, 1, 3).reshape(batch, t_k, model.d_model)

        prompt_rows = entry["prompt_rows"]
        if prompt_rows:
            dk_prompt = dk_full[:, :prompt_rows].sum(axis=0)
            dv_prompt = dv_full[:, :prompt_rows].sum(axis=0)
            offset = 0
            for _, block in entry["sources"]:
                n = block.key.value.shape[0]
                if block.key.trainable:
                    block.key.grad += dk_prompt[offset : offset + n]
                if block.value.trainable:
                    block.value.grad += dv_prompt[offset : offset + n]
                offset += n
            dk = dk_full[:, prompt_rows:]
            dv = dv_full[:, prompt_rows:]
        else:
            dk, dv = dk_full, dv_full

        d_proj = np.concatenate((dq, dk, dv), axis=-1)
        w, b = model.layers_qkv[layer]
        h_in = entry["h_in"]
        if w.trainable:
            w.grad += qkv_weight_gradient(h_in, d_proj)
        if b.trainable:
            b.grad += d_proj.sum(axis=(0, 1))
        dh = d_proj @ w.value.T

        if entry["prepended"]:
            d_tokens = dh[:, : entry["prepended"]].sum(axis=0)
            offset = 0
            for _, block in entry["sources"]:
                n = block.tokens.value.shape[0]
                if block.tokens.trainable:
                    block.tokens.grad += d_tokens[offset : offset + n]
                offset += n
            dh = dh[:, entry["prepended"] :]


def qkv_weight_gradient(h_in, d_proj):
    """``h_in`` (batch, t, width) against ``d_proj`` (batch, t, 3 d): one product over batch and t."""
    return h_in.reshape(-1, h_in.shape[-1]).T @ d_proj.reshape(-1, d_proj.shape[-1])


def sgd_step(parameters, lr):
    for p in parameters:
        if p.trainable:
            p.value -= lr * p.grad
        p.grad[...] = 0.0


def train_window(model, batches, epochs, lr, general=None, expert=None, rng=None):
    if not batches:
        return
    for _ in range(epochs):
        for bucket_id, chunks in batches:
            for chunk in chunks:
                x, targets = stack_samples(chunk, model.input_width)
                _, cache = forward(model, x, general=general, expert=expert, bucket_id=bucket_id, train=True, rng=rng)
                backward(model, cache, targets)
                params = list(model.parameters())
                if general is not None:
                    params.extend(general.parameters())
                if expert is not None:
                    params.extend(expert.parameters(active_bucket=bucket_id))
                sgd_step(params, lr)
