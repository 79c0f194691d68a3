"""Reference formulation of the update pass, in plain numpy.

``softmax``, ``forward``, ``backward``, ``sgd_step`` and ``train_window`` here
use numpy's own short-axis reductions, fresh temporaries and one stack per
epoch. ``test_model_bit_identity`` runs them beside ``cnapwp.model`` and
requires byte-identical parameters, so the faster code there cannot drift in
rounding. They take the model as an argument, read its parameters and prompt
layout, pick each layer's prompt blocks themselves (``prompt_sources``), and
change nothing but the ``.value`` of parameters. ``backward``
returns its gradients as a dict from parameter to array, each accumulated from
zeros, and ``sgd_step`` takes that dict. It reads ``model.backbone_frozen``
but always backpropagates through every layer, so the model's early return
for a frozen, prompt-less pass is checked against the full computation.

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


def prompt_sources(model, layer, prompts, bucket_id):
    """The blocks attached at ``layer``, picked from the configured layers: the
    general block, then the expert's task block, then its bucket's block.
    ``prompts`` holds the general set, then the expert set when there is one."""
    cfg = model.cfg
    general, expert = (*prompts, None, None)[:2]
    sources = []
    if cfg.prompt_len == 0:
        return sources
    if general is not None and layer in cfg.general_layers:
        sources.append(general.blocks[layer, None])
    if expert is not None and layer in cfg.expert_layers:
        if bucket_id not in expert.bucket_ids:
            raise ConfigurationError(f"no bucket {bucket_id} in the expert prompt")
        sources.append(expert.blocks[layer, None])
        sources.append(expert.blocks[layer, bucket_id])
    return sources


def forward(model, x, prompts=(), bucket_id=None, rng=None):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.cfg.max_len:
        raise ConfigurationError(f"expected {model.cfg.max_len} input rows, got {x.shape[1]}")
    batch = x.shape[0]
    cfg = model.cfg
    scale = 1.0 / math.sqrt(model.d_head)
    use_dropout = rng is not None and cfg.dropout > 0.0

    layers = []
    h = x
    for layer in range(cfg.layers):
        sources = prompt_sources(model, layer, prompts, bucket_id)
        prepended = 0
        if cfg.prompt_mode == PROMPT_MODE and sources:
            tokens = np.concatenate([src.value for src in sources], axis=0)
            prepended = tokens.shape[0]
            h = np.concatenate((np.broadcast_to(tokens, (batch, *tokens.shape)), h), axis=1)
        w, b = model.layers_qkv[layer]
        proj = h @ w.value + b.value
        d = model.d_model
        q, k, v = proj[..., :d], proj[..., d : 2 * d], proj[..., 2 * d :]
        if cfg.prompt_mode == PREFIX_MODE and sources:
            pk = np.concatenate([src.value[0] for src in sources], axis=0)
            pv = np.concatenate([src.value[1] for src in sources], axis=0)
            k_full, v_full = attach_prefix(np.stack((pk, pv)), k, v)
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
        layers.append(
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
        h = out

    flat = h.reshape(batch, -1)
    dense_out = flat @ model.dense_w.value + model.dense_b.value
    logits = dense_out @ model.cls_w.value + model.cls_b.value
    probs = softmax(logits, axis=-1)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite probabilities in the classifier head")
    return probs, ForwardCache(batch, layers, flat, dense_out, probs)


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

    grads = {}

    def accumulate(p, g):
        grads.setdefault(p, np.zeros_like(p.value))[...] += g

    accumulate(model.cls_w, cache.dense_out.T @ dz)
    accumulate(model.cls_b, dz.sum(axis=0))
    d_dense = dz @ model.cls_w.value.T
    if not model.backbone_frozen:
        accumulate(model.dense_w, cache.flat.T @ d_dense)
        accumulate(model.dense_b, d_dense.sum(axis=0))
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
            for block in entry["sources"]:
                n = block.value.shape[1]
                accumulate(block, np.stack((dk_prompt[offset : offset + n], dv_prompt[offset : offset + n])))
                offset += n
            dk = dk_full[:, prompt_rows:]
            dv = dv_full[:, prompt_rows:]
        else:
            dk, dv = dk_full, dv_full

        d_proj = np.concatenate((dq, dk, dv), axis=-1)
        w, b = model.layers_qkv[layer]
        h_in = entry["h_in"]
        if not model.backbone_frozen:
            accumulate(w, qkv_weight_gradient(h_in, d_proj))
            accumulate(b, d_proj.sum(axis=(0, 1)))
        dh = d_proj @ w.value.T

        if entry["prepended"]:
            d_tokens = dh[:, : entry["prepended"]].sum(axis=0)
            offset = 0
            for block in entry["sources"]:
                n = block.value.shape[0]
                accumulate(block, d_tokens[offset : offset + n])
                offset += n
            dh = dh[:, entry["prepended"] :]
    return grads


def qkv_weight_gradient(h_in, d_proj):
    """``h_in`` (batch, t, width) against ``d_proj`` (batch, t, 3 d): one product over batch and t."""
    return h_in.reshape(-1, h_in.shape[-1]).T @ d_proj.reshape(-1, d_proj.shape[-1])


def sgd_step(grads, lr):
    for p, grad in grads.items():
        p.value -= lr * grad


def train_window(model, batches, epochs, lr, prompts, rng):
    if not batches:
        return
    for _ in range(epochs):
        for bucket_id, chunks in batches:
            for chunk in chunks:
                x, targets = stack_samples(chunk, model.input_width)
                _, cache = forward(model, x, prompts, bucket_id, rng)
                sgd_step(backward(model, cache, targets), lr)
