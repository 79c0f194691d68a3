"""Prompt-augmented multi-head self-attention predictor with exact gradients.

The backbone feeds one-hot prefixes straight into per-layer QKV projections,
runs scaled dot-product attention with row softmax and dropout, flattens, and
classifies through a dense layer plus softmax head. Prompts attach in one of
two ways:

* prefix mode: learned key/value rows are prepended to K and V of a layer, so
  queries and the output length are untouched;
* prompt mode: learned token rows are prepended to the layer input, extending
  the sequence (the dense head is sized for the extended length).

The shared prompt attaches at the shallow layers, the expert (per-task plus
per-bucket) prompts at the deeper ones. All math is float64 and every
gradient is written out by hand against a forward cache, so finite
differences can check it exactly.

Vocabulary growth zero-extends the first projection's input rows and the
classifier's output columns (token rows of prompt-mode blocks on the first
layer grow too). The internal attention width is fixed at construction, so
growth leaves previous logits unchanged up to float roundoff and gives new
classes a logit of exactly zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError
from .preprocessing import EncodedSample

PREFIX_MODE = "prefix"
PROMPT_MODE = "prompt"
LOG_FLOOR = 1e-12


class Parameter:
    """A trainable float64 tensor with an accumulated gradient."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, value: np.ndarray, name: str = "", trainable: bool = True):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.trainable = trainable

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape}, trainable={self.trainable})"


@dataclass(frozen=True)
class ModelConfig:
    """Backbone and prompt layout. ``use_general``/``use_expert`` declare which
    prompt kinds this model instance will ever see, which fixes the dense head
    size in prompt mode."""

    max_len: int
    heads: int = 4
    layers: int = 2
    dropout: float = 0.1
    prompt_len: int = 5
    general_layers: tuple[int, ...] = (0,)
    expert_layers: tuple[int, ...] = (1,)
    prompt_mode: str = PREFIX_MODE
    use_general: bool = True
    use_expert: bool = True

    def __post_init__(self):
        if self.max_len < 1:
            raise ConfigurationError("max_len must be >= 1")
        if self.heads < 1 or self.layers < 1:
            raise ConfigurationError("heads and layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError("dropout must be in [0, 1)")
        if self.prompt_len < 0:
            raise ConfigurationError("prompt_len must be >= 0")
        if self.prompt_mode not in (PREFIX_MODE, PROMPT_MODE):
            raise ConfigurationError(f"unknown prompt mode {self.prompt_mode!r}")
        for layer in (*self.general_layers, *self.expert_layers):
            if not 0 <= layer < self.layers:
                raise ConfigurationError(f"prompt layer {layer} outside [0, {self.layers})")

    def rows_attached_at(self, layer: int) -> int:
        """Prompt rows contributed at a layer given the declared prompt kinds."""
        rows = 0
        if self.use_general and layer in self.general_layers:
            rows += self.prompt_len
        if self.use_expert and layer in self.expert_layers:
            rows += 2 * self.prompt_len
        return rows


@dataclass
class PromptBlock:
    """One layer's prompt parameters: key/value rows (prefix mode) or token rows."""

    key: Parameter | None = None
    value: Parameter | None = None
    tokens: Parameter | None = None

    def parameters(self) -> list[Parameter]:
        return [p for p in (self.key, self.value, self.tokens) if p is not None]


class GeneralPrompt:
    """Task-invariant prompt blocks, keyed by layer."""

    def __init__(self, blocks: dict[int, PromptBlock]):
        self.blocks = blocks

    def parameters(self) -> list[Parameter]:
        out = []
        for block in self.blocks.values():
            out.extend(block.parameters())
        return out


class ExpertPromptSet:
    """One task's prompt parameters: a task block plus one block per bucket, per layer."""

    def __init__(self, task_blocks: dict[int, PromptBlock], bucket_blocks: dict[int, dict[int, PromptBlock]]):
        self.task_blocks = task_blocks
        self.bucket_blocks = bucket_blocks

    def parameters(self, active_bucket: int | None = None) -> list[Parameter]:
        """Task parameters plus, when given, only the active bucket's parameters."""
        out = []
        for block in self.task_blocks.values():
            out.extend(block.parameters())
        buckets = self.bucket_blocks if active_bucket is None else {active_bucket: self.bucket_blocks[active_bucket]}
        for per_layer in buckets.values():
            for block in per_layer.values():
                out.extend(block.parameters())
        return out


def _make_block(cfg: ModelConfig, layer: int, d_model: int, layer_width: int, rng: np.random.Generator, name: str) -> PromptBlock:
    if cfg.prompt_mode == PREFIX_MODE:
        return PromptBlock(
            key=Parameter(rng.uniform(-0.1, 0.1, (cfg.prompt_len, d_model)), f"{name}.key"),
            value=Parameter(rng.uniform(-0.1, 0.1, (cfg.prompt_len, d_model)), f"{name}.value"),
        )
    return PromptBlock(tokens=Parameter(rng.uniform(-0.1, 0.1, (cfg.prompt_len, layer_width)), f"{name}.tokens"))


def init_general_prompt(cfg: ModelConfig, d_model: int, layer_widths: Sequence[int], seed: int) -> GeneralPrompt:
    rng = np.random.default_rng([seed, 101])
    blocks = {
        layer: _make_block(cfg, layer, d_model, layer_widths[layer], rng, f"general.l{layer}")
        for layer in sorted(cfg.general_layers)
    }
    return GeneralPrompt(blocks)


def init_expert_prompts(
    cfg: ModelConfig,
    bucket_ids: Sequence[int],
    d_model: int,
    layer_widths: Sequence[int],
    seed: int,
    task_id: int,
) -> ExpertPromptSet:
    """Fresh expert blocks, i.i.d. uniform [-0.1, 0.1], deterministic per (seed, task_id)."""
    rng = np.random.default_rng([seed, 211, task_id])
    task_blocks = {
        layer: _make_block(cfg, layer, d_model, layer_widths[layer], rng, f"task{task_id}.l{layer}")
        for layer in sorted(cfg.expert_layers)
    }
    bucket_blocks = {
        bucket: {
            layer: _make_block(cfg, layer, d_model, layer_widths[layer], rng, f"task{task_id}.b{bucket}.l{layer}")
            for layer in sorted(cfg.expert_layers)
        }
        for bucket in bucket_ids
    }
    return ExpertPromptSet(task_blocks, bucket_blocks)


class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    __slots__ = ("layers", "flat", "dense_out", "probs", "batch_size", "layer_output_lengths")

    def __init__(self):
        self.layers: list[dict] = []
        self.flat = None
        self.dense_out = None
        self.probs = None
        self.batch_size = 0
        self.layer_output_lengths: list[int] = []


# From about this many rows on, a running maximum over the columns of a short
# last axis beats numpy's per-row max (a batch-25 attention softmax has 2,600
# rows of 10-13); below it, as in one-sample predictions and the classifier
# head, the per-column calls cost more than they save.
COLUMN_LOOP_MIN_ROWS = 512


def _many_rows(x: np.ndarray) -> bool:
    return x.size >= COLUMN_LOOP_MIN_ROWS * x.shape[-1] > 0


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``; on many rows, a running ``np.maximum`` over the columns.

    The values are exact; only the sign of a zero maximum may differ from
    numpy's, whose SIMD lanes order equal zeros differently.
    """
    if not _many_rows(x):
        return x.max(axis=-1)
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, bit-identical to the plain numpy formulation."""
    e = np.subtract(x, row_max(x)[..., np.newaxis])
    np.exp(e, out=e)
    e /= e.sum(axis=-1)[..., np.newaxis]
    return e


def attach_prefix(
    prompt_key: np.ndarray, prompt_value: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prepend prompt rows to batched keys and values; queries stay untouched."""
    if prompt_key.shape != prompt_value.shape:
        raise ValueError(f"prompt key/value shapes differ: {prompt_key.shape} vs {prompt_value.shape}")
    if prompt_key.ndim != 2 or prompt_key.shape[1] != keys.shape[-1]:
        raise ValueError(f"prompt width {prompt_key.shape} does not match keys width {keys.shape[-1]}")
    batch = keys.shape[0]
    pk = np.broadcast_to(prompt_key, (batch, *prompt_key.shape))
    pv = np.broadcast_to(prompt_value, (batch, *prompt_value.shape))
    return np.concatenate((pk, keys), axis=1), np.concatenate((pv, values), axis=1)


def _fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Fan-balanced uniform weight init; biases start at zero."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


class AttentionPredictor:
    """The backbone: layered prompt-aware attention, dense head, classifier.

    ``input_width`` tracks the one-hot width (vocabulary size plus padding) and
    may grow; the internal width ``d_model`` is the smallest multiple of
    ``heads`` covering the initial input width and never changes.
    """

    def __init__(self, cfg: ModelConfig, input_width: int, n_classes: int, seed: int):
        if input_width < 1:
            raise ConfigurationError("input_width must be >= 1")
        if n_classes < 1:
            raise ConfigurationError("n_classes must be >= 1")
        self.cfg = cfg
        self.seed = seed
        self.input_width = input_width
        self.n_classes = n_classes
        self.d_model = math.ceil(input_width / cfg.heads) * cfg.heads
        self.d_head = self.d_model // cfg.heads

        # Sequence length entering each layer; prompt mode prepends rows that persist.
        self.layer_seq_lens = []
        seq = cfg.max_len
        for layer in range(cfg.layers):
            self.layer_seq_lens.append(seq)
            if cfg.prompt_mode == PROMPT_MODE:
                seq += cfg.rows_attached_at(layer)
        self.final_seq_len = seq

        rng = np.random.default_rng([seed, 97])
        self.layers_qkv: list[tuple[Parameter, Parameter]] = []
        for layer in range(cfg.layers):
            w_in = self.layer_widths[layer]
            w = Parameter(_fan_uniform(rng, w_in, 3 * self.d_model), f"layer{layer}.wqkv")
            b = Parameter(np.zeros(3 * self.d_model), f"layer{layer}.bqkv")
            self.layers_qkv.append((w, b))
        head_width = self.final_seq_len * self.d_model
        self.dense_w = Parameter(_fan_uniform(rng, head_width, head_width), "dense.w")
        self.dense_b = Parameter(np.zeros(head_width), "dense.b")
        self.cls_w = Parameter(_fan_uniform(rng, head_width, n_classes), "classifier.w")
        self.cls_b = Parameter(np.zeros(n_classes), "classifier.b")
        # predict() results by (general, expert, bucket, activity indices); valid only
        # while no parameter changes, so train_window and grow clear it.
        self._predictions: dict[tuple, tuple[np.ndarray, int]] = {}

    @property
    def layer_widths(self) -> list[int]:
        """Feature width entering each layer's projection."""
        return [self.input_width if layer == 0 else self.d_model for layer in range(self.cfg.layers)]

    def parameters(self) -> list[Parameter]:
        out = []
        for w, b in self.layers_qkv:
            out.extend((w, b))
        out.extend((self.dense_w, self.dense_b, self.cls_w, self.cls_b))
        return out

    def classifier_parameters(self) -> list[Parameter]:
        return [self.cls_w, self.cls_b]

    # -- forward / backward ------------------------------------------------

    def _gather_sources(self, layer: int, general, expert, bucket_id) -> list[tuple[str, PromptBlock]]:
        cfg = self.cfg
        sources: list[tuple[str, PromptBlock]] = []
        if cfg.use_general and general is not None and layer in cfg.general_layers and cfg.prompt_len > 0:
            sources.append(("general", general.blocks[layer]))
        if cfg.use_expert and expert is not None and layer in cfg.expert_layers and cfg.prompt_len > 0:
            if bucket_id is None:
                raise ConfigurationError("expert prompts need a bucket id")
            if bucket_id not in expert.bucket_blocks:
                raise ConfigurationError(f"no bucket {bucket_id} in expert prompt set")
            sources.append(("task", expert.task_blocks[layer]))
            sources.append(("bucket", expert.bucket_blocks[bucket_id][layer]))
        return sources

    def forward(
        self,
        x: np.ndarray,
        general: GeneralPrompt | None = None,
        expert: ExpertPromptSet | None = None,
        bucket_id: int | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        want_cache: bool = True,
    ) -> tuple[np.ndarray, ForwardCache | None]:
        """Run a batch [B, max_len, input_width] (or one sample [max_len, input_width]) to class probabilities."""
        single = x.ndim == 2
        if single:
            x = x[np.newaxis]
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != (self.cfg.max_len, self.input_width):
            raise ConfigurationError(
                f"expected {(self.cfg.max_len, self.input_width)} input rows x width per sample, got {x.shape[1:]}"
            )
        batch = x.shape[0]
        cfg = self.cfg
        scale = 1.0 / math.sqrt(self.d_head)
        use_dropout = train and cfg.dropout > 0.0
        if use_dropout and rng is None:
            raise ConfigurationError("training with dropout needs an rng")

        cache = ForwardCache() if want_cache else None
        if cache is not None:
            cache.batch_size = batch

        h = x
        for layer in range(cfg.layers):
            sources = self._gather_sources(layer, general, expert, bucket_id)
            prepended = 0
            if cfg.prompt_mode == PROMPT_MODE and sources:
                tokens = np.concatenate([src.tokens.value for _, src in sources], axis=0)
                prepended = tokens.shape[0]
                h = np.concatenate((np.broadcast_to(tokens, (batch, *tokens.shape)), h), axis=1)
            w, b = self.layers_qkv[layer]
            proj = h @ w.value
            proj += b.value
            d = self.d_model
            q, k, v = proj[..., :d], proj[..., d : 2 * d], proj[..., 2 * d :]
            if cfg.prompt_mode == PREFIX_MODE and sources:
                pk = np.concatenate([src.key.value for _, src in sources], axis=0)
                pv = np.concatenate([src.value.value for _, src in sources], axis=0)
                k_full, v_full = attach_prefix(pk, pv, k, v)
            else:
                k_full, v_full = k, v
            t_q = q.shape[1]
            t_k = k_full.shape[1]
            qh = q.reshape(batch, t_q, cfg.heads, self.d_head).transpose(0, 2, 1, 3)
            kh = k_full.reshape(batch, t_k, cfg.heads, self.d_head).transpose(0, 2, 1, 3)
            vh = v_full.reshape(batch, t_k, cfg.heads, self.d_head).transpose(0, 2, 1, 3)
            scores = qh @ kh.swapaxes(-1, -2)
            scores *= scale
            attn = softmax(scores)
            # The heads' outputs land merged, as (batch, t_q, heads, d_head).
            out = np.empty((batch, t_q, cfg.heads, self.d_head))
            np.matmul(attn, vh, out=out.swapaxes(1, 2))
            out = out.reshape(batch, t_q, d)
            if not np.isfinite(out).all():
                raise NumericError(f"non-finite activation in layer {layer}")
            mask = None
            if use_dropout:
                mask = rng.random(out.shape) >= cfg.dropout
                out *= mask
                out /= 1.0 - cfg.dropout
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
        dense_out = flat @ self.dense_w.value
        dense_out += self.dense_b.value
        logits = dense_out @ self.cls_w.value
        logits += self.cls_b.value
        probs = softmax(logits)
        if not np.isfinite(probs).all():
            raise NumericError("non-finite probabilities in the classifier head")
        if cache is not None:
            cache.flat = flat
            cache.dense_out = dense_out
            cache.probs = probs
        return (probs[0] if single else probs), cache

    def backward(self, cache: ForwardCache, targets: np.ndarray) -> None:
        """Accumulate gradients of the mean cross-entropy into every trainable parameter."""
        cfg = self.cfg
        batch = cache.batch_size
        targets = np.asarray(targets)
        if targets.shape != (batch,):
            raise ConfigurationError(f"expected {batch} targets, got shape {targets.shape}")
        if np.any(targets < 1) or np.any(targets > self.n_classes):
            raise ConfigurationError("targets must be ordinal activity indices in [1, n_classes]")

        rows = np.arange(batch)
        dz = cache.probs.copy()
        dz[rows, targets - 1] -= 1.0
        dz /= batch
        # Clamped samples contribute a constant loss, hence no gradient.
        floored = cache.probs[rows, targets - 1] <= LOG_FLOOR
        dz[floored] = 0.0

        if self.cls_w.trainable:
            self.cls_w.grad += cache.dense_out.T @ dz
        if self.cls_b.trainable:
            self.cls_b.grad += dz.sum(axis=0)
        d_dense = dz @ self.cls_w.value.T
        if self.dense_w.trainable:
            self.dense_w.grad += cache.flat.T @ d_dense
        if self.dense_b.trainable:
            self.dense_b.grad += d_dense.sum(axis=0)
        d_flat = d_dense @ self.dense_w.value.T
        dh = d_flat.reshape(batch, self.final_seq_len, self.d_model)

        scale = 1.0 / math.sqrt(self.d_head)
        heads, d_head, d = cfg.heads, self.d_head, self.d_model
        for layer in reversed(range(cfg.layers)):
            entry = cache.layers[layer]
            if entry["mask"] is not None:
                dh *= entry["mask"]
                dh /= 1.0 - cfg.dropout
            t_q = dh.shape[1]
            d_out_h = dh.reshape(batch, t_q, heads, d_head).transpose(0, 2, 1, 3)
            attn, qh, kh, vh = entry["attn"], entry["qh"], entry["kh"], entry["vh"]
            d_scores = d_out_h @ vh.swapaxes(-1, -2)
            d_scores -= (d_scores * attn).sum(axis=-1)[..., np.newaxis]
            d_scores *= attn

            # dq, dk and dv go straight to their columns of the projection
            # gradient, through (batch, heads, t_q, d_head) views of it.
            d_proj = np.empty((batch, t_q, 3, heads, d_head))
            dq, dk, dv = (d_proj[:, :, i].swapaxes(1, 2) for i in range(3))
            np.matmul(d_scores, kh, out=dq)
            dq *= scale
            prompt_rows = entry["prompt_rows"]
            if not prompt_rows:
                np.matmul(d_scores.swapaxes(-1, -2), qh, out=dk)
                dk *= scale
                np.matmul(attn.swapaxes(-1, -2), d_out_h, out=dv)
            else:
                d_kh = d_scores.swapaxes(-1, -2) @ qh
                d_kh *= scale
                d_vh = attn.swapaxes(-1, -2) @ d_out_h
                dk[...] = d_kh[:, :, prompt_rows:]
                dv[...] = d_vh[:, :, prompt_rows:]
                dk_prompt = d_kh[:, :, :prompt_rows].sum(axis=0).swapaxes(0, 1).reshape(prompt_rows, d)
                dv_prompt = d_vh[:, :, :prompt_rows].sum(axis=0).swapaxes(0, 1).reshape(prompt_rows, d)
                offset = 0
                for _, block in entry["sources"]:
                    n = block.key.value.shape[0]
                    if block.key.trainable:
                        block.key.grad += dk_prompt[offset : offset + n]
                    if block.value.trainable:
                        block.value.grad += dv_prompt[offset : offset + n]
                    offset += n
            d_proj = d_proj.reshape(batch, t_q, 3 * d)

            w, b = self.layers_qkv[layer]
            h_in = entry["h_in"]
            if w.trainable:
                w.grad += h_in.reshape(-1, h_in.shape[-1]).T @ d_proj.reshape(-1, 3 * d)
            if b.trainable:
                b.grad += d_proj.sum(axis=(0, 1))
            if layer == 0 and not entry["prepended"]:
                break  # no layer or prompt below consumes the input gradient
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

    def predict(
        self,
        sample: EncodedSample,
        general: GeneralPrompt | None = None,
        expert: ExpertPromptSet | None = None,
    ) -> tuple[np.ndarray, int]:
        """Evaluate one sample; returns (read-only probabilities, predicted ordinal index).

        Argmax ties resolve to the lowest class index. A repeated prefix, under
        the same prompt objects and bucket, is answered from the cache: without
        training, ``forward`` is a pure function of the parameters and these.
        The prompts are held in the key, so their ids cannot be reused.
        """
        key = (general, expert, sample.bucket, sample.activities)
        hit = self._predictions.get(key)
        if hit is None:
            x = one_hot(sample.activities, self.input_width)
            probs, _ = self.forward(x, general=general, expert=expert, bucket_id=sample.bucket, want_cache=False)
            probs.flags.writeable = False
            hit = self._predictions[key] = (probs, int(np.argmax(probs)) + 1)
        return hit

    # -- growth ------------------------------------------------------------

    def grow(self, input_width: int | None = None, n_classes: int | None = None) -> None:
        self._predictions.clear()
        if input_width is not None:
            if input_width < self.input_width:
                raise ConfigurationError(f"cannot shrink input width {self.input_width} -> {input_width}")
            if input_width > self.input_width:
                w, _ = self.layers_qkv[0]
                extra = input_width - self.input_width
                w.value = np.concatenate((w.value, np.zeros((extra, w.value.shape[1]))), axis=0)
                w.grad = np.zeros_like(w.value)
                self.input_width = input_width
        if n_classes is not None:
            if n_classes < self.n_classes:
                raise ConfigurationError(f"cannot shrink classes {self.n_classes} -> {n_classes}")
            if n_classes > self.n_classes:
                extra = n_classes - self.n_classes
                self.cls_w.value = np.concatenate((self.cls_w.value, np.zeros((self.cls_w.value.shape[0], extra))), axis=1)
                self.cls_w.grad = np.zeros_like(self.cls_w.value)
                self.cls_b.value = np.concatenate((self.cls_b.value, np.zeros(extra)))
                self.cls_b.grad = np.zeros_like(self.cls_b.value)
                self.n_classes = n_classes


def grow_vocabulary(
    model: AttentionPredictor,
    input_width: int,
    n_classes: int,
    general: GeneralPrompt | None = None,
    expert_sets: Iterable[ExpertPromptSet] = (),
) -> None:
    """Zero-extend the model (and any prompt-mode first-layer token blocks) for a larger vocabulary.

    On indices interned under the old vocabulary the zero extensions cancel, so
    previous logits survive up to float roundoff (the widened contraction axis
    can regroup the sums), and growing in several steps equals growing once.
    """
    old_width = model.input_width
    model.grow(input_width=input_width, n_classes=n_classes)
    grown = model.input_width - old_width
    if grown and model.cfg.prompt_mode == PROMPT_MODE:
        def widen(block: PromptBlock):
            if block.tokens is not None and block.tokens.value.shape[1] == old_width:
                block.tokens.value = np.concatenate(
                    (block.tokens.value, np.zeros((block.tokens.value.shape[0], grown))), axis=1
                )
                block.tokens.grad = np.zeros_like(block.tokens.value)

        if general is not None and 0 in general.blocks:
            widen(general.blocks[0])
        for expert in expert_sets:
            if 0 in expert.task_blocks:
                widen(expert.task_blocks[0])
            for per_layer in expert.bucket_blocks.values():
                if 0 in per_layer:
                    widen(per_layer[0])


# -- loss and optimization --------------------------------------------------


def mean_cross_entropy(probabilities: np.ndarray, targets: np.ndarray) -> float:
    targets = np.asarray(targets)
    if np.any(targets < 1) or np.any(targets > probabilities.shape[-1]):
        raise ConfigurationError("targets outside the class range")
    picked = probabilities[np.arange(len(targets)), targets - 1]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def sgd_step(parameters: Iterable[Parameter], lr: float) -> None:
    """Plain SGD on trainable parameters; zeroes all passed gradients."""
    for p in parameters:
        if p.trainable:
            p.grad *= lr  # grad * lr == lr * grad bit for bit, without a temporary
            p.value -= p.grad
        p.grad[...] = 0.0


def one_hot(indices, width: int) -> np.ndarray:
    """Float64 one-hot rows ``width`` wide for an index array of any shape: the one
    place where samples' activity indices become model input, at the model's current width."""
    indices = np.asarray(indices)
    x = np.zeros((indices.size, width))
    x[np.arange(indices.size), indices.ravel()] = 1.0
    return x.reshape(*indices.shape, width)


def stack_samples(samples: Sequence[EncodedSample], input_width: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch [len(samples), max_len, input_width] of one-hot rows, and its targets."""
    x = one_hot([s.activities for s in samples], input_width)
    targets = np.array([s.target for s in samples], dtype=np.int64)
    return x, targets


def train_window(
    model: AttentionPredictor,
    batches: Sequence[tuple[int, Sequence[Sequence[EncodedSample]]]],
    epochs: int,
    lr: float,
    general: GeneralPrompt | None = None,
    expert: ExpertPromptSet | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """SGD over bucketed batches: backbone, general and task prompts learn on every
    batch; a bucket's prompt learns only on its own batches. Every call clears
    the model's prediction cache, which bounds it to one window of entries."""
    model._predictions.clear()
    if not batches or epochs < 1:
        return
    # Stacks and parameter lists do not change across epochs: build them once per pass.
    plan = []
    for bucket_id, chunks in batches:
        params = model.parameters()
        if general is not None:
            params.extend(general.parameters())
        if expert is not None:
            params.extend(expert.parameters(active_bucket=bucket_id))
        plan.append((bucket_id, [stack_samples(chunk, model.input_width) for chunk in chunks], params))
    for _ in range(epochs):
        for bucket_id, stacked, params in plan:
            for x, targets in stacked:
                _, cache = model.forward(
                    x, general=general, expert=expert, bucket_id=bucket_id, train=True, rng=rng
                )
                model.backward(cache, targets)
                sgd_step(params, lr)

