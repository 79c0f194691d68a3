"""Prompt-augmented multi-head self-attention predictor with exact gradients.

The backbone feeds one-hot prefixes straight into per-layer QKV projections,
runs scaled dot-product attention with row softmax and dropout, flattens, and
classifies through a dense layer plus softmax head. Prompts attach in one of
two ways:

* prefix mode: a layer's block holds key rows and value rows, prepended to K
  and V of the layer, so queries and the output length are untouched;
* prompt mode: a layer's block holds token rows, prepended to the layer input,
  extending the sequence (the dense head is sized for the extended length).

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError
from .preprocessing import EncodedSample

PREFIX_MODE = "prefix"
PROMPT_MODE = "prompt"
LOG_FLOOR = 1e-12
MAX_DENSE_WEIGHT_BYTES = 4 << 30  # the largest benchmark model, wide-prefix, has a 2.5 MB dense weight


class Parameter:
    """A named float64 tensor."""

    __slots__ = ("name", "value")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.array(value, dtype=np.float64)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@dataclass(frozen=True)
class ModelConfig:
    """Backbone and prompt layout. ``general_layers``/``expert_layers`` name the
    layers each prompt kind attaches at, ``()`` for a kind this model instance
    never sees; in prompt mode they fix the dense head size."""

    max_len: int
    heads: int = 4
    layers: int = 2
    dropout: float = 0.1
    prompt_len: int = 5
    general_layers: tuple[int, ...] = (0,)
    expert_layers: tuple[int, ...] = (1,)
    prompt_mode: str = PREFIX_MODE

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
        self.check_sizes(self.d_model(1))  # the smallest model

    @property
    def final_seq_len(self) -> int:
        """Rows reaching the dense head: the rows prompt mode prepends persist to it."""
        if self.prompt_mode == PREFIX_MODE:
            return self.max_len
        return self.max_len + sum(self.rows_attached_at(layer) for layer in range(self.layers))

    def d_model(self, input_width: int) -> int:
        """The attention width for a one-hot input width: the smallest multiple of ``heads`` covering it."""
        return math.ceil(input_width / self.heads) * self.heads

    def check_sizes(self, d_model: int, batch_size: int = 1) -> None:
        """Refuse, before anything is allocated, any of these above MAX_DENSE_WEIGHT_BYTES:
        the dense weight, ``8 * (final_seq_len * d_model)**2`` bytes; one layer's
        prompt blocks; the attention scores of a ``batch_size`` batch, whose keys
        also hold a layer's prefix-mode prompt rows."""
        rows = max((self.rows_attached_at(layer) for layer in {*self.general_layers, *self.expert_layers}), default=0)
        prefix = self.prompt_mode == PREFIX_MODE
        t_q = self.final_seq_len
        doubles = {
            f"the dense weight of {t_q} rows x d_model {d_model}": (t_q * d_model) ** 2,
            f"the {rows} prompt rows of a layer at d_model {d_model}": (1 + prefix) * rows * d_model,
            f"the attention scores of a batch of {batch_size}": batch_size * self.heads * t_q * (t_q + prefix * rows),
        }
        for what, count in doubles.items():
            if 8 * count > MAX_DENSE_WEIGHT_BYTES:
                raise ConfigurationError(
                    f"{what} would take {8 * count / 2**30:,.1f} GiB, above the {MAX_DENSE_WEIGHT_BYTES >> 30} GiB cap"
                )

    def rows_attached_at(self, layer: int) -> int:
        """Prompt rows attached at a layer: the general prompt's block, the expert's task and bucket blocks."""
        return self.prompt_len * ((layer in self.general_layers) + 2 * (layer in self.expert_layers))


class PromptSet:
    """Prompt blocks keyed by (layer, bucket). Bucket ``None`` holds the block
    every sample uses; a bucket id's block attaches only to that bucket's
    samples. The general prompt has no buckets (``bucket_ids`` is empty), an
    expert task's prompt one per prefix-length bucket."""

    def __init__(self, blocks: dict[tuple[int, int | None], Parameter], bucket_ids: tuple[int, ...]):
        self.blocks = blocks
        self.bucket_ids = bucket_ids


def init_prompts(
    model: AttentionPredictor, layers: Sequence[int], bucket_ids: Sequence[int], rng_key: Sequence[int], name: str
) -> PromptSet:
    """Fresh blocks, i.i.d. uniform [-0.1, 0.1] from ``default_rng(rng_key)``: the
    shared blocks by ascending layer, then each bucket's, named ``{name}.l{layer}``
    and ``{name}.b{bucket}.l{layer}``.

    In prefix mode a block is (2, prompt_len, d_model), key rows then value rows;
    in prompt mode (prompt_len, layer width) token rows.
    """
    cfg = model.cfg
    rng = np.random.default_rng(rng_key)
    blocks = {}
    for bucket in (None, *bucket_ids):
        prefix = name if bucket is None else f"{name}.b{bucket}"
        for layer in sorted(layers):
            if cfg.prompt_mode == PREFIX_MODE:
                shape = (2, cfg.prompt_len, model.d_model)
            else:
                shape = (cfg.prompt_len, model.layer_widths[layer])
            blocks[layer, bucket] = Parameter(rng.uniform(-0.1, 0.1, shape), f"{prefix}.l{layer}")
    return PromptSet(blocks, tuple(bucket_ids))


@dataclass(slots=True)
class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    batch_size: int
    layers: list[dict]
    flat: np.ndarray
    dense_out: np.ndarray
    probs: np.ndarray


# From about this many rows on, a running maximum over the columns of a short
# last axis beats numpy's per-row max (a batch-25 attention softmax has 2,600
# rows of 10-13); below it, as in one-sample predictions and the classifier
# head, the per-column calls cost more than they save.
COLUMN_LOOP_MIN_ROWS = 512

# backward forms the dense weight's gradient in row blocks of whole sequence
# positions, about this many bytes each, and sgd_step applies each block as it
# arrives: no full-size gradient is allocated per step, and a block is still in
# cache when it is applied. A block never has one row: OpenBLAS computes a
# one-row product as a GEMV, which rounds differently from the full GEMM, while
# every split into blocks of two or more rows gives the full product's bytes.
DENSE_BLOCK_BYTES = 256 << 10

ALL_ROWS = slice(None)  # the rows of a backward piece that covers its whole parameter


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


def attach_prefix(prompt_rows: np.ndarray, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prepend ``prompt_rows[0]`` to batched keys and ``prompt_rows[1]`` to batched values."""
    if prompt_rows.ndim != 3 or len(prompt_rows) != 2 or prompt_rows.shape[2] != keys.shape[-1]:
        raise ValueError(f"prompt rows {prompt_rows.shape} are not (2, rows, keys width {keys.shape[-1]})")
    shape = (keys.shape[0], *prompt_rows.shape[1:])
    pk = np.broadcast_to(prompt_rows[0], shape)
    pv = np.broadcast_to(prompt_rows[1], shape)
    return np.concatenate((pk, keys), axis=1), np.concatenate((pv, values), axis=1)


def _block_gradients(
    blocks: Sequence[Parameter], d_rows: np.ndarray
) -> Iterator[tuple[Parameter, slice, np.ndarray]]:
    """Each block's slice, along axis -2, of the gradient of the rows ``forward``
    concatenated from ``blocks``."""
    offset = 0
    for block in blocks:
        n = block.value.shape[-2]
        yield block, ALL_ROWS, d_rows[..., offset : offset + n, :]
        offset += n


def _dense_row_blocks(positions: int, d_model: int) -> list[slice]:
    """Row slices tiling a dense weight of ``positions * d_model`` rows: whole
    positions, about DENSE_BLOCK_BYTES each, none of one row (a one-row tail
    joins the block before it)."""
    rows = positions * d_model
    per_block = max(2, max(1, DENSE_BLOCK_BYTES // (8 * rows * d_model)) * d_model)
    starts = list(range(0, rows, per_block))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], rows])]


def _fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Fan-balanced uniform weight init; biases start at zero."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


class AttentionPredictor:
    """The backbone: layered prompt-aware attention, dense head, classifier.

    ``input_width`` tracks the one-hot width (vocabulary size plus padding) and
    may grow; the internal width ``d_model`` is the smallest multiple of
    ``heads`` covering the initial input width and never changes. Once
    ``backbone_frozen`` is set, only the classifier head (and any prompts)
    keeps training.
    """

    def __init__(self, cfg: ModelConfig, input_width: int, n_classes: int, seed: int):
        if input_width < 1:
            raise ConfigurationError("input_width must be >= 1")
        if n_classes < 1:
            raise ConfigurationError("n_classes must be >= 1")
        self.cfg = cfg
        self.input_width = input_width
        self.n_classes = n_classes
        self.d_model = cfg.d_model(input_width)
        self.d_head = self.d_model // cfg.heads
        self.final_seq_len = cfg.final_seq_len
        cfg.check_sizes(self.d_model)

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
        self.dense_blocks = _dense_row_blocks(self.final_seq_len, self.d_model)
        self.backbone_frozen = False
        # predict() results by (prompt sets, bucket, activity indices); valid only
        # while no parameter changes, so train_window and grow clear it.
        self._predictions: dict[tuple, tuple[np.ndarray, int]] = {}

    @property
    def layer_widths(self) -> list[int]:
        """Feature width entering each layer's projection."""
        return [self.input_width if layer == 0 else self.d_model for layer in range(self.cfg.layers)]

    # -- forward / backward ------------------------------------------------

    def _gather_sources(self, layer: int, prompts: Sequence[PromptSet], bucket_id: int | None) -> list[Parameter]:
        """The blocks attached at ``layer``: for each set in order, its shared block there, then its bucket's."""
        sources: list[Parameter] = []
        if self.cfg.prompt_len == 0:
            return sources
        for prompt_set in prompts:
            shared = prompt_set.blocks.get((layer, None))
            if shared is None:
                continue
            sources.append(shared)
            if prompt_set.bucket_ids:
                if bucket_id not in prompt_set.bucket_ids:
                    raise ConfigurationError(f"the prompts need a bucket in {prompt_set.bucket_ids}, got {bucket_id}")
                sources.append(prompt_set.blocks[layer, bucket_id])
        return sources

    def forward(
        self,
        x: np.ndarray,
        prompts: Sequence[PromptSet] = (),
        bucket_id: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, ForwardCache]:
        """Run a batch [B, max_len, input_width] to class probabilities.

        ``prompts`` are the active sets in attachment order: the shared set, then
        the task's. Given an ``rng``, the pass trains: it draws dropout masks.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != (self.cfg.max_len, self.input_width):
            raise ConfigurationError(
                f"expected {(self.cfg.max_len, self.input_width)} input rows x width per sample, got {x.shape[1:]}"
            )
        batch = x.shape[0]
        cfg = self.cfg
        scale = 1.0 / math.sqrt(self.d_head)
        use_dropout = rng is not None and cfg.dropout > 0.0

        layers = []
        h = x
        for layer in range(cfg.layers):
            sources = self._gather_sources(layer, prompts, bucket_id)
            rows = np.concatenate([src.value for src in sources], axis=-2) if sources else None
            prepended = 0
            if cfg.prompt_mode == PROMPT_MODE and sources:
                prepended = rows.shape[0]
                h = np.concatenate((np.broadcast_to(rows, (batch, *rows.shape)), h), axis=1)
            w, b = self.layers_qkv[layer]
            proj = h @ w.value
            proj += b.value
            d = self.d_model
            q, k, v = proj[..., :d], proj[..., d : 2 * d], proj[..., 2 * d :]
            if cfg.prompt_mode == PREFIX_MODE and sources:
                k_full, v_full = attach_prefix(rows, k, v)
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
        dense_out = flat @ self.dense_w.value
        dense_out += self.dense_b.value
        logits = dense_out @ self.cls_w.value
        logits += self.cls_b.value
        probs = softmax(logits)
        if not np.isfinite(probs).all():
            raise NumericError("non-finite probabilities in the classifier head")
        return probs, ForwardCache(batch, layers, flat, dense_out, probs)

    def backward(self, cache: ForwardCache, targets: np.ndarray) -> Iterator[tuple[Parameter, slice, np.ndarray]]:
        """Gradients of the mean cross-entropy, yielded lazily as (parameter, rows,
        gradient) pieces, ``gradient`` a fresh array for ``parameter.value[rows]``.

        The pieces cover each parameter the forward pass used that still learns
        exactly once: the dense weight in ``dense_blocks`` (row blocks of whole
        sequence positions), every other parameter whole (``ALL_ROWS``). A
        parameter's pieces come only after this pass has read its value for the
        last time, so each piece may be applied as it arrives.

        The classifier and the prompts always learn; the rest of the backbone
        only while it is not frozen. A frozen pass that used no prompt stops
        right after the classifier, as nothing below it learns.
        """
        cfg = self.cfg
        batch = cache.batch_size
        targets = np.asarray(targets)
        if targets.shape != (batch,):
            raise ConfigurationError(f"expected {batch} targets, got shape {targets.shape}")
        if np.any(targets < 1) or np.any(targets > self.n_classes):
            raise ConfigurationError("targets must be ordinal activity indices in [1, n_classes]")

        samples = np.arange(batch)
        dz = cache.probs.copy()
        dz[samples, targets - 1] -= 1.0
        dz /= batch
        # Clamped samples contribute a constant loss, hence no gradient.
        floored = cache.probs[samples, targets - 1] <= LOG_FLOOR
        dz[floored] = 0.0

        classifier = [(self.cls_w, ALL_ROWS, cache.dense_out.T @ dz), (self.cls_b, ALL_ROWS, dz.sum(axis=0))]
        frozen = self.backbone_frozen
        if frozen and not any(entry["sources"] for entry in cache.layers):
            yield from classifier
            return
        d_dense = dz @ self.cls_w.value.T
        yield from classifier
        d_flat = d_dense @ self.dense_w.value.T
        if not frozen:
            yield self.dense_b, ALL_ROWS, d_dense.sum(axis=0)
            for rows in self.dense_blocks:
                yield self.dense_w, rows, cache.flat[:, rows].T @ d_dense
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
                # (2, heads, prompt_rows, d_head) -> (2, prompt_rows, d): key rows, then value rows.
                d_rows = np.stack((d_kh[:, :, :prompt_rows].sum(axis=0), d_vh[:, :, :prompt_rows].sum(axis=0)))
                yield from _block_gradients(entry["sources"], d_rows.swapaxes(1, 2).reshape(2, prompt_rows, d))
            d_proj = d_proj.reshape(batch, t_q, 3 * d)

            w, b = self.layers_qkv[layer]
            h_in = entry["h_in"]
            # The input gradient reads w, so it is formed before w's pieces go out.
            dh = d_proj @ w.value.T if layer or entry["prepended"] else None
            if not frozen:
                yield w, ALL_ROWS, h_in.reshape(-1, h_in.shape[-1]).T @ d_proj.reshape(-1, 3 * d)
                yield b, ALL_ROWS, d_proj.sum(axis=(0, 1))
            if dh is None:
                break  # no layer or prompt below consumes the input gradient

            if entry["prepended"]:
                yield from _block_gradients(entry["sources"], dh[:, : entry["prepended"]].sum(axis=0))
                dh = dh[:, entry["prepended"] :]

    def predict(self, sample: EncodedSample, prompts: tuple[PromptSet, ...] = ()) -> tuple[np.ndarray, int]:
        """Evaluate one sample; returns (read-only probabilities, predicted ordinal index).

        Argmax ties resolve to the lowest class index. A repeated prefix, under
        the same prompt objects in the same order and bucket, is answered from
        the cache: without an rng, ``forward`` is a pure function of the
        parameters and these. The key holds the sets themselves, compared by
        identity: a fresh tuple of the same sets hits, and their ids cannot be reused.
        """
        key = (prompts, sample.bucket, sample.activities)
        hit = self._predictions.get(key)
        if hit is None:
            x = one_hot((sample.activities,), self.input_width)
            probs, _ = self.forward(x, prompts, sample.bucket)
            probs = probs[0]
            probs.flags.writeable = False
            hit = self._predictions[key] = (probs, int(np.argmax(probs)) + 1)
        return hit

    # -- growth ------------------------------------------------------------

    def grow(self, input_width: int, n_classes: int) -> None:
        self._predictions.clear()
        if input_width < self.input_width:
            raise ConfigurationError(f"cannot shrink input width {self.input_width} -> {input_width}")
        if n_classes < self.n_classes:
            raise ConfigurationError(f"cannot shrink classes {self.n_classes} -> {n_classes}")
        if input_width > self.input_width:
            w, _ = self.layers_qkv[0]
            extra = input_width - self.input_width
            w.value = np.concatenate((w.value, np.zeros((extra, w.value.shape[1]))), axis=0)
            self.input_width = input_width
        if n_classes > self.n_classes:
            extra = n_classes - self.n_classes
            self.cls_w.value = np.concatenate((self.cls_w.value, np.zeros((self.cls_w.value.shape[0], extra))), axis=1)
            self.cls_b.value = np.concatenate((self.cls_b.value, np.zeros(extra)))
            self.n_classes = n_classes


def grow_vocabulary(
    model: AttentionPredictor, input_width: int, n_classes: int, prompts: Iterable[PromptSet] = ()
) -> None:
    """Zero-extend the model (and the prompt-mode first-layer token blocks of ``prompts``) for a larger vocabulary.

    On indices interned under the old vocabulary the zero extensions cancel, so
    previous logits survive up to float roundoff (the widened contraction axis
    can regroup the sums), and growing in several steps equals growing once.
    """
    old_width = model.input_width
    model.grow(input_width, n_classes)
    grown = model.input_width - old_width
    if grown and model.cfg.prompt_mode == PROMPT_MODE:
        for prompt_set in prompts:
            for (layer, _), block in prompt_set.blocks.items():
                if layer == 0:
                    block.value = np.concatenate((block.value, np.zeros((block.value.shape[0], grown))), axis=1)


# -- loss and optimization --------------------------------------------------


def mean_cross_entropy(probabilities: np.ndarray, targets: np.ndarray) -> float:
    targets = np.asarray(targets)
    if np.any(targets < 1) or np.any(targets > probabilities.shape[-1]):
        raise ConfigurationError("targets outside the class range")
    picked = probabilities[np.arange(len(targets)), targets - 1]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def sgd_step(pieces: Iterable[tuple[Parameter, slice, np.ndarray]], lr: float) -> None:
    """Plain SGD over ``backward``'s (parameter, rows, gradient) pieces, each applied
    as it arrives; scales each gradient in place."""
    for p, rows, grad in pieces:
        grad *= lr  # grad * lr == lr * grad bit for bit, without a temporary
        p.value[rows] -= grad


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
    prompts: Sequence[PromptSet],
    rng: np.random.Generator,
) -> None:
    """SGD over bucketed batches, drawing dropout masks from ``rng``: the backbone
    and each set's shared blocks learn on every batch; a bucket's blocks learn
    only on its own batches. Every call clears the model's prediction cache,
    which bounds it to one window of entries."""
    model._predictions.clear()
    if not batches or epochs < 1:
        return
    # Stacks do not change across epochs: build them once per pass.
    plan = [(bucket_id, [stack_samples(chunk, model.input_width) for chunk in chunks]) for bucket_id, chunks in batches]
    for _ in range(epochs):
        for bucket_id, stacked in plan:
            for x, targets in stacked:
                _, cache = model.forward(x, prompts, bucket_id, rng)
                sgd_step(model.backward(cache, targets), lr)

