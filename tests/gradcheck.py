"""Central-difference gradient checking against the analytic backward pass.

The loss is the mean cross-entropy the backward pass differentiates. Each
coordinate's relative error uses max(|fd|, |analytic|, 1e-6) as denominator so
near-zero gradients do not blow the ratio up.
"""
import numpy as np

from cnapwp.model import mean_cross_entropy


def full_gradients(pieces):
    """Each parameter's whole gradient from ``backward``'s (parameter, rows, gradient)
    pieces, in order of first arrival. Fails unless the pieces of a parameter
    cover each of its entries exactly once."""
    grads, covered = {}, {}
    for p, rows, grad in pieces:
        if p not in grads:
            grads[p] = np.zeros_like(p.value)
            covered[p] = np.zeros(p.value.shape, dtype=int)
        assert grad.shape == p.value[rows].shape, p.name
        grads[p][rows] = grad
        covered[p][rows] += 1
    for p, count in covered.items():
        assert np.all(count == 1), f"{p.name}: pieces cover entries {sorted(set(count.ravel()))} times"
    return grads


def _loss(model, x, targets, prompts, bucket_id, rng_factory):
    rng = rng_factory() if rng_factory is not None else None
    probs, _ = model.forward(x, prompts, bucket_id, rng)
    return mean_cross_entropy(probs, targets)


def parameters(model):
    """The backbone's parameters: each layer's QKV weight and bias, then the dense head's, then the classifier's."""
    return [*(p for pair in model.layers_qkv for p in pair), model.dense_w, model.dense_b, model.cls_w, model.cls_b]


def prompt_parameters(prompts=(), bucket_id=None):
    """Each set's blocks in creation order, the sets in order: the shared blocks,
    then the bucket blocks, every bucket's or only ``bucket_id``'s when given."""
    return [
        block
        for prompt_set in prompts
        for (_, bucket), block in prompt_set.blocks.items()
        if bucket_id is None or bucket in (None, bucket_id)
    ]


def trainable_parameters(model, prompts=(), bucket_id=None):
    """Every parameter the optimizer would touch for this forward setup: of a
    frozen backbone only the classifier, then the prompts."""
    backbone = [model.cls_w, model.cls_b] if model.backbone_frozen else parameters(model)
    return backbone + prompt_parameters(prompts, bucket_id)


def gradient_errors(
    model,
    x,
    targets,
    prompts=(),
    bucket_id=None,
    n_coords=None,
    step=1e-5,
    seed=0,
    rng_factory=None,
):
    """Relative errors between analytic gradients and central differences.

    Checks every trainable coordinate, or ``n_coords`` sampled uniformly
    across the concatenated parameter space. ``rng_factory`` must build an
    identically seeded generator per call so dropout masks replay exactly;
    without it the check runs on the deterministic evaluation path.
    """
    params = trainable_parameters(model, prompts, bucket_id)
    _, cache = model.forward(x, prompts, bucket_id, rng_factory() if rng_factory is not None else None)
    grads = full_gradients(model.backward(cache, np.asarray(targets)))
    missing = [p.name for p in params if p.value.size and p not in grads]
    assert not missing, f"backward returned no gradient for {missing}"

    sizes = [p.value.size for p in params]
    total = sum(sizes)
    if n_coords is None or n_coords >= total:
        picked = np.arange(total)
    else:
        picked = np.random.default_rng(seed).choice(total, size=n_coords, replace=False)

    offsets = np.cumsum([0, *sizes])
    errors = []
    for flat_index in picked:
        which = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        p = params[which]
        c = int(flat_index - offsets[which])
        flat = p.value.reshape(-1)
        original = flat[c]
        flat[c] = original + step
        up = _loss(model, x, targets, prompts, bucket_id, rng_factory)
        flat[c] = original - step
        down = _loss(model, x, targets, prompts, bucket_id, rng_factory)
        flat[c] = original
        fd = (up - down) / (2.0 * step)
        an = float(grads[p].reshape(-1)[c])
        errors.append(abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    return errors
