"""The update pass must stay bit-identical to the plain numpy formulation.

``reference_model`` keeps that formulation; every case below trains a copy of
the same model with each and requires byte-identical parameters afterwards.
Unlike a stored records digest, this holds on any CPU. The reduction helpers
are checked against numpy's own reductions on both sides of the row count at
which they switch method.
"""
import copy
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model as ref
from cnapwp import BLAS_THREAD_VARIABLES
from cnapwp.model import (
    COLUMN_LOOP_MIN_ROWS,
    DENSE_BLOCK_BYTES,
    PREFIX_MODE,
    PROMPT_MODE,
    AttentionPredictor,
    ModelConfig,
    _dense_row_blocks,
    grow_vocabulary,
    init_prompts,
    one_hot,
    row_max,
    softmax,
    train_window,
)
from cnapwp.preprocessing import EncodedSample

from gradcheck import full_gradients, parameters, prompt_parameters

BATCH = 25
# (prompt mode, general prompt layers): the tuned recurrent layout, prompt rows
# prepended at layer 0 (whose input gradient then feeds the tokens), prefix mode.
LAYOUTS = [(PROMPT_MODE, (1,)), (PROMPT_MODE, (0,)), (PREFIX_MODE, (0,))]


def build(mode, general_layers, prompt_len=1, dropout=0.1, input_width=12, seed=3):
    cfg = ModelConfig(
        max_len=10, heads=8, layers=2, dropout=dropout, prompt_len=prompt_len,
        general_layers=general_layers, expert_layers=(1,), prompt_mode=mode,
    )
    model = AttentionPredictor(cfg, input_width, input_width - 1, seed)
    general = init_prompts(model, cfg.general_layers, (), [seed, 101], "general")
    expert = init_prompts(model, cfg.expert_layers, (1, 2), [seed, 211, 1], "task1")
    return model, general, expert


def samples(rng, count, width, n_classes, max_len=10, bucket=1):
    out = []
    for _ in range(count):
        activities = tuple(int(i) for i in rng.integers(0, width, max_len))
        out.append(EncodedSample(activities, int(rng.integers(1, n_classes + 1)), bucket))
    return out


def two_buckets(model, rng, sizes=((BATCH, 7), (BATCH, 1))):
    """Bucket 1 and 2 chunks with indices below the model's current width."""
    return [
        (bucket, [samples(rng, n, model.input_width, model.n_classes, bucket=bucket) for n in chunk_sizes])
        for bucket, chunk_sizes in zip((1, 2), sizes)
    ]


def all_parameters(model, general, expert):
    return parameters(model) + prompt_parameters((general, expert))


def assert_same_update(setup, batches, epochs=2, lr=0.05):
    """Train two copies, one per implementation, and compare every parameter byte."""
    ours, theirs = copy.deepcopy(setup), copy.deepcopy(setup)
    train_window(ours[0], batches, epochs, lr, ours[1:], np.random.default_rng(9))
    ref.train_window(theirs[0], batches, epochs, lr, theirs[1:], np.random.default_rng(9))
    pairs = list(zip(all_parameters(*ours), all_parameters(*theirs)))
    assert pairs
    for mine, reference in pairs:
        assert mine.name == reference.name
        assert mine.value.tobytes() == reference.value.tobytes(), mine.name
    moved = [not np.array_equal(p.value, q.value) for p, q in zip(all_parameters(*ours), all_parameters(*setup))]
    assert any(moved)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_update_pass_matches_the_reference(layout, dropout):
    setup = build(*layout, dropout=dropout)
    assert BATCH * setup[0].cfg.heads * setup[0].cfg.max_len >= COLUMN_LOOP_MIN_ROWS  # column loops run
    assert_same_update(setup, two_buckets(setup[0], np.random.default_rng(1)))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_batch_of_one_matches_the_reference(layout):
    setup = build(*layout)
    assert_same_update(setup, two_buckets(setup[0], np.random.default_rng(2), sizes=((1,), (1, 1))))


# The last layout has no prompt rows, so the frozen backward returns right after
# the classifier, while the reference still runs through every layer.
@pytest.mark.parametrize("layout", [*LAYOUTS, (PREFIX_MODE, (0,), 0)])
def test_frozen_backbone_matches_the_reference(layout):
    setup = build(*layout)
    setup[0].backbone_frozen = True
    assert_same_update(setup, two_buckets(setup[0], np.random.default_rng(3)))


# The wide-prefix benchmark's model: input width 49, so d_model 56 and a 560 x 560
# dense weight in ten one-position blocks; and the tuned recurrent layout, whose
# 13 positions x d_model 16 split into unequal blocks of 9 and 4 positions.
DENSE_SPLITS = [
    ((PREFIX_MODE, (1,)), 49, [56] * 10),
    ((PROMPT_MODE, (1,)), 12, [144, 64]),
]


@pytest.mark.parametrize("layout, input_width, block_rows", DENSE_SPLITS)
def test_dense_blocks_match_the_reference(layout, input_width, block_rows):
    setup = build(*layout, input_width=input_width)
    assert [s.stop - s.start for s in setup[0].dense_blocks] == block_rows
    assert_same_update(setup, two_buckets(setup[0], np.random.default_rng(6), sizes=((BATCH,), (1,))))


def test_dense_blocks_never_have_one_row():
    # d_model 1: blocks of three rows would leave a one-row tail, which joins the block before it.
    blocks = _dense_row_blocks(10_921, 1)
    assert DENSE_BLOCK_BYTES // (8 * 10_921) == 3
    assert [s.stop - s.start for s in blocks[-2:]] == [3, 4]
    assert blocks[0].start == 0 and blocks[-1].stop == 10_921
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert _dense_row_blocks(1, 1) == [slice(0, 1)]


def test_update_pass_allocates_no_full_size_dense_gradient():
    # One 2-epoch pass over a batch of 25 at wide-prefix shapes; a full-size
    # gradient beside the weight's own working set would take it past 2x.
    model, general, expert = build(PREFIX_MODE, (1,), input_width=49)
    batches = [(1, [samples(np.random.default_rng(7), BATCH, model.input_width, model.n_classes)])]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        train_window(model, batches, 2, 0.05, (general, expert), np.random.default_rng(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * model.dense_w.value.nbytes, (peak - start, model.dense_w.value.nbytes)


# Imports cnapwp before numpy, as a program using the package does, then runs one
# update pass at the wide-prefix benchmark's shapes and prints the trained
# parameters' digest and the pass's time.
THREAD_CHILD = """
import cnapwp
import hashlib, time
import numpy as np
from test_model_bit_identity import BATCH, PREFIX_MODE, all_parameters, build, samples, train_window
model, general, expert = build(PREFIX_MODE, (1,), input_width=49)
chunk = samples(np.random.default_rng(7), 250, model.input_width, model.n_classes)
batches = [(1, [chunk[i : i + BATCH] for i in range(0, 250, BATCH)])]
start = time.perf_counter()
train_window(model, batches, 1, 0.1, (general, expert), np.random.default_rng(9))
elapsed = time.perf_counter() - start
print(hashlib.sha256(b"".join(p.value.tobytes() for p in all_parameters(model, general, expert))).hexdigest(), elapsed)
"""


def test_importing_cnapwp_pins_one_blas_thread():
    # With the thread variables unset, OpenBLAS would use every CPU, and a product
    # split over threads can round differently; on a one-CPU host both runs use one thread.
    here = Path(__file__).resolve().parent
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    unset["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = []
    for env in (unset, {**unset, **dict.fromkeys(BLAS_THREAD_VARIABLES, "1")}):
        child = subprocess.run([sys.executable, "-c", THREAD_CHILD], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        digest, elapsed = child.stdout.split()
        runs.append(digest)
        assert float(elapsed) < 1.0, (env.get("OPENBLAS_NUM_THREADS"), elapsed)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_grown_vocabulary_matches_the_reference(layout):
    # Samples from before the growth hold only indices below the old width; later ones use the new indices too.
    model, general, expert = setup = build(*layout, input_width=10)
    rng = np.random.default_rng(4)
    old = two_buckets(model, rng, sizes=((BATCH,), (5,)))
    grow_vocabulary(model, 14, 13, [general, expert])
    new = two_buckets(model, rng, sizes=((BATCH,), (BATCH,)))
    batches = [(bucket, old_chunks + new_chunks) for (bucket, old_chunks), (_, new_chunks) in zip(old, new)]
    assert_same_update(setup, batches)


def qkv_weight_gradients(setup, x, targets, backward):
    """Each layer's ``wqkv`` gradient after one backward pass on a copy of ``setup``."""
    model, general, expert = copy.deepcopy(setup)
    _, cache = model.forward(x, (general, expert), bucket_id=1, rng=np.random.default_rng(8))
    grads = backward(model, cache, targets)
    return {w.name: grads[w] for w, _ in model.layers_qkv}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", ["batch", "batch-of-one", "grown-vocabulary"])
def test_qkv_weight_gradient_is_the_einsum_contraction(layout, case, monkeypatch):
    # The GEMM on the (batch * t, width) reshape regroups the einsum's sums, nothing more.
    setup = build(*layout, input_width=10)  # the samples below hold indices below 10
    if case == "grown-vocabulary":
        grow_vocabulary(setup[0], 14, 13, [setup[1], setup[2]])
    chunk = samples(np.random.default_rng(5), 1 if case == "batch-of-one" else BATCH, 10, setup[0].n_classes)
    x = one_hot([s.activities for s in chunk], setup[0].input_width)
    targets = np.array([s.target for s in chunk])
    gemm = qkv_weight_gradients(setup, x, targets, lambda model, *args: full_gradients(model.backward(*args)))
    monkeypatch.setattr(ref, "qkv_weight_gradient", lambda h_in, d_proj: np.einsum("btw,btk->wk", h_in, d_proj))
    einsum = qkv_weight_gradients(setup, x, targets, ref.backward)
    assert sorted(gemm) == ["layer0.wqkv", "layer1.wqkv"]
    for name, grad in gemm.items():
        assert np.any(grad), name
        np.testing.assert_allclose(grad, einsum[name], rtol=1e-12, atol=0, err_msg=name)


# -- reduction helpers ----------------------------------------------------------------

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def row_arrays(draw):
    """Arrays of 1 row up to a few thousand rows, last axis 1-140, optional specials."""
    rows = draw(st.sampled_from((1, 3, COLUMN_LOOP_MIN_ROWS - 1, COLUMN_LOOP_MIN_ROWS, 2600)))
    length = draw(st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, length)) * 10.0 ** rng.integers(-8, 8, (rows, length))
    if draw(st.booleans()):
        spots = rng.random((rows, length)) < draw(st.sampled_from((0.05, 0.5, 1.0)))
        x[spots] = rng.choice(SPECIAL, size=int(spots.sum()))
    return x.reshape(draw(st.sampled_from(((-1, length), (rows, 1, length)))))


def assert_bitwise(actual, expected):
    """Equal values, nan where numpy has nan, and the same sign on every zero (a nan's sign means nothing)."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[numbers]), np.signbit(expected[numbers]))


@settings(max_examples=150, deadline=None)
@given(row_arrays())
def test_row_max_matches_numpy(x):
    # Equal up to the sign of a zero maximum, which follows numpy's SIMD lane order.
    expected = x.max(axis=-1)
    assert np.array_equal(row_max(x), expected, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(row_arrays())
def test_softmax_matches_the_reference(x):
    with np.errstate(invalid="ignore"):
        assert_bitwise(softmax(x), ref.softmax(x))


def test_softmax_does_not_modify_its_input():
    x = np.random.default_rng(6).standard_normal((BATCH, 8, 13, 13))
    before = x.copy()
    softmax(x)
    assert x.tobytes() == before.tobytes()
