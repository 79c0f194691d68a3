"""Acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL (detail)`` line before
asserting, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
Criteria 6 through 9 share one set of recurrent-stream runs computed once per
session; everything else is self-contained and fast.
"""
import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from cnapwp.baselines import ABLATION_CONDITIONS, STRATEGIES
from cnapwp.cli import load_engine_config
from cnapwp.engine import EngineConfig, run_session
from cnapwp.metrics import average_accuracy, forgetting_matrix, rolling_accuracy_curve, segments_from_ground_truth
from cnapwp.model import (
    PREFIX_MODE,
    PROMPT_MODE,
    AttentionPredictor,
    ModelConfig,
    init_prompts,
    train_window,
)
from cnapwp.preprocessing import EncodedSample
from cnapwp.stream import DriftSchedule, generate_drift_stream
from cnapwp.synthetic import builtin_processes, sample_pool
from cnapwp.task_recognition import dissimilarity

from gradcheck import gradient_errors
from oracles import path_set_dissimilarity, tree_of

SEEDS = (7, 11, 23, 31, 47)
RECURRENT_INI = Path(__file__).resolve().parents[1] / "configs" / "recurrent.ini"
CONCEPTS = ("pipeline", "expedite", "review_loop")


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- recurrent-stream runs shared by criteria 6-9 ----------------------------------


def recurrent_stream(seed: int):
    processes = builtin_processes()
    pools = {name: sample_pool(processes[name], 200, seed) for name in CONCEPTS}
    return generate_drift_stream(pools, DriftSchedule(1000, CONCEPTS * 3), seed=seed)


def recurrent_config(seed: int) -> EngineConfig:
    return load_engine_config(str(RECURRENT_INI), [f"seed={seed}"])


@pytest.fixture(scope="session")
def recurrent_runs():
    """Per-seed reports for the ablation conditions, last_drift, and prefix mode.

    The timer around stream generation plus the four ablation conditions is the
    budget checked by criterion 6; landmark runs once because criterion 8 only
    ranks mean latencies. Prefix mode runs first on alternate seeds (11 and 31)
    and last on the others, so a host that slows during one seed's block does
    not charge only prefix mode in criterion 9.
    """
    per_seed = {}
    ablation_elapsed = 0.0
    for i, seed in enumerate(SEEDS):
        t0 = time.perf_counter()
        stream = recurrent_stream(seed)
        config = recurrent_config(seed)
        ablation_elapsed += time.perf_counter() - t0
        prefix_first = i % 2 == 1
        runs = {}
        prefix_config = dataclasses.replace(config, prompt_mode=PREFIX_MODE)
        if prefix_first:
            runs["prefix"] = run_session(stream, prefix_config, STRATEGIES["cnapwp"])
        t0 = time.perf_counter()
        runs.update({name: run_session(stream, config, spec) for name, spec in ABLATION_CONDITIONS.items()})
        ablation_elapsed += time.perf_counter() - t0
        runs["last_drift"] = run_session(stream, config, STRATEGIES["last_drift"])
        if not prefix_first:
            runs["prefix"] = run_session(stream, prefix_config, STRATEGIES["cnapwp"])
        per_seed[seed] = runs
    landmark = run_session(recurrent_stream(SEEDS[0]), recurrent_config(SEEDS[0]), STRATEGIES["landmark"])
    return {"per_seed": per_seed, "landmark": landmark, "ablation_elapsed": ablation_elapsed}


def seed_mean(runs, name, key="average_accuracy"):
    return float(np.mean([runs["per_seed"][s][name].summary()[key] for s in SEEDS]))


# -- criteria -----------------------------------------------------------------------


def test_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for i in range(20):
        width = int(rng.integers(2, 9))
        layers = int(rng.integers(1, 3))
        max_len = int(rng.integers(1, 5))
        prompt_len = int(rng.integers(0, 3))
        cfg = ModelConfig(
            max_len=max_len,
            heads=2,
            layers=layers,
            dropout=0.0,
            prompt_len=prompt_len,
            general_layers=(0,),
            expert_layers=(layers - 1,),
            prompt_mode=PREFIX_MODE if i % 2 == 0 else PROMPT_MODE,
        )
        n_classes = max(2, width - 1)
        model = AttentionPredictor(cfg, width, n_classes, seed=int(rng.integers(1, 10_000)))
        general = init_prompts(model, cfg.general_layers, (), [3, 101], "general")
        expert = init_prompts(model, cfg.expert_layers, (1, 2), [4, 211, 1], "task1")
        batch = int(rng.integers(2, 4))
        x = rng.uniform(0.0, 1.0, (batch, max_len, width))
        targets = rng.integers(1, n_classes + 1, batch)
        errors = gradient_errors(
            model, x, targets, prompts=(general, expert), bucket_id=1,
            n_coords=100, step=1e-5, seed=int(rng.integers(0, 2**31)),
        )
        worst = max(worst, float(np.max(errors)))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-4 and elapsed < 60.0, f"max rel err {worst:.2e}, {elapsed:.1f}s for 20 configs")


def test_02_training_one_bucket_leaves_others_bit_identical():
    t0 = time.perf_counter()
    cfg = ModelConfig(
        max_len=3, heads=2, layers=2, dropout=0.0, prompt_len=2,
        general_layers=(0,), expert_layers=(1,), prompt_mode=PREFIX_MODE,
    )
    model = AttentionPredictor(cfg, 4, 3, seed=9)
    general = init_prompts(model, cfg.general_layers, (), [9, 101], "general")
    expert = init_prompts(model, cfg.expert_layers, (1, 2, 3), [9, 211, 1], "task1")
    rng = np.random.default_rng(5)
    chunk = []
    for _ in range(6):
        activities = tuple(int(i) for i in rng.integers(0, 4, 3))
        chunk.append(EncodedSample(activities=activities, target=int(rng.integers(1, 4)), bucket=2))

    def bucket_values(bucket_id):
        return [p.value.copy() for (_, bucket), p in expert.blocks.items() if bucket == bucket_id]

    before = {b: bucket_values(b) for b in (1, 2, 3)}
    train_window(model, [(2, [chunk])], epochs=1, lr=0.1, prompts=(general, expert), rng=np.random.default_rng(0))
    untouched = all(
        np.array_equal(now, prev)
        for b in (1, 3)
        for now, prev in zip(bucket_values(b), before[b])
    )
    trained = any(not np.array_equal(now, prev) for now, prev in zip(bucket_values(2), before[2]))
    elapsed = time.perf_counter() - t0
    verdict(2, untouched and trained and elapsed < 1.0, f"buckets 1 and 3 bit-identical, {elapsed * 1000:.0f}ms")


def test_03_prefix_mode_keeps_output_length():
    base = dict(
        max_len=4, heads=2, layers=2, dropout=0.0,
        general_layers=(0,), expert_layers=(1,), prompt_mode=PREFIX_MODE,
    )
    rng = np.random.default_rng(12)
    x = np.zeros((2, 4, 5))
    x[np.arange(2)[:, None], np.arange(4), rng.integers(0, 5, (2, 4))] = 1.0
    lengths_ok = True
    for prompt_len in (0, 1, 5, 16):
        cfg = ModelConfig(prompt_len=prompt_len, **base)
        model = AttentionPredictor(cfg, 5, 4, seed=11)
        general = init_prompts(model, cfg.general_layers, (), [1, 101], "general")
        expert = init_prompts(model, cfg.expert_layers, (1, 2), [2, 211, 1], "task1")
        _, cache = model.forward(x, prompts=(general, expert), bucket_id=1)
        lengths_ok &= [entry["qh"].shape[2] for entry in cache.layers] == [4, 4]
        lengths_ok &= model.final_seq_len == 4

    cfg0 = ModelConfig(prompt_len=0, **base)
    model = AttentionPredictor(cfg0, 5, 4, seed=11)
    general = init_prompts(model, cfg0.general_layers, (), [1, 101], "general")
    expert = init_prompts(model, cfg0.expert_layers, (1, 2), [2, 211, 1], "task1")
    with_prompts, _ = model.forward(x, prompts=(general, expert), bucket_id=1)
    without, _ = model.forward(x)
    zero_exact = np.array_equal(with_prompts, without)
    verdict(3, lengths_ok and zero_exact, "output length == input length for L_p in {0,1,5,16}; L_p=0 bit-exact")


def test_04_dissimilarity_equals_path_set_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    def random_tree():
        letters = "abcdef"[: int(rng.integers(2, 7))]
        paths = []
        for _ in range(int(rng.integers(1, 7))):
            paths.append([letters[int(rng.integers(0, len(letters)))] for _ in range(int(rng.integers(1, 9)))])
        return tree_of(*paths)

    checked = 0
    exact = True
    for _ in range(1000):
        a, b = random_tree(), random_tree()
        assert a.node_count() <= 50 and b.node_count() <= 50
        if dissimilarity(a, b) != path_set_dissimilarity(a, b) or dissimilarity(a, a) != 0.0:
            exact = False
            break
        checked += 1

    disjoint = dissimilarity(tree_of("aba"), tree_of("xy")) == 1.0
    elapsed = time.perf_counter() - t0
    verdict(4, exact and disjoint and elapsed < 10.0, f"{checked} pairs exact, disjoint pair 1.0, {elapsed:.1f}s")


def test_05_metrics_match_hand_computed_values(metrics_fixture):
    records, drifts, labels = metrics_fixture
    tol = 1e-12
    ok = abs(average_accuracy(records) - 0.6) <= tol
    spots = {(5, 3): 0.5, (0, 5): 1.0, (19, 0): 0.0, (19, 100): 0.6}
    for (index, window), want in spots.items():
        ok &= abs(rolling_accuracy_curve(records, window)[index] - want) <= tol

    matrix = forgetting_matrix(records, drifts, labels)
    want_acc = {("A", 1): 0.75, ("B", 1): 0.5, ("A", 2): 0.25, ("C", 1): 0.75, ("A", 3): 0.75}
    ok &= set(matrix.accuracies) == set(want_acc)
    ok &= all(abs(matrix.accuracies[cell] - want_acc[cell]) <= tol for cell in want_acc)
    ok &= abs(matrix.deltas[("A", 2)] - 0.5) <= tol
    ok &= abs(matrix.deltas[("A", 3)] - 0.0) <= tol
    ok &= abs(matrix.mean_positive_delta - 0.25) <= tol
    # delta identity against the matrix's own cells
    for (task, occ), delta in matrix.deltas.items():
        if occ >= 2:
            ok &= abs(delta - (matrix.accuracies[(task, 1)] - matrix.accuracies[(task, occ)])) <= tol
    # segment-weighted average reconstructs the global accuracy
    sizes = {(s.task, s.occurrence): s.end - s.start for s in segments_from_ground_truth(len(records), drifts, labels)}
    weighted = sum(matrix.accuracies[c] * sizes[c] for c in matrix.accuracies)
    ok &= abs(weighted / sum(sizes.values()) - average_accuracy(records)) <= tol
    verdict(5, ok, "accuracy, forgetting matrix, and identities all within 1e-12")


@pytest.mark.slow
def test_06_prompts_beat_no_prompt_on_recurrent_stream(recurrent_runs):
    means = {name: seed_mean(recurrent_runs, name) for name in ABLATION_CONDITIONS}
    elapsed = recurrent_runs["ablation_elapsed"]
    ok = (
        means["full"] >= means["no_prompt"] + 0.05
        and means["full"] >= means["g_only"] - 0.005
        and means["full"] >= means["e_only"] - 0.005
        and elapsed < 900.0
    )
    verdict(
        6,
        ok,
        f"full {means['full']:.4f} no_prompt {means['no_prompt']:.4f} "
        f"g_only {means['g_only']:.4f} e_only {means['e_only']:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_07_forgetting_below_last_drift(recurrent_runs):
    wins = 0
    pairs = []
    for seed in SEEDS:
        ours = recurrent_runs["per_seed"][seed]["full"].summary()["mean_positive_delta"]
        theirs = recurrent_runs["per_seed"][seed]["last_drift"].summary()["mean_positive_delta"]
        wins += ours < theirs
        pairs.append(f"{ours:.4f}<{theirs:.4f}")
    verdict(7, wins >= 4, f"{wins}/5 seeds: " + " ".join(pairs))


@pytest.mark.slow
def test_08_latency_bounds(recurrent_runs):
    ours = float(np.mean([
        recurrent_runs["per_seed"][s]["full"].summary()["time_per_event_ms"]["mean"] for s in SEEDS
    ]))
    landmark = recurrent_runs["landmark"].summary()["time_per_event_ms"]["mean"]
    others = {
        name: recurrent_runs["per_seed"][SEEDS[0]][name].summary()["time_per_event_ms"]["mean"]
        for name in ("no_prompt", "g_only", "e_only", "full", "last_drift")
    }
    slowest_other = max(others.values())
    ok = ours <= 50.0 and landmark > slowest_other
    verdict(8, ok, f"ours {ours:.2f}ms <= 50ms; landmark {landmark:.2f}ms > next {slowest_other:.2f}ms")


@pytest.mark.slow
def test_09_prefix_runs_faster_at_comparable_accuracy(recurrent_runs):
    prompt_acc = seed_mean(recurrent_runs, "full")
    prefix_acc = seed_mean(recurrent_runs, "prefix")
    prompt_time = sum(recurrent_runs["per_seed"][s]["full"].total_runtime_s for s in SEEDS)
    prefix_time = sum(recurrent_runs["per_seed"][s]["prefix"].total_runtime_s for s in SEEDS)
    ok = prefix_time <= prompt_time and abs(prompt_acc - prefix_acc) <= 0.02
    verdict(
        9,
        ok,
        f"prefix {prefix_time:.1f}s <= prompt {prompt_time:.1f}s; "
        f"accuracy gap {abs(prompt_acc - prefix_acc):.4f} <= 0.02",
    )


def test_10_identical_runs_write_identical_records(tiny_stream, small_config, tmp_path):
    spec = STRATEGIES["cnapwp"]
    for name in ("first", "second"):
        run_session(tiny_stream, small_config, spec).save(tmp_path / name)
    first = (tmp_path / "first" / "records.csv").read_bytes()
    second = (tmp_path / "second" / "records.csv").read_bytes()
    verdict(10, first == second, f"records.csv byte-identical ({len(first)} bytes)")
