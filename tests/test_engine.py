"""Online loop behavior: buffering, task lifecycle, freezing, reports."""
import dataclasses
import json

import numpy as np
import pytest

from cnapwp import engine as engine_module
from cnapwp.baselines import CNAPWP, LANDMARK, LAST_DRIFT, NO_PROMPT
from cnapwp.engine import (
    EngineConfig,
    OnlineEngine,
    RunReport,
    StrategySpec,
    run_session,
)
from cnapwp.errors import ConfigurationError
from cnapwp.model import PREFIX_MODE, PROMPT_MODE, AttentionPredictor
from cnapwp.preprocessing import PAD_LABEL, BucketConfig
from cnapwp.stream import Event, EventStream
from cnapwp.task_recognition import PrefixTree, build_from_buffer

from gradcheck import parameters
from oracles import root_paths, tree_of


def concept_stream():
    """Three 10-event segments: alphabet ab, then xy, then ab again."""
    events, drifts = [], []
    for seg, (case, alphabet) in enumerate((("s1", "ab"), ("s2", "xy"), ("s3", "ab"))):
        if seg:
            drifts.append(len(events))
        events.extend(Event(case, alphabet[i % 2]) for i in range(10))
    return EventStream(tuple(events), tuple(drifts), task_labels=("A", "B", "A"))


def recognition_config(**overrides):
    base = dict(window_size=100, buffer_size=4, threshold=0.6, buckets=2, max_len=4,
                epochs=1, prompt_len=1, heads=2, dropout=0.0, seed=3)
    base.update(overrides)
    return EngineConfig(**base)


@pytest.fixture(scope="module")
def recognized():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(), CNAPWP)
    engine.prepare(stream)
    records = engine.consume(stream)
    return engine, records


def test_consume_requires_prepare():
    engine = OnlineEngine(recognition_config(), CNAPWP)
    with pytest.raises(ConfigurationError):
        engine.consume(concept_stream())


def test_buffering_flags_cover_exactly_the_buffer_span(recognized):
    _, records = recognized
    buffering = {r.index for r in records if r.buffering}
    assert buffering == {10, 11, 12, 13, 20, 21, 22, 23}


def test_disjoint_segment_founds_a_new_task(recognized):
    engine, _ = recognized
    assert set(engine.tasks) == {1, 2}


def test_recurring_segment_reactivates_with_an_occurrence(recognized):
    engine, _ = recognized
    assert {k: task.occurrences for k, task in engine.tasks.items()} == {1: 2, 2: 1}
    assert engine.active_task_id == 1


def test_prepare_creates_the_first_expert_task():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(), CNAPWP)
    engine.prepare(stream)
    assert list(engine.tasks) == [1] and engine.active_task_id == 1
    assert engine.tasks[1].tree.is_empty and engine.tasks[1].occurrences == 1
    promptless = OnlineEngine(recognition_config(), NO_PROMPT)
    promptless.prepare(stream)
    assert promptless.tasks == {}


@pytest.mark.parametrize("mode", [PREFIX_MODE, PROMPT_MODE])
def test_prompt_blocks_are_the_seeded_draws_in_order(mode):
    """The general blocks are default_rng([seed, 101])'s draws by ascending layer;
    a task's are default_rng([seed, 211, task_id])'s: its task blocks by ascending
    layer, then each bucket's. Records depend on this order."""
    stream = concept_stream()
    config = recognition_config(prompt_mode=mode, prompt_len=2, general_layers=(1, 0), expert_layers=(1, 0))
    engine = OnlineEngine(config, CNAPWP)
    engine.prepare(stream)
    engine.consume(stream)  # founds task 2 at event 13; 30 events run no update pass
    assert set(engine.tasks) == {1, 2}
    model, seed = engine.model, config.seed

    def draws(key, named_layers):
        rng = np.random.default_rng(key)
        if mode == PREFIX_MODE:
            return [(name, rng.uniform(-0.1, 0.1, (2, 2, model.d_model))) for name, _ in named_layers]
        widths = (model.input_width, model.d_model)
        return [(name, rng.uniform(-0.1, 0.1, (2, widths[layer]))) for name, layer in named_layers]

    expected = {"general": draws([seed, 101], [("general.l0", 0), ("general.l1", 1)])}
    built = {"general": engine.general}
    for t, task in engine.tasks.items():
        named = [(f"task{t}.l{layer}", layer) for layer in (0, 1)]
        named += [(f"task{t}.b{b}.l{layer}", layer) for b in engine.bucket_config.bucket_ids for layer in (0, 1)]
        expected[t] = draws([seed, 211, t], named)
        built[t] = task.prompts
    for key, prompts in built.items():
        got = list(prompts.blocks.values())
        assert [p.name for p in got] == [name for name, _ in expected[key]]
        assert all(np.array_equal(p.value, value) for p, (_, value) in zip(got, expected[key]))


def test_buffer_resolves_on_its_buffer_size_th_event(monkeypatch):
    stream = concept_stream()  # drift at 10 into a segment over x and y
    engine = OnlineEngine(recognition_config(buffer_size=4), CNAPWP)
    engine.prepare(stream)
    built = []

    def spy(events):
        tree = build_from_buffer(events)
        built.append((list(events), tree))
        return tree

    monkeypatch.setattr(engine_module, "build_from_buffer", spy)
    for i, event in enumerate(stream.events[:14]):
        assert not built
        engine.process_event(event, i, is_drift=i == 10)
        if i < 13:
            assert engine.buffer == (list(stream.events[10 : i + 1]) if i >= 10 else None)
    [(events, tree)] = built
    assert events == list(stream.events[10:14])
    assert engine.buffer is None
    assert root_paths(tree) == root_paths(tree_of("xyxy"))
    assert engine.tasks[2].tree is tree and tree.event_count == 4  # founds task 2, not yet extended


def log_updates(monkeypatch, engine):
    """Replace the update pass with one that logs the engine's ``events_seen`` and checks it got samples."""
    seen = []

    def fake_train_window(model, batches, *args, **kwargs):
        assert batches
        seen.append(engine.events_seen)

    monkeypatch.setattr(engine_module, "train_window", fake_train_window)
    return seen


def test_update_runs_on_every_window_size_th_event(monkeypatch):
    engine = OnlineEngine(recognition_config(window_size=3), CNAPWP)
    seen = log_updates(monkeypatch, engine)
    engine.prepare(chain_stream(7))
    engine.consume(chain_stream(7), record=False)
    assert seen == [3, 6]
    engine.consume(chain_stream(8))  # the count runs on across the warm-up and measured passes
    assert seen == [3, 6, 9, 12, 15]


def test_task_id_switches_only_after_resolution(recognized):
    _, records = recognized
    by_index = {r.index: r.task_id for r in records}
    assert all(by_index[i] == 1 for i in range(14))  # resolution lands inside event 13
    assert all(by_index[i] == 2 for i in range(14, 24))
    assert all(by_index[i] == 1 for i in range(24, 30))


def test_fingerprinting_pauses_while_buffering(recognized):
    engine, _ = recognized
    # Segment 1 extends task 1's tree; buffered events land in the new tree only.
    assert engine.tasks[1].tree.event_count == 10 + 6  # segment 1, then events 24..29
    assert engine.tasks[2].tree.event_count == 4 + 6  # buffer fill, then events 14..19


def test_fingerprint_growth_stops_at_the_cap():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(fingerprint_cap=3), CNAPWP)
    engine.prepare(stream)
    engine.consume(stream)
    # The cap gates extension, so trees stop growing once they reach it; the
    # buffer-built tree may exceed it on creation.
    assert engine.tasks[1].tree.event_count == 3


def test_promptless_task_id_is_the_segment_ordinal():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(), NO_PROMPT)
    engine.prepare(stream)
    records = engine.consume(stream)
    assert not any(r.buffering for r in records)
    assert [r.task_id for r in records] == [1] * 10 + [2] * 10 + [3] * 10
    assert engine.tasks == {}


def test_since_drift_memory_clears_at_drift():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(), LAST_DRIFT)
    engine.prepare(stream)
    engine.consume(stream)
    # 10 events arrived since the last drift.
    assert len(engine._memory) == 10


def test_all_memory_keeps_every_sample():
    stream = concept_stream()
    engine = OnlineEngine(recognition_config(window_size=4), LANDMARK)
    engine.prepare(stream)
    engine.consume(stream)
    # Both drifts passed and seven updates ran, yet no sample left the memory.
    assert len(stream.drift_indices) == 2
    assert len(engine._memory) == len(stream.events) == 30
    assert [s.target for s in engine._memory[-4:]] == [s.target for s in engine.window.samples()]


def test_vocabulary_growth_mid_consume():
    warm = EventStream(tuple(Event("w", "ab"[i % 2]) for i in range(8)))
    engine = OnlineEngine(recognition_config(), CNAPWP)
    engine.prepare(warm)
    width_before = engine.model.input_width
    assert width_before == 3  # padding plus a, b
    engine.consume(warm, record=False)
    fresh = EventStream(tuple(Event("v", "abc"[i % 3]) for i in range(6)))
    records = engine.consume(fresh)
    assert engine.model.input_width == 4
    assert engine.model.n_classes == 3
    assert {r.y for r in records} == {"a", "b", "c"}


def test_pushed_samples_replay_each_cases_window_history(monkeypatch):
    """Every sample the engine pushes holds its case's newest in-window activities,
    as a label-level replay of the stream finds them, across evictions and a late new activity."""
    events = tuple(Event("pqr"[(i * i) % 3], act) for i, act in enumerate("abcab" * 6 + "zabcz"))
    engine = OnlineEngine(recognition_config(window_size=5, max_len=3), NO_PROMPT)
    engine.prepare(EventStream(events[:10]))  # no "z" in the warm-up
    pushed = []
    push = engine.window.push

    def recording_push(case_id, activity, sample=None):
        pushed.append(sample)
        push(case_id, activity, sample)

    monkeypatch.setattr(engine.window, "push", recording_push)
    engine.consume(EventStream(events))
    assert len(pushed) == len(events) and engine.vocab.label_of(len(engine.vocab)) == "z"
    for i, (event, sample) in enumerate(zip(events, pushed)):
        history = [e.activity for e in events[max(0, i - 5) : i] if e.case_id == event.case_id][-3:]
        assert [engine.vocab.label_of(a) for a in sample.activities] == [PAD_LABEL] * (3 - len(history)) + history
        assert engine.vocab.label_of(sample.target) == event.activity


def test_empty_preparation_falls_back_to_one_bucket():
    engine = OnlineEngine(recognition_config(), CNAPWP)
    engine.prepare(EventStream(()))
    assert engine.bucket_config == BucketConfig((4,))
    assert engine.model.input_width == 1
    assert engine.model.n_classes == 1


def chain_stream(n, case="c", alphabet="abc", start=0):
    return EventStream(tuple(Event(case, alphabet[(start + i) % len(alphabet)]) for i in range(n)))


def test_freeze_after_stops_backbone_updates():
    spec = StrategySpec("frozen_probe", use_general=False, use_expert=False, freeze_after=10)
    config = recognition_config(window_size=5, epochs=2, lr=0.05)
    engine = OnlineEngine(config, spec)
    engine.prepare(chain_stream(15))
    engine.consume(chain_stream(15))
    assert engine.model.backbone_frozen

    head = {engine.model.cls_w, engine.model.cls_b}
    backbone_before = {p.name: p.value.copy() for p in parameters(engine.model) if p not in head}
    head_before = engine.model.cls_w.value.copy()
    engine.consume(chain_stream(15, start=1), record=False)
    for p in parameters(engine.model):
        if p not in head:
            assert np.array_equal(p.value, backbone_before[p.name]), p.name
    assert not np.array_equal(engine.model.cls_w.value, head_before)


def test_freeze_threshold_event_still_trains_in_full():
    spec = StrategySpec("frozen_probe", use_general=False, use_expert=False, freeze_after=5)
    config = recognition_config(window_size=5, epochs=2, lr=0.05)
    engine = OnlineEngine(config, spec)
    engine.prepare(chain_stream(5))
    dense_init = engine.model.dense_w.value.copy()
    engine.consume(chain_stream(5))
    # The fifth event both fills the window and crosses the freeze threshold;
    # training runs before freezing, so the backbone did move once.
    assert engine.model.backbone_frozen
    assert not np.array_equal(engine.model.dense_w.value, dense_init)


def test_engine_learns_a_deterministic_cycle():
    config = recognition_config(window_size=25, batch_size=25, epochs=12, lr=0.15, dropout=0.0)
    engine = OnlineEngine(config, CNAPWP)
    engine.prepare(chain_stream(30))
    engine.consume(chain_stream(30), record=False)
    records = engine.consume(chain_stream(210, start=0))
    tail = records[-60:]
    accuracy = sum(r.correct for r in tail) / len(tail)
    assert accuracy >= 0.9


def test_runs_are_deterministic(tiny_stream, small_config):
    a = run_session(tiny_stream, small_config, CNAPWP)
    b = run_session(tiny_stream, small_config, CNAPWP)
    strip = lambda r: (r.index, r.case_id, r.y, r.y_hat, r.correct, r.task_id, r.buffering)
    assert [strip(r) for r in a.records] == [strip(r) for r in b.records]


def _records_csv(stream, config, strategy, outdir):
    run_session(stream, config, strategy).save(outdir)
    return (outdir / "records.csv").read_bytes()


@pytest.mark.parametrize(
    "strategy, mode",
    [(CNAPWP, PROMPT_MODE), (CNAPWP, PREFIX_MODE), (LAST_DRIFT, PREFIX_MODE)],
    ids=["cnapwp-prompt", "cnapwp-prefix", "last_drift"],
)
def test_prediction_cache_leaves_records_unchanged(tiny_stream, small_config, tmp_path, monkeypatch, strategy, mode):
    config = dataclasses.replace(small_config, prompt_mode=mode)
    predict, forward = AttentionPredictor.predict, AttentionPredictor.forward
    calls = {"predict": 0, "forward": 0}

    def counted_predict(self, *args, **kwargs):
        calls["predict"] += 1
        return predict(self, *args, **kwargs)

    def counted_forward(self, x, prompts=(), bucket_id=None, rng=None):
        calls["forward"] += rng is None  # an rng means an update pass
        return forward(self, x, prompts, bucket_id, rng)

    monkeypatch.setattr(AttentionPredictor, "predict", counted_predict)
    monkeypatch.setattr(AttentionPredictor, "forward", counted_forward)
    cached = _records_csv(tiny_stream, config, strategy, tmp_path / "cached")
    assert 0 < calls["forward"] < calls["predict"]  # some predictions came from the cache

    def uncached_predict(self, *args, **kwargs):
        self._predictions.clear()
        return predict(self, *args, **kwargs)

    monkeypatch.setattr(AttentionPredictor, "predict", uncached_predict)
    assert _records_csv(tiny_stream, config, strategy, tmp_path / "uncached") == cached


def test_run_session_measures_the_later_split(tiny_stream, small_config):
    report = run_session(tiny_stream, small_config, CNAPWP)
    assert len(report.records) == 144  # 180 events, leading 20% warm-up
    assert report.records[0].index == 0
    assert report.drift_indices == (24, 84)
    assert report.task_labels == ("alpha", "beta", "alpha")
    assert report.segmentation_source == "ground_truth"
    assert report.strategy == "cnapwp"


def test_run_on_validation_measures_the_leading_split(tiny_stream, small_config):
    report = run_session(tiny_stream, small_config, CNAPWP, validation_only=True)
    assert len(report.records) == 36
    assert report.drift_indices == ()
    assert report.task_labels == ("alpha",)


def test_report_summary_shape(tiny_stream, small_config):
    report = run_session(tiny_stream, small_config, CNAPWP)
    summary = report.summary()
    assert summary["events"] == 144
    assert 0.0 <= summary["average_accuracy"] <= 1.0
    assert summary["segmentation"] == "ground_truth"
    latency = summary["time_per_event_ms"]
    assert latency["mean"] > 0
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
    assert summary["config"]["window_size"] == small_config.window_size
    assert summary["tasks"] >= 1


def test_report_save_writes_the_standard_files(tiny_stream, small_config, tmp_path):
    report = run_session(tiny_stream, small_config, CNAPWP)
    report.save(tmp_path / "run")
    produced = {p.name for p in (tmp_path / "run").iterdir()}
    assert produced == {
        "records.csv",
        "timings.csv",
        "forgetting.csv",
        "accuracy_curve.csv",
        "summary.json",
        "task_store.json",
    }
    with open(tmp_path / "run" / "summary.json") as fh:
        assert json.load(fh)["events"] == len(report.records)
    header = (tmp_path / "run" / "records.csv").read_text().splitlines()
    assert len(header) == len(report.records) + 1
    for name, content in (("summary.json", report.summary()), ("task_store.json", report.task_store)):
        assert (tmp_path / "run" / name).read_text() == json.dumps(content, indent=2, sort_keys=True) + "\n"


def test_report_save_handles_a_case_path_deeper_than_the_recursion_limit(tiny_stream, small_config, tmp_path):
    depth = 3000
    tree = PrefixTree()
    for i in range(depth):
        tree.extend_case("c1", "ab"[i % 2])
    report = run_session(tiny_stream, small_config, CNAPWP)
    store = {"active_task": 1, "tasks": [{"id": 1, "occurrences": 1, "tree_events": depth, "tree_nodes": depth, "tree": tree.to_dict()}]}
    dataclasses.replace(report, task_store=store).save(tmp_path / "run")
    text = (tmp_path / "run" / "task_store.json").read_text()
    assert text.count('"activity"') == depth
    assert text.count("{") == text.count("}") == depth + 3
    assert text.endswith("}\n")


def test_strategy_spec_validation():
    with pytest.raises(ConfigurationError):
        StrategySpec("bad", training_memory="everything")
    with pytest.raises(ConfigurationError):
        StrategySpec("bad", freeze_after=-1)


def test_engine_config_validation():
    for overrides in (
        dict(window_size=0),
        dict(buffer_size=0),
        dict(threshold=0.0),
        dict(threshold=1.5),
        dict(buckets=1),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(lr=0.0),
        dict(validation_fraction=1.0),
        dict(fingerprint_cap=0),
    ):
        with pytest.raises(ConfigurationError):
            EngineConfig(**overrides)
