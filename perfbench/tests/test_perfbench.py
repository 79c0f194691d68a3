"""Tests of the benchmark's own code: open-loop replay, self time, tracer hygiene.

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from cnapwp import engine as engine_mod  # noqa: E402
from cnapwp.engine import EngineConfig  # noqa: E402
from cnapwp.stream import DriftSchedule, generate_drift_stream  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, Wrap  # noqa: E402
from workloads import WORKLOADS, Workload, recurrent_stream, write_stream_files  # noqa: E402

TINY_POOLS = {
    "alpha": [("a", "b", "c", "d"), ("a", "b", "d"), ("a", "b", "c", "c", "d")],
    "beta": [("a", "c", "b", "e"), ("a", "c", "e"), ("a", "c", "b", "b", "e")],
}


def tiny_stream(seed):
    return generate_drift_stream(TINY_POOLS, DriftSchedule(60, ("alpha", "beta", "alpha")), seed=seed)


def tiny_config(seed):
    return EngineConfig(
        window_size=20, buffer_size=6, threshold=0.6, buckets=2, max_len=4, lr=0.05,
        batch_size=10, epochs=2, prompt_len=1, heads=2, seed=seed, validation_fraction=0.2,
    )


TINY = Workload(name="tiny", rate=100.0, make_stream=tiny_stream, make_config=tiny_config, inputs_seed7="")


@pytest.fixture
def tiny_inputs(tmp_path):
    stream = tiny_stream(5)
    paths = write_stream_files(stream, tmp_path / "input")
    return harness.Inputs(*paths, seed=5, events=len(stream.events))


# -- open loop and percentiles ------------------------------------------------------


def test_open_loop_queues_events_behind_a_stall():
    # Due every 100 ms; event 1 stalls for 350 ms, so events 2-4 start late.
    service = [0.010, 0.350, 0.010, 0.010, 0.010, 0.010]
    got = harness.open_loop_latencies(service, rate=10.0)
    want = [0.010, 0.350, 0.260, 0.170, 0.080, 0.010]
    assert got == pytest.approx(want, abs=1e-12)


def test_open_loop_without_queueing_is_the_service_time():
    service = [0.002, 0.004, 0.001]
    assert harness.open_loop_latencies(service, rate=100.0) == pytest.approx(service, abs=1e-12)


def test_nearest_rank_percentile_and_median():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile([3.0], 99) == 3.0
    assert harness.median([4, 1, 3]) == 3
    assert harness.median([4, 1, 3, 2]) == 2.5


# -- self time ----------------------------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, -1, "", 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 30, 0),
        span("b", 40, 70, 0),
        span("b.child", 45, 55, 2),
    ]
    assert tracer.self_times(spans) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0, 100, -1), span("x", 10, 50, 0), span("y", 40, 120, 0)]
    assert tracer.self_times(spans)[0] == 10


def test_forward_and_softmax_are_keyed_by_their_context():
    spans = [
        span("model.predict", 0, 10, -1),
        span("model.forward", 1, 9, 0),
        span("model.softmax", 2, 3, 1),
        span("model.train_window", 20, 40, -1),
        span("model.forward", 21, 30, 3),
        span("model.softmax", 22, 23, 4),
        span("model.forward", 50, 60, -1),
    ]
    assert tracer.span_keys(spans) == [
        "model.predict",
        "model.predict.forward",
        "model.predict.softmax",
        "model.train_window",
        "model.train_window.forward",
        "model.train_window.softmax",
        "model.forward",
    ]


# -- tracer hygiene -----------------------------------------------------------------


def originals():
    out = {}
    for wrap in tracer.WRAPS:
        owner = tracer._resolve(wrap.owner)
        out[(wrap.owner, wrap.attr)] = vars(owner).get(wrap.attr)
    return out


def test_tracer_restores_every_name_and_leaves_records_identical(tiny_inputs, tmp_path):
    before = originals()
    assert all(fn is not None for fn in before.values())
    plain = harness.run_session(TINY, tiny_inputs, tmp_path / "plain")
    with Tracer() as t:
        assert not t.absent
        assert all(originals()[key] is not fn for key, fn in before.items())
        traced = harness.run_session(TINY, tiny_inputs, tmp_path / "traced", t)
    assert originals() == before
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert (tmp_path / "plain" / "records.csv").read_bytes() == (tmp_path / "traced" / "records.csv").read_bytes()
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["model.predict.calls"] == tiny_inputs.events
    assert metrics["model.train_window.steps"] > 0
    events = {s[tracer.EVENT] for s in t.spans if s[tracer.STAGE] == "measure"}
    assert events == set(range(plain.attempted))


def test_absent_name_is_reported_not_raised(tiny_inputs, tmp_path):
    wraps = (
        *tracer.WRAPS,
        Wrap("cnapwp.model", "softmax_inlined_away", "model.gone"),
        Wrap("cnapwp.no_such_module", "f", "nowhere.f"),
        Wrap("cnapwp.model:NoSuchClass", "forward", "nowhere.forward"),
    )
    with Tracer(wraps) as t:
        session = harness.run_session(TINY, tiny_inputs, tmp_path / "out", t)
    assert t.absent == [
        "cnapwp.model.softmax_inlined_away",
        "cnapwp.no_such_module.f",
        "cnapwp.model:NoSuchClass.forward",
    ]
    assert not session.problems
    assert set(tracer.layer_metrics(t.spans)) == set(tracer.layer_metrics([]))


def test_exception_counts_the_unprocessed_events_as_failed(tiny_inputs, tmp_path, monkeypatch):
    real = engine_mod.OnlineEngine.process_event
    passes = []  # the warm-up pass and the measured pass both count from 0

    def failing(self, event, index, is_drift=False):
        passes.extend([index] if index == 0 else [])
        if len(passes) == 2 and index == 7:
            raise RuntimeError("injected")
        return real(self, event, index, is_drift)

    monkeypatch.setattr(engine_mod.OnlineEngine, "process_event", failing)
    session = harness.run_session(TINY, tiny_inputs, tmp_path / "out")
    assert session.completed == 7 < session.attempted
    assert session.problems == [f"raised after 7 of {session.attempted} events"]


def test_records_csv_must_read_back_as_the_records(tiny_inputs, tmp_path, monkeypatch):
    real = engine_mod.write_records_csv

    def garbling(records, path):
        bad = dataclasses.replace(records[3], y_hat="garbled", correct=False)
        real([*records[:3], bad, *records[4:]], path)

    monkeypatch.setattr(engine_mod, "write_records_csv", garbling)
    session = harness.run_session(TINY, tiny_inputs, tmp_path / "out")
    assert len(session.problems) == 1
    assert session.problems[0].startswith("records.csv row for record 3 reads back as")


def test_changed_stream_generator_fails_the_inputs_check(tmp_path):
    workload = WORKLOADS["recurrent-prompt"]
    assert harness.check_inputs(workload, tmp_path / "same") == []
    changed = dataclasses.replace(workload, make_stream=lambda seed: recurrent_stream(seed + 1))
    problems = harness.check_inputs(changed, tmp_path / "changed")
    assert len(problems) == 1 and "the stream generator changed" in problems[0]


def test_sessions_on_a_slow_host_are_not_used():
    sessions = [harness.Session(attempted=1, calibration_s=c) for c in (0.030, 0.021, 0.023, 0.0232)]
    assert harness.CALIBRATION_TOLERANCE == 0.10
    assert harness.fast_sessions(sessions) == [sessions[1], sessions[2]]


# -- the declared benchmark matches what it prints -----------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    # predict-only is run by hand: its timings follow the host's speed too closely to gate.
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"predict-only"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {name: run.layer_unit(name) for name in [*tracer.layer_metrics([]), "trace.overhead_pct"]}
    assert per_layer == want
