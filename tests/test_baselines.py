"""Strategy table, worker capping, the job runner, and the reference baselines."""
import numpy as np
import pytest

from cnapwp.baselines import (
    ABLATION_CONDITIONS,
    CNAPWP,
    E_ONLY,
    G_ONLY,
    LANDMARK,
    LAST_DRIFT,
    NO_PROMPT,
    STRATEGIES,
    map_jobs,
    worker_cap,
)
from cnapwp.engine import ALL_MEMORY, SINCE_DRIFT_MEMORY, WINDOW_MEMORY, OnlineEngine, run_session
from cnapwp.errors import ConfigurationError

from gradcheck import parameters


def test_strategy_table():
    assert set(STRATEGIES) == {"cnapwp", "g_only", "e_only", "no_prompt", "landmark", "last_drift"}
    assert CNAPWP.use_general and CNAPWP.use_expert
    assert G_ONLY.use_general and not G_ONLY.use_expert
    assert E_ONLY.use_expert and not E_ONLY.use_general
    assert not NO_PROMPT.use_general and not NO_PROMPT.use_expert
    assert NO_PROMPT.freeze_after == 500
    assert LANDMARK.reinit_on_update and LANDMARK.training_memory == ALL_MEMORY
    assert LAST_DRIFT.training_memory == SINCE_DRIFT_MEMORY
    assert CNAPWP.training_memory == WINDOW_MEMORY
    assert list(ABLATION_CONDITIONS) == ["no_prompt", "g_only", "e_only", "full"]


def test_needs_drift_info():
    assert CNAPWP.needs_drift_info  # task recognition keys off drift signals
    assert E_ONLY.needs_drift_info
    assert LAST_DRIFT.needs_drift_info
    assert not G_ONLY.needs_drift_info
    assert not NO_PROMPT.needs_drift_info
    assert not LANDMARK.needs_drift_info


def test_worker_cap(monkeypatch):
    monkeypatch.delenv("CNAPWP_THREADS", raising=False)
    cpus = max(1, __import__("os").cpu_count() or 1)
    assert worker_cap() == cpus
    assert worker_cap(1) == 1
    assert worker_cap(0) == 1  # requests below one clamp up
    monkeypatch.setenv("CNAPWP_THREADS", "1")
    assert worker_cap(8) == 1
    monkeypatch.setenv("CNAPWP_THREADS", "0")
    assert worker_cap() == 1
    monkeypatch.setenv("CNAPWP_THREADS", str(cpus + 5))
    assert worker_cap() == cpus
    monkeypatch.setenv("CNAPWP_THREADS", "abc")
    with pytest.raises(ConfigurationError, match="CNAPWP_THREADS"):
        worker_cap()


def test_map_jobs_pool_matches_serial(tiny_stream, small_config):
    jobs = [(tiny_stream, small_config, strategy) for strategy in (CNAPWP, NO_PROMPT, LAST_DRIFT)]
    strip = lambda report: [
        (r.index, r.case_id, r.y, r.y_hat, r.correct, r.task_id, r.buffering) for r in report.records
    ]
    serial = map_jobs(run_session, jobs, workers=1)
    pooled = map_jobs(run_session, jobs, workers=2)
    assert [r.strategy for r in pooled] == ["cnapwp", "no_prompt", "last_drift"]
    assert [strip(r) for r in pooled] == [strip(r) for r in serial]
    assert [r.task_store for r in pooled] == [r.task_store for r in serial]


def test_reinit_rebuilds_the_backbone_from_seed(tiny_stream, small_config):
    engine = OnlineEngine(small_config, LANDMARK)
    engine.prepare(tiny_stream)
    trained_names = {p.name: p.value.copy() for p in parameters(engine.model)}
    engine.consume(tiny_stream, record=False)
    engine._build_model()
    for p in parameters(engine.model):
        assert np.array_equal(p.value, trained_names[p.name]), p.name


@pytest.mark.parametrize("strategy", [LANDMARK, LAST_DRIFT])
def test_reference_baselines_run_end_to_end(strategy, tiny_stream, small_config):
    report = run_session(tiny_stream, small_config, strategy)
    assert report.strategy == strategy.name
    assert len(report.records) == 144
    assert 0.0 <= report.summary()["average_accuracy"] <= 1.0
