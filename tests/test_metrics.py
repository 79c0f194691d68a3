"""Accuracy, segmentation, forgetting, and CSV writers against hand oracles."""
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.errors import ConfigurationError
from cnapwp.metrics import (
    ForgettingMatrix,
    PredictionRecord,
    Segment,
    accuracy_at_index,
    average_accuracy,
    forgetting_matrix,
    read_records_csv,
    rolling_accuracy_curve,
    segment_accuracy,
    segments_from_ground_truth,
    segments_from_records,
    time_per_event,
    write_accuracy_curve_csv,
    write_forgetting_csv,
    write_json,
    write_records_csv,
    write_timings_csv,
)

from conftest import scripted_records


def test_average_accuracy_oracle(metrics_fixture):
    records, _, _ = metrics_fixture
    assert average_accuracy(records) == pytest.approx(0.6, abs=1e-12)


def test_average_accuracy_can_exclude_buffering():
    records = scripted_records((1, 1, 0, 0))
    flagged = [
        PredictionRecord(r.index, r.case_id, r.y, r.y_hat, r.correct, r.task_id, buffering=r.index < 2)
        for r in records
    ]
    assert average_accuracy(flagged) == 0.5
    assert average_accuracy(flagged, include_buffering=False) == 0.0
    assert average_accuracy([]) == 0.0


def test_accuracy_at_index_spots(metrics_fixture):
    records, _, _ = metrics_fixture
    # window bounds are inclusive: [index - window, index]
    assert accuracy_at_index(records, 5, 3) == pytest.approx(0.5, abs=1e-12)  # hits 1,0,0,1
    assert accuracy_at_index(records, 19, 0) == 0.0
    assert accuracy_at_index(records, 19, 100) == pytest.approx(0.6, abs=1e-12)
    assert accuracy_at_index(records, 0, 5) == 1.0


def test_accuracy_at_index_validation(metrics_fixture):
    records, _, _ = metrics_fixture
    with pytest.raises(ConfigurationError):
        accuracy_at_index(records, -1, 3)
    with pytest.raises(ConfigurationError):
        accuracy_at_index(records, len(records), 3)
    with pytest.raises(ConfigurationError):
        accuracy_at_index(records, 0, -1)


@settings(max_examples=60, deadline=None)
@given(
    hits=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    window=st.integers(0, 70),
)
def test_rolling_curve_matches_per_index_accuracy(hits, window):
    records = scripted_records(hits)
    curve = rolling_accuracy_curve(records, window)
    expected = [accuracy_at_index(records, i, window) for i in range(len(records))]
    assert np.allclose(curve, expected, atol=1e-12)


def test_rolling_curve_empty():
    assert rolling_accuracy_curve([], 5).size == 0
    with pytest.raises(ConfigurationError):
        rolling_accuracy_curve([], -1)


def test_segments_from_ground_truth(metrics_fixture):
    records, drifts, labels = metrics_fixture
    segments = segments_from_ground_truth(len(records), drifts, labels)
    assert segments == [
        Segment("A", 1, 0, 4),
        Segment("B", 1, 4, 8),
        Segment("A", 2, 8, 12),
        Segment("C", 1, 12, 16),
        Segment("A", 3, 16, 20),
    ]
    assert [segment_accuracy(records, s) for s in segments] == [0.75, 0.5, 0.25, 0.75, 0.75]


def test_segments_from_ground_truth_label_count():
    with pytest.raises(ConfigurationError):
        segments_from_ground_truth(10, (5,), ("A",))


def test_segments_from_records_oracle():
    records = scripted_records((1,) * 5, task_ids=[1, 1, 2, 2, 1])
    assert segments_from_records(records) == [
        Segment("1", 1, 0, 2),
        Segment("2", 1, 2, 4),
        Segment("1", 2, 4, 5),
    ]
    assert segments_from_records([]) == []


def test_forgetting_matrix_oracle(metrics_fixture):
    records, drifts, labels = metrics_fixture
    matrix = forgetting_matrix(records, drifts, labels)
    assert matrix.tasks == ("A", "B", "C")
    assert matrix.max_occurrence == 3
    expected_acc = {
        ("A", 1): 0.75,
        ("B", 1): 0.5,
        ("A", 2): 0.25,
        ("C", 1): 0.75,
        ("A", 3): 0.75,
    }
    assert set(matrix.accuracies) == set(expected_acc)
    for cell, acc in expected_acc.items():
        assert matrix.accuracies[cell] == pytest.approx(acc, abs=1e-12)
        assert matrix.sizes[cell] == 4
    assert matrix.deltas[("A", 2)] == pytest.approx(0.5, abs=1e-12)
    assert matrix.deltas[("A", 3)] == pytest.approx(0.0, abs=1e-12)
    assert matrix.revisit_cells == [("A", 2), ("A", 3)]
    assert matrix.mean_positive_delta == pytest.approx(0.25, abs=1e-12)


def test_forgetting_delta_identity(metrics_fixture):
    records, drifts, labels = metrics_fixture
    matrix = forgetting_matrix(records, drifts, labels)
    for (task, occ), delta in matrix.deltas.items():
        assert delta == pytest.approx(
            matrix.accuracies[(task, 1)] - matrix.accuracies[(task, occ)], abs=1e-12
        )


def test_segment_weighted_average_identity(metrics_fixture):
    records, drifts, labels = metrics_fixture
    matrix = forgetting_matrix(records, drifts, labels)
    weighted = sum(
        matrix.accuracies[cell] * matrix.sizes[cell] for cell in matrix.accuracies
    ) / sum(matrix.sizes.values())
    assert weighted == pytest.approx(average_accuracy(records), abs=1e-12)


def test_forgetting_falls_back_to_record_segmentation():
    records = scripted_records((1, 0, 1, 1), task_ids=[1, 1, 2, 1])
    matrix = forgetting_matrix(records)
    assert matrix.tasks == ("1", "2")
    assert matrix.accuracies[("1", 1)] == 0.5
    assert matrix.accuracies[("1", 2)] == 1.0
    assert matrix.deltas[("1", 2)] == -0.5
    # improvement clamps to zero
    assert matrix.mean_positive_delta == 0.0


def test_forgetting_matrix_empty():
    matrix = forgetting_matrix([])
    assert matrix.tasks == ()
    assert matrix.mean_positive_delta == 0.0
    assert matrix.revisit_cells == []
    assert matrix.max_occurrence == 0


def test_mean_positive_delta_clamps_gains():
    matrix = ForgettingMatrix(tasks=("A",))
    matrix.accuracies = {("A", 1): 0.5, ("A", 2): 0.9, ("A", 3): 0.1}
    matrix.deltas = {("A", 1): 0.0, ("A", 2): -0.4, ("A", 3): 0.4}
    assert matrix.revisit_cells == [("A", 2), ("A", 3)]
    assert matrix.mean_positive_delta == pytest.approx(0.2, abs=1e-12)


def test_time_per_event_oracle():
    mean_ms, std_ms = time_per_event([1_000_000, 3_000_000])
    assert mean_ms == pytest.approx(2.0, abs=1e-12)
    assert std_ms == pytest.approx(1.0, abs=1e-12)  # population std
    assert time_per_event([]) == (0.0, 0.0)


def test_records_csv_roundtrip(tmp_path, metrics_fixture):
    records, _, _ = metrics_fixture
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    loaded = read_records_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert (a.index, a.case_id, a.y, a.y_hat, a.correct, a.task_id, a.buffering) == (
            b.index,
            b.case_id,
            b.y,
            b.y_hat,
            b.correct,
            b.task_id,
            b.buffering,
        )
        assert a.latency_ns == 0  # latency lives in timings.csv, not here


def test_records_csv_has_no_latency_column(metrics_fixture):
    records, _, _ = metrics_fixture
    buf = io.StringIO()
    write_records_csv(records, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "index,case_id,y,y_hat,correct,task_id,buffering"


def test_timings_csv():
    records = scripted_records((1, 0), latencies=[1500, 2500])
    buf = io.StringIO()
    write_timings_csv(records, buf)
    assert buf.getvalue().splitlines() == ["index,latency_ns", "0,1500", "1,2500"]


def test_forgetting_csv_rows(metrics_fixture):
    records, drifts, labels = metrics_fixture
    buf = io.StringIO()
    write_forgetting_csv(forgetting_matrix(records, drifts, labels), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "task,occurrence,delta,accuracy_first,accuracy_this"
    assert lines[1] == "A,1,0.000000,0.750000,0.750000"
    assert lines[2] == "A,2,0.500000,0.750000,0.250000"
    assert lines[3] == "A,3,0.000000,0.750000,0.750000"
    assert lines[4] == "B,1,0.000000,0.500000,0.500000"
    assert lines[5] == "C,1,0.000000,0.750000,0.750000"


def test_accuracy_curve_csv():
    records = scripted_records((1, 0))
    buf = io.StringIO()
    write_accuracy_curve_csv(rolling_accuracy_curve(records, 10), buf)
    assert buf.getvalue().splitlines() == ["index,accuracy", "0,1.000000", "1,0.500000"]


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
_json_keys = st.text(max_size=4) | st.integers(-5, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(_json_keys, inner, max_size=4),
        max_leaves=25,
    )
)
def test_write_json_matches_the_standard_encoder(obj):
    buf = io.StringIO()
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except TypeError:  # mixed key types cannot be sorted
        with pytest.raises(TypeError):
            write_json(obj, buf)
        return
    write_json(obj, buf)
    assert buf.getvalue() == expected
