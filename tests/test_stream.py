"""Event-log parsing, sidecars, serialization, generation, and splitting."""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.errors import ConfigurationError, StreamParseError
from cnapwp.stream import (
    DriftSchedule,
    Event,
    EventStream,
    GenerationReport,
    generate_drift_stream,
    load_concept_pool,
    load_drift_indices,
    load_task_labels,
    parse_event_log,
    parse_stream_with_sidecars,
    split_validation,
    write_drift_sidecar,
    write_event_log,
    write_task_sidecar,
)


def parse_text(text):
    return parse_event_log(io.StringIO(text))


# -- parsing -------------------------------------------------------------------


def test_parse_orders_by_timestamp_stably():
    stream = parse_text(
        "case_id,activity,timestamp\n"
        "c1,late,3\n"
        "c2,first_tie,1\n"
        "c1,middle,2\n"
        "c2,second_tie,1\n"
    )
    assert [e.activity for e in stream.events] == ["first_tie", "second_tie", "middle", "late"]


def test_parse_iso_timestamps():
    stream = parse_text(
        "case_id,activity,timestamp\n"
        "c1,b,2024-01-02T00:00:00\n"
        "c1,a,2024-01-01T00:00:00\n"
    )
    assert [e.activity for e in stream.events] == ["a", "b"]


def test_parse_rejects_mixed_timestamp_kinds():
    with pytest.raises(StreamParseError) as exc:
        parse_text("case_id,activity,timestamp\nc1,a,1\nc1,b,2024-01-01T00:00:00\n")
    assert exc.value.line == 3


def test_parse_rejects_mixed_aware_and_naive_timestamps():
    with pytest.raises(StreamParseError) as exc:
        parse_text(
            "case_id,activity,timestamp\n"
            "c1,a,2024-01-01T00:00:00+00:00\n"
            "c1,b,2024-01-01T00:00:01+02:00\n"
            "c1,c,2024-01-02T00:00:00\n"
        )
    assert exc.value.line == 4


def test_parse_rejects_unparseable_timestamp():
    with pytest.raises(StreamParseError):
        parse_text("case_id,activity,timestamp\nc1,a,not-a-time\n")


def test_parse_drops_rows_without_case_id():
    stream = parse_text("case_id,activity,timestamp\nc1,a,1\n,ghost,2\nc1,b,3\n")
    assert [e.activity for e in stream.events] == ["a", "b"]


def test_parse_excludes_whole_case_on_empty_activity():
    stream = parse_text(
        "case_id,activity,timestamp\n"
        "bad,a,1\n"
        "good,x,2\n"
        "bad,,3\n"
        "good,y,4\n"
    )
    assert [e.case_id for e in stream.events] == ["good", "good"]


def test_parse_excludes_whole_case_on_empty_timestamp():
    stream = parse_text("case_id,activity,timestamp\nbad,a,\ngood,x,2\n")
    assert [e.case_id for e in stream.events] == ["good"]


def test_parse_empty_input_raises():
    with pytest.raises(StreamParseError):
        parse_text("")


def test_parse_missing_required_column_raises():
    with pytest.raises(ConfigurationError):
        parse_text("case_id,activity\nc1,a\n")


def test_parse_field_count_mismatch_names_the_line():
    with pytest.raises(StreamParseError) as exc:
        parse_text("case_id,activity,timestamp\nc1,a,1,extra\n")
    assert exc.value.line == 2


def test_parse_keeps_resource():
    stream = parse_text("case_id,activity,timestamp,resource\nc1,a,1,alice\nc1,b,2,\n")
    assert stream.events[0].resource == "alice"
    assert stream.events[1].resource is None


def test_drift_column_truthiness():
    rows = ["c,a,0,0"]
    flags = ["1", "true", "T", "yes", "Y", "0", "no", ""]
    rows += [f"c,a,{i + 1},{flag}" for i, flag in enumerate(flags)]
    stream = parse_text("case_id,activity,timestamp,drift\n" + "\n".join(rows) + "\n")
    assert stream.drift_indices == (1, 2, 3, 4, 5)


def test_drift_flag_on_first_event_is_ignored():
    stream = parse_text("case_id,activity,timestamp,drift\nc,a,1,1\nc,b,2,1\n")
    assert stream.drift_indices == (1,)


# -- sidecars ------------------------------------------------------------------


def test_drift_sidecar_roundtrip(tmp_path):
    stream = EventStream(tuple(Event("c", str(i)) for i in range(10)), (3, 7))
    path = tmp_path / "s.drifts"
    write_drift_sidecar(stream, path)
    assert load_drift_indices(path) == (3, 7)


def test_drift_sidecar_rejects_garbage(tmp_path):
    path = tmp_path / "bad.drifts"
    path.write_text("3\nseven\n")
    with pytest.raises(StreamParseError):
        load_drift_indices(path)


def test_task_sidecar_roundtrip(tmp_path):
    stream = EventStream(tuple(Event("c", str(i)) for i in range(10)), (5,), ("a", "b"))
    path = tmp_path / "s.tasks"
    write_task_sidecar(stream, path)
    assert load_task_labels(path) == ("a", "b")


def test_task_sidecar_requires_labels(tmp_path):
    stream = EventStream(tuple(Event("c", str(i)) for i in range(3)))
    with pytest.raises(ConfigurationError):
        write_task_sidecar(stream, tmp_path / "s.tasks")


def test_sidecar_overrides_drift_column(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case_id,activity,timestamp,drift\nc,a,1,0\nc,b,2,1\nc,c,3,0\n")
    drifts_path = tmp_path / "log.drifts"
    drifts_path.write_text("2\n")
    stream, source = parse_stream_with_sidecars(csv_path, drifts_path)
    assert source == "sidecar"
    assert stream.drift_indices == (2,)


def test_drift_column_reported_when_no_sidecar(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case_id,activity,timestamp,drift\nc,a,1,0\nc,b,2,1\n")
    stream, source = parse_stream_with_sidecars(csv_path)
    assert source == "column"
    assert stream.drift_indices == (1,)


def test_no_drift_info_reports_none(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case_id,activity,timestamp\nc,a,1\n")
    stream, source = parse_stream_with_sidecars(csv_path)
    assert source is None
    assert stream.drift_indices == ()


def test_byte_order_mark_is_read_as_encoding(tmp_path, tiny_stream):
    """A UTF-8 byte-order mark on the log or its sidecars changes nothing parsed."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for folder in (plain, marked):
        folder.mkdir()
        write_event_log(tiny_stream, folder / "s.csv")
        write_drift_sidecar(tiny_stream, folder / "s.drifts")
        write_task_sidecar(tiny_stream, folder / "s.tasks")
    for name in ("s.csv", "s.drifts", "s.tasks"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
    parsed = [parse_stream_with_sidecars(d / "s.csv", d / "s.drifts", d / "s.tasks") for d in (plain, marked)]
    assert parsed[1] == parsed[0]
    assert parsed[0][0].events == tiny_stream.events


def test_task_sidecar_attaches_labels(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case_id,activity,timestamp\nc,a,1\nc,b,2\n")
    drifts = tmp_path / "log.drifts"
    drifts.write_text("1\n")
    tasks = tmp_path / "log.tasks"
    tasks.write_text("x\ny\n")
    stream, _ = parse_stream_with_sidecars(csv_path, drifts, tasks)
    assert stream.task_labels == ("x", "y")


# -- the stream container --------------------------------------------------------


def test_stream_rejects_nonincreasing_drifts():
    events = tuple(Event("c", "a") for _ in range(5))
    with pytest.raises(ConfigurationError):
        EventStream(events, (3, 3))
    with pytest.raises(ConfigurationError):
        EventStream(events, (0,))
    with pytest.raises(ConfigurationError):
        EventStream(events, (5,))


def test_stream_rejects_label_count_mismatch():
    events = tuple(Event("c", "a") for _ in range(5))
    with pytest.raises(ConfigurationError):
        EventStream(events, (2,), ("only_one",))


# -- serialization ----------------------------------------------------------------


def test_write_event_log_roundtrip(tmp_path):
    events = (
        Event("c1", "a", "alice"),
        Event("c2", "b"),
        Event("c1", "c", "bob"),
        Event("c2", "d"),
    )
    path = tmp_path / "log.csv"
    write_event_log(EventStream(events), path)
    assert parse_event_log(path).events == events


def test_write_event_log_omits_drift_column_by_default(tmp_path):
    stream = EventStream((Event("c", "a"), Event("c", "b")), (1,))
    path = tmp_path / "log.csv"
    write_event_log(stream, path)
    assert "drift" not in path.read_text().splitlines()[0]
    assert parse_event_log(path).drift_indices == ()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(st.characters(codec="utf-8", exclude_categories=("C",)), min_size=1, max_size=6),
            st.text(st.characters(codec="utf-8", exclude_categories=("C",)), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_preserves_any_printable_labels(tmp_path_factory, rows):
    events = tuple(Event(case, act) for case, act in rows)
    path = tmp_path_factory.mktemp("rt") / "log.csv"
    write_event_log(EventStream(events), path)
    assert parse_event_log(path).events == events


def test_load_concept_pool(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(
        "case_id,activity,timestamp\n"
        "t1,a,1\n"
        "t2,x,2\n"
        "t1,b,3\n"
    )
    assert load_concept_pool(path) == [("a", "b"), ("x",)]


def test_load_concept_pool_rejects_empty(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("case_id,activity,timestamp\n")
    with pytest.raises(ConfigurationError):
        load_concept_pool(path)


# -- generation -------------------------------------------------------------------


def test_generate_exact_segment_lengths(tiny_pools):
    schedule = DriftSchedule(50, ("alpha", "beta", "alpha", "beta"))
    stream = generate_drift_stream(tiny_pools, schedule, seed=1)
    assert len(stream) == 200
    assert stream.drift_indices == (50, 100, 150)
    assert stream.task_labels == ("alpha", "beta", "alpha", "beta")


def test_generate_is_deterministic(tiny_pools):
    schedule = DriftSchedule(40, ("alpha", "beta"))
    a = generate_drift_stream(tiny_pools, schedule, seed=9)
    b = generate_drift_stream(tiny_pools, schedule, seed=9)
    c = generate_drift_stream(tiny_pools, schedule, seed=10)
    assert a.events == b.events
    assert a.events != c.events


def test_generate_emits_only_pool_activities(tiny_pools):
    stream = generate_drift_stream(tiny_pools, DriftSchedule(30, ("alpha",)), seed=2)
    assert {e.activity for e in stream.events} <= {"a", "b", "c", "d"}


def test_generate_reports_truncation():
    pools = {"solo": [("a", "b", "c", "d", "e")]}
    report = GenerationReport()
    stream = generate_drift_stream(pools, DriftSchedule(3, ("solo",)), seed=1, concurrency=1, report=report)
    assert len(stream) == 3
    assert report.truncated_cases == ("c0",)


def test_generate_no_truncation_on_clean_cut():
    pools = {"unit": [("a",)]}
    report = GenerationReport()
    generate_drift_stream(pools, DriftSchedule(4, ("unit",)), seed=1, concurrency=1, report=report)
    assert report.truncated_cases == ()


def test_generate_validates_inputs(tiny_pools):
    with pytest.raises(ConfigurationError):
        generate_drift_stream(tiny_pools, DriftSchedule(10, ("missing",)), seed=1)
    with pytest.raises(ConfigurationError):
        generate_drift_stream({"empty": [()]}, DriftSchedule(10, ("empty",)), seed=1)
    with pytest.raises(ConfigurationError):
        generate_drift_stream(tiny_pools, DriftSchedule(10, ("alpha",)), seed=1, concurrency=0)


def test_drift_schedule_validation():
    with pytest.raises(ConfigurationError):
        DriftSchedule(0, ("a",))
    with pytest.raises(ConfigurationError):
        DriftSchedule(5, ())


def test_generated_cases_are_contiguous_trace_replays(tiny_pools):
    """Every emitted case must replay a pool trace prefix in order."""
    stream = generate_drift_stream(tiny_pools, DriftSchedule(60, ("alpha",)), seed=3)
    by_case = {}
    for ev in stream.events:
        by_case.setdefault(ev.case_id, []).append(ev.activity)
    prefixes = {t[:k] for t in tiny_pools["alpha"] for k in range(1, len(t) + 1)}
    for acts in by_case.values():
        assert tuple(acts) in prefixes


# -- splitting --------------------------------------------------------------------


def test_split_validation_rebases_drifts():
    events = tuple(Event("c", str(i)) for i in range(10))
    stream = EventStream(events, (2, 6, 8), ("a", "b", "c", "d"))
    val, ev = split_validation(stream, 0.5)
    assert len(val) == 5 and len(ev) == 5
    assert val.drift_indices == (2,)
    assert ev.drift_indices == (1, 3)
    assert val.task_labels == ("a", "b")
    assert ev.task_labels == ("b", "c", "d")


def test_split_drops_drift_on_the_cut():
    events = tuple(Event("c", str(i)) for i in range(10))
    stream = EventStream(events, (5,), ("a", "b"))
    val, ev = split_validation(stream, 0.5)
    assert val.drift_indices == ()
    assert ev.drift_indices == ()
    assert val.task_labels == ("a",)
    assert ev.task_labels == ("b",)


def test_split_fraction_bounds():
    stream = EventStream((Event("c", "a"),))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError):
            split_validation(stream, bad)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    fraction=st.floats(min_value=0.05, max_value=0.95),
    drift_data=st.data(),
)
def test_split_halves_reassemble(n, fraction, drift_data):
    drifts = drift_data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), unique=True, max_size=5).map(sorted)
    )
    events = tuple(Event(f"c{i}", "a") for i in range(n))
    stream = EventStream(events, tuple(drifts))
    val, ev = split_validation(stream, fraction)
    assert val.events + ev.events == events
    cut = len(val.events)
    survived = tuple(d for d in drifts if d != cut)
    assert tuple(val.drift_indices) + tuple(d + cut for d in ev.drift_indices) == survived
