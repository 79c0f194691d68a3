"""End-to-end exercises of the command line, run in process through main()."""
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.baselines import STRATEGIES
from cnapwp import stream as stream_mod
from cnapwp.cli import _resolve_strategy, load_engine_config, main, write_engine_ini
from cnapwp.engine import EngineConfig
from cnapwp.errors import ConfigurationError
from cnapwp.metrics import read_records_csv
from cnapwp.stream import parse_stream_with_sidecars
from cnapwp.synthetic import write_pool_csv

SVG = "{http://www.w3.org/2000/svg}"

# Small enough to keep every engine-backed command under a second or two.
FAST = [
    "--set", "window_size=30",
    "--set", "buffer_size=8",
    "--set", "threshold=0.6",
    "--set", "buckets=2",
    "--set", "max_len=4",
    "--set", "epochs=1",
    "--set", "batch_size=10",
    "--set", "prompt_len=1",
    "--set", "heads=2",
    "--set", "validation_fraction=0.2",
]
FORWARD_ONLY = FAST + ["--set", "epochs=0"]


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """A generated two-segment stream plus sidecars, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    code = main(
        [
            "gen",
            "--out", str(root / "stream"),
            "--concepts", "pipeline,expedite",
            "--occurrences", "1",
            "--segment", "40",
            "--seed", "3",
            "--pool-size", "30",
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def run_dirs(gen_dir):
    """Two saved forward-only runs for the report tests."""
    stream = str(gen_dir / "stream.csv")
    for name, strategy in (("r1", "full"), ("r2", "no_prompt")):
        code = main(
            ["run", "--stream", stream, "--out", str(gen_dir / name), "--strategy", strategy]
            + FORWARD_ONLY
        )
        assert code == 0
    return gen_dir / "r1", gen_dir / "r2"


# -- gen ------------------------------------------------------------------------


def test_gen_writes_stream_and_sidecars(gen_dir):
    for suffix in (".csv", ".drifts", ".tasks"):
        assert (gen_dir / f"stream{suffix}").exists()
    stream, source = parse_stream_with_sidecars(
        gen_dir / "stream.csv", gen_dir / "stream.drifts", gen_dir / "stream.tasks"
    )
    assert source == "sidecar"
    assert len(stream.events) == 80
    assert stream.drift_indices == (40,)
    assert stream.task_labels == ("pipeline", "expedite")


def test_gen_reports_event_count(tmp_path, capsys):
    code = main(
        ["gen", "--out", str(tmp_path / "s"), "--concepts", "pipeline",
         "--occurrences", "1", "--segment", "20", "--seed", "1", "--pool-size", "20"]
    )
    assert code == 0
    assert "wrote 20 events over 1 segments" in capsys.readouterr().out


def test_gen_refuses_overwrite_without_force(tmp_path, capsys):
    argv = ["gen", "--out", str(tmp_path / "s.csv"), "--concepts", "pipeline",
            "--occurrences", "1", "--segment", "10", "--pool-size", "20"]
    assert main(argv) == 0
    assert main(argv) == 2
    assert "--force" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    assert (tmp_path / "s.csv").exists()


def test_gen_unknown_concept_exits_2(tmp_path, capsys):
    code = main(["gen", "--out", str(tmp_path / "s"), "--concepts", "nope"])
    assert code == 2
    assert "unknown concept" in capsys.readouterr().err


def test_gen_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    code = main(["gen", "--out", str(tmp_path / "s"), "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--seed" in err
    assert not any(tmp_path.iterdir())


def test_gen_bad_pool_spec_exits_2(tmp_path, capsys):
    code = main(["gen", "--out", str(tmp_path / "s"), "--pool", "oops"])
    assert code == 2
    assert "name=path.csv" in capsys.readouterr().err


def test_gen_external_pool(tmp_path):
    pool_csv = tmp_path / "pool.csv"
    write_pool_csv(pool_csv, [("u", "v", "w")] * 3)
    code = main(
        ["gen", "--out", str(tmp_path / "s"), "--concepts", "custom",
         "--pool", f"custom={pool_csv}", "--occurrences", "1",
         "--segment", "12", "--concurrency", "2"]
    )
    assert code == 0
    stream, _ = parse_stream_with_sidecars(tmp_path / "s.csv")
    assert len(stream.events) == 12
    assert {ev.activity for ev in stream.events} <= {"u", "v", "w"}


# -- run ------------------------------------------------------------------------


def test_resolve_strategy_alias():
    assert _resolve_strategy("full") is STRATEGIES["cnapwp"]
    with pytest.raises(ConfigurationError):
        _resolve_strategy("bogus")


def test_run_writes_complete_folder(gen_dir, capsys):
    out = gen_dir / "run_full"
    code = main(
        ["run", "--stream", str(gen_dir / "stream.csv"), "--out", str(out),
         "--strategy", "full"] + FAST
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "manifest.json",
        "records.csv",
        "timings.csv",
        "forgetting.csv",
        "accuracy_curve.csv",
        "summary.json",
        "task_store.json",
    }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["strategy"] == "cnapwp"
    # 20% of 80 events warm the vocabulary, the remaining 64 are measured.
    assert summary["events"] == 64
    assert len(read_records_csv(out / "records.csv")) == 64
    assert summary["drift_indices"] == [24]
    assert summary["task_labels"] == ["pipeline", "expedite"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["params"]["drift_source"] == "sidecar"
    assert manifest["params"]["engine"]["window_size"] == 30
    assert "strategy=cnapwp" in capsys.readouterr().out


def test_run_drift_info_requirements(gen_dir, tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    shutil.copyfile(gen_dir / "stream.csv", bare)

    code = main(["run", "--stream", str(bare), "--out", str(tmp_path / "o1"),
                 "--strategy", "cnapwp"] + FORWARD_ONLY)
    assert code == 2
    assert "drift" in capsys.readouterr().err

    code = main(["run", "--stream", str(bare), "--out", str(tmp_path / "o2"),
                 "--strategy", "no_prompt"] + FORWARD_ONLY)
    assert code == 0

    code = main(["run", "--stream", str(bare), "--out", str(tmp_path / "o3"),
                 "--strategy", "cnapwp", "--drifts", str(gen_dir / "stream.drifts"),
                 "--tasks", str(gen_dir / "stream.tasks")] + FORWARD_ONLY)
    assert code == 0


@pytest.mark.parametrize("flag", [None, "--drifts", "--tasks"])
def test_run_resolves_each_sidecar_on_its_own(gen_dir, tmp_path, monkeypatch, flag):
    """A flag replaces only its own sidecar; the other is still found beside the
    stream, and the CSV is parsed once."""
    parses = []
    real_parse = stream_mod.parse_event_log
    monkeypatch.setattr(stream_mod, "parse_event_log", lambda *a: parses.append(a) or real_parse(*a))
    argv = ["run", "--stream", str(gen_dir / "stream.csv"), "--out", str(tmp_path / "o")]
    if flag == "--drifts":
        (tmp_path / "other.drifts").write_text("30\n")
        argv += [flag, str(tmp_path / "other.drifts")]
    elif flag == "--tasks":
        (tmp_path / "other.tasks").write_text("a\nb\n")
        argv += [flag, str(tmp_path / "other.tasks")]
    assert main(argv + FORWARD_ONLY) == 0
    assert len(parses) == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["segmentation"] == "ground_truth"
    # 16 events warm the vocabulary, so a drift at event 40 (or 30) lands on record 24 (or 14).
    assert summary["drift_indices"] == ([14] if flag == "--drifts" else [24])
    assert summary["task_labels"] == (["a", "b"] if flag == "--tasks" else ["pipeline", "expedite"])


def test_run_usage_errors_exit_2(gen_dir, tmp_path, capsys):
    stream = str(gen_dir / "stream.csv")
    out = str(tmp_path / "never")
    no_section = tmp_path / "other.ini"
    no_section.write_text("[other]\na = 1\n")
    bad_key = tmp_path / "bad.ini"
    bad_key.write_text("[engine]\nnope = 1\n")
    taken = tmp_path / "taken"
    taken.mkdir()
    cases = [
        ["run", "--stream", stream, "--out", out, "--strategy", "bogus"],
        ["run", "--stream", stream, "--out", out, "--set", "nope=1"],
        ["run", "--stream", stream, "--out", out, "--set", "window_size=abc"],
        ["run", "--stream", stream, "--out", out, "--set", "windowsize"],
        ["run", "--stream", stream, "--out", out, "--set", "threshold=1.5"],
        ["run", "--stream", stream, "--out", out, "--config", str(tmp_path / "missing.ini")],
        ["run", "--stream", stream, "--out", out, "--config", str(no_section)],
        ["run", "--stream", stream, "--out", out, "--config", str(bad_key)],
        ["run", "--stream", stream, "--out", str(taken), "--strategy", "no_prompt"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_run_data_errors(tmp_path, capsys):
    short_row = tmp_path / "short.csv"
    short_row.write_text("case_id,activity,timestamp,resource\nc1,a\n")
    code = main(["run", "--stream", str(short_row), "--out", str(tmp_path / "o1"),
                 "--strategy", "no_prompt"])
    assert code == 3
    assert "error:" in capsys.readouterr().err

    bad_ts = tmp_path / "ts.csv"
    bad_ts.write_text("case_id,activity,timestamp,resource\nc1,a,notatime,\n")
    assert main(["run", "--stream", str(bad_ts), "--out", str(tmp_path / "o2"),
                 "--strategy", "no_prompt"]) == 3

    # A header missing a required column is a configuration problem, not data.
    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("who,activity,timestamp\nc1,a,0\n")
    assert main(["run", "--stream", str(bad_header), "--out", str(tmp_path / "o3"),
                 "--strategy", "no_prompt"]) == 2


# Field values that break a log in the ways real exports do: bad or mixed
# timestamps, empty fields, stray quotes, embedded separators and line breaks.
GARBAGE = st.one_of(
    st.sampled_from([
        "", '"', '""', 'x"y', '"open', "notatime", "2024-13-45", "2024-01-01T00:00:00",
        "2024-01-01T00:00:00+01:00", "1.5", "-7", "9" * 5000, "a,b", "1\n2", "\r", "\x00", "true",
    ]),
    st.text(max_size=5),
)


@st.composite
def garbled_logs(draw):
    """A valid small event log, then a few fields replaced, dropped or inserted
    anywhere, header included; rows are joined without quoting."""
    header = ["case_id", "activity", "timestamp", "resource"]
    if draw(st.booleans()):
        header.append("drift")
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()), max_size=50))
    table = [header] + [
        [f"c{case}", "abcd"[activity], str(tick), "", "1" if drift else ""][: len(header)]
        for tick, (case, activity, drift) in enumerate(steps)
    ]
    edits = st.tuples(st.sampled_from(["replace", "drop", "insert"]), st.integers(0, 10**6), st.integers(0, 9), GARBAGE)
    for action, row_pick, col_pick, junk in draw(st.lists(edits, max_size=6)):
        row = table[row_pick % len(table)]
        if action == "insert" or not row:
            row.insert(col_pick % (len(row) + 1), junk)
        elif action == "replace":
            row[col_pick % len(row)] = junk
        else:
            del row[col_pick % len(row)]
    return "\n".join(",".join(row) for row in table) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=garbled_logs(), strategy=st.sampled_from(["no_prompt", "cnapwp"]))
def test_run_on_garbled_logs_exits_cleanly(text, strategy):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--stream", str(log), "--out", str(Path(tmp) / "out"),
                         "--strategy", strategy] + FAST)
    message = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in message
    if code:
        assert message.startswith("error: ") and message.count("\n") == 1, message


def test_run_force_overwrites(run_dirs):
    out = run_dirs[0]
    argv = ["run", "--stream", str(out.parent / "stream.csv"), "--out", str(out),
            "--strategy", "full", "--force"] + FORWARD_ONLY
    assert main(argv) == 0
    assert (out / "records.csv").exists()


# -- configuration files ----------------------------------------------------------


def test_engine_ini_roundtrip(tmp_path):
    config = EngineConfig(
        window_size=40, buffer_size=9, threshold=0.35, buckets=3, max_len=5,
        lr=0.02, batch_size=7, epochs=2, prompt_len=2, heads=3, layers=2,
        dropout=0.05, general_layers=(0, 1), expert_layers=(1,),
        prompt_mode="prompt", seed=11, validation_fraction=0.25,
        fingerprint_cap=123, curve_window=None,
    )
    path = tmp_path / "engine.ini"
    write_engine_ini(config, path)
    assert load_engine_config(str(path), []) == config

    with_curve = dataclasses.replace(config, curve_window=77)
    write_engine_ini(with_curve, path)
    assert load_engine_config(str(path), []) == with_curve


def test_overrides_beat_ini(tmp_path):
    path = tmp_path / "engine.ini"
    write_engine_ini(EngineConfig(window_size=40), path)
    config = load_engine_config(str(path), ["window_size=55"])
    assert config.window_size == 55

    config = load_engine_config(None, ["general_layers=0,1", "curve_window=none"])
    assert config.general_layers == (0, 1)
    assert config.curve_window is None


# -- sweep ------------------------------------------------------------------------


def test_sweep_small_grid(gen_dir, capsys):
    out = gen_dir / "sweep"
    code = main(
        ["sweep", "--stream", str(gen_dir / "stream.csv"), "--out", str(out),
         "--strategy", "full", "--window", "20,30", "--buffer", "8",
         "--threshold", "0.6"] + FAST
    )
    assert code == 0
    assert "swept 2 settings" in capsys.readouterr().out
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["evaluated_on"] == "validation_split"
    assert len(aggregate["grid"]) == 2
    accuracies = [row["average_accuracy"] for row in aggregate["grid"]]
    assert aggregate["best"]["average_accuracy"] == max(accuracies)
    for row in aggregate["grid"]:
        assert row["events"] == 16  # the 20% validation slice of 80 events
        assert row["params"]["buffer_size"] == 8

    best = load_engine_config(str(out / "best.ini"), [])
    assert best.window_size in (20, 30)
    assert best.buffer_size == 8
    assert best.threshold == 0.6
    assert best.max_len == 4  # non-swept overrides survive into best.ini


# -- ablate -----------------------------------------------------------------------


def test_ablate_conditions_and_aggregate(gen_dir, capsys):
    out = gen_dir / "ablate"
    code = main(
        ["ablate", "--stream", str(gen_dir / "stream.csv"), "--out", str(out),
         "--conditions", "no_prompt,full", "--seeds", "3,5"] + FAST
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "no_prompt: accuracy=" in printed
    assert "full: accuracy=" in printed
    for name in ("no_prompt", "full"):
        for seed in (3, 5):
            assert (out / name / f"seed{seed}" / "records.csv").exists()
            assert (out / name / f"seed{seed}" / "summary.json").exists()

    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["seeds"] == [3, 5]
    assert set(aggregate["conditions"]) == {"no_prompt", "full"}
    for stats in aggregate["conditions"].values():
        per_seed = stats["per_seed_accuracy"]
        assert set(per_seed) == {"3", "5"}
        mean = sum(per_seed.values()) / 2
        assert stats["accuracy_mean"] == pytest.approx(mean, abs=1e-12)
        std = (sum((a - mean) ** 2 for a in per_seed.values()) / 2) ** 0.5
        assert stats["accuracy_std"] == pytest.approx(std, abs=1e-12)


@pytest.mark.parametrize(
    "argv, env",
    [
        (["sweep", "--window", "abc"], None),
        (["sweep", "--buffer", "8,x"], None),
        (["sweep", "--threshold", "high"], None),
        (["sweep", "--window", "20"], "abc"),
        (["ablate", "--seeds", "1,x"], None),
        (["ablate", "--seeds", "1"], "abc"),
        (["run", "--set", "seed=-1"], None),
        (["sweep", "--set", "seed=-1"], None),
        (["ablate", "--seeds", "1,-1"], None),
        (["run", "--set", "lr=nan"], None),
        (["run", "--set", "lr=inf"], None),
    ],
)
def test_bad_grid_and_worker_values_exit_2(gen_dir, tmp_path, monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("CNAPWP_THREADS", env)
    out = tmp_path / "never"
    code = main(argv + ["--stream", str(gen_dir / "stream.csv"), "--out", str(out)] + FAST)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, threads",
    [
        (["run", "--strategy", "full"], None),
        (["sweep", "--window", "30", "--buffer", "8", "--threshold", "0.6"], "1"),
        (["ablate", "--conditions", "full", "--seeds", "3"], "1"),
    ],
)
def test_manifest_names_what_produced_the_run(gen_dir, tmp_path, monkeypatch, argv, threads):
    if threads is None:
        monkeypatch.delenv("CNAPWP_THREADS", raising=False)
    else:
        monkeypatch.setenv("CNAPWP_THREADS", threads)
    out = tmp_path / argv[0]
    assert main(argv + ["--stream", str(gen_dir / "stream.csv"), "--out", str(out)] + FAST) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == f"{blas['name']} {blas['version']}"
    assert manifest["nproc"] == os.cpu_count()
    assert manifest["CNAPWP_THREADS"] == threads


def test_ablate_unknown_condition_exits_2(gen_dir, tmp_path, capsys):
    code = main(["ablate", "--stream", str(gen_dir / "stream.csv"),
                 "--out", str(tmp_path / "o"), "--conditions", "bogus"])
    assert code == 2
    assert "unknown condition" in capsys.readouterr().err


# -- report -----------------------------------------------------------------------


def test_report_renders_svgs(run_dirs, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["report", "--runs", str(run_dirs[0]), str(run_dirs[1]),
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("accuracy=") == 2
    assert (out / "forgetting_cnapwp_r1.svg").exists()
    assert (out / "forgetting_no_prompt_r2.svg").exists()

    root = ET.parse(out / "accuracy_curves.svg").getroot()
    assert len(root.findall(f".//{SVG}polyline")) == 2
    texts = {el.text for el in root.iter(f"{SVG}text")}
    assert "cnapwp:r1" in texts
    assert "no_prompt:r2" in texts


def test_report_missing_records_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty_run"
    empty.mkdir()
    code = main(["report", "--runs", str(empty), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "records.csv" in capsys.readouterr().err


def edit_summary(text, **fields):
    return json.dumps({**json.loads(text), **fields})


@pytest.mark.parametrize(
    "name, edit, code, message",
    [
        ("records.csv", lambda t: t.replace("index,", "idx,", 1), 2, "'index'"),
        ("records.csv", lambda t: t.replace("\n", "\n0,c,a\n", 1), 3, "line 2: bad record"),
        ("records.csv", lambda t: "\n".join([*t.split("\n")[:2], "0,c,a,b,x,1,0", ""]), 3, "line 3: bad record"),
        ("summary.json", lambda t: t[:-5], 3, "bad summary"),
        ("summary.json", lambda t: edit_summary(t, config={"window_size": "x"}), 3, "config.window_size"),
        ("summary.json", lambda t: edit_summary(t, config=[1]), 3, "config is not an object"),
        ("summary.json", lambda t: edit_summary(t, task_labels=5), 3, "task_labels"),
        ("summary.json", lambda t: edit_summary(t, strategy=5), 3, "strategy is not a string"),
        ("summary.json", lambda t: edit_summary(t, drift_indices="abc"), 3, "drift_indices"),
        # bool subclasses int in Python, but a JSON true is no window size.
        ("summary.json", lambda t: edit_summary(t, config={"window_size": True}), 3, "config.window_size"),
        ("summary.json", lambda t: edit_summary(t, drift_indices=[False]), 3, "drift_indices"),
    ],
    ids=[
        "missing-column",
        "short-row",
        "non-integer-field",
        "truncated-summary",
        "string-window-size",
        "config-not-object",
        "task-labels-not-list",
        "strategy-not-string",
        "drift-indices-string",
        "bool-window-size",
        "bool-drift-index",
    ],
)
def test_report_malformed_run_exits_cleanly(run_dirs, tmp_path, capsys, name, edit, code, message):
    run = tmp_path / "run"
    shutil.copytree(run_dirs[0], run)
    (run / name).write_text(edit((run / name).read_text()))
    assert main(["report", "--runs", str(run), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# -- parser -----------------------------------------------------------------------


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
