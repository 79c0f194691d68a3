"""Command line front end.

Subcommands: ``gen`` synthesizes a recurrent-drift stream, ``run`` executes one
strategy on a stream, ``sweep`` grid-searches engine settings on the validation
split, ``ablate`` runs the prompt ablation (and optional baselines) over
several seeds, and ``report`` renders SVG summaries from saved run folders.

Exit codes: 0 success, 2 for configuration and usage problems, 3 for data and
runtime failures, running out of memory included. Commands that write a result folder put a ``manifest.json``
in it before any computation starts, so aborted runs are recognizable.
"""
from __future__ import annotations

import argparse
import collections
import configparser
import dataclasses
import itertools
import json
import os
import platform
import shutil
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARIABLES, __version__
from .baselines import ABLATION_CONDITIONS, STRATEGIES, map_jobs, worker_cap
from .engine import EngineConfig, run_session
from .errors import ConfigurationError, NumericError, StreamParseError
from .metrics import average_accuracy, forgetting_matrix, read_records_csv, rolling_accuracy_curve, write_json
from .plots import accuracy_curve_svg, forgetting_heatmap_svg
from .preprocessing import ActivityVocabulary
from .stream import (
    DriftSchedule,
    GenerationReport,
    generate_drift_stream,
    load_concept_pool,
    parse_stream_with_sidecars,
    split_validation,
    write_drift_sidecar,
    write_event_log,
    write_task_sidecar,
)
from .synthetic import builtin_processes, sample_pool

SWEEP_WINDOWS = (250, 500, 1000)
SWEEP_BUFFERS = (50, 100, 150)
SWEEP_THRESHOLDS = (0.2, 0.4, 0.5, 0.6, 0.8)
# gen's size caps. The generator holds ~120 bytes per event and makes ~30k events/s,
# so a stream at the cap takes ~1.2 GB and ~6 minutes; each open case and pool trace is held too.
GEN_MAX_EVENTS = 10**7
GEN_MAX_CONCURRENCY = 10**5
GEN_MAX_POOL_SIZE = 10**6


# -- configuration ------------------------------------------------------------


def _coerce(key: str, text: str):
    text = text.strip()
    default = getattr(EngineConfig(), key)
    try:
        if isinstance(default, tuple):
            return tuple(int(t) for t in text.split(",") if t.strip())
        if key == "curve_window":
            return None if text.lower() in ("", "none") else int(text)
        return type(default)(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse {text!r} for engine setting {key!r}") from None


def load_engine_config(ini_path: str | None, overrides: list[str]) -> EngineConfig:
    """Defaults, then an optional [engine] section of a UTF-8 ini file, then key=value overrides."""
    known = {f.name for f in dataclasses.fields(EngineConfig)}
    values: dict = {}
    if ini_path:
        parser = configparser.ConfigParser(interpolation=None)  # a "%" in a value is a typo to report, not a reference
        try:
            with open(ini_path, encoding="utf-8-sig") as fh:
                parser.read_file(fh)
        except OSError:
            raise ConfigurationError(f"config file {ini_path} not found") from None
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"config file {ini_path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
            ) from None
        except configparser.Error as exc:
            raise ConfigurationError(f"config file {ini_path} is not an ini file: {str(exc).splitlines()[0]}") from None
        if not parser.has_section("engine"):
            raise ConfigurationError(f"config file {ini_path} has no [engine] section")
        for key, text in parser.items("engine"):
            if key not in known:
                raise ConfigurationError(f"unknown engine setting {key!r} in {ini_path}")
            values[key] = _coerce(key, text)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not key=value")
        key, text = item.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigurationError(f"unknown engine setting {key!r}")
        values[key] = _coerce(key, text)
    return EngineConfig(**values)


def write_engine_ini(config: EngineConfig, path: Path) -> None:
    parser = configparser.ConfigParser()
    parser.add_section("engine")
    for f in dataclasses.fields(EngineConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif value is None:
            text = "none"
        else:
            text = str(value)
        parser.set("engine", f.name, text)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# -- shared helpers -----------------------------------------------------------


def _prepare_outdir(path: Path, force: bool, inputs) -> Path:
    """Make an empty out folder; refuse, before deleting anything, one that is
    or holds one of the command's input paths."""
    if path.exists():
        for source in inputs:
            if Path(source).resolve().is_relative_to(path.resolve()):
                raise ConfigurationError(f"output {path} holds the input {source}; choose another --out")
        if not force:
            raise ConfigurationError(f"output {path} exists, pass --force to overwrite")
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _argv_text(value):
    """An argv-derived string, or each string of a list, as the text its bytes
    spell in UTF-8, the encoding of every file cnapwp writes. Under a locale
    that is not UTF-8, Python decodes argv bytes it cannot read to lone
    surrogates, which no UTF-8 file can hold; bytes that are not UTF-8 become U+FFFD."""
    if isinstance(value, list):
        return [_argv_text(item) for item in value]
    if isinstance(value, str):
        return value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    return value


def _write_manifest(outdir: Path, command: str, params: dict) -> None:
    manifest = {
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "params": {key: _argv_text(value) for key, value in params.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count() or 1,
        "CNAPWP_THREADS": os.environ.get("CNAPWP_THREADS"),
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
    write_json(manifest, outdir / "manifest.json")


def _blas() -> str:
    """Name and version of numpy's BLAS, which computes the model's matrix products."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"


def _load_stream(args):
    """Parse the stream once, each sidecar from its flag or else from beside the stream.

    Returns the stream, its drift source and every file the command reads.
    """
    for flag, path in (("--stream", args.stream), ("--drifts", args.drifts), ("--tasks", args.tasks)):
        if path is not None and Path(path).is_dir():
            raise ConfigurationError(f"{flag} {path} is a directory, not a file")
    base = Path(args.stream)

    def sidecar(flag: str | None, suffix: str):
        if flag is not None:
            return flag
        beside = base.with_suffix(suffix)
        return beside if beside.is_file() else None

    drifts, tasks = sidecar(args.drifts, ".drifts"), sidecar(args.tasks, ".tasks")
    stream, drift_source = parse_stream_with_sidecars(args.stream, drifts, tasks)
    inputs = [p for p in (args.stream, drifts, tasks, args.config) if p is not None]
    return stream, drift_source, inputs


def _resolve_strategy(name: str, kind: str = "strategy"):
    if name == "full":
        return STRATEGIES["cnapwp"]
    if name not in STRATEGIES:
        raise ConfigurationError(f"unknown {kind} {name!r}; choose from {sorted(STRATEGIES)} or 'full'")
    return STRATEGIES[name]


# A checked command: the stream, its drift source, every file the command reads, and its
# jobs as (config, strategy, subfolder to save the report in or None, validation_only).
_Plan = collections.namedtuple("_Plan", "stream drift_source inputs jobs")


def _plan(args, jobs: list) -> _Plan:
    """Read the stream and refuse, before anything is written, jobs it cannot run.

    The jobs differ in no setting that sizes the model or splits the stream, so
    the first job's config stands for all of them.
    """
    stream, drift_source, inputs = _load_stream(args)
    config = jobs[0][0]
    warm, _ = split_validation(stream, config.validation_fraction)
    width = ActivityVocabulary(e.activity for e in warm.events).width  # the width ``prepare`` builds
    for strategy in dict.fromkeys(strategy for _, strategy, _, _ in jobs):
        if strategy.needs_drift_info and drift_source is None:
            raise ConfigurationError(
                f"strategy {strategy.name!r} needs drift positions; provide a drift column, "
                f"a .drifts sidecar, or --drifts"
            )
        model_cfg = config.model_config(strategy)
        model_cfg.check_sizes(model_cfg.d_model(width), config.batch_size)
    if not warm.events and any(validation_only for *_, validation_only in jobs):
        raise ConfigurationError(
            f"the validation split of a {len(stream)}-event stream at validation_fraction="
            f"{config.validation_fraction} holds no events to score; raise it or use a longer stream"
        )
    return _Plan(stream, drift_source, inputs, jobs)


def _run_plan(plan: _Plan, args, command: str, params: dict, workers: int = 1):
    """Make the out folder and its manifest, run the jobs, and save each report that has
    a subfolder. Returns the folder, the reports in job order, and the jobs' wall time."""
    outdir = _prepare_outdir(Path(args.out), args.force, plan.inputs)
    _write_manifest(outdir, command, {"stream": str(args.stream), **params})
    t0 = time.perf_counter()
    jobs = [(plan.stream, config, strategy, validation_only) for config, strategy, _, validation_only in plan.jobs]
    reports = map_jobs(run_session, jobs, workers)
    for (_, _, subfolder, _), report in zip(plan.jobs, reports):
        if subfolder is not None:
            report.save(outdir / subfolder)
    return outdir, reports, time.perf_counter() - t0


# -- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    base = Path(args.out)
    if base.suffix == ".csv":
        base = base.with_suffix("")
    targets = [base.with_suffix(".csv"), base.with_suffix(".drifts"), base.with_suffix(".tasks")]
    specs = []
    for spec in args.pool:
        if "=" not in spec:
            raise ConfigurationError(f"--pool {spec!r} is not name=path.csv")
        name, path = (part.strip() for part in spec.split("=", 1))
        if Path(path).is_dir():
            raise ConfigurationError(f"--pool {name}={path} is a directory, not a file")
        for target in targets:
            if Path(path).resolve() == target.resolve():
                raise ConfigurationError(f"--pool {name}={path} is the output {target}; choose another --out")
        specs.append((name, path))
    names = [n.strip() for n in args.concepts.split(",") if n.strip()]
    if not names:
        raise ConfigurationError("--concepts must name at least one concept")
    if max(args.segment, 1) * max(args.occurrences, 0) * len(names) > GEN_MAX_EVENTS:
        raise ConfigurationError(
            f"--segment {args.segment} x --occurrences {args.occurrences} x {len(names)} concepts "
            f"is above the cap of {GEN_MAX_EVENTS} events"
        )
    for flag, value, cap in (("--concurrency", args.concurrency, GEN_MAX_CONCURRENCY),
                             ("--pool-size", args.pool_size, GEN_MAX_POOL_SIZE)):
        if value > cap:
            raise ConfigurationError(f"{flag} {value} is above the cap of {cap}")
    pools = {name: load_concept_pool(path) for name, path in specs}
    builtin = builtin_processes()
    for name in names:
        if name in pools:
            continue
        if name not in builtin:
            raise ConfigurationError(
                f"unknown concept {name!r}; built-ins are {sorted(builtin)}, or pass --pool {name}=path.csv"
            )
        pools[name] = sample_pool(builtin[name], args.pool_size, args.seed)

    order = tuple(names) * args.occurrences
    schedule = DriftSchedule(args.segment, order)
    report = GenerationReport()
    stream = generate_drift_stream(pools, schedule, seed=args.seed, concurrency=args.concurrency, report=report)

    base.parent.mkdir(parents=True, exist_ok=True)
    clashes = [t for t in targets if t.exists()]
    if clashes and not args.force:
        raise ConfigurationError(f"output exists: {clashes[0]}; pass --force to overwrite")
    write_event_log(stream, targets[0])
    write_drift_sidecar(stream, targets[1])
    write_task_sidecar(stream, targets[2])
    if report.truncated_cases:
        print(
            f"warning: {len(report.truncated_cases)} cases truncated at segment boundaries",
            file=sys.stderr,
        )
    print(f"wrote {len(stream)} events over {len(order)} segments to {targets[0]}")
    return 0


# -- run --------------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_engine_config(args.config, args.set)
    strategy = _resolve_strategy(args.strategy)
    plan = _plan(args, [(config, strategy, "", False)])
    params = {"strategy": strategy.name, "drift_source": plan.drift_source, "engine": dataclasses.asdict(config)}
    outdir, (report,), _ = _run_plan(plan, args, "run", params)
    summary = report.summary()
    print(
        f"strategy={summary['strategy']} events={summary['events']} "
        f"accuracy={summary['average_accuracy']:.4f} "
        f"time_per_event_ms={summary['time_per_event_ms']['mean']:.2f} out={outdir}"
    )
    return 0


# -- sweep ------------------------------------------------------------------------


def _parse_list(text: str, kind: type, flag: str) -> list:
    try:
        values = [kind(t) for t in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag} {text!r} is not a comma-separated list of {kind.__name__} values"
        ) from None
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigurationError(f"{flag} {text!r} repeats {value}")
    return values


def cmd_sweep(args) -> int:
    base = load_engine_config(args.config, args.set)
    strategy = _resolve_strategy(args.strategy)
    windows = _parse_list(args.window, int, "--window")
    buffers = _parse_list(args.buffer, int, "--buffer")
    thresholds = _parse_list(args.threshold, float, "--threshold")
    workers = worker_cap(args.workers)
    grid = [
        {"window_size": window, "buffer_size": buffer, "threshold": threshold}
        for window, buffer, threshold in itertools.product(windows, buffers, thresholds)
    ]
    configs = [dataclasses.replace(base, **params) for params in grid]  # validates each grid point
    plan = _plan(args, [(config, strategy, None, True) for config in configs])
    params = {
        "strategy": strategy.name,
        "grid_size": len(grid),
        "windows": windows,
        "buffers": buffers,
        "thresholds": thresholds,
        "engine": dataclasses.asdict(base),
    }
    outdir, reports, wall_time_s = _run_plan(plan, args, "sweep", params, workers)
    rows = [
        {"params": p, "average_accuracy": average_accuracy(r.records), "events": len(r.records)}
        for p, r in zip(grid, reports)
    ]
    rows.sort(key=lambda r: (-r["average_accuracy"], r["params"]["window_size"]))
    best = rows[0]
    aggregate = {
        "strategy": strategy.name,
        "evaluated_on": "validation_split",
        "wall_time_s": wall_time_s,
        "best": best,
        "grid": rows,
    }
    write_json(aggregate, outdir / "aggregate.json")
    write_engine_ini(dataclasses.replace(base, **best["params"]), outdir / "best.ini")
    print(
        f"swept {len(rows)} settings; best accuracy={best['average_accuracy']:.4f} "
        f"at {best['params']} (see {outdir / 'best.ini'})"
    )
    return 0


# -- ablate -----------------------------------------------------------------------


def cmd_ablate(args) -> int:
    base = load_engine_config(args.config, args.set)
    names = [n.strip() for n in args.conditions.split(",") if n.strip()]
    if not names:
        raise ConfigurationError("--conditions must name at least one condition")
    conditions = {}
    for name in names:
        spec = _resolve_strategy(name, "condition")
        for other, seen in conditions.items():
            if seen == spec:
                raise ConfigurationError(f"--conditions {other!r} and {name!r} run the same strategy")
        conditions[name] = spec
    seeds = _parse_list(args.seeds, int, "--seeds")
    configs = {seed: dataclasses.replace(base, seed=seed) for seed in seeds}  # validates each seed
    workers = worker_cap(args.workers)
    keys = list(itertools.product(conditions, seeds))
    plan = _plan(args, [(configs[seed], conditions[name], f"{name}/seed{seed}", False) for name, seed in keys])
    params = {
        "conditions": list(conditions),
        "seeds": seeds,
        "drift_source": plan.drift_source,
        "engine": dataclasses.asdict(base),
    }
    outdir, reports, wall_time_s = _run_plan(plan, args, "ablate", params, workers)

    per_condition: dict[str, list[dict]] = {name: [] for name in conditions}
    for (name, _), report in zip(keys, reports):
        per_condition[name].append(report.summary())
    aggregate = {"seeds": seeds, "conditions": {}, "wall_time_s": wall_time_s}
    for name, summaries in per_condition.items():
        accs = [s["average_accuracy"] for s in summaries]
        deltas = [s["mean_positive_delta"] for s in summaries]
        times = [s["time_per_event_ms"]["mean"] for s in summaries]
        n = len(accs)
        mean = sum(accs) / n
        aggregate["conditions"][name] = {
            "accuracy_mean": mean,
            "accuracy_std": (sum((a - mean) ** 2 for a in accs) / n) ** 0.5,
            "mean_positive_delta_mean": sum(deltas) / n,
            "time_per_event_ms_mean": sum(times) / n,
            "per_seed_accuracy": dict(zip(map(str, seeds), accs)),
        }
    write_json(aggregate, outdir / "aggregate.json")
    for name, stats in aggregate["conditions"].items():
        print(
            f"{name}: accuracy={stats['accuracy_mean']:.4f} (+/- {stats['accuracy_std']:.4f}) "
            f"forgetting={stats['mean_positive_delta_mean']:.4f}"
        )
    return 0


# -- report -----------------------------------------------------------------------


def _is_int(value) -> bool:
    """JSON ``true``/``false`` are not ints here, though Python's bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_list_of(value, item_ok) -> bool:
    """True for null, or for a list whose items all pass ``item_ok``."""
    return value is None or isinstance(value, list) and all(map(item_ok, value))


def _read_summary(path: Path) -> dict:
    """A run's summary.json, or {} when the run folder has none.

    Every field ``cmd_report`` reads may be absent, but a present one must
    have the type that ``RunReport.summary`` writes.
    """
    if not path.exists():
        return {}
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or bytes that are not text
        raise StreamParseError(f"bad summary {path}: {exc}") from None
    if not isinstance(summary, dict):
        raise StreamParseError(f"bad summary {path}: not a JSON object")
    config = summary.get("config", {})
    if not isinstance(summary.get("strategy", ""), str):
        problem = "strategy is not a string"
    elif not isinstance(config, dict):
        problem = "config is not an object"
    elif config.get("curve_window") is not None and not _is_count(config["curve_window"]):
        problem = "config.curve_window is neither null nor an int >= 0"
    elif "window_size" in config and not _is_count(config["window_size"]):
        problem = "config.window_size is not an int >= 0"
    elif not _is_list_of(summary.get("drift_indices"), _is_int):
        problem = "drift_indices is neither null nor a list of ints"
    elif not _is_list_of(summary.get("task_labels"), lambda label: isinstance(label, str)):
        problem = "task_labels is neither null nor a list of strings"
    else:
        return summary
    raise StreamParseError(f"bad summary {path}: {problem}")


def _check_segments(path: Path, summary: dict, n_records: int) -> None:
    """Refuse drift indices and task labels that do not cut ``n_records`` records into segments."""
    drifts = summary.get("drift_indices") or []
    labels = summary.get("task_labels")
    if drifts and any(a >= b for a, b in itertools.pairwise([0, *drifts, n_records])):
        raise ConfigurationError(f"{path}: drift_indices {drifts} are not increasing inside (0, {n_records})")
    if labels and len(labels) != len(drifts) + 1:
        raise ConfigurationError(
            f"{path}: {len(labels)} task_labels for {len(drifts)} drift_indices; need {len(drifts) + 1}"
        )


def cmd_report(args) -> int:
    run_dirs = [Path(d) for d in args.runs]
    runs = {}  # heatmap file name -> (run folder, label, summary, records)
    for d in run_dirs:
        if not (d / "records.csv").exists():
            raise ConfigurationError(f"{d} has no records.csv")
        records = read_records_csv(d / "records.csv")
        summary = _read_summary(d / "summary.json")
        _check_segments(d / "summary.json", summary, len(records))
        strategy = summary.get("strategy", d.name)
        label = f"{strategy}:{d.name}" if len(run_dirs) > 1 else strategy
        heatmap = "forgetting_" + label.replace("/", "_").replace(":", "_") + ".svg"
        if heatmap in runs:
            raise ConfigurationError(f"runs {runs[heatmap][0]} and {d} would both be reported as {heatmap}")
        runs[heatmap] = (d, label, summary, records)
    outdir = _prepare_outdir(Path(args.out), args.force, run_dirs)
    _write_manifest(outdir, "report", {"runs": [str(d) for d in run_dirs]})
    curves = {}
    lines = []
    for heatmap, (_, label, summary, records) in runs.items():
        config = summary.get("config", {})
        window = config.get("curve_window")
        if window is None:
            window = config.get("window_size", 250)
        curves[_argv_text(label)] = rolling_accuracy_curve(records, int(window))
        matrix = forgetting_matrix(records, summary.get("drift_indices"), summary.get("task_labels") or None)
        forgetting_heatmap_svg(matrix, outdir / heatmap)
        acc = average_accuracy(records)
        lines.append(f"{label}: events={len(records)} accuracy={acc:.4f} forgetting={matrix.mean_positive_delta:.4f}")
    accuracy_curve_svg(curves, outdir / "accuracy_curves.svg")
    for line in lines:
        print(line)
    print(f"wrote {outdir / 'accuracy_curves.svg'}")
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnapwp", description="Online next-activity prediction over drifting event streams."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a recurrent-drift stream")
    gen.add_argument("--out", required=True, help="output path prefix (writes .csv, .drifts, .tasks)")
    gen.add_argument("--concepts", default="pipeline,expedite,review_loop", help="comma-separated concept names")
    gen.add_argument("--occurrences", type=int, default=3, help="rounds through the concept list")
    gen.add_argument("--segment", type=int, default=1000, help="events per segment")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--pool-size", type=int, default=200, help="traces sampled per built-in concept")
    gen.add_argument("--concurrency", type=int, default=3, help="cases open at once")
    gen.add_argument("--pool", action="append", default=[], metavar="NAME=PATH", help="external concept pool CSV")
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(handler=cmd_gen)

    def add_run_common(p, with_strategy=True):
        p.add_argument("--stream", required=True, help="event log CSV")
        p.add_argument("--drifts", help="drift sidecar (default: <stream>.drifts when present)")
        p.add_argument("--tasks", help="task-label sidecar (default: <stream>.tasks when present)")
        p.add_argument("--config", help="ini file with an [engine] section")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="engine setting override")
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")
        if with_strategy:
            p.add_argument("--strategy", default="cnapwp", help=f"one of {sorted(STRATEGIES)} or 'full'")

    run = sub.add_parser("run", help="run one strategy on a stream")
    add_run_common(run)
    run.set_defaults(handler=cmd_run)

    sweep = sub.add_parser("sweep", help="grid-search engine settings on the validation split")
    add_run_common(sweep)
    sweep.add_argument("--window", default=",".join(map(str, SWEEP_WINDOWS)))
    sweep.add_argument("--buffer", default=",".join(map(str, SWEEP_BUFFERS)))
    sweep.add_argument("--threshold", default=",".join(map(str, SWEEP_THRESHOLDS)))
    sweep.add_argument("--workers", type=int, default=None)
    sweep.set_defaults(handler=cmd_sweep)

    ablate = sub.add_parser("ablate", help="run ablation conditions across seeds")
    add_run_common(ablate, with_strategy=False)
    ablate.add_argument("--conditions", default=",".join(ABLATION_CONDITIONS))
    ablate.add_argument("--seeds", default="1,2,3,4,5")
    ablate.add_argument("--workers", type=int, default=None)
    ablate.set_defaults(handler=cmd_ablate)

    report = sub.add_parser("report", help="render SVG summaries from saved runs")
    report.add_argument("--runs", nargs="+", required=True, help="run folders holding records.csv")
    report.add_argument("--out", required=True)
    report.add_argument("--force", action="store_true")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamParseError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
