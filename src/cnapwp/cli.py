"""Command line front end.

Subcommands: ``gen`` synthesizes a recurrent-drift stream, ``run`` executes one
strategy on a stream, ``sweep`` grid-searches engine settings on the validation
split, ``ablate`` runs the prompt ablation (and optional baselines) over
several seeds, and ``report`` renders SVG summaries from saved run folders.

Exit codes: 0 success, 2 for configuration and usage problems, 3 for data and
runtime failures. Commands that write a result folder put a ``manifest.json``
in it before any computation starts, so aborted runs are recognizable.
"""
from __future__ import annotations

import argparse
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

from . import __version__
from .baselines import ABLATION_CONDITIONS, STRATEGIES, map_jobs, worker_cap
from .engine import EngineConfig, RunReport, run_session
from .errors import ConfigurationError, NumericError, StreamParseError
from .metrics import average_accuracy, forgetting_matrix, read_records_csv, rolling_accuracy_curve, write_json
from .plots import accuracy_curve_svg, forgetting_heatmap_svg
from .stream import (
    DriftSchedule,
    GenerationReport,
    generate_drift_stream,
    load_concept_pool,
    parse_stream_with_sidecars,
    write_drift_sidecar,
    write_event_log,
    write_task_sidecar,
)
from .synthetic import builtin_processes, sample_pool

SWEEP_WINDOWS = (250, 500, 1000)
SWEEP_BUFFERS = (50, 100, 150)
SWEEP_THRESHOLDS = (0.2, 0.4, 0.5, 0.6, 0.8)

_TUPLE_KEYS = ("general_layers", "expert_layers")


# -- configuration ------------------------------------------------------------


def _coerce(key: str, text: str):
    text = text.strip()
    try:
        if key in _TUPLE_KEYS:
            return tuple(int(t) for t in text.split(",") if t.strip())
        if key == "curve_window":
            return None if text.lower() in ("", "none") else int(text)
        if key == "prompt_mode":
            return text
        default = getattr(EngineConfig(), key)
        return type(default)(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse {text!r} for engine setting {key!r}") from None


def load_engine_config(ini_path: str | None, overrides: list[str]) -> EngineConfig:
    """Defaults, then an optional [engine] ini section, then key=value overrides."""
    known = {f.name for f in dataclasses.fields(EngineConfig)}
    values: dict = {}
    if ini_path:
        parser = configparser.ConfigParser()
        read = parser.read(ini_path)
        if not read:
            raise ConfigurationError(f"config file {ini_path} not found")
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
        if f.name in _TUPLE_KEYS:
            text = ",".join(str(v) for v in value)
        elif value is None:
            text = "none"
        else:
            text = str(value)
        parser.set("engine", f.name, text)
    with open(path, "w") as fh:
        parser.write(fh)


# -- shared helpers -----------------------------------------------------------


def _prepare_outdir(path: Path, force: bool) -> Path:
    if path.exists():
        if not force:
            raise ConfigurationError(f"output {path} exists, pass --force to overwrite")
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir: Path, command: str, params: dict) -> None:
    manifest = {
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "params": params,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count() or 1,
        "CNAPWP_THREADS": os.environ.get("CNAPWP_THREADS"),
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
    """Parse the stream once, each sidecar from its flag or else from beside the stream."""
    base = Path(args.stream)

    def sidecar(flag: str | None, suffix: str):
        if flag is not None:
            return flag
        beside = base.with_suffix(suffix)
        return beside if beside.exists() else None

    return parse_stream_with_sidecars(
        args.stream, sidecar(args.drifts, ".drifts"), sidecar(args.tasks, ".tasks")
    )


def _require_drift_info(strategy_name: str, drift_source: str | None) -> None:
    strategy = STRATEGIES[strategy_name]
    if strategy.needs_drift_info and drift_source is None:
        raise ConfigurationError(
            f"strategy {strategy_name!r} needs drift positions; provide a drift column, "
            f"a .drifts sidecar, or --drifts"
        )


def _resolve_strategy(name: str):
    if name == "full":
        return STRATEGIES["cnapwp"]
    if name not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)} or 'full'")
    return STRATEGIES[name]


# -- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    builtin = builtin_processes()
    pools = {}
    for spec in args.pool:
        if "=" not in spec:
            raise ConfigurationError(f"--pool {spec!r} is not name=path.csv")
        name, path = spec.split("=", 1)
        pools[name.strip()] = load_concept_pool(path.strip())
    names = [n.strip() for n in args.concepts.split(",") if n.strip()]
    if not names:
        raise ConfigurationError("--concepts must name at least one concept")
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

    base = Path(args.out)
    if base.suffix == ".csv":
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    targets = [base.with_suffix(".csv"), base.with_suffix(".drifts"), base.with_suffix(".tasks")]
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
    print(f"wrote {report.events_emitted} events over {len(order)} segments to {targets[0]}")
    return 0


# -- run --------------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_engine_config(args.config, args.set)
    strategy = _resolve_strategy(args.strategy)
    stream, drift_source = _load_stream(args)
    _require_drift_info(strategy.name, drift_source)
    outdir = _prepare_outdir(Path(args.out), args.force)
    _write_manifest(
        outdir,
        "run",
        {
            "stream": str(args.stream),
            "strategy": strategy.name,
            "drift_source": drift_source,
            "engine": dataclasses.asdict(config),
        },
    )
    report = run_session(stream, config, strategy)
    report.save(outdir)
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
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag} {text!r} is not a comma-separated list of {kind.__name__} values"
        ) from None


def cmd_sweep(args) -> int:
    base = load_engine_config(args.config, args.set)
    strategy = _resolve_strategy(args.strategy)
    stream, drift_source = _load_stream(args)
    _require_drift_info(strategy.name, drift_source)
    windows = _parse_list(args.window, int, "--window")
    buffers = _parse_list(args.buffer, int, "--buffer")
    thresholds = _parse_list(args.threshold, float, "--threshold")
    workers = worker_cap(args.workers)
    outdir = _prepare_outdir(Path(args.out), args.force)
    grid = [
        {"window_size": window, "buffer_size": buffer, "threshold": threshold}
        for window, buffer, threshold in itertools.product(windows, buffers, thresholds)
    ]
    _write_manifest(
        outdir,
        "sweep",
        {
            "stream": str(args.stream),
            "strategy": strategy.name,
            "grid_size": len(grid),
            "windows": windows,
            "buffers": buffers,
            "thresholds": thresholds,
            "engine": dataclasses.asdict(base),
        },
    )
    jobs = [(stream, dataclasses.replace(base, **params), strategy, True) for params in grid]
    t0 = time.perf_counter()
    reports = map_jobs(run_session, jobs, workers)
    rows = [
        {"params": p, "average_accuracy": average_accuracy(r.records), "events": len(r.records)}
        for p, r in zip(grid, reports)
    ]
    rows.sort(key=lambda r: (-r["average_accuracy"], r["params"]["window_size"]))
    best = rows[0]
    aggregate = {
        "strategy": strategy.name,
        "evaluated_on": "validation_split",
        "wall_time_s": time.perf_counter() - t0,
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
    conditions = {}
    for name in names:
        if name in ABLATION_CONDITIONS:
            conditions[name] = ABLATION_CONDITIONS[name]
        elif name in STRATEGIES:
            conditions[name] = STRATEGIES[name]
        else:
            raise ConfigurationError(
                f"unknown condition {name!r}; choose from {sorted(set(ABLATION_CONDITIONS) | set(STRATEGIES))}"
            )
    seeds = _parse_list(args.seeds, int, "--seeds")
    configs = {seed: dataclasses.replace(base, seed=seed) for seed in seeds}  # validates each seed
    workers = worker_cap(args.workers)
    stream, drift_source = _load_stream(args)
    for name, strategy in conditions.items():
        _require_drift_info(strategy.name, drift_source)
    outdir = _prepare_outdir(Path(args.out), args.force)
    _write_manifest(
        outdir,
        "ablate",
        {
            "stream": str(args.stream),
            "conditions": list(conditions),
            "seeds": seeds,
            "drift_source": drift_source,
            "engine": dataclasses.asdict(base),
        },
    )
    keys = list(itertools.product(conditions, seeds))
    jobs = [(stream, configs[seed], conditions[name]) for name, seed in keys]
    t0 = time.perf_counter()
    reports = map_jobs(run_session, jobs, workers)

    per_condition: dict[str, list[RunReport]] = {name: [] for name in conditions}
    for (name, seed), report in zip(keys, reports):
        report.save(outdir / name / f"seed{seed}")
        per_condition[name].append(report)
    aggregate = {"seeds": seeds, "conditions": {}, "wall_time_s": time.perf_counter() - t0}
    for name, reports in per_condition.items():
        accs = [r.summary()["average_accuracy"] for r in reports]
        deltas = [r.forgetting().mean_positive_delta for r in reports]
        times = [r.summary()["time_per_event_ms"]["mean"] for r in reports]
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
        summary = json.loads(path.read_text())
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


def cmd_report(args) -> int:
    run_dirs = [Path(d) for d in args.runs]
    for d in run_dirs:
        if not (d / "records.csv").exists():
            raise ConfigurationError(f"{d} has no records.csv")
    outdir = _prepare_outdir(Path(args.out), args.force)
    _write_manifest(outdir, "report", {"runs": [str(d) for d in run_dirs]})
    curves = {}
    lines = []
    for d in run_dirs:
        records = read_records_csv(d / "records.csv")
        summary = _read_summary(d / "summary.json")
        strategy = summary.get("strategy", d.name)
        label = f"{strategy}:{d.name}" if len(run_dirs) > 1 else strategy
        config = summary.get("config", {})
        window = config.get("curve_window") or config.get("window_size", 250)
        curves[label] = rolling_accuracy_curve(records, int(window))
        matrix = forgetting_matrix(records, summary.get("drift_indices"), summary.get("task_labels") or None)
        safe = label.replace("/", "_").replace(":", "_")
        forgetting_heatmap_svg(matrix, outdir / f"forgetting_{safe}.svg")
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
    ablate.add_argument("--conditions", default="no_prompt,g_only,e_only,full")
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


if __name__ == "__main__":
    sys.exit(main())
