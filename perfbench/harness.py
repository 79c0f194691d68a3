"""Timed sessions through the package's public API, and the numbers drawn from them.

A session is what ``cnapwp run`` does, split into stages the benchmark times
with its own clock (never the program's ``timings.csv``):

* set-up: parse the CSV and sidecars, split off the warm-up stream, build
  the engine, ``prepare`` it and run the warm-up pass;
* measured pass: one ``process_event`` call per measured event, each sent when
  the previous one returned (a closed loop);
* report: build a ``RunReport`` and ``save`` it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cnapwp
from cnapwp import engine as engine_mod
from cnapwp import stream as stream_mod
from cnapwp.baselines import STRATEGIES
from cnapwp.metrics import average_accuracy, read_records_csv

from workloads import Workload, inputs_digest, write_stream_files

clock = time.perf_counter
STRATEGY = STRATEGIES["cnapwp"]


@dataclass
class Session:
    """One session's timings and outputs. A session with ``problems`` failed;
    ``attempted - completed`` events were never processed."""

    attempted: int
    completed: int = 0
    setup_s: float = 0.0
    measure_s: float = 0.0
    run_s: float = 0.0
    service_s: list[float] = field(default_factory=list)
    digest: str = ""
    calibration_s: float = 0.0
    accuracy: float = 0.0
    forgetting: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        return self.completed / self.measure_s


@dataclass(frozen=True)
class Inputs:
    """A generated stream on disk: CSV, sidecars, the seed and its event count."""

    csv: Path
    drifts: Path
    tasks: Path
    seed: int
    events: int


def set_up(workload: Workload, inputs: Inputs):
    """Parse, split, construct, prepare and warm up; returns (engine, measured stream)."""
    config = workload.make_config(inputs.seed)
    stream, _ = stream_mod.parse_stream_with_sidecars(inputs.csv, inputs.drifts, inputs.tasks)
    warm, measured = stream_mod.split_validation(stream, config.validation_fraction)
    engine = engine_mod.OnlineEngine(config, STRATEGY)
    engine.prepare(warm)
    engine.consume(warm, record=False)
    return engine, measured


def run_session(workload: Workload, inputs: Inputs, outdir: Path, tracer=None) -> Session:
    """Run one full session; an exception ends it and leaves the rest of its events failed."""
    if tracer is not None:
        tracer.stage = "setup"
    t0 = clock()
    try:
        engine, measured = set_up(workload, inputs)
    except Exception:
        traceback.print_exc()
        warm = int(workload.make_config(inputs.seed).validation_fraction * inputs.events)
        return Session(attempted=inputs.events - warm, problems=["set-up raised"])
    t_setup = clock()
    session = Session(attempted=len(measured.events), setup_s=t_setup - t0)
    drift_set = set(measured.drift_indices)
    records = []
    service = session.service_s
    if tracer is not None:
        tracer.stage = "measure"
    try:
        for i, event in enumerate(measured.events):
            a = clock()
            records.append(engine.process_event(event, i, is_drift=i in drift_set))
            service.append(clock() - a)
        t_measured = clock()
        if tracer is not None:
            tracer.stage = "report"
        report = engine_mod.RunReport(
            strategy=engine.strategy.name,
            records=records,
            drift_indices=measured.drift_indices,
            task_labels=measured.task_labels,
            curve_window=engine.config.curve_window or engine.config.window_size,
            task_store=engine.task_store_snapshot(),
            config=engine.config,
            total_runtime_s=t_measured - t0,
        )
        report.save(outdir)
        t_end = clock()
    except Exception:
        traceback.print_exc()
        session.completed = len(service)
        session.problems.append(f"raised after {len(service)} of {session.attempted} events")
        return session
    session.completed = len(records)
    session.measure_s = t_measured - t_setup
    session.run_s = t_end - t0
    session.digest = hashlib.sha256((outdir / "records.csv").read_bytes()).hexdigest()
    summary = json.loads((outdir / "summary.json").read_text())
    session.accuracy = summary["average_accuracy"]
    session.forgetting = summary["mean_positive_delta"]
    session.problems.extend(check_records(records, measured, workload, session.accuracy))
    session.problems.extend(check_saved_records(records, outdir / "records.csv"))
    return session


def check_saved_records(records, path: Path) -> list[str]:
    """``records.csv`` must read back as the records in memory (all fields but latency)."""
    saved = read_records_csv(path)
    if len(saved) != len(records):
        return [f"records.csv holds {len(saved)} rows for {len(records)} records"]
    for rec, back in zip(records, saved):
        if dataclasses.replace(rec, latency_ns=0) != back:
            return [f"records.csv row for record {rec.index} reads back as {back}"]
    return []


def check_inputs(workload: Workload, directory: Path) -> list[str]:
    """The package's generator must still write the workload's seed-7 files byte for byte."""
    digest = inputs_digest(write_stream_files(workload.make_stream(7), directory))
    if digest != workload.inputs_seed7:
        return [f"seed-7 input files hash to {digest[:16]}, not {workload.inputs_seed7[:16]}: the stream generator changed"]
    return []


def check_records(records, measured, workload: Workload, reported_accuracy: float) -> list[str]:
    """Records must describe the measured events in order, score them consistently,
    and agree with the accuracy the saved summary reports."""
    problems = []
    if len(records) != len(measured.events):
        problems.append(f"{len(records)} records for {len(measured.events)} events")
    for i, (rec, event) in enumerate(zip(records, measured.events)):
        if rec.index != i or rec.case_id != event.case_id or rec.y != event.activity:
            problems.append(f"record {i} does not describe event {i}")
            break
        if rec.correct != (rec.y == rec.y_hat):
            problems.append(f"record {i} scores {rec.y_hat!r} vs {rec.y!r} as correct={rec.correct}")
            break
    accuracy = average_accuracy(records)
    if accuracy != reported_accuracy:
        problems.append(f"summary reports accuracy {reported_accuracy} but records give {accuracy}")
    if accuracy < workload.min_accuracy:
        problems.append(f"accuracy {accuracy:.4f} below the workload's floor {workload.min_accuracy}")
    return problems


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def open_loop_latencies(service_s, rate: float) -> list[float]:
    """Replay closed-loop service times as an open loop at a fixed arrival rate.

    Event i is due at i / rate, starts when it is due or when the previous
    event finishes, whichever is later, and its latency is finish minus due,
    so one stall delays every event queued behind it.
    """
    latencies = []
    finish = 0.0
    for i, service in enumerate(service_s):
        due = i / rate
        finish = max(due, finish) + service
        latencies.append(finish - due)
    return latencies


# -- host speed ---------------------------------------------------------------

_CALIBRATION_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
# Sessions whose calibration is more than this much slower than the run's
# fastest ran while the host was slow; their timings are printed, not used.
CALIBRATION_TOLERANCE = 0.10


def calibrate() -> float:
    """Seconds for a fixed kernel like the engine's inner loop (small matmuls,
    softmax, Python calls); the fastest of three tries.

    Timed around each session, it shows when the host itself ran slowly: on a
    shared 2-vCPU machine it took 19-22 ms in the host's fast state and
    28-36 ms in its slow one, in CPU time as well as wall time.
    """
    a = _CALIBRATION_MATRIX
    best = math.inf
    for _ in range(3):
        t0 = clock()
        acc = 0.0
        for _ in range(2000):
            z = a @ a.T
            z = np.exp(z - z.max(axis=1, keepdims=True))
            acc += float((z / z.sum(axis=1, keepdims=True))[0, 0])
        best = min(best, clock() - t0)
    return best


def fast_sessions(sessions: list[Session]) -> list[Session]:
    """Sessions whose calibration is within ``CALIBRATION_TOLERANCE`` of the run's fastest."""
    fastest = min(s.calibration_s for s in sessions)
    return [s for s in sessions if s.calibration_s <= fastest * (1.0 + CALIBRATION_TOLERANCE)]


# -- machine facts ------------------------------------------------------------


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _cgroup_quota() -> str:
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        return "unreadable"
    return "none" if quota == "max" else f"{int(quota) / int(period):g} CPUs"


def _git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text().strip()[:12]
        return text[:12]
    except OSError:
        return "unknown"


def machine_facts(root: Path) -> dict[str, str]:
    nproc = os.cpu_count() or 1
    return {
        "nproc": str(nproc),
        "cgroup_cpu_quota": _cgroup_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "CNAPWP_THREADS": os.environ.get("CNAPWP_THREADS", "unset"),
        "cnapwp": cnapwp.__version__,
        "git_revision": _git_revision(root),
        "note": f"numbers come from a shared {nproc}-CPU machine; compare runs on the same machine only",
    }
