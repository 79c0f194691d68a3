#!/usr/bin/env python3
"""cnapwp benchmark: online throughput, update-stall latency and set-up time.

    python3 perfbench/run.py --workload recurrent-prompt --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 11

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. One process runs one workload (``all``
starts one child process per workload). It repeats whole sessions until the
next one would overrun ``--seconds`` (at least one), prints every metric with
its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` the
metrics are the per-layer numbers from traced sessions, each paired with an
untraced session that gives the tracing overhead.
"""
from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy loads, so one workload fits one CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("recurrent-prompt", "predict-only", "wide-prefix")
MIN_SETUPS = 3

# The gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END = {
    "events_per_s": "ev/s",
    "service_ms_p50": "ms",
    "due_ms_p99": "ms",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's ``src/`` first on the path; refuse any other cnapwp."""
    if not (SRC / "cnapwp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cnapwp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cnapwp

    if Path(cnapwp.__file__).resolve().parent != SRC / "cnapwp":
        raise SystemExit(f"perfbench: imported cnapwp from {cnapwp.__file__}, not from {SRC}")


def line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<48} {value:>14.6g} {unit:<6} ({note})"


def measure(workload, inputs, seconds: float, trace: bool, workdir: Path):
    """Alternate untraced (and, when tracing, traced) sessions until the budget is spent.

    The host-speed calibration is timed before and after each untraced session;
    the slower of the two is the session's."""
    from harness import calibrate, clock, run_session
    from tracer import Tracer, layer_metrics

    untraced, traced, layers = [], [], []
    first_tracer = None
    start = clock()
    while True:
        k = len(untraced)
        before = calibrate()
        session = run_session(workload, inputs, workdir / f"untraced{k}")
        session.calibration_s = max(before, calibrate())
        untraced.append(session)
        if trace:
            tracer = Tracer()
            with tracer:
                traced.append(run_session(workload, inputs, workdir / f"traced{k}", tracer))
            layers.append(layer_metrics(tracer.spans))
            if first_tracer is None:
                first_tracer = tracer
        if any(s.problems for s in untraced + traced):
            break
        elapsed = clock() - start
        if elapsed + elapsed / len(untraced) > seconds:
            break
    return untraced, traced, layers, first_tracer


def extra_setups(workload, inputs, count: int) -> list[float]:
    """Time ``count`` set-ups with no measured pass after them (none if count <= 0)."""
    from harness import clock, set_up

    times = []
    for _ in range(count):
        t0 = clock()
        set_up(workload, inputs)
        times.append(clock() - t0)
    return times


def run_one(args) -> int:
    import_package()
    import harness
    from harness import Inputs, check_inputs, fast_sessions, median, open_loop_latencies, percentile
    from workloads import WORKLOADS, write_stream_files

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        problems = check_inputs(workload, workdir / "seed7")
        stream = workload.make_stream(args.seed)
        csv_path, drifts_path, tasks_path = write_stream_files(stream, workdir / "input")
        inputs = Inputs(csv_path, drifts_path, tasks_path, args.seed, len(stream.events))
        sessions, traced, layers, tracer = measure(workload, inputs, args.seconds, bool(args.trace), workdir)
        kept = fast_sessions(sessions)
        setups = [s.setup_s for s in kept]
        if not args.trace and not any(s.problems for s in sessions):
            setups += extra_setups(workload, inputs, MIN_SETUPS - len(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in harness.machine_facts(ROOT).items():
        print(f"  {key}: {value}")

    everything = sessions + traced
    reference = sessions[0].digest
    attempted = sum(s.attempted for s in everything)
    failed = 0
    for k, s in enumerate(everything):
        kind = "traced" if k >= len(sessions) else "untraced"
        problems += [f"{kind} session {k % len(sessions)}: {p}" for p in s.problems]
        if s.completed == s.attempted and s.digest != reference:
            problems.append(f"{kind} session {k % len(sessions)}: records digest {s.digest[:16]} != {reference[:16]}")
            failed += s.attempted
        else:
            failed += s.attempted - s.completed
    golden = "n/a (golden digest is for seed 7)"
    if args.seed == 7 and workload.golden_seed7:
        golden = "matches" if reference == workload.golden_seed7 else f"differs from {workload.golden_seed7}"
    print(f"  records digest: {reference} (seed-7 golden: {golden})")
    print(f"  sessions: {len(sessions)} untraced, {len(traced)} traced; {sessions[0].attempted} measured events each")
    for k, s in enumerate(sessions):
        verdict = "used" if any(s is t for t in kept) else "not used: host slow"
        print(f"  untraced session {k}: calibration {1e3 * s.calibration_s:.2f} ms, {s.events_per_s:.1f} ev/s ({verdict})")
    for p in problems:
        print(f"  PROBLEM {p}")
    correct = not problems

    metrics = {}
    if correct and not args.trace:
        # Each timing is its best value over the sessions the host did not slow
        # down: host slowdowns only ever add time, and on a shared host the best
        # of several sessions varied far less from run to run than their median
        # or their pooled events did.
        best = f"best of {len(kept)} sessions of {sessions[0].attempted} events"
        values = {
            "events_per_s": (max(s.events_per_s for s in kept), best),
            "service_ms_p50": (1e3 * min(percentile(s.service_s, 50) for s in kept), best),
            "due_ms_p99": (
                1e3 * min(percentile(open_loop_latencies(s.service_s, workload.rate), 99) for s in kept),
                f"{best}, open loop at {workload.rate:g} ev/s",
            ),
            "setup_s": (median(setups), f"median of {len(setups)} set-ups"),
            "run_s": (min(s.run_s for s in kept), best),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss of this process"),
        }
        for name, unit in END_TO_END.items():
            value, note = values[name]
            print(line(name, value, unit, note))
            metrics[name] = {"value": value, "unit": unit}
        n = sessions[0].attempted
        p99 = 1e3 * min(percentile(s.service_s, 99) for s in kept)
        print(line("service_ms_p99", p99, "ms", f"{best}; not gated"))
        print(line("accuracy", sessions[0].accuracy, "ratio", f"n={n} events; deterministic, not gated"))
        print(line("forgetting", sessions[0].forgetting, "ratio", "mean positive delta; deterministic, not gated"))
        print(line("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} events; gated as 'failed'"))
    elif correct:
        untraced_eps = max(s.events_per_s for s in sessions)
        traced_eps = max(s.events_per_s for s in traced)
        per_layer = {k: median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_pct"] = 100.0 * (untraced_eps / traced_eps - 1.0)
        for name, value in per_layer.items():
            unit = layer_unit(name)
            print(line(name, value, unit, f"median of {len(layers)} traced sessions"))
            metrics[name] = {"value": value, "unit": unit}
        for name in tracer.absent:
            print(f"  absent (not wrapped): {name}")
        trace_path = OUT / "traces" / f"{workload.name}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"  spans of the first traced session: {trace_path.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and BLAS state belong to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
