#!/usr/bin/env python3
"""One benchmark process: set up a workload, then measure or trace it.

`run.py` starts this file with `src/` on PYTHONPATH. It prints `READY` the
moment set-up is done (the parent times process start to that line as
set-up time) and, unless `--phase setup`, one `RESULT <json>` line at the
end. All scratch files live in a temporary directory under the checkout's
`.bench_work/`, removed on exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibration
import kernels
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]

# Words per symbol size for the RS kernel table.
KERNEL_WORDS = {"full": {3: 300, 5: 60, 6: 30, 8: 6}, "tiny": {3: 10, 5: 4, 6: 2, 8: 1}}
COLD_REPEATS = 3

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import biosketch; "
                 "print(time.perf_counter() - t)")


def _run_op(workload, i, times, tracer=None) -> tuple[str | None, float, bool]:
    """Run and time op i; an exception is a failed op, reported on stderr."""
    if tracer is not None:
        tracer.request_id = i
    t0 = time.perf_counter()
    try:
        kind, ok = workload.op(i)
    except Exception:
        traceback.print_exc()
        return None, 0.0, False
    elapsed = time.perf_counter() - t0
    times[kind].append(elapsed)
    return kind, elapsed, ok


def measure(workload, seconds: float):
    """Closed loop, one client: ops back to back until `seconds` have passed.

    Returns raw op times by kind, the primary ops' times at reference speed,
    the run's speed factor (reference over median loop time), and the
    attempted and failed counts. The calibration loop runs between ops, at
    most every `calibration.EVERY_S`.
    """
    times = defaultdict(list)
    timeline = [calibration.probe()]  # loop seconds, or (kind, op seconds)
    attempted = failed = 0
    start = last_cal = time.perf_counter()
    while True:
        now = time.perf_counter()
        elapsed = now - start
        enough = len(times[workload.primary]) >= workload.min_ops
        if elapsed >= seconds and (enough or elapsed >= 3 * seconds):
            break
        if now - last_cal >= calibration.EVERY_S:
            timeline.append(calibration.probe())
            last_cal = time.perf_counter()
        kind, op_s, ok = _run_op(workload, attempted, times)
        timeline.append((kind, op_s))
        attempted += 1
        failed += not ok
    timeline.append(calibration.probe())
    loops = [event for event in timeline if isinstance(event, float)]
    speed = calibration.REF_S / statistics.median(loops)
    return (times, _at_reference_speed(timeline, workload.primary), speed,
            attempted, failed)


def _at_reference_speed(timeline, kind) -> list[float]:
    """Each op of `kind`, scaled by the calibrations just before and after it."""
    nearest_after = [0.0] * len(timeline)
    after = 0.0
    for j in range(len(timeline) - 1, -1, -1):
        if isinstance(timeline[j], float):
            after = timeline[j]
        nearest_after[j] = after
    scaled = []
    before = 0.0
    for j, event in enumerate(timeline):
        if isinstance(event, float):
            before = event
        elif event[0] == kind:
            scaled.append(calibration.at_reference(event[1], before, nearest_after[j]))
    return scaled


def run_fixed(workload, n_ops: int, tracer=None) -> tuple[float, int]:
    """Ops 0..n_ops-1; returns the elapsed seconds and the failed count."""
    times = defaultdict(list)
    failed = 0
    start = time.perf_counter()
    for i in range(n_ops):
        failed += not _run_op(workload, i, times, tracer)[2]
    return time.perf_counter() - start, failed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cold_process_times() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and median in-process import time."""
    bare, imports = [], []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(bare), statistics.median(imports)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
    }


def run_timed(workload, seconds: float) -> dict:
    times, scaled, speed, attempted, failed = measure(workload, seconds)
    checks = workload.verify()
    primary = times[workload.primary]
    if not primary:
        raise RuntimeError(f"no {workload.primary} op completed")
    tail, pct = workloads.tail_of(primary)
    named = workload.named(times)
    named.update(op_count=len(primary),
                 op_p50_ms=statistics.median(primary) * 1e3,
                 ops_per_s=len(primary) / sum(primary),
                 op_tail_ms=tail * 1e3, op_tail_percentile=pct, speed_factor=speed)
    return {
        "attempted": attempted + len(checks),
        "failed": failed + checks.count(False),
        "metrics": {
            "op_p50_ref_ms": statistics.median(scaled) * 1e3,
            "ops_per_ref_s": len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss_mb(),
        },
        "named": named,
    }


def run_traced(workload, tracer, seed: int, size: str) -> dict:
    """Same fixed work untraced, then traced; the traced half gives the layers."""
    n_ops = workload.traced_ops
    untraced_s, failed = run_fixed(workload, n_ops)
    untraced_outputs = workload.outputs
    workload.reset()
    installation = tracing.install(tracer)
    try:
        traced_s, traced_failed = run_fixed(workload, n_ops, tracer)
    finally:
        installation.uninstall()
    attempted = 2 * n_ops + 1
    failed += traced_failed + (workload.outputs != untraced_outputs)

    metrics = tracing.layer_metrics(tracer)
    table, wrong = kernels.kernel_table(seed, KERNEL_WORDS[size])
    metrics.update(table)
    attempted += 1
    failed += wrong > 0
    metrics["cli.interpreter_s"], metrics["cli.import_s"] = cold_process_times()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    checks = workload.verify()
    return {
        "attempted": attempted + len(checks),
        "failed": failed + checks.count(False),
        "metrics": metrics,
        "named": {"traced_ops": n_ops, "untraced_s": untraced_s, "traced_s": traced_s,
                  "largest_self_layer": tracing.largest_layer(metrics)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    sizes = (workloads.FULL if args.size == "full" else workloads.TINY)[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        tracer = tracing.Tracer() if args.trace else None
        installation = tracing.install(tracer) if tracer else None
        try:
            workload = cls(args.seed, sizes, workdir, in_process=bool(args.trace))
        finally:
            if installation:
                installation.uninstall()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0
        if tracer:
            result = run_traced(workload, tracer, args.seed, args.size)
        else:
            result = run_timed(workload, args.seconds)
        result["facts"] = machine_facts()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
