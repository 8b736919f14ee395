#!/usr/bin/env python3
"""Benchmark of biosketch: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload gs-sweep --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its `src/`. With `--trace 0` the run reports the
end-to-end metrics, with `--trace 1` the per-layer ones (see README.md).
Each workload runs in worker processes of its own: a few that only set up,
to time set-up from process start, then one that measures. The last line of
standard output is one JSON object; a copy of the result, with machine
facts and provenance, goes to `.bench_results/` in the checkout. Exits 0
when a result was printed, 2 when the checkout has no `src/biosketch`, and
3 when a worker failed to produce a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import PER_LAYER  # stdlib only; biosketch loads in the workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("gs-sweep", "far-mc", "matcher-m8", "cli-auth")

# End-to-end metrics of a `--trace 0` run: (name, unit, better). On each
# workload "op" is its user-facing request: gs-sweep one full sweep, far-mc
# one round of FAR batches, matcher-m8 one auth request, cli-auth one cold
# process. Op times are scaled to a reference machine speed (calibration.py);
# the raw times and the op tail are printed and stored beside them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ref_ms", "ms", "lower"),
    ("ops_per_ref_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = {"full": 4, "tiny": 1}
# One thread per process. With the default of one BLAS thread per core, the
# BLAS threads keep spinning after each product and slow the Python thread
# sharing their core, which made op times swing by 30% between runs.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                **BLAS_THREADS)


def _spawn(cmd: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run a worker; return seconds from start to its READY line, and its RESULT."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready is None:
        raise BenchError(f"worker exited with status {rc}: {' '.join(cmd[2:])}")
    return ready, result


def _provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "biosketch").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    warm = subprocess.run([sys.executable, "-c", "import biosketch"], env=_child_env(),
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if warm.returncode != 0:
        raise BenchError("cannot import biosketch from src/")
    base = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    setup_samples = []
    if not trace:
        for _ in range(SETUP_PROBES[size]):
            setup_samples.append(_spawn(base + ["--phase", "setup"], deadline)[0])
    ready, result = _spawn(base + ["--phase", "run"], deadline)
    if result is None:
        raise BenchError(f"{name}: worker printed no result")
    if not trace:
        # Set-up runs a few seconds before the measured ops, so the speed
        # factor of the measuring run (see calibration.py) scales it too.
        setup_samples.append(ready)
        setup_raw = statistics.median(setup_samples)
        result["metrics"]["setup_s"] = setup_raw * result["named"]["speed_factor"]
        result["named"]["setup_raw_s"] = setup_raw
        result["named"]["setup_samples_s"] = setup_samples
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace, size=size,
                  provenance=_provenance(seed))
    return result


def _units(trace: int) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _ in END_TO_END}


def _print_block(result: dict, units: dict[str, str]):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  size {result['size']}")
    for name, unit in units.items():
        print(f"  {name:<36} {result['metrics'][name]!r} {unit}")
    for name, value in result["named"].items():
        print(f"  {name:<36} {value!r}")
    print(f"  {'fail_ratio':<36} {result['failed']}/{result['attempted']} failed/attempted")
    print(f"  facts {json.dumps(result['facts'], sort_keys=True)}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-scale inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biosketch" / "__init__.py").is_file():
        print(f"error: no src/biosketch under {ROOT}; run from a biosketch checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    units = _units(args.trace)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        args.size, deadline))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    for result in results:
        missing = set(units) - set(result["metrics"])
        if missing:
            print(f"error: {result['workload']} did not report {sorted(missing)}",
                  file=sys.stderr)
            return 3
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        _print_block(result, units)

    def metric(result, name):
        return {"value": result["metrics"][name], "unit": units[name]}

    if len(results) == 1:
        metrics = {name: metric(results[0], name) for name in units}
    else:
        metrics = {f"{r['workload']}.{name}": metric(r, name)
                   for r in results for name in units}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
