#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised per metric.

    python scripts/ab_bench.py PARENT CHANGE --workload far-mc --seeds 1,2 --pairs 5
    python scripts/ab_bench.py PARENT CHANGE --workload far-mc,matcher-m8,cli-auth

runs ``<checkout>/benchmarks/run.py --trace 0`` once for each checkout per
pair and workload, the parent first in even pairs and the change first in
odd ones, so that a drift of the machine's speed falls on both sides.
``--workload`` takes one workload, a comma-separated list, or ``all`` for
every workload BENCHMARK.json declares; each pair runs every listed
workload, one ``run.py`` process per side and workload. For each workload,
and within it for every seed and for all seeds together, it prints one
line per end-to-end metric: the parent's and the change's medians, their
ratio, the pairs in which the change was better, the interquartile range
of the parent's runs, and a verdict, with the metric's direction and
relative bound read from BENCHMARK.json:

* ``gain``: the change wins at least 9 pairs in 10 and its median is
  better by more than the parent's interquartile range;
* ``worse``: the change's median is worse by more than the bound;
* ``unresolved``: the parent's interquartile range is wider than the bound
  and not every change run beats every parent run;
* ``flat``: none of these.

Each table ends with the failed and attempted operations of each side.

The defaults, two seeds of 5 pairs, give the 10 pairs a gain needs. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end(path: Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """Metric name -> ("lower" or "higher", relative bound), from the
    end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"])
            for m in json.loads(path.read_text())["end_to_end"]}


def workloads(value: str, path: Path = BENCHMARK) -> list[str]:
    """The workloads a ``--workload`` value names: ``all`` is every workload
    of BENCHMARK.json, anything else a comma-separated list."""
    if value == "all":
        return [w["name"] for w in json.loads(path.read_text())["workloads"]]
    return value.split(",")


def schedule(seeds: list[int], pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) of every pair: parent first in even pairs."""
    orders = (("parent", "change"), ("change", "parent"))
    return [(seed, orders[i % 2]) for seed in seeds for i in range(pairs)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``run.py`` run of ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change beats the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``flat`` for paired runs of
    one metric, by the rules in the module docstring."""
    sign = 1 if better == "lower" else -1
    base, moved = statistics.median(parent), statistics.median(change)
    iqr = _iqr(parent)
    if 10 * _wins(parent, change, better) >= 9 * len(parent) and sign * (base - moved) > iqr:
        return "gain"
    if sign * (moved - base) > bound * base:
        return "worse"
    if iqr > bound * base and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "flat"


def summarize(pairs: list[tuple[dict, dict]],
              metrics: dict[str, tuple[str, float]]) -> list[dict]:
    """One row per metric of (parent, change) result lines taken in pairs."""
    rows = []
    for name, (better, bound) in metrics.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        rows.append({
            "metric": name,
            "parent": statistics.median(parent),
            "change": statistics.median(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "wins": _wins(parent, change, better),
            "pairs": len(pairs),
            "parent_iqr": _iqr(parent),
            "verdict": verdict(parent, change, better, bound),
        })
    return rows


def _failed(runs: list[dict]) -> str:
    """failed/attempted operations over result lines: runs of the same
    length attempt different counts, so the share is what compares."""
    return f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"


def format_rows(rows: list[dict], failed: tuple[str, str]) -> str:
    lines = [f"  {'metric':<16} {'parent':>10} {'change':>10} {'ratio':>7} "
             f"{'wins':>6} {'parent IQR':>11}  verdict"]
    for r in rows:
        lines.append(f"  {r['metric']:<16} {r['parent']:>10.4g} {r['change']:>10.4g} "
                     f"{r['ratio']:>7.3f} {r['wins']:>3}/{r['pairs']:<2} "
                     f"{r['parent_iqr']:>11.4g}  {r['verdict']}")
    lines.append(f"  failed/attempted ops: parent {failed[0]}, change {failed[1]}")
    return "\n".join(lines)


def report(results: list[tuple[int, dict, dict]],
           metrics: dict[str, tuple[str, float]]) -> str:
    """Tables per seed, then over all seeds when there are several."""
    seeds = sorted({seed for seed, _, _ in results})
    groups = [(f"seed {s}", [(p, c) for seed, p, c in results if seed == s]) for s in seeds]
    if len(seeds) > 1:
        groups.append(("all seeds", [(p, c) for _, p, c in results]))
    blocks = []
    for title, pairs in groups:
        failed = (_failed([p for p, _ in pairs]), _failed([c for _, c in pairs]))
        blocks.append(f"{title}, {len(pairs)} pairs\n"
                      + format_rows(summarize(pairs, metrics), failed))
    return "\n".join(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or all")
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=5, help="pairs per seed")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = workloads(args.workload)
    results = {name: [] for name in names}
    for seed, order in schedule([int(s) for s in args.seeds.split(",")], args.pairs):
        for name in names:
            run = {side: run_once(checkouts[side], name, seed, args.seconds)
                   for side in order}
            print(f"{name} seed {seed} ({order[0]} first): op_p50_ref_ms "
                  f"{run['parent']['metrics']['op_p50_ref_ms']['value']:.4g} -> "
                  f"{run['change']['metrics']['op_p50_ref_ms']['value']:.4g}",
                  file=sys.stderr, flush=True)
            results[name].append((seed, run["parent"], run["change"]))
    metrics = end_to_end()
    for name in names:
        print(f"workload {name}, {args.seconds:g} s per run")
        print(report(results[name], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
