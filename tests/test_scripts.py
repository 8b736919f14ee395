"""Smoke runs of the command-line scripts under ``scripts/``.

Each script runs in a fresh interpreter with ``src`` on the path in place
of an installed package, on inputs small enough for a second or two. The
pinned GAR-security sweep runs in-process at its full default size.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

from biosketch.evaluate import GS_CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )


def test_check_far_law_runs(tmp_path):
    proc = run_script("check_far_law.py", "--trials", "2000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:4]]
    assert [row[0] for row in rows] == ["3", "6", "9"]
    assert "zero-effort FAR" in proc.stdout


def test_run_gs_experiment_writes_one_row_per_k(tmp_path):
    out_dir = tmp_path / "out"
    proc = run_script(
        "run_gs_experiment.py", "--m", "3", "--subjects", "6", "--samples", "4",
        "--out-dim", "64", "--securities", "3,6", "--out-dir", str(out_dir),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for fusion_mode in ("fca", "bla"):
        lines = (out_dir / f"gs_curve_m3_{fusion_mode}.csv").read_text().splitlines()
        assert lines[0] == GS_CSV_HEADER
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]


# SHA-256 of the CSVs of ``run_gs_experiment.py --m 5`` at its defaults:
# population seed 20260811, config seed 101, out_dim 1024, securities
# 55/80/100. Any change to these bytes is a change of behaviour.
PINNED_GS_CSVS = {
    "fca": "67f40841d18234329586b31bbcfcbfb60596cc729c2ba5b687c341dfd884d7de",
    "bla": "006486461e28bbd5d8785be3589e48c9fe4d1bbd5d6821cd744a3785021d0749",
}


def test_run_gs_experiment_matches_pinned_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "run_gs_experiment.py", "--m", "5", "--out-dir", str(tmp_path)])
    runpy.run_path(str(ROOT / "scripts" / "run_gs_experiment.py"), run_name="__main__")
    capsys.readouterr()
    digests = {
        mode: hashlib.sha256((tmp_path / f"gs_curve_m5_{mode}.csv").read_bytes()).hexdigest()
        for mode in PINNED_GS_CSVS
    }
    assert digests == PINNED_GS_CSVS


def test_code_lines_counts_code_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (x +\n"
        "            1)\n"
        "\n"
        "\n"
        "TEXT = '''not a\n"
        "docstring'''\n"
    )
    (package / "empty.py").write_text("")
    proc = run_script("code_lines.py", str(package), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "     0 empty.py",
        "     6 mod.py",
        "     6 total",
    ]


def _result_line(op_ms, ops_per_s, failed=0):
    """A ``benchmarks/run.py`` result line with two metrics."""
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "op_p50_ref_ms": {"value": op_ms, "unit": "ms"},
        "ops_per_ref_s": {"value": ops_per_s, "unit": "1/s"}}}


def test_ab_bench_summarizes_pairs_without_running_them():
    ab = runpy.run_path(str(ROOT / "scripts" / "ab_bench.py"))
    assert ab["schedule"]([1, 2], 3) == [
        (seed, order) for seed in (1, 2) for order in (
            ("parent", "change"), ("change", "parent"), ("parent", "change"))]
    better = {"op_p50_ref_ms": ("lower", 0.25), "ops_per_ref_s": ("higher", 0.25)}
    pairs = [(_result_line(p, 1000 / p), _result_line(c, 1000 / c, failed=f))
             for p, c, f in [(10.0, 9.0, 0), (12.0, 9.5, 0), (11.0, 11.5, 1), (14.0, 10.0, 0)]]
    rows = {row["metric"]: row for row in ab["summarize"](pairs, better)}
    op = rows["op_p50_ref_ms"]
    assert (op["parent"], op["change"], op["wins"], op["pairs"]) == (11.5, 9.75, 3, 4)
    assert op["ratio"] == 9.75 / 11.5
    assert op["parent_iqr"] == 12.5 - 10.75
    assert rows["ops_per_ref_s"]["wins"] == 3
    # 3 wins in 4 pairs is short of 9 in 10, and the parent's spread is
    # within the bound.
    assert op["verdict"] == rows["ops_per_ref_s"]["verdict"] == "flat"
    text = ab["report"]([(1, p, c) for p, c in pairs[:2]] + [(2, p, c) for p, c in pairs[2:]],
                        better)
    titles = [line for line in text.splitlines() if not line.startswith(" ")]
    assert titles == ["seed 1, 2 pairs", "seed 2, 2 pairs", "all seeds, 4 pairs"]
    assert text.splitlines()[-1] == "  failed/attempted ops: parent 0/40, change 1/40"
    assert "  failed/attempted ops: parent 0/20, change 0/20" in text.splitlines()  # seed 1
    assert "0.848" in text  # the pooled op_p50_ref_ms ratio
    metrics = ab["end_to_end"]()
    assert set(metrics) == {"setup_s", "op_p50_ref_ms", "ops_per_ref_s", "peak_rss_mb"}
    assert metrics["op_p50_ref_ms"] == ("lower", 0.25)
    assert metrics["peak_rss_mb"] == ("lower", 0.1)
    assert "--pairs 5" in ab["__doc__"]


# A stand-in for ``benchmarks/run.py``: it logs each call and prints a
# result line whose op_p50_ref_ms is its workload's base, 10% less in the
# checkout named "change".
FAKE_RUN = """import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
checkout = Path(__file__).resolve().parents[1]
with open(checkout.parent / "calls.txt", "a") as log:
    log.write(f"{checkout.name} {args['--workload']} {args['--seed']}\\n")
ms = {"far-mc": 7.0, "cli-auth": 300.0}[args["--workload"]]
ms *= 0.9 if checkout.name == "change" else 1.0
values = {"setup_s": 0.5, "op_p50_ref_ms": ms, "ops_per_ref_s": 1000 / ms,
          "peak_rss_mb": 40.0}
print("workload", args["--workload"])
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    name: {"value": value, "unit": "-"} for name, value in values.items()}}))
"""


def test_ab_bench_runs_every_workload_of_a_list_in_each_pair(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(FAKE_RUN)
    proc = run_script("ab_bench.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "far-mc,cli-auth", "--seeds", "1,2", "--pairs", "2",
                      "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    first = {"parent": ("parent", "change"), "change": ("change", "parent")}
    assert calls == [f"{side} {workload} {seed}"
                     for seed in (1, 2) for order in (first["parent"], first["change"])
                     for workload in ("far-mc", "cli-auth") for side in order]
    assert len(proc.stderr.splitlines()) == 8
    assert proc.stderr.splitlines()[0] == "far-mc seed 1 (parent first): op_p50_ref_ms 7 -> 6.3"
    lines = proc.stdout.splitlines()
    titles = [line for line in lines if not line.startswith(" ")]
    assert titles == [title for workload in ("far-mc", "cli-auth") for title in (
        f"workload {workload}, 1 s per run",
        "seed 1, 2 pairs", "seed 2, 2 pairs", "all seeds, 4 pairs")]
    op_rows = [line.split() for line in lines if line.startswith("  op_p50_ref_ms")]
    assert [row[1:4] for row in op_rows] == [["7", "6.3", "0.900"]] * 3 + [
        ["300", "270", "0.900"]] * 3
    assert [row[-1] for row in op_rows] == ["gain"] * 6
    ab = runpy.run_path(str(ROOT / "scripts" / "ab_bench.py"))
    assert ab["workloads"]("far-mc,cli-auth") == ["far-mc", "cli-auth"]
    assert ab["workloads"]("all") == ["far-mc", "matcher-m8", "cli-auth"]


def test_ab_bench_verdicts():
    """gain needs 9 wins in 10 and a median moved by more than the parent's
    interquartile range; worse a median moved the wrong way by more than
    the bound; unresolved a parent spread wider than the bound that the
    change runs do not clear."""
    verdict = runpy.run_path(str(ROOT / "scripts" / "ab_bench.py"))["verdict"]
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    gain = [9.0, 9.1, 8.9, 9.2, 9.0, 10.4, 9.1, 8.8, 9.0, 9.1]
    assert verdict(parent, gain, "lower", 0.25) == "gain"
    assert verdict(gain, parent, "higher", 0.25) == "gain"
    assert verdict(parent, gain[:8] + [10.5, 10.6], "lower", 0.25) == "flat"  # 8 wins
    assert verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) == "worse"
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.25) == "flat"
    assert verdict(parent, [p * 0.7 for p in parent], "higher", 0.25) == "worse"
    wide = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.0, 15.0, 9.0, 11.0]
    assert verdict(wide, [p * 0.99 for p in wide], "lower", 0.25) == "unresolved"
    assert verdict(wide, [5.0] * 10, "lower", 0.25) == "gain"
    assert verdict(wide, [5.9] * 9 + [6.5], "lower", 0.25) == "gain"
    assert verdict(wide, [5.5] * 10, "higher", 0.25) == "worse"
    assert verdict(wide, [6.5] * 8 + [16.0] * 2, "lower", 0.25) == "unresolved"
