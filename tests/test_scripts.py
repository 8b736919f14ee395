"""Smoke runs of the command-line scripts under ``scripts/``.

Each script runs in a fresh interpreter with ``src`` on the path in place
of an installed package, on inputs small enough for a second or two.
"""

import os
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
