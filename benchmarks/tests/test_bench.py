"""Tests of the benchmark itself: tracing, output checks, result files.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "run.py")]


def _bindings():
    """Every biosketch module attribute and traced class attribute, by identity."""
    seen = {}
    for module in tracing._biosketch_modules():
        for key, value in vars(module).items():
            seen[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("biosketch"):
                for attr, member in vars(value).items():
                    seen[(module.__name__, key, attr)] = member
    return seen


def test_wrappers_patch_every_binding_and_restore_originals():
    import biosketch.evaluate
    import biosketch.pipeline
    import biosketch.rs

    before = _bindings()
    installation = tracing.install(tracing.Tracer())
    try:
        # `from .x import f` copies are patched where they are looked up.
        assert getattr(biosketch.pipeline.fuse, "__bench_traced__", False)
        assert getattr(biosketch.evaluate.authenticate, "__bench_traced__", False)
        assert getattr(biosketch.rs.RsCode.decode, "__bench_traced__", False)
    finally:
        installation.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_busy_time_excludes_other_layers_only():
    tr = tracing.Tracer()
    # a.outer [0, 10] > a.inner [1, 9] > b.call [2, 5]
    for name, parent, start, end in (("a.outer", -1, 0, 10), ("a.inner", 0, 1, 9),
                                     ("b.call", 1, 2, 5)):
        tr.name_id.append(tr.name_index(name))
        tr.parent.append(parent)
        tr.request.append(0)
        tr.start.append(start)
        tr.end.append(end)
    by_name, by_layer, calls = tr.busy()
    assert by_name == {"a.outer": 7, "a.inner": 5, "b.call": 3}
    assert by_layer == {"a": 7, "b": 3}
    assert calls["a.inner"] == 1


def _run_ops(workload, n, tracer=None):
    installation = tracing.install(tracer) if tracer else None
    try:
        worker.run_fixed(workload, n, tracer)
    finally:
        if installation:
            installation.uninstall()
    return hashlib.sha256(repr(workload.outputs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_the_same_outputs(name, tmp_path):
    cls, sizes = workloads.WORKLOADS[name], workloads.TINY[name]
    digests = []
    for tracer in (None, tracing.Tracer()):
        workdir = tmp_path / ("traced" if tracer else "plain")
        workdir.mkdir()
        workload = cls(5, sizes, workdir, in_process=True)
        digests.append(_run_ops(workload, workload.traced_ops, tracer))
    assert digests[0] == digests[1]
    assert len(tracer.start) > 0


def test_gs_sweep_matches_pinned_csvs(tmp_path):
    gs = workloads.GsSweep(0, workloads.FULL["gs-sweep"], tmp_path, in_process=False)
    assert gs.verify() == [True, True]


def test_binomial_bounds_hold_the_law():
    lo, hi = workloads.binomial_bounds(1000, 1 / 8)
    sigma = (1000 / 8 * 7 / 8) ** 0.5
    assert 5 * sigma < 125 - lo < 7 * sigma and 5 * sigma < hi - 125 < 7 * sigma
    lo, hi = workloads.binomial_bounds(60_000, 1 / 512)  # no underflow when pooled
    assert lo < 60_000 / 512 < hi
    assert workloads.binomial_bounds(0, 1 / 8) == (0, 0)


def test_tail_rule():
    assert workloads.tail_of([3.0, 1.0, 2.0]) == (3.0, 90.0)
    assert workloads.tail_of(list(range(20))) == (17, 90.0)
    values = list(range(200))
    tail, pct = workloads.tail_of(values)
    assert sum(v > tail for v in values) == 10 and pct == 95.0


def test_result_holds_no_secrets(tmp_path):
    matcher = workloads.MatcherM8(9, workloads.TINY["matcher-m8"], tmp_path,
                                  in_process=False)
    result = worker.run_timed(matcher, 0.2)
    result["facts"] = worker.machine_facts()
    text = json.dumps(result)
    secrets = []
    for path in tmp_path.rglob("*.rec"):
        for line in path.read_text().splitlines():
            key, _, value = line.partition("=")
            if key in ("salt", "digest", "offset"):
                secrets.append(value)
    for path in tmp_path.rglob("*.key"):
        lines = path.read_text().splitlines()
        secrets.append(lines[3].partition("=")[2])            # nonce
        secrets.append(", ".join(lines[4:]))                  # indices as a list
    assert len(secrets) > 4
    assert not [s for s in secrets if s in text]
    _check_result_schema(result)


_STRING_KEYS = {"workload", "size", "cpu_model", "python", "numpy", "scipy", "blas",
                "git_commit", "src_sha256", "largest_self_layer",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def _check_result_schema(node, key=None):
    """Only counts, timings and machine facts: numbers, and strings under fact keys."""
    if isinstance(node, dict):
        for k, v in node.items():
            _check_result_schema(v, k)
    elif isinstance(node, list):
        assert key == "setup_samples_s", f"list under {key!r}"
        assert all(isinstance(v, float) for v in node)
    elif isinstance(node, str):
        assert key in _STRING_KEYS, f"string under {key!r}"
        if key not in ("git_commit", "src_sha256"):
            assert not re.search(r"[0-9a-f]{16}", node), f"hex under {key!r}"
    else:
        assert node is None or isinstance(node, (int, float)), f"{type(node)} under {key!r}"


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(trace):
    proc = subprocess.run(RUN + ["--workload", "all", "--seed", "3", "--seconds", "0.5",
                                 "--trace", str(trace), "--size", "tiny"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    names = run._units(trace)
    assert set(final["metrics"]) == {f"{w}.{n}" for w in run.WORKLOADS for n in names}
    for name in run.WORKLOADS:
        path = ROOT / ".bench_results" / f"{name}-seed3-trace{trace}.json"
        _check_result_schema(json.loads(path.read_text()))
        assert name in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # gs-sweep is runnable but not listed: see README.md, "Workloads".
    assert [w["name"] for w in spec["workloads"]] == ["far-mc", "matcher-m8", "cli-auth"]
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "far-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
