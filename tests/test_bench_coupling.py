"""The benchmark reaches into the package by name: ``benchmarks/tracing.py``
patches the callables its ``TARGETS`` list, and ``benchmarks/kernels.py``
calls the public codec and reads ``DecodeOutcome`` fields, and
``benchmarks/workloads.py`` drives the library and the CLI. These tests only
read ``benchmarks/``, so a rename, a changed return type or a dropped CLI
flag in ``src/`` fails here rather than as failed operations of a benchmark
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    missing = []
    for modname, attr, _ in _load("tracing").TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{modname}.{attr}")
    assert not missing


def test_kernel_table_decodes_every_t_error_word():
    metrics, wrong = _load("kernels").kernel_table(1, {3: 3, 5: 3, 6: 3, 8: 3})
    assert wrong == 0
    assert len(metrics) == 4 * 5 and all(v > 0 for v in metrics.values())


def test_every_workload_runs_at_its_tiny_size(tmp_path):
    workloads = _load("workloads")
    failed = []
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(1, workloads.TINY[name], workdir, in_process=True)
        ops = [workload.op(i) for i in range(max(workload.min_ops, workload.traced_ops))]
        failed += [f"{name} op {i}" for i, (_, ok) in enumerate(ops) if not ok]
        failed += [f"{name} verify" for ok in workload.verify() if not ok]
    assert failed == []
