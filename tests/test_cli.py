import argparse
import contextlib
import gc
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biosketch
from biosketch import cli, evaluate, fusion, pipeline, quantizer, sketch, store, synth

from test_quantizer import BAD_INDEX_LINES
from test_sketch import BAD_RECORD_LINES


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "embeddings.csv"
    rc = cli.main([
        "gen", "--subjects", "6", "--samples", "8", "--d-face", "24",
        "--d-iris", "24", "--between-std", "1.0", "--within-std", "0.05",
        "--seed", "11", "--out", str(path),
    ])
    assert rc == cli.EXIT_OK
    return path


def pipeline_flags(dataset_csv, tmp_path):
    return [
        "--dataset", str(dataset_csv),
        "--m", "3", "--k-symbols", "2",
        "--seed", "7", "--out-dim", "128",
        "--templates-dir", str(tmp_path / "templates"),
        "--keys-dir", str(tmp_path / "keys"),
    ]


def test_params_reports_plan(capsys):
    assert cli.main(["params", "--m", "5", "--security", "100"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "m=5 N=31 n=155" in out
    assert "K=20" in out
    assert "rate=0.6452" in out


@pytest.mark.parametrize("m,n_sym,n_bits", [(5, 31, 155), (6, 63, 378), (7, 127, 889)])
def test_params_lengths(capsys, m, n_sym, n_bits):
    assert cli.main(["params", "--m", str(m)]) == cli.EXIT_OK
    assert f"m={m} N={n_sym} n={n_bits}" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [[], ["--security", "5"]])
@pytest.mark.parametrize("m", [1, 11, 40])
def test_params_rejects_unsupported_symbol_size(capsys, m, extra):
    assert cli.main(["params", "--m", str(m)] + extra) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"symbol size m={m} outside supported range 2..10" in captured.err


def test_enroll_then_genuine_auth_accepts(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "ACCEPT" in out


def test_impostor_auth_denies(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0001"] + flags) == cli.EXIT_OK
    rc = cli.main([
        "auth", "--subject", "s0001", "--probe-subject", "s0004",
        "--probe-sample", "2",
    ] + flags)
    out = capsys.readouterr().out
    assert rc == cli.EXIT_DENY
    assert "DENY" in out


def test_duplicate_enroll_fails_then_revoke_allows(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0002"] + flags) == cli.EXIT_OK
    assert cli.main(["enroll", "--subject", "s0002"] + flags) == cli.EXIT_RUNTIME
    rc = cli.main([
        "revoke", "--subject", "s0002",
        "--templates-dir", str(tmp_path / "templates"),
        "--keys-dir", str(tmp_path / "keys"),
    ])
    assert rc == cli.EXIT_OK
    assert cli.main(["enroll", "--subject", "s0002"] + flags) == cli.EXIT_OK


def test_revoked_key_differs_with_fresh_entropy(dataset_csv, tmp_path):
    # no --seed: nonce comes from OS entropy, so the reissued key must differ
    flags = [
        "--dataset", str(dataset_csv), "--m", "3", "--k-symbols", "2",
        "--out-dim", "128",
        "--templates-dir", str(tmp_path / "templates"),
        "--keys-dir", str(tmp_path / "keys"),
    ]
    assert cli.main(["enroll", "--subject", "s0003"] + flags) == cli.EXIT_OK
    first = (tmp_path / "keys" / "s0003.key").read_text()
    cli.main(["revoke", "--subject", "s0003",
              "--templates-dir", str(tmp_path / "templates"),
              "--keys-dir", str(tmp_path / "keys")])
    assert cli.main(["enroll", "--subject", "s0003"] + flags) == cli.EXIT_OK
    second = (tmp_path / "keys" / "s0003.key").read_text()
    assert first != second


def test_auth_against_missing_record_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    rc = cli.main(["auth", "--subject", "s0005", "--probe-sample", "0"] + flags)
    capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME


@pytest.mark.parametrize("command,reason", [("auth", "not found"),
                                            ("revoke", "not enrolled"),
                                            ("enroll", "K must be in 1..7")])
def test_failed_command_creates_no_store_directory(dataset_csv, tmp_path, capsys,
                                                   command, reason):
    flags = pipeline_flags(dataset_csv, tmp_path)
    argv = {
        "auth": ["auth", "--subject", "s0005", "--probe-sample", "0"] + flags,
        "revoke": ["revoke", "--subject", "s0005"] + _store_flags(tmp_path),
        "enroll": ["enroll", "--subject", "s0000"] + flags + ["--k-symbols", "0"],
    }[command]
    rc = cli.main(argv)
    assert rc == cli.EXIT_RUNTIME
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "templates").exists()
    assert not (tmp_path / "keys").exists()


def test_record_copied_to_another_subject_is_refused(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    for store_dir, suffix in (("templates", ".rec"), ("keys", ".key")):
        src = tmp_path / store_dir / f"s0000{suffix}"
        (tmp_path / store_dir / f"s0001{suffix}").write_text(src.read_text())
    rc = cli.main(["auth", "--subject", "s0001", "--probe-subject", "s0000",
                   "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out
    assert "enrolled for 's0000'" in captured.err


def test_auth_with_other_dimension_than_key_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0004"] + flags) == cli.EXIT_OK
    flags[flags.index("--out-dim") + 1] = "30"
    rc = cli.main(["auth", "--subject", "s0004", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "key is for 128 dimensions" in captured.err


def test_auth_with_more_dimensions_than_key_is_runtime_error(dataset_csv, tmp_path, capsys):
    # Every index of a 64-dimension key is in range of a 128-column fusion.
    flags = pipeline_flags(dataset_csv, tmp_path)
    flags[flags.index("--out-dim") + 1] = "64"
    assert cli.main(["enroll", "--subject", "s0004"] + flags) == cli.EXIT_OK
    flags[flags.index("--out-dim") + 1] = "128"
    rc = cli.main(["auth", "--subject", "s0004", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out and "DENY" not in captured.out
    assert "key is for 64 dimensions, got 128 bits" in captured.err


def test_key_index_beyond_dimension_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0004"] + flags) == cli.EXIT_OK
    indices = [str(i) for i in range(20)] + ["99"]
    (tmp_path / "keys" / "s0004.key").write_text(
        "\n".join(["biosketch-key v1", "d=64", "G=21", "nonce=0"] + indices) + "\n")
    rc = cli.main(["auth", "--subject", "s0004", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "invalid key file" in captured.err


@pytest.mark.parametrize("edit", sorted(BAD_INDEX_LINES))
def test_key_index_lines_key_to_text_never_writes_are_runtime_errors(
        dataset_csv, tmp_path, capsys, edit):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0005"] + flags) == cli.EXIT_OK
    path = tmp_path / "keys" / "s0005.key"
    lines = path.read_text().splitlines()
    lines[4:] = BAD_INDEX_LINES[edit](lines[4:], int(lines[1].removeprefix("d=")))
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["auth", "--subject", "s0005", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "key file" in captured.err
    assert "ACCEPT" not in captured.out


def test_key_with_an_unknown_field_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0005"] + flags) == cli.EXIT_OK
    path = tmp_path / "keys" / "s0005.key"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + ["x=1"] + lines[4:]) + "\n")
    rc = cli.main(["auth", "--subject", "s0005", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "malformed key file: unknown fields ['x']" in captured.err
    assert "ACCEPT" not in captured.out


@pytest.mark.parametrize("edit", ["plus-sign", "repeated-field", "unknown-field",
                                  "upper-case-digest", "spaced-salt"])
def test_record_lines_record_to_text_never_writes_are_runtime_errors(
        dataset_csv, tmp_path, capsys, edit):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0005"] + flags) == cli.EXIT_OK
    path = tmp_path / "templates" / "s0005.rec"
    path.write_text("\n".join(BAD_RECORD_LINES[edit](path.read_text().splitlines())) + "\n")
    rc = cli.main(["auth", "--subject", "s0005", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "malformed enrollment record" in captured.err
    assert "ACCEPT" not in captured.out


def test_record_with_a_non_utf8_byte_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0005"] + flags) == cli.EXIT_OK
    path = tmp_path / "templates" / "s0005.rec"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    rc = cli.main(["auth", "--subject", "s0005", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out


@pytest.mark.parametrize("factor", ["inf", "nan"])
def test_enroll_with_non_finite_window_factor_is_runtime_error_and_writes_nothing(
        dataset_csv, tmp_path, capsys, factor):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--window-factor", factor]
    rc = cli.main(["enroll", "--subject", "s0000"] + flags)
    assert rc == cli.EXIT_RUNTIME
    assert "window_factor must be finite" in capsys.readouterr().err
    assert not [p for d in ("templates", "keys") for p in (tmp_path / d).glob("*")]


def test_enroll_with_huge_finite_window_factor_selects_every_component(
        dataset_csv, tmp_path, capsys):
    # G = n = 21 bits at m=3; a window of out_dim / G times G is everything.
    keys = []
    for name, factor in (("huge", "1e307"), ("whole", str(128 / 21))):
        flags = pipeline_flags(dataset_csv, tmp_path / name) + ["--window-factor", factor]
        assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
        keys.append((tmp_path / name / "keys" / "s0000.key").read_bytes())
    assert "Traceback" not in capsys.readouterr().err
    assert keys[0] == keys[1]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_enroll_on_non_finite_dataset_is_runtime_error_and_writes_nothing(
        dataset_csv, tmp_path, capsys, value):
    lines = dataset_csv.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[4] = value
    lines[5] = ",".join(fields)
    bad_csv = tmp_path / "embeddings.csv"
    bad_csv.write_text("".join(lines))
    rc = cli.main(["enroll", "--subject", "s0000"] + pipeline_flags(bad_csv, tmp_path))
    assert rc == cli.EXIT_RUNTIME
    assert "embedding contains non-finite values" in capsys.readouterr().err
    assert not [p for d in ("templates", "keys") for p in (tmp_path / d).glob("*")]


def test_eval_with_infinite_window_factor_is_runtime_error(dataset_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main(["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                   "--seed", "5", "--out-dim", "64", "--window-factor", "inf",
                   "--out", str(out)])
    assert rc == cli.EXIT_RUNTIME
    assert "window_factor must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_writes_curve_csv(dataset_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main([
        "eval", "--dataset", str(dataset_csv), "--m", "3",
        "--k-list", "1,2,3", "--seed", "5", "--out-dim", "64",
        "--trials", "400", "--scenario", "stolen-key", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("m,K,security_bits")
    assert len(lines) == 4


def test_eval_deterministic_bytes(dataset_csv, tmp_path, capsys):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli.main([
            "eval", "--dataset", str(dataset_csv), "--m", "3",
            "--k-list", "1,2", "--seed", "5", "--out-dim", "64",
            "--trials", "200", "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("config,flags", [
    ("scenario=replay\n", []),
    ("", ["--trials", "0"]),
], ids=["config-scenario", "zero-trials"])
def test_eval_bad_far_arguments_are_runtime_errors(dataset_csv, tmp_path, capsys,
                                                     config, flags):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(config)
    out = tmp_path / "curve.csv"
    rc = cli.main(["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                   "--seed", "5", "--out-dim", "64", "--config", str(cfg),
                   "--out", str(out)] + flags)
    capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert not out.exists()


def test_unseeded_eval_runs_every_k_under_one_seed(dataset_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main([
        "eval", "--dataset", str(dataset_csv), "--m", "3",
        "--k-list", "2,2", "--out-dim", "64", "--trials", "200", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    header, first, second = out.read_text().splitlines()
    assert first == second


def test_scenario_choices_are_evaluates_scenarios(dataset_csv, capsys):
    assert set(cli._SCENARIOS) == {evaluate.SCENARIO_ZERO_EFFORT,
                                   evaluate.SCENARIO_STOLEN_KEY}
    with pytest.raises(SystemExit) as err:
        cli.main(["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                  "--out-dim", "64", "--scenario", "replay"])
    assert err.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'replay'" in capsys.readouterr().err


def test_usage_error_exit_code():
    for command in ("no-such-command", "oracle"):
        with pytest.raises(SystemExit) as err:
            cli.main([command])
        assert err.value.code == cli.EXIT_USAGE


def test_missing_required_flag_is_runtime_error(capsys):
    rc = cli.main(["params"])
    capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME


def test_config_file_supplies_defaults(dataset_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m=5\nsecurity=100\n")
    rc = cli.main(["params", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "K=20" in out


def test_flags_override_config_file(dataset_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m=5\n")
    rc = cli.main(["params", "--config", str(config), "--m", "6"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "m=6 N=63 n=378" in out


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biosketch.cli", "params", "--m", "6", "--security", "53"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "m=6 N=63 n=378" in proc.stdout
    assert "rate=0.1429" in proc.stdout


def _cli_env() -> dict:
    src = str(Path(biosketch.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cold_auth_process_accepts_genuine_and_denies_stolen_key_impostor(
        dataset_csv, tmp_path):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0001"] + flags) == cli.EXIT_OK
    for probe, rc, last in ((["--probe-sample", "6"], cli.EXIT_OK, "ACCEPT (hash-match)"),
                            (["--probe-subject", "s0004", "--probe-sample", "2"],
                             cli.EXIT_DENY, "DENY (")):
        proc = subprocess.run(
            [sys.executable, "-m", "biosketch.cli", "auth", "--subject", "s0001"]
            + probe + flags, capture_output=True, text=True, env=_cli_env())
        assert proc.returncode == rc, proc.stderr
        assert proc.stdout.splitlines()[-1].startswith(last)


def test_run_freezes_once_before_main_and_returns_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or cli.EXIT_DENY)
    assert cli.run() == cli.EXIT_DENY
    assert calls == ["freeze", "main"]


def test_in_process_main_never_freezes(dataset_csv, tmp_path, capsys):
    frozen = gc.get_freeze_count()
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    assert cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags) == 0
    assert cli.main(["params", "--m", "5", "--security", "100"]) == cli.EXIT_OK
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def _loaded_by_enroll_and_auth(dataset_csv, tmp_path, package: str) -> bool:
    """Whether ``package`` is loaded after an in-process enroll and genuine
    auth in a fresh interpreter."""
    flags = pipeline_flags(dataset_csv, tmp_path)
    enroll = ["enroll", "--subject", "s0000"] + flags
    auth = ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags
    script = (
        "import sys, biosketch, biosketch.cli\n"
        f"rc = biosketch.cli.main({enroll!r}) or biosketch.cli.main({auth!r})\n"
        f"print('loaded', any(m == {package!r} or m.startswith({package + '.'!r})"
        " for m in sys.modules))\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_cli_env())
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "ACCEPT (hash-match)" in proc.stdout
    return "loaded True" in proc.stdout


def test_cli_never_imports_scipy(dataset_csv, tmp_path):
    assert not _loaded_by_enroll_and_auth(dataset_csv, tmp_path, "scipy")


def test_cli_never_imports_numpy_ma(dataset_csv, tmp_path):
    # np.median imports numpy.ma on its first call, ~15 ms of a cold auth.
    assert not _loaded_by_enroll_and_auth(dataset_csv, tmp_path, "numpy.ma")


def _fused_rows(monkeypatch) -> list[int]:
    """The row count of each ``fuse_rows`` call the CLI makes from now on."""
    rows = []
    original = cli.fuse_rows

    def counted(face_rows, iris_rows, weights):
        rows.append(len(face_rows))
        return original(face_rows, iris_rows, weights)

    monkeypatch.setattr(cli, "fuse_rows", counted)
    return rows


def test_enroll_and_auth_fuse_only_enrollment_halves_and_the_probe(
        dataset_csv, tmp_path, monkeypatch, capsys):
    dataset = synth.read_embeddings(dataset_csv)
    halves = sum(pipeline.enroll_split(dataset.n_samples(sid)) for sid in dataset.subject_ids)
    assert halves < dataset.total_pairs
    rows = _fused_rows(monkeypatch)
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0001"] + flags) == cli.EXIT_OK
    assert sum(rows) == halves
    rows.clear()
    assert cli.main(["auth", "--subject", "s0001", "--probe-sample", "6"] + flags) == cli.EXIT_OK
    assert sum(rows) == halves + 1
    assert "ACCEPT (hash-match)" in capsys.readouterr().out


@pytest.mark.parametrize("probe", [["--probe-subject", "nobody"], ["--probe-sample", "8"],
                                   ["--probe-sample", "-1"]])
def test_bad_probe_exits_3_before_any_fusion(dataset_csv, tmp_path, monkeypatch, capsys,
                                             probe):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    rows = _fused_rows(monkeypatch)
    assert cli.main(["auth", "--subject", "s0000"] + probe + flags) == cli.EXIT_RUNTIME
    assert rows == []
    assert re.search("not in dataset|out of range", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["enroll", "auth"])
def test_subject_absent_from_dataset_exits_3_before_any_fusion(
        dataset_csv, tmp_path, monkeypatch, capsys, command):
    rows = _fused_rows(monkeypatch)
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main([command, "--subject", "nobody"] + flags) == cli.EXIT_RUNTIME
    assert rows == []
    assert "'nobody' not in dataset" in capsys.readouterr().err
    assert not (tmp_path / "templates").exists() and not (tmp_path / "keys").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_held_out_row_of_another_subject_is_runtime_error(
        dataset_csv, tmp_path, capsys, value):
    # s0003's sample 6 is held out (8 samples, 4 enroll): enroll and auth fuse
    # no row of it.
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    lines = dataset_csv.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("s0003,6,iris,"))
    fields = lines[at].split(",")
    fields[5] = value
    lines[at] = ",".join(fields)
    bad_csv = tmp_path / "embeddings.csv"
    bad_csv.write_text("".join(lines))
    bad_flags = pipeline_flags(bad_csv, tmp_path)
    for command in (["enroll", "--subject", "s0001"],
                    ["auth", "--subject", "s0000", "--probe-sample", "1"]):
        capsys.readouterr()
        assert cli.main(command + bad_flags) == cli.EXIT_RUNTIME
        assert "embedding contains non-finite values" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "keys").iterdir()) == ["s0000.key"]


@pytest.mark.parametrize("mode,out_dim", [("fca", 128), ("bla", 96), ("bla", 576)])
def test_fused_halves_and_probe_equal_the_full_fusion(dataset_csv, mode, out_dim):
    dataset = synth.read_embeddings(dataset_csv)
    weights = fusion.random_weights(mode, dataset.d_face, dataset.d_iris, out_dim, seed=3)
    assert (weights.P is None) == (mode == "fca" or out_dim == dataset.d_face * dataset.d_iris)
    halves, pop = cli._fuse_halves(dataset, weights)
    fused = pipeline.fuse_dataset(dataset, weights)
    assert list(halves) == list(fused)
    for sid, mat in fused.items():
        assert halves[sid].tobytes() == mat[:pipeline.enroll_split(len(mat))].tobytes()
        probe = fusion.fuse_rows(dataset.face[sid][5:6], dataset.iris[sid][5:6], weights)
        assert probe[0].tobytes() == mat[5].tobytes()
    full = pipeline.population_from_fused(fused)
    assert pop.median.tobytes() == full.median.tobytes()
    # auth's medians: the key's columns only, and its probe bits from them.
    for g in (21, 62):
        idx = np.random.default_rng(g).choice(out_dim, g, replace=False)
        key = quantizer.ReliableKey(indices=np.sort(idx), dimension=out_dim, nonce=0)
        key_halves, key_pop = cli._fuse_halves(dataset, weights, key)
        assert key_pop.median.tobytes() == full.median[key.index_array].tobytes()
        for sid, mat in fused.items():
            assert key_halves[sid].tobytes() == halves[sid].tobytes()
            for row in mat:
                bits = quantizer.binarize(row[key.index_array], key_pop)
                assert bits.tobytes() == pipeline.probe_bits(row, full, key).tobytes()


@pytest.mark.parametrize("fusion_mode,out_dim", [("fca", 128), ("bla", 96)])
def test_auth_decides_as_the_library_on_full_medians(
        dataset_csv, tmp_path, capsys, fusion_mode, out_dim):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--fusion", fusion_mode]
    flags[flags.index("--out-dim") + 1] = str(out_dim)
    dataset = synth.read_embeddings(dataset_csv)
    config = pipeline.PipelineConfig(m=3, k_symbols=2, out_dim=out_dim, seed=7,
                                     fusion_mode=fusion_mode)
    fused = pipeline.fuse_dataset(dataset, pipeline.build_weights(config, 24, 24))
    pop = pipeline.population_from_fused(fused)
    code = config.build_code()
    enrolled = ("s0000", "s0001", "s0002")
    for subject in enrolled:
        assert cli.main(["enroll", "--subject", subject] + flags) == cli.EXIT_OK
    lines = set()
    for subject in enrolled:
        record = store.TemplateDb(tmp_path / "templates").load(subject)
        key = store.KeyStore(tmp_path / "keys").load(subject)
        for owner in dataset.subject_ids:
            for sample in (0, 5, 7):
                decision = sketch.authenticate(
                    pipeline.probe_bits(fused[owner][sample], pop, key), record, code)
                capsys.readouterr()
                rc = cli.main(["auth", "--subject", subject, "--probe-subject", owner,
                               "--probe-sample", str(sample)] + flags)
                word = "ACCEPT" if decision.accepted else "DENY"
                assert rc == (cli.EXIT_OK if decision.accepted else cli.EXIT_DENY)
                assert capsys.readouterr().out == f"{word} ({decision.reason.value})\n"
                lines.add((word, owner == subject))
    assert {("ACCEPT", True), ("DENY", False)} <= lines


def test_auth_refuses_a_fused_inf_outside_the_key(dataset_csv, tmp_path, capsys,
                                                  weights_file):
    # One output row of W overflows on one large finite input of an
    # enrollment half (s0003's sample 0); the key does not select that row.
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--weights", str(weights_file)]
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    key = store.KeyStore(tmp_path / "keys").load("s0000")
    row = next(j for j in range(key.dimension) if j not in key.indices)
    weights = fusion.load_weights(weights_file)
    weights.W[row, 0] = 1e10
    path = tmp_path / "overflow.fusw"
    fusion.save_weights(weights, path)
    lines = dataset_csv.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("s0003,0,face,"))
    fields = lines[at].split(",")
    fields[3] = "1e300"
    lines[at] = ",".join(fields)
    big_csv = tmp_path / "embeddings.csv"
    big_csv.write_text("".join(lines))
    dataset = synth.read_embeddings(big_csv)
    with np.errstate(over="ignore"):
        fused = fusion.fuse_rows(dataset.face["s0003"][:1], dataset.iris["s0003"][:1],
                                 weights)[0]
    assert np.flatnonzero(~np.isfinite(fused)).tolist() == [row]
    flags = pipeline_flags(big_csv, tmp_path) + ["--weights", str(path)]
    capsys.readouterr()
    with np.errstate(over="ignore"):
        rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out and "DENY" not in captured.out
    assert "non-finite values in population vectors" in captured.err


def test_auth_refuses_a_probe_that_overflows_in_the_key_without_a_warning(
        dataset_csv, tmp_path, capsys, weights_file):
    # One output row of W that the key selects overflows on one large finite
    # input of the held-out probe sample (s0000's sample 5); the enrollment
    # halves stay finite, so only the probe's check can refuse.
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--weights", str(weights_file)]
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    row = int(store.KeyStore(tmp_path / "keys").load("s0000").indices[0])
    weights = fusion.load_weights(weights_file)
    weights.W[row, 0] = 1e10
    path = tmp_path / "overflow.fusw"
    fusion.save_weights(weights, path)
    lines = dataset_csv.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("s0000,5,face,"))
    fields = lines[at].split(",")
    fields[3] = "1e300"
    lines[at] = ",".join(fields)
    big_csv = tmp_path / "embeddings.csv"
    big_csv.write_text("".join(lines))
    flags = pipeline_flags(big_csv, tmp_path) + ["--weights", str(path)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "5"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out and "DENY" not in captured.out
    assert "non-finite" in captured.err and "RuntimeWarning" not in captured.err


@pytest.mark.parametrize("option,value", [("--k-symbols", "3"), ("--k-symbols", "9"),
                                          ("--m", "4")])
def test_auth_code_flags_contradicting_record_are_runtime_error(
        dataset_csv, tmp_path, capsys, option, value):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    flags[flags.index(option) + 1] = value
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out
    assert f"{option} {value} contradicts the record of 's0000'" in captured.err


def unseeded_flags(dataset_csv, tmp_path, fusion_mode, out_dim):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--fusion", fusion_mode]
    flags[flags.index("--out-dim") + 1] = str(out_dim)
    seed_at = flags.index("--seed")
    return flags[:seed_at] + flags[seed_at + 2:]


@pytest.mark.parametrize("fusion_mode,out_dim", [("fca", 128), ("bla", 96)])
def test_unseeded_auth_without_weights_file_is_runtime_error(
        dataset_csv, tmp_path, capsys, fusion_mode, out_dim):
    # Weights drawn from OS entropy match no enrollment, so every probe
    # would be denied; auth refuses to draw them.
    flags = unseeded_flags(dataset_csv, tmp_path, fusion_mode, out_dim)
    assert cli.main(["enroll", "--subject", "s0000", "--seed", "7"] + flags) == cli.EXIT_OK
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out and "DENY" not in captured.out
    assert "--seed or --weights" in captured.err


def test_unseeded_bla_without_projection_draws_nothing_and_accepts(
        dataset_csv, tmp_path, capsys):
    # bla at out_dim = d_face * d_iris (24 * 24) has no random weights.
    flags = unseeded_flags(dataset_csv, tmp_path, "bla", 576)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    assert rc == cli.EXIT_OK
    assert "ACCEPT" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--scheme", "fc"], ["--policy", "fail-deny"],
                                   ["--scheme", "fc", "--policy", "fail-deny"]])
def test_auth_scheme_or_policy_contradicting_record_is_runtime_error(
        dataset_csv, tmp_path, capsys, extra):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags + extra)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "ACCEPT" not in captured.out
    assert "contradicts the record" in captured.err


@pytest.mark.parametrize("line", ["scheme=fc", "policy=fail-deny"])
def test_auth_config_file_contradicting_record_is_runtime_error(
        dataset_csv, tmp_path, capsys, line):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    cfg = tmp_path / "auth.cfg"
    cfg.write_text(line + "\n")
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1",
                   "--config", str(cfg)] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "contradicts the record" in captured.err


@pytest.mark.parametrize("scheme,policy", [("ss", "fallback"), ("fc", "fail-deny")])
def test_auth_with_the_records_scheme_and_policy_or_none_accepts(
        dataset_csv, tmp_path, capsys, scheme, policy):
    flags = pipeline_flags(dataset_csv, tmp_path)
    chosen = ["--scheme", scheme, "--policy", policy]
    assert cli.main(["enroll", "--subject", "s0000"] + flags + chosen) == cli.EXIT_OK
    for extra in (chosen, []):
        rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags + extra)
        assert rc == cli.EXIT_OK
        assert "ACCEPT (hash-match)" in capsys.readouterr().out


@pytest.fixture
def weights_file(tmp_path):
    """fca weights for the dataset_csv embeddings (24 + 24 dims) at out_dim 128."""
    path = tmp_path / "w128.fusw"
    fusion.save_weights(fusion.random_weights("fca", 24, 24, 128, seed=3), path)
    return path


def test_enroll_and_auth_with_a_matching_weights_file_accept(
        dataset_csv, tmp_path, capsys, weights_file):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--weights", str(weights_file)]
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    for extra in ([], ["--fusion", "fca"]):
        rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags + extra)
        assert rc == cli.EXIT_OK
        assert "ACCEPT (hash-match)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["enroll", "auth"])
@pytest.mark.parametrize("option,value,stored", [("--out-dim", "4096", "128"),
                                                 ("--fusion", "bla", "fca")])
def test_weights_file_contradicting_flags_is_runtime_error_and_writes_nothing(
        dataset_csv, tmp_path, capsys, weights_file, command, option, value, stored):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--weights", str(weights_file)]
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    capsys.readouterr()
    before = _store_files(tmp_path)
    if option in flags:
        flags[flags.index(option) + 1] = value
    else:
        flags += [option, value]
    argv = {"enroll": ["enroll", "--subject", "s0001"],
            "auth": ["auth", "--subject", "s0000", "--probe-sample", "1"]}[command]
    rc = cli.main(argv + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert f"{option} {value} contradicts the weights file" in captured.err
    assert f"({stored})" in captured.err
    assert captured.out == ""
    assert _store_files(tmp_path) == before


@pytest.mark.parametrize("line", ["scheme=xx", "policy=never"])
def test_unknown_scheme_or_policy_in_config_is_runtime_error(
        dataset_csv, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    flags = pipeline_flags(dataset_csv, tmp_path)
    rc = cli.main(["enroll", "--subject", "s0000", "--config", str(cfg)] + flags)
    assert rc == cli.EXIT_RUNTIME
    assert "must be one of" in capsys.readouterr().err


def _store_flags(tmp_path):
    return ["--templates-dir", str(tmp_path / "templates"),
            "--keys-dir", str(tmp_path / "keys")]


def _store_files(tmp_path):
    return {p.relative_to(tmp_path).as_posix(): p.read_bytes()
            for d in ("templates", "keys") for p in sorted((tmp_path / d).iterdir())}


@pytest.mark.parametrize("left", ["keys/s0000.key", "templates/s0000.rec"])
def test_revoke_clears_a_stray_file(dataset_csv, tmp_path, capsys, left):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    for name in ("keys/s0000.key", "templates/s0000.rec"):
        if name != left:
            (tmp_path / name).unlink()
    assert cli.main(["revoke", "--subject", "s0000"] + _store_flags(tmp_path)) == cli.EXIT_OK
    assert _store_files(tmp_path) == {}
    rc = cli.main(["revoke", "--subject", "s0000"] + _store_flags(tmp_path))
    assert rc == cli.EXIT_RUNTIME
    assert "not enrolled" in capsys.readouterr().err
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK


@pytest.mark.parametrize("left", ["keys/s0000.key", "templates/s0000.rec"])
def test_enroll_over_a_stray_file_writes_nothing(dataset_csv, tmp_path, capsys, left):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    for name in ("keys/s0000.key", "templates/s0000.rec"):
        if name != left:
            (tmp_path / name).unlink()
    before = _store_files(tmp_path)
    assert list(before) == [left]
    flags[flags.index("--seed") + 1] = "8"
    rc = cli.main(["enroll", "--subject", "s0000"] + flags)
    assert rc == cli.EXIT_RUNTIME
    assert "already stored" in capsys.readouterr().err
    assert _store_files(tmp_path) == before


@pytest.mark.parametrize("scheme", ["ss", "fc"])
def test_cli_output_carries_no_secrets(dataset_csv, tmp_path, capfd, scheme):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--scheme", scheme]
    outputs = []

    def run(argv, expected):
        assert cli.main(argv) == expected
        captured = capfd.readouterr()
        outputs.extend([captured.out, captured.err])

    run(["enroll", "--subject", "s0000"] + flags, cli.EXIT_OK)
    key_text = (tmp_path / "keys" / "s0000.key").read_text()
    record_text = (tmp_path / "templates" / "s0000.rec").read_text()
    run(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags, cli.EXIT_OK)
    run(["auth", "--subject", "s0000", "--probe-subject", "s0004",
         "--probe-sample", "2"] + flags, cli.EXIT_DENY)
    wrong_dim = list(flags)
    wrong_dim[wrong_dim.index("--out-dim") + 1] = "30"
    run(["auth", "--subject", "s0000", "--probe-sample", "1"] + wrong_dim, cli.EXIT_RUNTIME)
    run(["revoke", "--subject", "s0000"] + _store_flags(tmp_path), cli.EXIT_OK)
    assert outputs[0].startswith("enrolled s0000")

    fields = dict(line.split("=", 1) for line in (key_text + record_text).splitlines()
                  if "=" in line)
    secrets = [fields["nonce"], fields["salt"], fields["digest"]]
    if scheme == "fc":
        secrets.append(fields["offset"])
    indices = [line for line in key_text.splitlines()[4:] if line]
    for start in range(len(indices) - 4):
        run_of_five = indices[start:start + 5]
        secrets.extend(sep.join(run_of_five) for sep in ("\n", ",", ", ", " "))
    for text in outputs:
        for secret in secrets:
            assert secret not in text


def test_seeded_run_without_model_flags_is_byte_identical(dataset_csv, tmp_path, capsys):
    # Leaves --scheme, --policy, --fusion and --window-factor to
    # PipelineConfig's defaults; the digest was recorded when the CLI still
    # restated those defaults itself, so moving them changed no output.
    flags = pipeline_flags(dataset_csv, tmp_path)
    runs = [["enroll", "--subject", "s0000"] + flags,
            ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags,
            ["auth", "--subject", "s0000", "--probe-subject", "s0004",
             "--probe-sample", "2"] + flags,
            ["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1,2",
             "--seed", "5", "--out-dim", "64", "--trials", "300"]]
    assert [cli.main(argv) for argv in runs] == [cli.EXIT_OK, cli.EXIT_OK,
                                                  cli.EXIT_DENY, cli.EXIT_OK]
    digest = hashlib.sha256()
    for path in (tmp_path / "keys" / "s0000.key", tmp_path / "templates" / "s0000.rec"):
        digest.update(path.read_bytes())
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "dee905978f3e92b955c8ecbcb869c3991d147e7562ff08a5776fb58704d3b05d")


@pytest.mark.parametrize("command,flag", [
    ("eval", ["--weights", "/no/such/file"]),
    ("eval", ["--templates-dir", "T"]),
    ("eval", ["--keys-dir", "K"]),
    ("auth", ["--window-factor", "2"]),
    ("params", ["--seed", "1"]),
    ("revoke", ["--seed", "1"]),
    # K has one flag per command; --security only plans K, in params.
    ("enroll", ["--security", "6"]),
    ("auth", ["--security", "6"]),
    ("eval", ["--security", "6"]),
    ("eval", ["--k-symbols", "2"]),
])
def test_flag_the_command_never_reads_is_usage_error(dataset_csv, tmp_path, capsys,
                                                      command, flag):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    before = _store_files(tmp_path)
    argv = {
        "eval": ["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                 "--seed", "5", "--out-dim", "64", "--out", str(tmp_path / "curve.csv")],
        "enroll": ["enroll", "--subject", "s0001"] + flags,
        "auth": ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags,
        "params": ["params", "--m", "5"],
        "revoke": ["revoke", "--subject", "s0000"] + _store_flags(tmp_path),
    }[command]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + flag)
    assert err.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert (tmp_path / "keys" / "s0000.key").exists()
    assert _store_files(tmp_path) == before
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("command,k_flag,option", [
    ("enroll", [], "--k-symbols"),
    ("auth", [], "--k-symbols"),
    ("eval", [], "--k-list"),
    ("eval", ["--k-list", ","], "--k-list"),
])
def test_missing_k_is_runtime_error_and_writes_nothing(dataset_csv, tmp_path, capsys,
                                                      command, k_flag, option):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    del flags[flags.index("--k-symbols"):flags.index("--k-symbols") + 2]
    argv = {
        "enroll": ["enroll", "--subject", "s0001"] + flags,
        "auth": ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags,
        "eval": ["eval", "--dataset", str(dataset_csv), "--m", "3", "--seed", "5",
                 "--out-dim", "64", "--out", str(tmp_path / "curve.csv")],
    }[command]
    rc = cli.main(argv + k_flag)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert captured.err.startswith("error: ") and option in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ["enroll", "auth", "eval"])
def test_missing_out_dim_is_runtime_error_and_writes_nothing(dataset_csv, tmp_path,
                                                              capsys, command):
    flags = pipeline_flags(dataset_csv, tmp_path)
    if command == "auth":
        assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
        capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    del flags[flags.index("--out-dim"):flags.index("--out-dim") + 2]
    argv = {
        "enroll": ["enroll", "--subject", "s0001"] + flags,
        "auth": ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags,
        "eval": ["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                 "--seed", "5", "--out", str(tmp_path / "curve.csv")],
    }[command]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "missing required option --out-dim" in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_config_key_no_command_takes_is_runtime_error_and_writes_nothing(
        dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("schme=fc\n")
    flags = pipeline_flags(dataset_csv, tmp_path)
    rc = cli.main(["enroll", "--subject", "s0000", "--config", str(cfg)] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "'schme'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "templates").exists() and not (tmp_path / "keys").exists()


def test_config_cannot_overwrite_an_enrolled_subject(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    capsys.readouterr()
    before = _store_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("overwrite=1\n")
    flags[flags.index("--seed") + 1] = "8"
    rc = cli.main(["enroll", "--subject", "s0000", "--config", str(cfg)] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "'overwrite'" in captured.err and "command line" in captured.err
    assert captured.out == ""
    assert _store_files(tmp_path) == before


def test_config_cannot_name_another_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=5\nconfig=/no/such.cfg\n")
    rc = cli.main(["params", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "'config'" in captured.err and "command line" in captured.err
    assert captured.out == ""


def test_config_key_of_another_command_is_ignored(tmp_path, capsys):
    # One file serves every command: params takes neither --trials nor --out-dim.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=5\nsecurity=100\ntrials=400\nout-dim=1024\n")
    assert cli.main(["params", "--config", str(cfg)]) == cli.EXIT_OK
    assert "K=20" in capsys.readouterr().out


@pytest.mark.parametrize("text,line", [
    ("m=5\nm=6\n", 2),
    ("m=5\n# out-dim comes twice\nout-dim=1024\n\nout_dim=512\n", 5),
    ("m=5\nsecurity=100\nsecurity=100\n", 3),
], ids=["m-twice", "out-dim-under-both-spellings", "same-value-twice"])
def test_config_key_set_twice_is_runtime_error(tmp_path, capsys, text, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = cli.main(["params", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert f"{cfg}:{line}:" in captured.err and "twice" in captured.err
    assert captured.out == ""


def test_revoked_subject_gets_another_index_set(dataset_csv, tmp_path, capsys):
    # Unseeded, with the README's flags: the re-issued key selects other
    # components, which is what makes the template cancelable.
    flags = ["--dataset", str(dataset_csv), "--m", "5", "--k-symbols", "20",
             "--out-dim", "1024"] + _store_flags(tmp_path)
    key_path = tmp_path / "keys" / "s0000.key"
    index_sets = []
    for _ in range(2):
        assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
        lines = key_path.read_text().splitlines()
        assert lines[2] == "G=155"
        index_sets.append(set(lines[4:]))
        assert cli.main(["revoke", "--subject", "s0000"] + _store_flags(tmp_path)) == cli.EXIT_OK
    capsys.readouterr()
    assert index_sets[0] != index_sets[1]


# Values CPython or numpy refuse at once: 1 << m, or a weight matrix of about
# 10^12 rows, could never be allocated, so these cases allocate nothing.
HUGE_M = "10000000000000000000"


def test_record_with_unsupported_symbol_size_is_runtime_error(dataset_csv, tmp_path, capsys):
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000", "--scheme", "fc"] + flags) == cli.EXIT_OK
    path = tmp_path / "templates" / "s0000.rec"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(f"m={HUGE_M}" if ln.startswith("m=") else ln
                              for ln in lines) + "\n")
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "malformed enrollment record" in captured.err
    assert "outside supported range 2..10" in captured.err


@pytest.mark.parametrize("m", [HUGE_M, "11"])
def test_eval_with_unsupported_symbol_size_is_runtime_error(dataset_csv, capsys, m):
    rc = cli.main(["eval", "--dataset", str(dataset_csv), "--m", m, "--k-list", "1",
                   "--out-dim", "1024", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert f"symbol size m={m} outside supported range 2..10" in captured.err


def test_eval_with_unallocatable_out_dim_is_runtime_error(dataset_csv, capsys):
    rc = cli.main(["eval", "--dataset", str(dataset_csv), "--m", "3", "--k-list", "1",
                   "--out-dim", "1000000000000", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_weights_exit_3_before_any_fusion(
        dataset_csv, tmp_path, capsys, monkeypatch, weights_file, value):
    weights = fusion.load_weights(weights_file)
    weights.W[5, 0] = value
    path = tmp_path / "nonfinite.fusw"
    fusion.save_weights(weights, path)

    def no_fusion(*args, **kwargs):
        raise AssertionError("fused with non-finite weights")

    monkeypatch.setattr(fusion, "fuse_rows", no_fusion)
    monkeypatch.setattr(pipeline, "fuse_rows", no_fusion)
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--weights", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["enroll", "--subject", "s0000"] + flags)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_RUNTIME
    assert "non-finite" in err and "RuntimeWarning" not in err
    assert not (tmp_path / "templates").exists() and not (tmp_path / "keys").exists()


# -- the exit-code contract over mutated store files ---------------------------

STORE_SUBJECTS = {"s0000": "ss", "s0001": "fc"}
STORES = {".rec": ("templates", store.TemplateDb), ".key": ("keys", store.KeyStore)}


@pytest.fixture(scope="module")
def enrolled_stores(dataset_csv, tmp_path_factory):
    """Stores holding one ss and one fc subject enrolled at m=3, K=1, the
    auth flags, each stored value and the exit code of each subject's
    unmutated genuine auth."""
    root = tmp_path_factory.mktemp("stores")
    flags = ["--dataset", str(dataset_csv), "--m", "3", "--k-symbols", "1",
             "--seed", "7", "--out-dim", "128"]
    for subject, scheme in STORE_SUBJECTS.items():
        assert cli.main(["enroll", "--subject", subject, "--scheme", scheme]
                        + flags + _store_flags(root)) == cli.EXIT_OK
    stored = {(subject, suffix): store_class(root / name).load(subject)
              for subject in STORE_SUBJECTS
              for suffix, (name, store_class) in STORES.items()}
    baseline = {subject: _auth_in(root, flags, subject)[0] for subject in STORE_SUBJECTS}
    return root, flags, stored, baseline


def _auth_in(root, flags, subject):
    """(exit code, stderr) of a genuine in-process auth against root's stores."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["auth", "--subject", subject, "--probe-sample", "1"]
                      + flags + _store_flags(Path(root)))
    return rc, err.getvalue()


STORE_VALUES = st.one_of(st.sampled_from([-1, 0, 1, 2, 10, 11, 10**19]),
                         st.integers(-5, 300))


def _mutate(data, raw: bytes,
            kinds=("flip", "truncate", "duplicate", "drop", "swap", "value")) -> bytes:
    """One mutation of a file's bytes, of one of ``kinds``, drawn from ``data``."""
    kind = data.draw(st.sampled_from(kinds))
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(flipped)
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    lines = raw.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        k = data.draw(st.sampled_from([k for k, ln in enumerate(lines) if b"=" in ln]))
        lines[k] = lines[k].split(b"=", 1)[0] + f"={data.draw(STORE_VALUES)}\n".encode()
    return b"".join(lines)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_store_file_exits_by_contract(enrolled_stores, data):
    """A mutated .rec or .key exits 0, 1 or 3 with no traceback: 3 when the
    store cannot load it, and the unmutated exit when it loads unchanged."""
    root, flags, stored, baseline = enrolled_stores
    subject = data.draw(st.sampled_from(sorted(STORE_SUBJECTS)))
    suffix = data.draw(st.sampled_from(sorted(STORES)))
    name, store_class = STORES[suffix]
    with tempfile.TemporaryDirectory() as work:
        for copied in ("templates", "keys"):
            shutil.copytree(root / copied, Path(work) / copied)
        path = Path(work) / name / f"{subject}{suffix}"
        path.write_bytes(_mutate(data, path.read_bytes()))
        try:
            loaded = store_class(path.parent).load(subject)
        except Exception:
            loaded = None
        rc, err = _auth_in(work, flags, subject)
    assert rc in (cli.EXIT_OK, cli.EXIT_DENY, cli.EXIT_RUNTIME), err
    assert "Traceback" not in err
    if loaded is None:
        assert rc == cli.EXIT_RUNTIME, err
    elif loaded == stored[subject, suffix]:
        assert rc == baseline[subject], err


# -- the exit-code contract over a mutated dataset CSV or weights file --------

# Weights for the 8 + 8-dim dataset: (mode, out_dim); bla at out_dim 64 = 8 * 8
# has no projection, so its file is the 20-byte header alone.
MODEL_WEIGHTS = {"weights-fca": ("fca", 64), "weights-bla-p": ("bla", 48),
                 "weights-bla": ("bla", 64)}
MODEL_MUTATIONS = {"dataset": ("flip", "truncate", "duplicate", "drop"),
                   **dict.fromkeys(MODEL_WEIGHTS,
                                   ("flip", "truncate", "header", "append", "nonfinite"))}
NONFINITE = [np.array(v, dtype="<f4").tobytes() for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """Bytes of a 6-subject, 4-sample, 8 + 8-dim dataset CSV and of each
    ``MODEL_WEIGHTS`` weights file for it."""
    root = tmp_path_factory.mktemp("model")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--subjects", "6", "--samples", "4", "--d-face", "8",
                         "--d-iris", "8", "--within-std", "0.05", "--seed", "11",
                         "--out", str(root / "embeddings.csv")]) == cli.EXIT_OK
    files = {"dataset": (root / "embeddings.csv").read_bytes()}
    for name, (mode, out_dim) in MODEL_WEIGHTS.items():
        fusion.save_weights(fusion.random_weights(mode, 8, 8, out_dim, seed=3), root / name)
        files[name] = (root / name).read_bytes()
    return files


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_dataset_or_weights_exits_by_contract(model_files, data):
    """enroll, then a genuine or impostor auth, on a mutated dataset CSV or
    FUSW weights file (fca, bla with and without P) exit 0, 1 or 3 with no
    traceback; 1 only from auth, as a printed DENY, and an enroll that exits
    3 leaves no store directory."""
    target = data.draw(st.sampled_from(sorted(model_files)))
    kind = data.draw(st.sampled_from(MODEL_MUTATIONS[target]))
    raw = model_files[target]
    if kind == "header":
        at = data.draw(st.integers(0, 19))
        mutated = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    elif kind == "append":
        mutated = raw + data.draw(st.binary(min_size=1, max_size=12))
    elif kind == "nonfinite":
        # One payload float becomes NaN or +-inf; a header-only file gains one.
        at = 20 + 4 * data.draw(st.integers(0, max(0, (len(raw) - 20) // 4 - 1)))
        mutated = raw[:at] + data.draw(st.sampled_from(NONFINITE)) + raw[at + 4:]
    else:
        mutated = _mutate(data, raw, (kind,))
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        files = {name: work / name for name in model_files}
        for name, path in files.items():
            path.write_bytes(mutated if name == target else model_files[name])
        mode, out_dim = MODEL_WEIGHTS.get(target, ("fca", 64))
        flags = ["--dataset", str(files["dataset"]), "--m", "3", "--k-symbols", "1",
                 "--seed", "7", "--out-dim", str(out_dim)] + _store_flags(work)
        if target in MODEL_WEIGHTS:
            flags += ["--fusion", mode, "--weights", str(files[target])]
        probe = ["--probe-subject", data.draw(st.sampled_from(["s0000", "s0001"])),
                 "--probe-sample", "3"]
        for command, extra in (("enroll", []), ("auth", probe)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main([command, "--subject", "s0000"] + extra + flags)
            last = (out.getvalue().splitlines() or [""])[-1]
            assert rc in (cli.EXIT_OK, cli.EXIT_DENY, cli.EXIT_RUNTIME), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if kind == "nonfinite":
                # Refused as a bad weights file, not after fusing with it.
                assert rc == cli.EXIT_RUNTIME and not caught, err.getvalue()
                assert "weights" in err.getvalue()
            if rc == cli.EXIT_DENY:
                assert command == "auth" and last.startswith("DENY ("), err.getvalue()
            if command == "auth" and rc == cli.EXIT_OK:
                assert last.startswith("ACCEPT (")
            if command == "enroll" and rc == cli.EXIT_RUNTIME:
                assert not (work / "templates").exists()
                assert not (work / "keys").exists()


# -- the exit-code contract over a mutated --config file -----------------------

# Keys enroll or auth take that the flags below leave out; each command
# ignores the keys only the other one takes.
CONFIG_TEXT = (b"scheme=fc\npolicy=fail-deny\nfusion=fca\nwindow-factor=2.5\n"
               b"probe-subject=s0000\nprobe-sample=3\n")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_config_file_exits_by_contract(model_files, data):
    """enroll, then auth, under a mutated --config file exit 0, 1 or 3 with
    no traceback; 1 only from auth, as a printed DENY, and an enroll that
    exits 3 leaves no store directory. The unmutated file enrolls and
    accepts."""
    mutated = _mutate(data, CONFIG_TEXT)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "embeddings.csv").write_bytes(model_files["dataset"])
        (work / "run.cfg").write_bytes(mutated)
        flags = ["--dataset", str(work / "embeddings.csv"), "--m", "3", "--k-symbols", "1",
                 "--seed", "7", "--out-dim", "64", "--config", str(work / "run.cfg")]
        for command in ("enroll", "auth"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([command, "--subject", "s0000"] + flags + _store_flags(work))
            last = (out.getvalue().splitlines() or [""])[-1]
            assert rc in (cli.EXIT_OK, cli.EXIT_DENY, cli.EXIT_RUNTIME), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if mutated == CONFIG_TEXT:
                assert rc == cli.EXIT_OK, err.getvalue()
            if rc == cli.EXIT_DENY:
                assert command == "auth" and last.startswith("DENY ("), err.getvalue()
            if command == "enroll" and rc == cli.EXIT_RUNTIME:
                assert not (work / "templates").exists()
                assert not (work / "keys").exists()


# -- what the option table promises --------------------------------------------

@pytest.mark.parametrize("given", [["--probe-subject", ""], ["--config", "probe.cfg"]])
def test_empty_probe_subject_is_runtime_error_not_the_claimed_subject(
        dataset_csv, tmp_path, capsys, monkeypatch, given):
    # An empty value is a value: only an absent --probe-subject means --subject.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probe.cfg").write_text("probe-subject=\n")
    flags = pipeline_flags(dataset_csv, tmp_path)
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    capsys.readouterr()
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags + given)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "subject '' not in dataset" in captured.err
    assert captured.out == ""


def test_empty_store_dir_is_the_working_directory(dataset_csv, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = pipeline_flags(dataset_csv, tmp_path)
    flags[flags.index("--templates-dir") + 1] = ""
    assert cli.main(["enroll", "--subject", "s0000"] + flags) == cli.EXIT_OK
    assert (tmp_path / "s0000.rec").exists() and (tmp_path / "keys" / "s0000.key").exists()
    assert not (tmp_path / "templates").exists()
    rc = cli.main(["auth", "--subject", "s0000", "--probe-sample", "1"] + flags)
    assert rc == cli.EXIT_OK
    assert "ACCEPT (hash-match)" in capsys.readouterr().out


def test_gen_without_out_is_runtime_error_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["gen", "--subjects", "3", "--samples", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RUNTIME
    assert "missing required option --out" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [("--within-std", "nan"), ("--between-std", "inf"),
                                        ("--between-std", "nan")])
def test_gen_with_non_finite_spread_is_runtime_error_and_writes_nothing(
        tmp_path, capsys, flag, value):
    out = tmp_path / "data.csv"
    rc = cli.main(["gen", "--subjects", "3", "--samples", "2", flag, value, "--out", str(out)])
    assert rc == cli.EXIT_RUNTIME
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_takes_out_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"out={tmp_path / 'data.csv'}\nsubjects=3\n")
    rc = cli.main(["gen", "--samples", "2", "--seed", "1", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    assert "wrote 3 subjects x 2 samples" in capsys.readouterr().out
    assert (tmp_path / "data.csv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_option_table_is_the_parsers():
    """The README's per-command table, with its option groups expanded,
    lists each subparser's options in usage order."""
    text = README.read_text()
    head = "| command | options besides `--config` |\n|---|---|\n"
    table, legend = text[text.index(head) + len(head):].split("\n\n")[:2]
    groups = {name: flags.split() for name, flags in re.findall(r"(\w+): `([^`]+)`", legend)}
    readme = {}
    for row in table.splitlines():
        _, command, options, _ = row.split("|")
        readme[command.strip(" `")] = [
            flag for part in options.split(", ") for flag in
            (part.strip(" `").split() if "`" in part else groups[part.strip()])]
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert readme == {
        command: [s for a in sub._actions for s in a.option_strings
                  if s.startswith("--") and s not in ("--help", "--config")]
        for command, sub in subparsers.items()}
