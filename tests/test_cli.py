import os
import subprocess
import sys
from pathlib import Path

import pytest

import biosketch
from biosketch import cli

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


@pytest.mark.parametrize("factor", ["inf", "nan"])
def test_enroll_with_non_finite_window_factor_is_runtime_error_and_writes_nothing(
        dataset_csv, tmp_path, capsys, factor):
    flags = pipeline_flags(dataset_csv, tmp_path) + ["--window-factor", factor]
    rc = cli.main(["enroll", "--subject", "s0000"] + flags)
    assert rc == cli.EXIT_RUNTIME
    assert "window_factor must be finite" in capsys.readouterr().err
    assert not [p for d in ("templates", "keys") for p in (tmp_path / d).glob("*")]


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


def test_oracle_collision_output(capsys):
    rc = cli.main(["oracle", "--m", "3", "--k-symbols", "1",
                   "--trials", "3000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "collision_rate=" in out
    assert "analytic=0.125" in out


def test_oracle_received_decode(capsys):
    rc = cli.main(["oracle", "--m", "3", "--k-symbols", "3",
                   "--received", "0,0,0,0,0,0,0"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "distance=0" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
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


def test_cli_never_imports_scipy(dataset_csv, tmp_path):
    flags = pipeline_flags(dataset_csv, tmp_path)
    enroll = ["enroll", "--subject", "s0000"] + flags
    auth = ["auth", "--subject", "s0000", "--probe-sample", "1"] + flags
    script = (
        "import sys, biosketch, biosketch.cli\n"
        f"rc = biosketch.cli.main({enroll!r}) or biosketch.cli.main({auth!r})\n"
        "print('scipy', any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
        "sys.exit(rc)\n"
    )
    src = str(Path(biosketch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "ACCEPT (hash-match)" in proc.stdout
    assert "scipy False" in proc.stdout


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
    assert "error:" in captured.err


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
