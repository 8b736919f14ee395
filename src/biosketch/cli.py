"""Command-line surface for the template-protection pipeline.

Subcommands: ``gen`` (synthetic dataset), ``params`` (code planning),
``enroll``, ``auth``, ``revoke``, ``eval`` (GAR-security CSV sweep) and
``oracle`` (small-code collision demo). Each subcommand takes only the
options it reads. ``gen``, ``enroll``, ``auth``, ``eval`` and ``oracle``
take ``--seed`` for bit-exact reproducibility; without it, enrollment
randomness comes from OS entropy.

Each value has one way to be set. ``enroll`` and ``auth`` take the message
length K as ``--k-symbols``, and ``eval`` takes the K values of its sweep as
``--k-list``; ``params --security`` prints the K for a security target.
``enroll``, ``auth`` and ``eval`` require ``--out-dim``: at the smallest
legal value, G, the key selects every component, so a revoked subject would
be re-issued the same key. The model options a run leaves out (scheme,
policy, fusion mode, window factor) take ``PipelineConfig``'s defaults. A
``--weights`` file must agree with ``--out-dim`` and with ``--fusion`` when
given, as ``auth``'s scheme and policy must agree with the record.

Exit codes: 0 success/accept, 1 deny, 2 usage error, 3 runtime error.

A ``--config`` file holds ``key=value`` lines using the long option names
without the leading dashes (e.g. ``m=5``); explicit flags win over the file.
One file can serve every command: a key that another command takes is
ignored, and a key that no command takes is a runtime error. A file cannot
set ``config`` or ``overwrite``: it names no further file, and replacing an
enrolled template is asked for on the command line of each run.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluate, gf, oracle, store, synth
from .errors import BiosketchError, DuplicateSubjectError, ParameterMismatchError
from .fusion import load_weights
from .pipeline import (
    PipelineConfig,
    build_weights,
    enroll_split,
    enroll_vectors,
    fuse_dataset,
    population_from_fused,
    probe_bits,
)
from .rs import DecodePolicy
from .sketch import SCHEME_FUZZY_COMMITMENT, SCHEME_SECURE_SKETCH, authenticate

EXIT_OK = 0
EXIT_DENY = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_SCHEMES = {"ss": SCHEME_SECURE_SKETCH, "fc": SCHEME_FUZZY_COMMITMENT}
_POLICIES = {
    "fail-deny": DecodePolicy.FAIL_DENY,
    "fallback": DecodePolicy.FALLBACK_SYSTEMATIC,
}
# A --config file names no further file, and replacing an enrolled template
# is asked for on the command line of each run.
_COMMAND_LINE_ONLY = frozenset({"config", "overwrite"})


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise BiosketchError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace):
    if not args.config:
        return
    overrides = _read_config_file(args.config)
    for key, raw in overrides.items():
        if key in _COMMAND_LINE_ONLY:
            raise BiosketchError(f"{args.config}: {key!r} is taken only on the command line")
        if key not in args.option_names:
            raise BiosketchError(f"{args.config}: no command takes {key!r}")
        if not hasattr(args, key):  # another command's option
            continue
        if getattr(args, key) is not None:  # explicit flag wins
            continue
        setattr(args, key, raw)


def _resolve(args, name, cast, default=None, required=False):
    value = getattr(args, name, None)
    if value is None:
        if required:
            raise BiosketchError(f"missing required option --{name.replace('_', '-')}")
        return default
    return cast(value)


def _choice(args, name, table):
    # argparse checks the flags; a --config value reaches here unchecked.
    value = _resolve(args, name, str)
    if value is not None and value not in table:
        raise BiosketchError(
            f"--{name} must be one of {', '.join(sorted(table))}, got {value!r}")
    return table.get(value)


def _pipeline_config(args, k_symbols: int) -> PipelineConfig:
    optional = {"scheme": _choice(args, "scheme", _SCHEMES),
                "policy": _choice(args, "policy", _POLICIES),
                "fusion_mode": _resolve(args, "fusion", str),
                "window_factor": _resolve(args, "window_factor", float)}
    # Only the options given reach PipelineConfig, which owns the defaults.
    return PipelineConfig(m=_resolve(args, "m", int, required=True), k_symbols=k_symbols,
                          out_dim=_resolve(args, "out_dim", int, required=True),
                          seed=_resolve(args, "seed", int),
                          **{k: v for k, v in optional.items() if v is not None})


def _stores(args) -> tuple[store.TemplateDb, store.KeyStore]:
    return (store.TemplateDb(_resolve(args, "templates_dir", str, default="templates")),
            store.KeyStore(_resolve(args, "keys_dir", str, default="keys")))


def _check_agrees(args, pairs, what: str):
    """Each option given, as a flag or in --config, must hold ``what``'s value."""
    for name, given, stored in pairs:
        if getattr(args, name) is not None and given != stored:
            raise ParameterMismatchError(
                f"--{name.replace('_', '-')} {getattr(args, name)} contradicts {what} "
                f"({stored})")


def _load_pipeline_data(args, config: PipelineConfig):
    dataset = synth.read_embeddings(_resolve(args, "dataset", str, required=True))
    weights_path = _resolve(args, "weights", str)
    if weights_path:
        weights = load_weights(weights_path)
        _check_agrees(args, (("out_dim", config.out_dim, weights.out_dim),
                             ("fusion", config.fusion_mode, weights.mode)),
                      f"the weights file {weights_path}")
    else:
        weights = build_weights(config, dataset.d_face, dataset.d_iris)
    fused = fuse_dataset(dataset, weights)
    pop = population_from_fused(fused)
    return fused, pop


def cmd_gen(args) -> int:
    dataset = synth.gen_population(
        num_subjects=_resolve(args, "subjects", int, default=50),
        samples_per_subject=_resolve(args, "samples", int, default=20),
        d_face=_resolve(args, "d_face", int, default=64),
        d_iris=_resolve(args, "d_iris", int, default=64),
        between_std=_resolve(args, "between_std", float, default=1.0),
        within_std=_resolve(args, "within_std", float, default=0.3),
        seed=_resolve(args, "seed", int, default=0),
    )
    out = _resolve(args, "out", str, required=True)
    synth.write_embeddings(dataset, out)
    print(f"wrote {dataset.n_subjects} subjects x "
          f"{dataset.n_samples(dataset.subject_ids[0])} samples to {out}")
    return EXIT_OK


def cmd_params(args) -> int:
    m = _resolve(args, "m", int, required=True)
    gf.check_symbol_size(m)
    n_symbols = (1 << m) - 1
    print(f"m={m} N={n_symbols} n={m * n_symbols}")
    security = _resolve(args, "security", int)
    if security is not None:
        plan = evaluate.params_for_security(m, security)
        print(f"K={plan.k_symbols} t={plan.t} "
              f"security={plan.security_bits} (requested {plan.nominal_security}) "
              f"rate={plan.rate:.4f}")
    return EXIT_OK


def cmd_enroll(args) -> int:
    config = _pipeline_config(args, _resolve(args, "k_symbols", int, required=True))
    fused, pop = _load_pipeline_data(args, config)
    subject = _resolve(args, "subject", str, required=True)
    if subject not in fused:
        raise BiosketchError(f"subject {subject!r} not in dataset")
    db, ks = _stores(args)
    overwrite = bool(getattr(args, "overwrite", False))
    if not overwrite:
        for existing in (db, ks):
            if existing.exists(subject):
                raise DuplicateSubjectError(
                    f"{subject!r} already stored in {existing.path}")
    code = config.build_code()
    mat = fused[subject]
    enr = enroll_vectors(config, code, mat[: enroll_split(mat.shape[0])], pop,
                         subject_id=subject)
    # Key first: a record on disk always has its key, so an interrupted
    # enroll leaves at most a stray key, which never authenticates.
    ks.save(subject, enr.key, overwrite=overwrite)
    db.save(subject, enr.record, overwrite=overwrite)
    print(f"enrolled {subject}: scheme={enr.record.scheme} m={config.m} "
          f"K={config.k_symbols} G={config.reliable_count}")
    return EXIT_OK


def cmd_auth(args) -> int:
    config = _pipeline_config(args, _resolve(args, "k_symbols", int, required=True))
    fused, pop = _load_pipeline_data(args, config)
    subject = _resolve(args, "subject", str, required=True)
    probe_subject = _resolve(args, "probe_subject", str, default=subject)
    sample = _resolve(args, "probe_sample", int, default=0)
    if probe_subject not in fused:
        raise BiosketchError(f"subject {probe_subject!r} not in dataset")
    mat = fused[probe_subject]
    if not 0 <= sample < mat.shape[0]:
        raise BiosketchError(f"probe sample {sample} out of range")
    db, ks = _stores(args)
    record = db.load(subject)
    _check_agrees(args, (("scheme", config.scheme, record.scheme),
                         ("policy", config.policy.value, record.params.policy.value)),
                  f"the record of {subject!r}")
    key = ks.load(subject)
    r_b = probe_bits(mat[sample], pop, key)
    decision = authenticate(r_b, record, config.build_code())
    if decision.accepted:
        print(f"ACCEPT ({decision.reason.value})")
        return EXIT_OK
    print(f"DENY ({decision.reason.value})")
    return EXIT_DENY


def cmd_revoke(args) -> int:
    subject = _resolve(args, "subject", str, required=True)
    db, ks = _stores(args)
    store.revoke(db, ks, subject)
    print(f"revoked {subject}")
    return EXIT_OK


def cmd_eval(args) -> int:
    k_list = [int(v) for v in _resolve(args, "k_list", str, required=True).split(",") if v]
    if not k_list:
        raise BiosketchError("--k-list names no K")
    config = _pipeline_config(args, k_list[0])
    dataset = synth.read_embeddings(_resolve(args, "dataset", str, required=True))
    scenario = _resolve(args, "scenario", str, default=evaluate.SCENARIO_STOLEN_KEY)
    trials = _resolve(args, "trials", int)
    points = evaluate.run_gs_curve(dataset, config, k_list, scenario=scenario,
                                   far_trials=trials)
    out = _resolve(args, "out", str)
    csv_text = evaluate.gs_curve_csv(points)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(csv_text)
        print(f"wrote {len(points)} curve points to {out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    m = _resolve(args, "m", int, required=True)
    k_symbols = _resolve(args, "k_symbols", int, required=True)
    code = PipelineConfig(m=m, k_symbols=k_symbols).build_code()
    received = _resolve(args, "received", str)
    if received:
        symbols = [int(v) for v in received.split(",")]
        result = oracle.nearest_codeword(code, symbols)
        print(f"distance={result.distance} ties={len(result.codewords)}")
        for cw in result.codewords:
            print(",".join(str(s) for s in cw))
        return EXIT_OK
    trials = _resolve(args, "trials", int, default=10000)
    seed = _resolve(args, "seed", int, default=0)
    rate = oracle.column_collision_rate(code, trials, seed)
    security = k_symbols * m
    print(f"collision_rate={rate:.6g} analytic={2.0 ** -security:.6g} "
          f"trials={trials} security_bits={security}")
    return EXIT_OK


def _add_seed(add):
    add("--seed", help="master seed for reproducibility")


def _add_code_options(add):
    add("--m", help="symbol size in bits")
    add("--scheme", choices=sorted(_SCHEMES), help="ss or fc")
    add("--policy", choices=sorted(_POLICIES), help="decode policy")


def _add_model_options(add):
    add("--dataset", help="embeddings CSV")
    add("--fusion", choices=["fca", "bla"], help="fusion mode")
    add("--out-dim", help="fused vector dimension (required)")


def _add_store_options(add):
    add("--templates-dir", help="record store")
    add("--keys-dir", help="keystore")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biosketch",
        description="Multibiometric template protection and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    option_names: set[str] = set()

    def command(name, func, help_text, *groups):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)

        def add(*flags, **kwargs):
            option_names.add(p.add_argument(*flags, **kwargs).dest)

        add("--config", help="key=value defaults file")
        for group in groups:
            group(add)
        return add

    add = command("gen", cmd_gen, "generate a synthetic embeddings CSV", _add_seed)
    add("--subjects")
    add("--samples")
    add("--d-face")
    add("--d-iris")
    add("--between-std")
    add("--within-std")
    add("--out", required=True)

    add = command("params", cmd_params, "plan code parameters for a security level")
    add("--m")
    add("--security", help="target security in bits (prints the K for it)")

    add = command("enroll", cmd_enroll, "enroll a subject from a dataset", _add_seed,
                  _add_code_options, _add_model_options, _add_store_options)
    add("--k-symbols", help="message length K in symbols")
    add("--window-factor", help="reliable-selection window factor")
    add("--weights", help="fusion weights file")
    add("--subject", help="subject id to enroll")
    add("--overwrite", action="store_true")

    add = command("auth", cmd_auth, "authenticate a probe against a record", _add_seed,
                  _add_code_options, _add_model_options, _add_store_options)
    add("--k-symbols", help="message length K in symbols")
    add("--weights", help="fusion weights file")
    add("--subject", help="claimed identity")
    add("--probe-subject",
        help="actual biometric owner (defaults to --subject)")
    add("--probe-sample", help="sample index")

    add = command("revoke", cmd_revoke, "delete a subject's record and key",
                  _add_store_options)
    add("--subject")

    add = command("eval", cmd_eval, "GAR-security sweep, written as CSV", _add_seed,
                  _add_code_options, _add_model_options)
    add("--window-factor", help="reliable-selection window factor")
    add("--k-list", help="comma-separated K values")
    add("--scenario", choices=[evaluate.SCENARIO_ZERO_EFFORT, evaluate.SCENARIO_STOLEN_KEY])
    add("--trials", help="empirical FAR trials per point")
    add("--out", help="output CSV path (stdout when omitted)")

    add = command("oracle", cmd_oracle, "brute-force decoder demos on small codes",
                  _add_seed)
    add("--m")
    add("--k-symbols")
    add("--trials")
    add("--received", help="comma-separated symbols to decode exhaustively")

    # A --config key outside every command's options is a typo.
    parser.set_defaults(option_names=frozenset(option_names))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except BiosketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
