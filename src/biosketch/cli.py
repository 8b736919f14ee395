"""Command-line surface for the template-protection pipeline.

Subcommands: ``gen`` (synthetic dataset), ``params`` (code planning),
``enroll``, ``auth``, ``revoke`` and ``eval`` (GAR-security CSV sweep).
``_OPTIONS`` states once, for each option, its cast, the commands that take
it, the commands that require it and its help; a command takes only the
options its row names, and any other flag is a usage error. With no
``--seed``, enrollment randomness comes from OS entropy; ``auth`` then needs
``--weights`` unless the fusion draws no weights (bla without a projection).

``--out-dim`` is required because at its smallest legal value, G, the key
selects every component, so a revoked subject would be re-issued the same
key. The model options a run leaves out (scheme, policy, fusion mode,
window factor) take ``PipelineConfig``'s defaults. A ``--weights`` file must
agree with ``--out-dim`` and with ``--fusion`` when given, as ``auth``'s
scheme and policy must agree with the record.

Exit codes: 0 success/accept, 1 deny, 2 usage error, 3 runtime error.

A ``--config`` file holds ``key=value`` lines using the long option names
without the leading dashes (e.g. ``m=5``); explicit flags win over the file.
One file can serve every command: a key that another command takes is
ignored; a key that no command takes, or one set twice, is a runtime error.
A file cannot set ``config`` or ``overwrite``: it names no further file, and
replacing an enrolled template is asked for on the command line of each run.

``run()`` is the process entry (``python -m biosketch.cli`` and the installed
``biosketch`` command). It calls ``gc.freeze()`` once the imports are done,
so the collector's last pass at interpreter exit skips numpy's import-time
objects. ``main()`` never freezes: tests and benchmarks call it in-process,
where a freeze would outlive the call. ``evaluate`` is imported only by
``params`` and ``eval``, the commands that use it.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import gf, store, synth
from .errors import (BiosketchError, DimensionMismatchError, DuplicateSubjectError,
                     ParameterMismatchError)
from .fusion import MODE_BLA, MODE_FCA, fuse_rows, load_weights
from .pipeline import PipelineConfig, build_weights, enroll_split, enroll_vectors
from .quantizer import binarize, population_stats
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
_FUSIONS = {mode: mode for mode in (MODE_FCA, MODE_BLA)}
# evaluate's SCENARIO_ZERO_EFFORT and SCENARIO_STOLEN_KEY, named here so that
# building the parser does not import evaluate.
_SCENARIOS = {s: s for s in ("zero-effort", "stolen-key")}
_PIPELINE = "enroll auth eval"

# One row per option: flag, cast, the commands that take it, the commands
# that require it, help. A dict cast maps each allowed value to the value
# the command reads; ``bool`` marks a store-true flag.
_OPTIONS = (
    ("--seed", int, "gen enroll auth eval", "", "master seed for reproducibility"),
    ("--m", int, "params enroll auth eval", "params enroll auth eval", "symbol size in bits"),
    ("--scheme", _SCHEMES, _PIPELINE, "", "secure sketch or fuzzy commitment"),
    ("--policy", _POLICIES, _PIPELINE, "", "decode policy"),
    ("--dataset", str, _PIPELINE, _PIPELINE, "embeddings CSV"),
    ("--fusion", _FUSIONS, _PIPELINE, "", "fusion mode"),
    ("--out-dim", int, _PIPELINE, _PIPELINE, "fused vector dimension"),
    ("--templates-dir", str, "enroll auth revoke", "", "record store"),
    ("--keys-dir", str, "enroll auth revoke", "", "keystore"),
    ("--k-symbols", int, "enroll auth", "enroll auth", "message length K in symbols"),
    ("--window-factor", float, "enroll eval", "", "reliable-selection window factor"),
    ("--weights", str, "enroll auth", "", "fusion weights file"),
    ("--subject", str, "enroll auth revoke", "enroll auth revoke",
     "subject id; for auth, the claimed identity"),
    ("--overwrite", bool, "enroll", "", "replace a stored record and key"),
    ("--probe-subject", str, "auth", "", "actual biometric owner (defaults to --subject)"),
    ("--probe-sample", int, "auth", "", "sample index"),
    ("--k-list", str, "eval", "eval", "comma-separated K values"),
    ("--scenario", _SCENARIOS, "eval", "", "empirical FAR attack"),
    ("--trials", int, "eval", "", "Monte Carlo trials of the empirical FAR per point"),
    ("--security", int, "params", "", "target security in bits (prints the K for it)"),
    ("--subjects", int, "gen", "", "number of subjects"),
    ("--samples", int, "gen", "", "samples per subject"),
    ("--d-face", int, "gen", "", "face embedding dimension"),
    ("--d-iris", int, "gen", "", "iris embedding dimension"),
    ("--between-std", float, "gen", "", "spread of the subject means"),
    ("--within-std", float, "gen", "", "spread of a subject's samples"),
    ("--out", str, "gen eval", "gen", "output CSV, or stdout for an eval without it"),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


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
            key = key.strip().replace("-", "_")
            if key in values:
                raise BiosketchError(f"{path}:{lineno}: {key!r} is set twice")
            values[key] = value.strip()
    return values


def _cast_options(args: argparse.Namespace):
    """Fill the options left out on the command line from ``--config``, then
    cast each given option of ``args.command`` once and check the required."""
    taken = {_dest(flag) for flag, *_ in _OPTIONS}
    for key, raw in (_read_config_file(args.config) if args.config else {}).items():
        # A file names no further file, and replacing an enrolled template
        # is asked for on the command line of each run.
        if key in ("config", "overwrite"):
            raise BiosketchError(f"{args.config}: {key!r} is taken only on the command line")
        if key not in taken:
            raise BiosketchError(f"{args.config}: no command takes {key!r}")
        if key in vars(args) and getattr(args, key) is None:  # explicit flags win
            setattr(args, key, raw)
    for flag, cast, commands, required, _ in _OPTIONS:
        if args.command not in commands.split():
            continue
        value = getattr(args, _dest(flag))
        if value is None:
            if args.command in required.split():
                raise BiosketchError(f"missing required option {flag}")
        elif isinstance(cast, dict):
            # argparse checks the flags; a --config value reaches here unchecked.
            if value not in cast:
                raise BiosketchError(
                    f"{flag} must be one of {', '.join(sorted(cast))}, got {value!r}")
            setattr(args, _dest(flag), cast[value])
        else:
            setattr(args, _dest(flag), cast(value))


def _default(value, default):
    """``default`` when an option is absent; a given empty string is kept."""
    return default if value is None else value


def _pipeline_config(args, k_symbols: int) -> PipelineConfig:
    # auth takes no --window-factor: the stored key has already selected.
    optional = {"scheme": args.scheme, "policy": args.policy, "fusion_mode": args.fusion,
                "window_factor": getattr(args, "window_factor", None)}
    # Only the options given reach PipelineConfig, which owns the defaults.
    return PipelineConfig(m=args.m, k_symbols=k_symbols, out_dim=args.out_dim,
                          seed=args.seed,
                          **{k: v for k, v in optional.items() if v is not None})


def _stores(args) -> tuple[store.TemplateDb, store.KeyStore]:
    return (store.TemplateDb(_default(args.templates_dir, "templates")),
            store.KeyStore(_default(args.keys_dir, "keys")))


def _check_agrees(args, pairs, what: str):
    """Each option given, as a flag or in --config, must hold ``what``'s value."""
    for name, given, stored in pairs:
        if getattr(args, name) is not None and given != stored:
            raise ParameterMismatchError(
                f"--{name.replace('_', '-')} {given} contradicts {what} ({stored})")


def _load_model(args, config: PipelineConfig):
    """The dataset and the fusion weights of a pipeline command."""
    dataset = synth.read_embeddings(args.dataset)
    if args.weights:
        weights = load_weights(args.weights)
        _check_agrees(args, (("out_dim", config.out_dim, weights.out_dim),
                             ("fusion", config.fusion_mode, weights.mode)),
                      f"the weights file {args.weights}")
    else:
        weights = build_weights(config, dataset.d_face, dataset.d_iris)
    # fuse_rows refuses a non-finite value only in the rows it fuses, and
    # the commands fuse only some rows.
    if not all(np.isfinite(mat).all() for mats in (dataset.face, dataset.iris)
               for mat in mats.values()):
        raise ValueError("embedding contains non-finite values")
    return dataset, weights


def _fuse_halves(dataset: synth.EmbeddingDataset, weights, key=None):
    """Every subject's fused enrollment half, fused in one call, and the
    population statistics over them; no other row is fused. Given a ``key``,
    the statistics cover only its columns, which are all a probe reads."""
    cuts = {sid: enroll_split(dataset.n_samples(sid)) for sid in dataset.subject_ids}
    fused = fuse_rows(np.concatenate([dataset.face[sid][:cut] for sid, cut in cuts.items()]),
                      np.concatenate([dataset.iris[sid][:cut] for sid, cut in cuts.items()]),
                      weights)
    ranked = fused
    if key is not None:
        # population_stats refuses a non-finite value only in the columns it
        # ranks, and the gather needs extract's check of the key's dimension.
        if not np.isfinite(fused).all():
            raise ValueError("non-finite values in population vectors")
        if key.dimension != fused.shape[1]:
            raise DimensionMismatchError(
                f"key is for {key.dimension} dimensions, got {fused.shape[1]} bits")
        ranked = fused[:, key.index_array]
    pop = population_stats(ranked, [sid for sid, cut in cuts.items() for _ in range(cut)])
    ends = np.cumsum(list(cuts.values()))
    return dict(zip(cuts, np.split(fused, ends[:-1]))), pop


def cmd_gen(args) -> int:
    dataset = synth.gen_population(
        num_subjects=_default(args.subjects, 50),
        samples_per_subject=_default(args.samples, 20),
        d_face=_default(args.d_face, 64),
        d_iris=_default(args.d_iris, 64),
        between_std=_default(args.between_std, 1.0),
        within_std=_default(args.within_std, 0.3),
        seed=_default(args.seed, 0),
    )
    synth.write_embeddings(dataset, args.out)
    print(f"wrote {dataset.n_subjects} subjects x "
          f"{dataset.n_samples(dataset.subject_ids[0])} samples to {args.out}")
    return EXIT_OK


def cmd_params(args) -> int:
    from . import evaluate

    gf.check_symbol_size(args.m)
    n_symbols = (1 << args.m) - 1
    print(f"m={args.m} N={n_symbols} n={args.m * n_symbols}")
    if args.security is not None:
        plan = evaluate.params_for_security(args.m, args.security)
        print(f"K={plan.k_symbols} t={plan.t} "
              f"security={plan.security_bits} (requested {plan.nominal_security}) "
              f"rate={plan.rate:.4f}")
    return EXIT_OK


def cmd_enroll(args) -> int:
    config = _pipeline_config(args, args.k_symbols)
    dataset, weights = _load_model(args, config)
    subject = args.subject
    if subject not in dataset.face:
        raise BiosketchError(f"subject {subject!r} not in dataset")
    db, ks = _stores(args)
    if not args.overwrite:
        for existing in (db, ks):
            if existing.exists(subject):
                raise DuplicateSubjectError(
                    f"{subject!r} already stored in {existing.path}")
    halves, pop = _fuse_halves(dataset, weights)
    enr = enroll_vectors(config, config.build_code(), halves[subject], pop, subject_id=subject)
    # Key first: a record on disk always has its key, so an interrupted
    # enroll leaves at most a stray key, which never authenticates.
    ks.save(subject, enr.key, overwrite=args.overwrite)
    db.save(subject, enr.record, overwrite=args.overwrite)
    print(f"enrolled {subject}: scheme={enr.record.scheme} m={config.m} "
          f"K={config.k_symbols} G={config.reliable_count}")
    return EXIT_OK


def cmd_auth(args) -> int:
    config = _pipeline_config(args, args.k_symbols)
    dataset, weights = _load_model(args, config)
    if args.seed is None and not args.weights and (weights.W is not None
                                                   or weights.P is not None):
        raise BiosketchError("auth needs --seed or --weights: fusion weights drawn "
                             "from OS entropy match no enrollment")
    subject = args.subject
    probe_subject = _default(args.probe_subject, subject)
    sample = _default(args.probe_sample, 0)
    if probe_subject not in dataset.face:
        raise BiosketchError(f"subject {probe_subject!r} not in dataset")
    if not 0 <= sample < dataset.n_samples(probe_subject):
        raise BiosketchError(f"probe sample {sample} out of range")
    db, ks = _stores(args)
    record = db.load(subject)
    _check_agrees(args, (("m", config.m, record.params.m),
                         ("k_symbols", config.k_symbols, record.params.k_symbols),
                         ("scheme", config.scheme, record.scheme),
                         ("policy", config.policy.value, record.params.policy.value)),
                  f"the record of {subject!r}")
    key = ks.load(subject)
    # Fusion stays full width: W[idx] @ x may round differently from
    # (W @ x)[idx], and only the latter is what enroll ranked.
    _, pop = _fuse_halves(dataset, weights, key)
    probe = fuse_rows(dataset.face[probe_subject][sample:sample + 1],
                      dataset.iris[probe_subject][sample:sample + 1], weights)[0]
    r_b = binarize(probe[key.index_array], pop)
    decision = authenticate(r_b, record, config.build_code())
    if decision.accepted:
        print(f"ACCEPT ({decision.reason.value})")
        return EXIT_OK
    print(f"DENY ({decision.reason.value})")
    return EXIT_DENY


def cmd_revoke(args) -> int:
    db, ks = _stores(args)
    store.revoke(db, ks, args.subject)
    print(f"revoked {args.subject}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evaluate

    k_list = [int(v) for v in args.k_list.split(",") if v]
    if not k_list:
        raise BiosketchError("--k-list names no K")
    config = _pipeline_config(args, k_list[0])
    dataset = synth.read_embeddings(args.dataset)
    points = evaluate.run_gs_curve(
        dataset, config, k_list,
        scenario=_default(args.scenario, evaluate.SCENARIO_STOLEN_KEY),
        far_trials=args.trials)
    csv_text = evaluate.gs_curve_csv(points)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv_text)
        print(f"wrote {len(points)} curve points to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biosketch",
        description="Multibiometric template protection and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
            ("gen", cmd_gen, "generate a synthetic embeddings CSV"),
            ("params", cmd_params, "plan code parameters for a security level"),
            ("enroll", cmd_enroll, "enroll a subject from a dataset"),
            ("auth", cmd_auth, "authenticate a probe against a record"),
            ("revoke", cmd_revoke, "delete a subject's record and key"),
            ("eval", cmd_eval, "GAR-security sweep, written as CSV")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value defaults file")
        for flag, cast, commands, required, text in _OPTIONS:
            if name not in commands.split():
                continue
            text += " (required)" if name in required.split() else ""
            if cast is bool:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, choices=sorted(cast) if isinstance(cast, dict) else None,
                               help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _cast_options(args)
        return args.func(args)
    except (BiosketchError, ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> int:
    """Process entry: freeze the import-time heap, then ``main()``."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
