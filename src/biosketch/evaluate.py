"""Evaluation harness: GAR, empirical FAR, GAR-security sweeps, privacy.

The genuine accept rate enrolls every subject on its enrollment-half
samples and probes with the held-out half (or with the enrollment
representative itself, which by construction reproduces the enrolled bits).
Subjects whose enrollment fails under the fail-deny policy are reported and
excluded from the probe denominator. The probes of every enrolled subject
are stacked and decided in one ``authenticate_batch``, each row against its
own subject's record, so all RS decodes run as one batch.

The false accept rate is measured under two scenarios: ``zero-effort``
(impostor presents its own biometric and its own key against the victim's
record) and ``stolen-key`` (impostor biometric, victim's key). For the
stolen-key scenario the impostor bit source is either ``uniform`` fair coin
flips, which makes the analytic law 2^(-K*m) exact for the total decode
map, or ``dataset`` vectors from the other subjects. The uniform trials of
a block are drawn in one call whose bits are those of one
``rng.integers(0, 2, ...)`` draw per trial, so the rates do not depend on
how the trials are drawn.

Security is counted in message bits k = K * m; sweeping K at fixed m yields
the GAR-security trade-off curve, written as CSV with the header
``m,K,security_bits,rate,gar,far_analytic,far_empirical,scheme,policy,scenario``.
A sweep fuses the population, takes its medians and selects every
subject's key and enrolled bits once, then enrolls every K in one
``enroll_batch`` and decides it; a sweep without a seed runs every K, and
its FAR, under one seed drawn at its start.

That K-invariant half (fused rows, medians, selections) is also kept
across calls, in one slot: ``gar_stats``, ``empirical_far`` and
``run_gs_curve`` reuse it when the SHA-256 of the dataset (subject ids in
order; dtype, shape and bytes of every face and iris matrix) and of the
config fields it reads (seed, fusion mode, out_dim, m, window factor) match
the last seeded call. K, scheme and policy are not part of the key. A
config without a seed neither reuses nor replaces it, since each such call
draws fresh entropy; that holds for a sweep too, although it draws a seed
at its start. The slot keeps one population in memory after the call returns;
its fused matrices, medians and enrolled bits are read-only.

The slot's population also keeps a table of what each (K, scheme, policy)
asked for needs: its RS code and a read-only mapping of its enrollments,
so a repeated call only decides; the first call at a (K, scheme, policy)
builds the code and runs the one ``enroll_batch``. The code and records
depend only on the population and on those three fields, so a reused
entry equals a fresh one. An entry costs one code (0.1-0.3 MB of tables
at m = 8, 2-3 MB at m = 10, by K) and one record per enrolled subject
(salt, digest and, for fuzzy commitment, n offset bits). The table goes
with the population when the slot is replaced.
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import InsufficientDataError
from .gf import check_symbol_size
from .pipeline import (
    Enrollment,
    PipelineConfig,
    build_weights,
    derive_rng,
    enroll_split,
    fuse_dataset,
    population_from_fused,
    probe_bits,
    select_template,
)
from .quantizer import binarize
from .sketch import authenticate_batch, enroll_batch
from .synth import EmbeddingDataset

SCENARIO_ZERO_EFFORT = "zero-effort"
SCENARIO_STOLEN_KEY = "stolen-key"

GS_CSV_HEADER = "m,K,security_bits,rate,gar,far_analytic,far_empirical,scheme,policy,scenario"

# Trials whose probes are held at once: 4096 x 2040 bits is 8 MB at m = 8.
_FAR_BLOCK = 4096


@dataclass(frozen=True)
class ParamPlan:
    """Code parameters achieving a requested security level."""

    m: int
    n_symbols: int
    n_bits: int
    k_symbols: int
    security_bits: int       # achieved, K * m
    nominal_security: int    # requested
    rate: float              # security_bits / n_bits

    @property
    def t(self) -> int:
        return (self.n_symbols - self.k_symbols) // 2


def params_for_security(m: int, security_bits: int) -> ParamPlan:
    """Smallest-deviation K for a requested security level (half rounds up).

    Security is quantized to multiples of m because K is integral; both the
    nominal and the achieved level are reported.
    """
    check_symbol_size(m)
    n_symbols = (1 << m) - 1
    n_bits = m * n_symbols
    if not 1 <= security_bits <= n_bits:
        raise ValueError(
            f"security must be in 1..{n_bits} bits for m={m}, got {security_bits}"
        )
    k_symbols = min(n_symbols, max(1, math.floor(security_bits / m + 0.5)))
    return ParamPlan(
        m=m,
        n_symbols=n_symbols,
        n_bits=n_bits,
        k_symbols=k_symbols,
        security_bits=k_symbols * m,
        nominal_security=security_bits,
        rate=k_symbols * m / n_bits,
    )


def far_analytic(security_bits: int) -> float:
    """2^(-k); underflows to 0.0 beyond the float range."""
    return math.ldexp(1.0, -security_bits)


@dataclass(frozen=True)
class GarResult:
    rate: float
    accepted: int
    probed: int
    enrolled: int
    unenrollable: int


@dataclass(frozen=True)
class _Prepared:
    code: object
    pop: object
    fused: dict[str, np.ndarray]
    enrollments: Mapping[str, Enrollment]  # subjects missing here are unenrollable


# The PipelineConfig fields _fuse reads. The others only matter per K: they
# key the population's table of codes and enrollments, which _prepare fills.
_FUSE_FIELDS = ("seed", "fusion_mode", "out_dim", "m", "window_factor")
_PER_K_FIELDS = ("k_symbols", "scheme", "policy")

# (key, _fuse result) of the last seeded _fuse call.
_fuse_memo = None


def _fuse_key(dataset: EmbeddingDataset, config: PipelineConfig) -> bytes:
    digest = hashlib.sha256(repr([getattr(config, f) for f in _FUSE_FIELDS]).encode())
    for sid in dataset.subject_ids:
        digest.update(repr(sid).encode())
        for mat in (dataset.face[sid], dataset.iris[sid]):
            mat = np.ascontiguousarray(mat)
            digest.update(f"{mat.dtype.str}{mat.shape}".encode())
            digest.update(mat)
    return digest.digest()


def _fuse(dataset: EmbeddingDataset, config: PipelineConfig):
    """``_fuse_uncached`` plus an empty table of per-K codes and enrollments for
    ``_prepare``, both reused while the dataset content and the config's
    ``_FUSE_FIELDS`` match the last seeded call."""
    global _fuse_memo
    if config.seed is None:
        return *_fuse_uncached(dataset, config), {}
    key, memo = _fuse_key(dataset, config), _fuse_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    _fuse_memo = memo = None  # free the old population before building the next
    population = *_fuse_uncached(dataset, config), {}
    _fuse_memo = key, population
    return population


def _fuse_uncached(dataset: EmbeddingDataset, config: PipelineConfig):
    """K-invariant work: every subject's fused samples, the population stats
    and every subject's ``select_template``, with read-only arrays."""
    fused = fuse_dataset(dataset, build_weights(config, dataset.d_face, dataset.d_iris))
    pop = population_from_fused(fused)
    selections = {sid: select_template(config, mat[:enroll_split(mat.shape[0])], pop, sid)
                  for sid, mat in fused.items()}
    for arr in [*fused.values(), pop.median, *(r_a for _, r_a, _, _ in selections.values())]:
        arr.flags.writeable = False
    return fused, pop, selections


def _prepare(fused: dict[str, np.ndarray], pop, selections, prepared: dict,
             config: PipelineConfig) -> _Prepared:
    """Per-K work: the code, and every subject's enrollment under it, kept
    in the table ``prepared``; a miss builds the code and runs one
    ``enroll_batch``."""
    per_k = tuple(getattr(config, f) for f in _PER_K_FIELDS)
    prep = prepared.get(per_k)
    if prep is None:
        code = config.build_code()
        keys, bits, salts, seeds = zip(*selections.values())
        records = enroll_batch(config.scheme, np.stack(bits), code, config.policy, salts,
                               list(selections), seeds)
        prep = prepared[per_k] = _Prepared(code, pop, fused, MappingProxyType(
            {record.subject_id: Enrollment(record, key, r_a)
             for key, r_a, record in zip(keys, bits, records) if record is not None}))
    return prep


def _check_probe_mode(probe_mode: str) -> None:
    if probe_mode not in ("heldout", "enroll"):
        raise ValueError(f"unknown probe mode {probe_mode!r}")


def gar_stats(dataset: EmbeddingDataset, config: PipelineConfig,
              probe_mode: str = "heldout") -> GarResult:
    """Genuine accept rate over enrolled subjects.

    ``heldout`` probes each subject with its held-out samples;
    ``enroll`` probes with the enrollment representative itself.
    """
    _check_probe_mode(probe_mode)
    return _gar_stats(_prepare(*_fuse(dataset, config), config), probe_mode)


def _gar_stats(prep: _Prepared, probe_mode: str) -> GarResult:
    if not prep.enrollments:
        raise InsufficientDataError("no subject could be enrolled")
    records, probes, owner = [], [], []
    for sid, enr in prep.enrollments.items():
        mat = prep.fused[sid]
        cut = enroll_split(mat.shape[0])
        rows = mat[:cut].mean(axis=0, keepdims=True) if probe_mode == "enroll" else mat[cut:]
        owner.append(np.full(len(rows), len(records)))
        records.append(enr.record)
        probes.append(probe_bits(rows, prep.pop, enr.key))
    bits = np.concatenate(probes)
    if not len(bits):
        raise InsufficientDataError("no probe samples; need more than the enrollment half")
    batch = authenticate_batch(bits, records, np.concatenate(owner), prep.code)
    accepted, probed = int(batch.accepted.sum()), len(bits)
    return GarResult(rate=accepted / probed, accepted=accepted, probed=probed,
                     enrolled=len(prep.enrollments),
                     unenrollable=len(prep.fused) - len(prep.enrollments))


def gar(dataset: EmbeddingDataset, config: PipelineConfig,
        probe_mode: str = "heldout") -> float:
    return gar_stats(dataset, config, probe_mode).rate


def _uniform_bit_rows(rng: np.random.Generator, rows: int, n_bits: int) -> np.ndarray:
    """(rows, n_bits) fair bits, equal to ``rows`` draws in a row of
    ``rng.integers(0, 2, size=n_bits, dtype=np.uint8)``, in one call.

    numpy draws each bounded uint8 from the next byte of a buffered uint32,
    low byte first, and keeps its top bit for the range {0, 1}; every call
    starts on a fresh uint32. So row i is the top bits of the first n_bits
    bytes of uint32s i*w .. (i+1)*w - 1, w = ceil(n_bits / 4), and the
    generator ends in the same state as after the per-row loop.
    """
    w = -(-n_bits // 4)
    raw = rng.integers(0, 1 << 32, size=rows * w, dtype=np.uint32)
    return raw.astype("<u4", copy=False).view(np.uint8).reshape(rows, 4 * w)[:, :n_bits] >> 7


def _check_scenario(scenario: str) -> None:
    if scenario not in (SCENARIO_ZERO_EFFORT, SCENARIO_STOLEN_KEY):
        raise ValueError(f"unknown scenario {scenario!r}")


def _check_far_args(dataset: EmbeddingDataset, scenario: str, trials: int,
                    impostor_bits: str) -> None:
    _check_scenario(scenario)
    if impostor_bits not in ("uniform", "dataset"):
        raise ValueError(f"unknown impostor bit source {impostor_bits!r}")
    try:
        positive = not isinstance(trials, bool) and operator.index(trials) > 0
    except TypeError:
        positive = False
    if not positive:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if dataset.n_subjects < 2:
        raise InsufficientDataError("impostor trials need >= 2 subjects")


def empirical_far(dataset: EmbeddingDataset, config: PipelineConfig,
                  scenario: str, trials: int, seed,
                  impostor_bits: str = "uniform") -> float:
    """Monte-Carlo false accept rate under an impostor scenario.

    ``zero-effort`` always probes with dataset vectors and the impostor's
    own key; ``stolen-key`` uses the victim's key with either ``uniform``
    random bits or ``dataset`` impostor vectors.

    Trial i probes victim i mod (enrolled subjects). The probes of a block
    are drawn in trial order and decided in one ``authenticate_batch``,
    each row against its own victim's record. Uniform probes of a block
    come from one ``_uniform_bit_rows`` call, which gives the bits and the
    generator state of one ``rng.integers(0, 2, size=n_bits, dtype=np.uint8)``
    per trial.
    """
    _check_far_args(dataset, scenario, trials, impostor_bits)
    return _empirical_far(_prepare(*_fuse(dataset, config), config),
                          scenario, trials, seed, impostor_bits)


def _empirical_far(prep: _Prepared, scenario: str, trials: int, seed,
                   impostor_bits: str) -> float:
    sids = list(prep.enrollments)
    if len(sids) < 2:
        raise InsufficientDataError("need >= 2 enrolled subjects")
    rng = derive_rng(seed, "far", scenario, impostor_bits)
    if scenario == SCENARIO_STOLEN_KEY and impostor_bits == "uniform":
        def draw(victims: np.ndarray) -> np.ndarray:
            return _uniform_bit_rows(rng, len(victims), prep.code.n_bits)
    else:
        draw = _dataset_probes(prep, sids, rng, scenario == SCENARIO_STOLEN_KEY)
    records = [prep.enrollments[sid].record for sid in sids]
    accepts = 0
    for lo in range(0, trials, _FAR_BLOCK):
        victims = np.arange(lo, min(trials, lo + _FAR_BLOCK)) % len(sids)
        accepts += int(authenticate_batch(draw(victims), records, victims,
                                          prep.code).accepted.sum())
    return accepts / trials


def _dataset_probes(prep: _Prepared, sids: list[str], rng: np.random.Generator,
                    stolen_key: bool):
    """A function from a block's victims to its dataset-impostor probes.

    Each trial draws, in trial order, its impostor (the j-th subject other
    than the victim) and then one of the impostor's samples. The samples of
    every subject are binarized once, up front; a block gathers each key
    owner's rows (the victim's under a stolen key, else the impostor's)
    under that owner's key.
    """
    counts = [prep.fused[sid].shape[0] for sid in sids]
    starts = np.cumsum([0] + counts).tolist()
    bits = binarize(np.concatenate([prep.fused[sid] for sid in sids]), prep.pop)
    keys = [prep.enrollments[sid].key.index_array for sid in sids]

    def draw(victims: np.ndarray) -> np.ndarray:
        rows, key_owner = [], []
        for v in victims.tolist():
            j = int(rng.integers(len(sids) - 1))
            impostor = j + (j >= v)
            rows.append(starts[impostor] + int(rng.integers(counts[impostor])))
            key_owner.append(v if stolen_key else impostor)
        rows, key_owner = np.array(rows), np.array(key_owner)
        probes = np.empty((len(rows), prep.code.n_bits), dtype=np.uint8)
        for owner in np.unique(key_owner):
            at = np.flatnonzero(key_owner == owner)
            probes[at] = bits[np.ix_(rows[at], keys[owner])]
        return probes

    return draw


@dataclass(frozen=True)
class GsCurvePoint:
    m: int
    k_symbols: int
    security_bits: int
    rate: float
    gar: float
    far_analytic: float
    far_empirical: float | None
    scheme: str
    policy: str
    scenario: str


def run_gs_curve(dataset: EmbeddingDataset, config: PipelineConfig,
                 k_list, scenario: str = SCENARIO_STOLEN_KEY,
                 far_trials: int | None = None) -> list[GsCurvePoint]:
    """One GAR-security point per K; deterministic given dataset and config.

    GAR probes every enrolled subject with its held-out samples. Enrollment
    and the FAR trials both draw from ``config.seed``.

    ``far_trials=None`` leaves the empirical FAR column empty.
    """
    _check_scenario(scenario)
    if far_trials is not None:
        _check_far_args(dataset, scenario, far_trials, "uniform")
    if config.seed is None:
        # A seed drawn here is never named again: leave the memo slot alone.
        config = replace(config, seed=int(np.random.default_rng().integers(0, 2**63)))
        population = *_fuse_uncached(dataset, config), {}
    else:
        population = _fuse(dataset, config)
    points = []
    for k_symbols in k_list:
        cfg = replace(config, k_symbols=int(k_symbols))
        security = cfg.k_symbols * cfg.m
        prep = _prepare(*population, cfg)
        g = _gar_stats(prep, "heldout").rate
        fe = (_empirical_far(prep, scenario, far_trials, config.seed, "uniform")
              if far_trials is not None else None)
        points.append(GsCurvePoint(
            m=cfg.m, k_symbols=cfg.k_symbols, security_bits=security,
            rate=security / cfg.n_bits, gar=g,
            far_analytic=far_analytic(security), far_empirical=fe,
            scheme=cfg.scheme, policy=cfg.policy.value, scenario=scenario,
        ))
    return points


def gs_curve_csv(points) -> str:
    """Render curve points as CSV; floats use repr so bytes are stable."""
    buf = io.StringIO()
    buf.write(GS_CSV_HEADER + "\n")
    for p in points:
        fe = "" if p.far_empirical is None else repr(p.far_empirical)
        buf.write(
            f"{p.m},{p.k_symbols},{p.security_bits},{p.rate!r},{p.gar!r},"
            f"{p.far_analytic!r},{fe},{p.scheme},{p.policy},{p.scenario}\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class PrivacyReport:
    """Worst-case information exposure when key and sketch leak.

    The enrolled binary feature vector has one balanced bit per dimension,
    so its entropy is d bits; an adversary holding the key and sketch
    observes at most the n exposed component bits, leaving d - n bits of
    uncertainty.
    """

    feature_bits: int        # d = H(x)
    exposed_bits: int        # n
    max_leakage_bits: int    # I(x; V) <= n
    residual_bits: int       # d - n

    def __post_init__(self):
        if self.residual_bits != self.feature_bits - self.exposed_bits:
            raise ValueError(
                f"residual bits {self.residual_bits} != feature bits "
                f"{self.feature_bits} - exposed bits {self.exposed_bits}"
            )


def privacy_report(feature_bits: int, exposed_bits: int) -> PrivacyReport:
    if feature_bits <= 0 or exposed_bits < 0:
        raise ValueError("feature_bits must be positive and exposed_bits >= 0")
    if exposed_bits > feature_bits:
        raise ValueError(
            f"exposed bits {exposed_bits} exceed feature bits {feature_bits}"
        )
    return PrivacyReport(
        feature_bits=feature_bits,
        exposed_bits=exposed_bits,
        max_leakage_bits=exposed_bits,
        residual_bits=feature_bits - exposed_bits,
    )
