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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

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
    try:
        return math.ldexp(1.0, -security_bits)
    except OverflowError:
        return 0.0


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
    enrollments: dict[str, Enrollment]  # subjects missing here are unenrollable


def _fuse(dataset: EmbeddingDataset, config: PipelineConfig):
    """K-invariant work: every subject's fused samples, the population stats
    and every subject's ``select_template``."""
    fused = fuse_dataset(dataset, build_weights(config, dataset.d_face, dataset.d_iris))
    pop = population_from_fused(fused)
    selections = {sid: select_template(config, mat[:enroll_split(mat.shape[0])], pop, sid)
                  for sid, mat in fused.items()}
    return fused, pop, selections


def _prepare(fused: dict[str, np.ndarray], pop, selections,
             config: PipelineConfig) -> _Prepared:
    """Per-K work: the code and one ``enroll_batch`` of every subject under it."""
    code = config.build_code()
    keys, bits, salts, seeds = zip(*selections.values())
    records = enroll_batch(config.scheme, np.stack(bits), code, config.policy, salts,
                           list(selections), seeds)
    enrollments = {record.subject_id: Enrollment(record, key, r_a)
                   for key, r_a, record in zip(keys, bits, records) if record is not None}
    return _Prepared(code, pop, fused, enrollments)


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
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
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
    uniform = scenario == SCENARIO_STOLEN_KEY and impostor_bits == "uniform"

    def probe(trial: int) -> np.ndarray:
        victim = sids[trial % len(sids)]
        others = [s for s in sids if s != victim]
        impostor = others[int(rng.integers(len(others)))]
        mat = prep.fused[impostor]
        vec = mat[int(rng.integers(mat.shape[0]))]
        key = prep.enrollments[victim if scenario == SCENARIO_STOLEN_KEY else impostor].key
        return probe_bits(vec, prep.pop, key)

    records = [prep.enrollments[sid].record for sid in sids]
    accepts = 0
    for lo in range(0, trials, _FAR_BLOCK):
        block = range(lo, min(trials, lo + _FAR_BLOCK))
        if uniform:
            probes = _uniform_bit_rows(rng, len(block), prep.code.n_bits)
        else:
            probes = np.stack([probe(trial) for trial in block])
        owner = (lo + np.arange(len(block))) % len(sids)
        accepts += int(authenticate_batch(probes, records, owner, prep.code).accepted.sum())
    return accepts / trials


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
                 far_trials: int | None = None, seed=None,
                 probe_mode: str = "heldout") -> list[GsCurvePoint]:
    """One GAR-security point per K; deterministic given dataset and seeds.

    ``far_trials=None`` leaves the empirical FAR column empty.
    """
    _check_probe_mode(probe_mode)
    _check_scenario(scenario)
    if far_trials is not None:
        _check_far_args(dataset, scenario, far_trials, "uniform")
    if config.seed is None:
        config = replace(config, seed=int(np.random.default_rng().integers(0, 2**63)))
    seed = config.seed if seed is None else seed
    fused, pop, selections = _fuse(dataset, config)
    points = []
    for k_symbols in k_list:
        cfg = config.with_k(int(k_symbols))
        security = cfg.k_symbols * cfg.m
        prep = _prepare(fused, pop, selections, cfg)
        g = _gar_stats(prep, probe_mode).rate
        fe = (_empirical_far(prep, scenario, far_trials, seed, "uniform")
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
