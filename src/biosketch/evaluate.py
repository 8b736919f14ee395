"""Evaluation harness: GAR, empirical FAR, GAR-security sweeps, privacy.

The genuine accept rate enrolls every subject on its enrollment-half
samples and probes with the held-out half (or with the enrolled bits r_a,
the enrollment representative's bits under the subject's key).
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
A sweep without a seed runs every K, and its FAR, under one seed drawn at
its start. Every entry point refuses a K that is not an integer in
1..2^m - 1, with ``RsCode``'s message, and a seed that is neither None nor
a non-negative integer, before any work.

``gar_stats``, ``empirical_far`` and ``run_gs_curve`` run on a
``_Population``: the K-invariant half of evaluation, built once, and a table
filled by ``enrolled(config)`` with what each (K, scheme, policy) adds: its
RS code and a read-only mapping of its enrollments, made by one
``enroll_batch``. A repeated call only decides. An entry costs one code
(0.1-0.3 MB of tables at m = 8, 2-3 MB at m = 10, by K) and one record per
enrolled subject, and holds no K-invariant array.

The K-invariant half is read-only: the medians, every subject's key and
enrolled bits, and the bits of every sample, binarized once per population
(not per call), with each subject's row range. It holds no fused floats.
Every probe taken from the dataset is one gather of sample rows' bits, each
row under its key owner's key: a held-out sample under its own subject's
key, a dataset impostor's sample under the victim's key (stolen key) or its
own (zero effort). ``_accepts`` decides blocks of probes, one
``authenticate_batch`` a block, and sums the accepts.

One population is kept across calls, in the slot ``_fuse_memo``, while the
SHA-256 of the dataset (subject ids in order; dtype, shape and bytes of
every face and iris matrix) and of the config's ``_FUSE_FIELDS`` match the
last seeded call. A call without a seed, a sweep included, draws fresh
entropy: it gets a fresh population and leaves the slot alone.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import InsufficientDataError, check_int
from .gf import check_symbol_size
from .pipeline import (
    Enrollment,
    PipelineConfig,
    build_weights,
    check_seed,
    derive_rng,
    enroll_split,
    fuse_dataset,
    population_from_fused,
    select_template,
)
from .quantizer import binarize
from .rs import _check_k
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


# The PipelineConfig fields a _Population reads. The others only matter per
# K: they key its table of codes and enrollments.
_FUSE_FIELDS = ("seed", "fusion_mode", "out_dim", "m", "window_factor")
_PER_K_FIELDS = ("k_symbols", "scheme", "policy")

# (key, population) of the last seeded _population call.
_fuse_memo = None


class _Population:
    """The K-invariant work on a dataset: the bits of every sample (``bits``,
    subject ``sid``'s samples in rows ``rows[sid]``), the population stats
    and every subject's ``select_template``, with read-only arrays; and a
    table of what each (K, scheme, policy) adds to it."""

    def __init__(self, dataset: EmbeddingDataset, config: PipelineConfig):
        fused = fuse_dataset(dataset, build_weights(config, dataset.d_face, dataset.d_iris))
        pop = population_from_fused(fused)
        selections = {sid: select_template(config, mat[:enroll_split(mat.shape[0])], pop, sid)
                      for sid, mat in fused.items()}
        # Subject by subject: one binarize of every sample would hold a
        # float copy of the whole population at once.
        bits = [binarize(mat, pop) for mat in fused.values()]
        ends = np.cumsum([len(b) for b in bits]).tolist()
        self.rows = {sid: range(end - len(b), end) for sid, b, end in zip(fused, bits, ends)}
        self.bits = np.concatenate(bits)
        for arr in [self.bits, pop.median, *(r_a for _, r_a, _, _ in selections.values())]:
            arr.flags.writeable = False
        self.pop, self.selections = pop, selections
        self.table = {}  # _PER_K_FIELDS values -> enrolled()

    def probes(self, rows: np.ndarray, owners: np.ndarray, enrollments: Mapping) -> np.ndarray:
        """The bits of sample ``rows``, row i under the key of the
        ``owners[i]``-th enrolled subject."""
        keys = [enr.key.index_array for enr in enrollments.values()]
        probes = np.empty((len(rows), len(keys[0])), dtype=np.uint8)
        for owner in set(owners.tolist()):
            at = np.flatnonzero(owners == owner)
            probes[at] = self.bits[np.ix_(rows[at], keys[owner])]
        return probes

    def enrolled(self, config: PipelineConfig) -> tuple[object, Mapping[str, Enrollment]]:
        """The config's code and a read-only mapping of the enrolled subjects'
        enrollments under it; subjects missing there are unenrollable. A
        miss builds the code and runs one ``enroll_batch``."""
        per_k = tuple(getattr(config, f) for f in _PER_K_FIELDS)
        if per_k not in self.table:
            code = config.build_code()
            keys, bits, salts, seeds = zip(*self.selections.values())
            records = enroll_batch(config.scheme, np.stack(bits), code, config.policy, salts,
                                   list(self.selections), seeds)
            self.table[per_k] = code, MappingProxyType(
                {record.subject_id: Enrollment(record, key, r_a)
                 for key, r_a, record in zip(keys, bits, records) if record is not None})
        return self.table[per_k]


def _fuse_key(dataset: EmbeddingDataset, config: PipelineConfig) -> bytes:
    digest = hashlib.sha256(repr([getattr(config, f) for f in _FUSE_FIELDS]).encode())
    for sid in dataset.subject_ids:
        digest.update(repr(sid).encode())
        for mat in (dataset.face[sid], dataset.iris[sid]):
            mat = np.ascontiguousarray(mat)
            digest.update(f"{mat.dtype.str}{mat.shape}".encode())
            digest.update(mat)
    return digest.digest()


def _population(dataset: EmbeddingDataset, config: PipelineConfig) -> _Population:
    """The dataset's ``_Population`` under the config, reused while the
    dataset content and the config's ``_FUSE_FIELDS`` match the last seeded
    call; an unseeded call gets a fresh one and leaves the slot alone."""
    global _fuse_memo
    if config.seed is None:
        return _Population(dataset, config)
    key = _fuse_key(dataset, config)
    if _fuse_memo is None or _fuse_memo[0] != key:
        _fuse_memo = None  # free the old population before building the next
        _fuse_memo = key, _Population(dataset, config)
    return _fuse_memo[1]


def gar_stats(dataset: EmbeddingDataset, config: PipelineConfig,
              probe_mode: str = "heldout") -> GarResult:
    """Genuine accept rate over enrolled subjects.

    ``heldout`` probes each subject with its held-out samples;
    ``enroll`` probes with its enrolled bits r_a.
    """
    if probe_mode not in ("heldout", "enroll"):
        raise ValueError(f"unknown probe mode {probe_mode!r}")
    _check_k(config.m, config.k_symbols)
    return _gar_stats(_population(dataset, config), config, probe_mode)


def _gar_stats(population: _Population, config: PipelineConfig, probe_mode: str) -> GarResult:
    code, enrollments = population.enrolled(config)
    if not enrollments:
        raise InsufficientDataError("no subject could be enrolled")
    if probe_mode == "enroll":
        bits = np.stack([enr.template_bits for enr in enrollments.values()])
        owner = np.arange(len(enrollments))
    else:
        held = [rows[enroll_split(len(rows)):] for rows in map(population.rows.get, enrollments)]
        owner = np.repeat(np.arange(len(held)), [len(rows) for rows in held])
        bits = population.probes(np.array([row for rows in held for row in rows], dtype=np.intp),
                                 owner, enrollments)
    if not len(bits):
        raise InsufficientDataError("no probe samples; need more than the enrollment half")
    accepted, probed = _accepts(code, enrollments, [(bits, owner)]), len(bits)
    return GarResult(rate=accepted / probed, accepted=accepted, probed=probed,
                     enrolled=len(enrollments),
                     unenrollable=len(population.selections) - len(enrollments))


def _accepts(code, enrollments: Mapping[str, Enrollment], blocks) -> int:
    """Accepted probes over ``(probes, owner)`` blocks: each block is one
    ``authenticate_batch``, row i against the record of the ``owner[i]``-th
    enrolled subject."""
    records = [enr.record for enr in enrollments.values()]
    return sum(int(authenticate_batch(probes, records, owner, code).accepted.sum())
               for probes, owner in blocks)


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


def _check_far_args(dataset: EmbeddingDataset, scenario: str, trials: int, seed,
                    impostor_bits: str) -> None:
    _check_scenario(scenario)
    if impostor_bits not in ("uniform", "dataset"):
        raise ValueError(f"unknown impostor bit source {impostor_bits!r}")
    check_int(trials, 1, math.inf, f"trials must be a positive integer, got {trials!r}")
    check_seed(seed)
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
    _check_far_args(dataset, scenario, trials, seed, impostor_bits)
    _check_k(config.m, config.k_symbols)
    return _empirical_far(_population(dataset, config), config,
                          scenario, trials, seed, impostor_bits)


def _empirical_far(population: _Population, config: PipelineConfig, scenario: str,
                   trials: int, seed, impostor_bits: str) -> float:
    code, enrollments = population.enrolled(config)
    if len(enrollments) < 2:
        raise InsufficientDataError("need >= 2 enrolled subjects")
    rng = derive_rng(seed, "far", scenario, impostor_bits)
    if scenario == SCENARIO_STOLEN_KEY and impostor_bits == "uniform":
        def draw(victims: np.ndarray) -> np.ndarray:
            return _uniform_bit_rows(rng, len(victims), code.n_bits)
    else:
        draw = _dataset_probes(population, enrollments, rng, scenario == SCENARIO_STOLEN_KEY)
    blocks = (np.arange(lo, min(trials, lo + _FAR_BLOCK)) % len(enrollments)
              for lo in range(0, trials, _FAR_BLOCK))
    return _accepts(code, enrollments, ((draw(victims), victims) for victims in blocks)) / trials


def _dataset_probes(population: _Population, enrollments: Mapping[str, Enrollment],
                    rng: np.random.Generator, stolen_key: bool):
    """A function from a block's victims to its dataset-impostor probes.

    Each trial draws, in trial order, its impostor (the j-th enrolled
    subject other than the victim) and then one of the impostor's samples,
    whose bits are gathered under its key owner's key: the victim's under a
    stolen key, else the impostor's.
    """
    rows = [population.rows[sid] for sid in enrollments]

    def draw(victims: np.ndarray) -> np.ndarray:
        samples, key_owner = [], []
        for v in victims.tolist():
            j = int(rng.integers(len(rows) - 1))
            impostor = j + (j >= v)
            samples.append(rows[impostor][int(rng.integers(len(rows[impostor])))])
            key_owner.append(v if stolen_key else impostor)
        return population.probes(np.array(samples), np.array(key_owner), enrollments)

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
        _check_far_args(dataset, scenario, far_trials, config.seed, "uniform")
    k_list = [_check_k(config.m, k_symbols) for k_symbols in k_list]
    if config.seed is None:
        # A seed drawn here is never named again: leave the memo slot alone.
        config = replace(config, seed=int(np.random.default_rng().integers(0, 2**63)))
        population = _Population(dataset, config)
    else:
        population = _population(dataset, config)
    points = []
    for k_symbols in k_list:
        cfg = replace(config, k_symbols=k_symbols)
        security = k_symbols * cfg.m
        points.append(GsCurvePoint(
            m=cfg.m, k_symbols=k_symbols, security_bits=security, rate=security / cfg.n_bits,
            gar=_gar_stats(population, cfg, "heldout").rate, far_analytic=far_analytic(security),
            far_empirical=None if far_trials is None else _empirical_far(
                population, cfg, scenario, far_trials, config.seed, "uniform"),
            scheme=cfg.scheme, policy=cfg.policy.value, scenario=scenario))
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
