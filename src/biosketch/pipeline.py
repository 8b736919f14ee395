"""End-to-end assembly: embeddings -> fused vector -> bits -> record.

``PipelineConfig`` pins everything a run needs: code parameters, scheme,
decode policy, fusion mode and the master seed, which is None or a
non-negative integer; anything else is refused when the config is built.
The number of reliable components is always tied to the code,
G = m * (2^m - 1) = n, and the fusion output dimension must be at least G.

Per-subject randomness (selection nonce, record salt, fuzzy-commitment
message) derives from the master seed and the subject id, so a fixed seed
reproduces every artifact bit-exactly while distinct subjects stay
independent. Enrollment without a seed draws from OS entropy, which is what
gives a revoked subject a fresh key on re-enrollment.

Enrollment has two halves. ``select_template`` does the K-invariant one:
the key, the enrolled bits r_a, the salt and the fuzzy-commitment message
seed. ``enroll_vectors`` adds the record under one code; a sweep over K
selects once per subject and enrolls every K with ``sketch.enroll_batch``.

The enrollment representative is the per-user mean of the enrollment-half
sample vectors: user statistics, the enrolled bits and the genuine
"probe equals enrollment" check all derive from that same vector.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InsufficientDataError, check_int
from .fusion import FusionWeights, fuse_rows, random_weights
from .gf import Field, check_symbol_size
from .quantizer import (
    PopulationStats,
    ReliableKey,
    binarize,
    extract,
    population_stats,
    reliability,
    select_reliable,
    user_stats,
)
from .rs import DecodePolicy, RsCode
from .sketch import (
    SCHEME_FUZZY_COMMITMENT,
    SCHEME_SECURE_SKETCH,
    EnrollmentRecord,
    enroll_fc,
    enroll_ss,
)
from .synth import EmbeddingDataset

SALT_BYTES = 16


@dataclass(frozen=True)
class PipelineConfig:
    m: int = 3
    k_symbols: int = 1
    scheme: str = SCHEME_SECURE_SKETCH
    policy: DecodePolicy = DecodePolicy.FALLBACK_SYSTEMATIC
    fusion_mode: str = "fca"
    out_dim: int = 64
    window_factor: float = 2.0
    seed: int | None = 0

    def __post_init__(self):
        check_symbol_size(self.m)
        if self.scheme not in (SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "policy", DecodePolicy(self.policy))
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def n_bits(self) -> int:
        return self.m * ((1 << self.m) - 1)

    @property
    def reliable_count(self) -> int:
        """G is tied to the code: one reliable component per codeword bit."""
        return self.n_bits

    def build_code(self) -> RsCode:
        return RsCode(Field(self.m), self.k_symbols)


def check_seed(seed) -> int | None:
    """``seed`` as an int, or None; anything but None or a non-negative
    integer (a bool is not one) raises ``ValueError``."""
    return None if seed is None else check_int(
        seed, 0, math.inf, f"seed must be None or a non-negative integer, got {seed!r}")


def derive_rng(seed, *labels) -> np.random.Generator:
    """Deterministic child generator for (seed, labels); entropy when seed is None."""
    if seed is None:
        return np.random.default_rng()
    entropy = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(str(label).encode()).digest()
        entropy.append(int.from_bytes(digest[:4], "little"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def build_weights(config: PipelineConfig, d_face: int, d_iris: int) -> FusionWeights:
    """Seeded random fusion weights matching the config and data dimensions.
    The fusion mode fixes the activation: relu for fca, identity for bla."""
    weights_seed = derive_rng(config.seed, "fusion-weights").integers(0, 2**63)
    return random_weights(config.fusion_mode, d_face, d_iris, config.out_dim,
                          seed=int(weights_seed))


def fuse_dataset(dataset: EmbeddingDataset, weights: FusionWeights) -> dict[str, np.ndarray]:
    """Fused sample matrix (n_samples, out_dim) per subject."""
    return {sid: fuse_rows(dataset.face[sid], dataset.iris[sid], weights)
            for sid in dataset.subject_ids}


def enroll_split(n_samples: int) -> int:
    """Samples reserved for enrollment: first max(2, n/2), capped at n."""
    return min(n_samples, max(2, n_samples // 2))


def population_from_fused(fused: dict[str, np.ndarray]) -> PopulationStats:
    """Population statistics over every subject's enrollment-half vectors."""
    rows, ids = [], []
    for sid, mat in fused.items():
        cut = enroll_split(mat.shape[0])
        rows.append(mat[:cut])
        ids.extend([sid] * cut)
    return population_stats(np.concatenate(rows, axis=0), ids)


@dataclass(frozen=True)
class Enrollment:
    record: EnrollmentRecord
    key: ReliableKey
    template_bits: np.ndarray = dc_field(repr=False)  # r_a; never stored


def select_template(config: PipelineConfig, enroll_matrix: np.ndarray, pop: PopulationStats,
                    subject_id: str = "") -> tuple[ReliableKey, np.ndarray, bytes, int]:
    """The K-invariant half of enrolling one subject from its enrollment-half
    fused vectors: ``(key, r_a, salt, fc_seed)``; r_a is never stored.

    The subject's generator draws the selection nonce, the record salt and
    the fuzzy-commitment message seed, in that order, for either scheme.
    """
    if enroll_matrix.shape[0] < 2:
        raise InsufficientDataError("enrollment needs >= 2 samples")
    if pop.dimension < config.reliable_count:
        raise ValueError(
            f"fused dimension {pop.dimension} < required G={config.reliable_count}"
        )
    rng = derive_rng(config.seed, "enroll", subject_id)
    user = user_stats(enroll_matrix)
    key = select_reliable(reliability(user, pop), config.reliable_count,
                          int(rng.integers(0, 2**63)), window_factor=config.window_factor)
    r_a = extract(binarize(user.mean, pop), key)
    return key, r_a, rng.bytes(SALT_BYTES), int(rng.integers(0, 2**63))


def enroll_vectors(config: PipelineConfig, code: RsCode,
                   enroll_matrix: np.ndarray, pop: PopulationStats,
                   subject_id: str = "") -> Enrollment:
    """Enroll one subject from its enrollment-half fused vectors."""
    key, r_a, salt, fc_seed = select_template(config, enroll_matrix, pop, subject_id)
    if config.scheme == SCHEME_SECURE_SKETCH:
        record = enroll_ss(r_a, code, config.policy, salt, subject_id=subject_id)
    else:
        record = enroll_fc(r_a, code, fc_seed, salt, subject_id=subject_id,
                           policy=config.policy)
    return Enrollment(record=record, key=key, template_bits=r_a)


def probe_bits(vectors: np.ndarray, pop: PopulationStats, key: ReliableKey) -> np.ndarray:
    """Reliable bits a probe vector, or each row of a matrix, presents."""
    return extract(binarize(vectors, pop), key)
