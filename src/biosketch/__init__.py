"""Multibiometric template protection.

Feature-level fusion of face and iris embeddings, median binarization with
user-specific reliable-component keys, and Reed-Solomon secure-sketch /
fuzzy-commitment templates, plus the GAR-security evaluation harness.
"""

from .errors import (
    BiosketchError,
    BudgetExceededError,
    DimensionMismatchError,
    DuplicateSubjectError,
    EnrollmentDecodeError,
    InsufficientDataError,
    LengthMismatchError,
    NonPrimitivePolynomialError,
    ParameterMismatchError,
    ParseError,
    SubjectNotFoundError,
    UnsupportedSymbolSizeError,
)
from .gf import DEFAULT_PRIMITIVE_POLY, Field
from .rs import (
    BatchDecode,
    DecodeOutcome,
    DecodePolicy,
    DecodeStatus,
    RsCode,
    bits_to_symbols,
    symbols_to_bits,
)
from .oracle import NearestResult, column_collision_rate, nearest_codeword
from .fusion import (
    Embedding,
    FusionWeights,
    fuse,
    fuse_bla,
    fuse_fca,
    fuse_rows,
    load_weights,
    random_weights,
    save_weights,
)
from .quantizer import (
    PopulationStats,
    ReliableKey,
    UserStats,
    binarize,
    extract,
    population_stats,
    reliability,
    select_reliable,
    user_stats,
)
from .sketch import (
    SCHEME_FUZZY_COMMITMENT,
    SCHEME_SECURE_SKETCH,
    BatchDecision,
    Decision,
    DecisionReason,
    EnrollmentRecord,
    SketchParams,
    auth_fc,
    auth_ss,
    authenticate,
    authenticate_batch,
    enroll_fc,
    enroll_ss,
    hash_sketch,
)
from .store import KeyStore, TemplateDb, revoke
from .synth import EmbeddingDataset, gen_population, read_embeddings, write_embeddings
from .pipeline import PipelineConfig, enroll_vectors, probe_bits
from .evaluate import (
    GsCurvePoint,
    ParamPlan,
    PrivacyReport,
    empirical_far,
    far_analytic,
    gar,
    gar_stats,
    params_for_security,
    privacy_report,
    run_gs_curve,
)

__version__ = "0.1.0"
