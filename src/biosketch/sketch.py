"""Secure-sketch and fuzzy-commitment template protection over the RS codec.

Secure sketch: the enrolled reliable-bit vector is packed into symbols and
decoded; the K-symbol message of the decode outcome is the sketch, and only
its salted hash is stored. Authentication decodes the probe bits the same
way and compares hashes.

Fuzzy commitment: a random K-symbol message is encoded and the XOR offset
between its codeword bits and the enrolled bits is stored along with the
salted hash of the message. Authentication XORs the probe bits onto the
offset and decodes; any probe within t symbol errors of the enrolled bits
lands back on the enrolled codeword. This is the code-offset construction
of Juels and Wattenberg, "A Fuzzy Commitment Scheme" (CCS 1999), and of
Dodis, Ostrovsky, Reyzin and Smith, "Fuzzy Extractors" (SIAM J. Comput.
2008). A secure sketch is a fuzzy commitment with a zero offset: its record
stores none, and ``EnrollmentRecord.offset_bits`` reads it as n zero bits.

Both directions are batched. ``enroll_batch`` enrolls a matrix of bit
rows, one salt and subject id per row, with a single ``RsCode.decode_batch``
for secure sketch; ``enroll_ss`` and ``enroll_fc`` are batches of one.
``authenticate_batch`` decides a matrix of probes, row i against
``records[owner[i]]``: it XORs every probe onto its record's offset and runs
a single ``RsCode.decode_batch`` over every row, with no scheme branch; the
records share one scheme and one set of parameters. It returns a
``BatchDecision`` of row-aligned arrays. ``authenticate`` decides a batch of
one, and ``auth_ss`` and ``auth_fc`` check the scheme first. Every
``Decision`` carries the decode status and the number of corrected symbols
next to its reason.

Records never contain the biometric bits, the key indices, or the plain
sketch. The hash is SHA-256 over salt || 64-bit little-endian bit length ||
big-endian packed bits; enrolled and probed messages are hashed by one
helper, and ``hash_sketch`` is the same hash of a single bit vector.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    EnrollmentDecodeError,
    LengthMismatchError,
    ParameterMismatchError,
    ParseError,
)
from .gf import Field, check_symbol_size
from .rs import (
    BATCH_STATUSES,
    DecodePolicy,
    DecodeStatus,
    RsCode,
    as_bits,
    bit_rows_to_symbols,
    symbols_to_bits,
)
from .textfile import from_text, parse_plain_hex, parse_plain_int, to_text

SCHEME_SECURE_SKETCH = "secure-sketch"
SCHEME_FUZZY_COMMITMENT = "fuzzy-commitment"

DIGEST_BITS = 256

_FAILURE = BATCH_STATUSES.index(DecodeStatus.FAILURE)
# ``owner`` of a batch of one: its row belongs to records[0] (or salts[0]).
_ONE_OWNER = np.zeros(1, dtype=np.intp)
_ONE_OWNER.setflags(write=False)


class DecisionReason(str, Enum):
    HASH_MATCH = "hash-match"
    HASH_MISMATCH = "hash-mismatch"
    DECODE_FAILURE = "decode-failure"


@dataclass(frozen=True)
class Decision:
    """An authentication decision and the decode it rests on.

    ``status`` and ``error_count`` are those of the probe's decode
    (None when not known): labels and counts only, never bits, key indices
    or messages.
    """

    accepted: bool
    reason: DecisionReason
    status: DecodeStatus | None = None
    error_count: int | None = None

    def __post_init__(self):
        if self.accepted != (self.reason is DecisionReason.HASH_MATCH):
            raise ValueError(
                f"accepted={self.accepted} contradicts reason {self.reason.value}"
            )


class BatchDecision(NamedTuple):
    """Row-aligned decisions of ``authenticate_batch``.

    ``status[i]`` indexes ``BATCH_STATUSES``; ``error_count`` is -1 where
    the decode has none (fallback and failure rows). Labels and counts
    only, never bits, key indices or messages.
    """

    accepted: np.ndarray     # (B,) bool
    status: np.ndarray       # (B,) int8
    error_count: np.ndarray  # (B,) int64

    def decision(self, i: int) -> Decision:
        """Row i as a ``Decision``."""
        status = BATCH_STATUSES[self.status[i]]
        if status is DecodeStatus.FAILURE:
            return Decision(False, DecisionReason.DECODE_FAILURE, status)
        accepted = bool(self.accepted[i])
        count = int(self.error_count[i])
        reason = DecisionReason.HASH_MATCH if accepted else DecisionReason.HASH_MISMATCH
        return Decision(accepted, reason, status, count if count >= 0 else None)


@dataclass(frozen=True)
class SketchParams:
    """Code and policy parameters pinned inside every record."""

    m: int
    k_symbols: int
    policy: DecodePolicy
    primitive_poly: int

    def __post_init__(self):
        check_symbol_size(self.m)

    def build_code(self) -> RsCode:
        return RsCode(Field(self.m, self.primitive_poly), self.k_symbols)

    @property
    def n_bits(self) -> int:
        return self.m * ((1 << self.m) - 1)


@dataclass(frozen=True)
class EnrollmentRecord:
    """The stored template: scheme, parameters, salt, digest, FC offset.

    ``offset`` is the big-endian packed XOR offset (fuzzy commitment only;
    None for secure sketch); its bit length is ``params.n_bits``.
    """

    scheme: str
    subject_id: str
    params: SketchParams
    salt: bytes
    digest: bytes
    offset: bytes | None = None

    def __post_init__(self):
        if self.scheme not in (SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.digest) != DIGEST_BITS // 8:
            raise ValueError("digest must be 256 bits")
        if self.scheme == SCHEME_SECURE_SKETCH and self.offset is not None:
            raise ValueError("secure-sketch records store no offset")
        if self.scheme == SCHEME_FUZZY_COMMITMENT:
            expect = (self.params.n_bits + 7) // 8
            if self.offset is None or len(self.offset) != expect:
                raise ValueError(f"fuzzy-commitment offset must be {expect} bytes")

    def offset_bits(self) -> np.ndarray:
        """The n offset bits; a secure sketch's offset is zero."""
        if self.offset is None:
            return np.zeros(self.params.n_bits, dtype=np.uint8)
        return np.unpackbits(
            np.frombuffer(self.offset, dtype=np.uint8), count=self.params.n_bits
        )


def hash_sketch(bits, salt: bytes) -> bytes:
    """Salted SHA-256 over the canonical encoding of a bit vector."""
    arr = as_bits(bits)
    if arr.ndim != 1:
        raise LengthMismatchError("bit vector must be 1-D")
    return _digests(arr[None], [salt], _ONE_OWNER)[0]


def _digests(bit_rows: np.ndarray, salts, owner) -> list[bytes]:
    """The digest of each 0/1 row under ``salts[owner[i]]``: SHA-256 over
    salt || 64-bit little-endian bit length || big-endian packed bits.

    Every record digest, enrolled or probed, is made here. Each owner's
    salted prefix is hashed once per call; a row's digest continues a copy
    of that state with the row's packed bits."""
    length = bit_rows.shape[1].to_bytes(8, "little")
    owners = owner.tolist()
    prefixes = {j: hashlib.sha256(bytes(salts[j]) + length) for j in set(owners)}
    digests = []
    for j, row in zip(owners, np.packbits(bit_rows, axis=1)):
        state = prefixes[j].copy()
        state.update(row)
        digests.append(state.digest())
    return digests


def _per_row(values, rows: int, what: str) -> list:
    if np.ndim(values) != 1 or len(values) != rows:
        raise LengthMismatchError(f"need one {what} per enrollment row, {rows} in all")
    return list(values)


def enroll_batch(scheme: str, bits, code: RsCode, policy: DecodePolicy, salts,
                 subject_ids, fc_seeds=None) -> list[EnrollmentRecord | None]:
    """Enroll row i of a (B, n_bits) bit matrix as ``subject_ids[i]``, salted
    with ``salts[i]``.

    This is the one enrollment path, the mirror of ``authenticate_batch``:
    ``enroll_ss`` and ``enroll_fc`` are batches of one. Secure sketch decodes
    every row in one ``RsCode.decode_batch`` and hashes each decoded
    message; the row's record is None where FAIL_DENY cannot decode it.
    Fuzzy commitment draws row i's message from ``fc_seeds[i]`` (unused by
    secure sketch), stores its codeword XOR the row, and hashes the message.
    """
    if scheme not in (SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT):
        raise ValueError(f"unknown scheme {scheme!r}")
    policy, m = DecodePolicy(policy), code.field.m
    arr = as_bits(bits)
    if arr.ndim != 2 or arr.shape[1] != code.n_bits:
        raise LengthMismatchError(
            f"enrollment bits have shape {arr.shape}, code expects {code.n_bits} per row"
        )
    salts = _per_row(salts, len(arr), "salt")
    subject_ids = _per_row(subject_ids, len(arr), "subject id")
    offsets = [None] * len(arr)
    if scheme == SCHEME_SECURE_SKETCH:
        batch = code.decode_batch(bit_rows_to_symbols(arr, m), policy)
        rows = np.flatnonzero(batch.status != _FAILURE)
        messages = batch.message[rows]
    else:
        rows = np.arange(len(arr))
        messages = np.array([
            np.random.default_rng(seed).integers(0, code.field.size, size=code.k_symbols)
            for seed in _per_row(fc_seeds, len(arr), "fc seed")
        ]).reshape(len(arr), code.k_symbols)
        codeword_bits = symbols_to_bits(code.encode_batch(messages), m)
        offsets = [row.tobytes() for row in np.packbits(codeword_bits ^ arr, axis=1)]
    params = SketchParams(m, code.k_symbols, policy, code.field.primitive_poly)
    records = [None] * len(arr)
    for i, digest in zip(rows.tolist(), _digests(symbols_to_bits(messages, m), salts, rows)):
        records[i] = EnrollmentRecord(scheme, subject_ids[i], params, bytes(salts[i]),
                                      digest, offsets[i])
    return records


def enroll_ss(r_a, code: RsCode, policy: DecodePolicy, salt: bytes,
              subject_id: str = "") -> EnrollmentRecord:
    """Secure-sketch enrollment: store the salted hash of the decoded message.

    Under FAIL_DENY an undecodable enrollment raises ``EnrollmentDecodeError``
    and the caller should re-acquire or re-enroll.
    """
    record, = enroll_batch(SCHEME_SECURE_SKETCH, np.asarray(r_a)[None],
                           code, policy, [salt], [subject_id])
    if record is None:
        raise EnrollmentDecodeError(
            "enrollment bits are not within decoding range under fail-deny"
        )
    return record


def enroll_fc(r_a, code: RsCode, rng_seed, salt: bytes,
              subject_id: str = "",
              policy: DecodePolicy = DecodePolicy.FALLBACK_SYSTEMATIC) -> EnrollmentRecord:
    """Fuzzy-commitment enrollment: random codeword offset plus message hash."""
    return enroll_batch(SCHEME_FUZZY_COMMITMENT, np.asarray(r_a)[None],
                        code, policy, [salt], [subject_id], [rng_seed])[0]


def _resolve_code(record: EnrollmentRecord, code: RsCode | None) -> RsCode:
    if code is None:
        return record.params.build_code()
    if (code.field.m != record.params.m
            or code.k_symbols != record.params.k_symbols
            or code.field.primitive_poly != record.params.primitive_poly):
        raise ParameterMismatchError(
            f"code {code!r} does not match record parameters {record.params}"
        )
    return code


def auth_ss(r_b, record: EnrollmentRecord, code: RsCode | None = None) -> Decision:
    """Secure-sketch authentication of probe bits against a record."""
    if record.scheme != SCHEME_SECURE_SKETCH:
        raise ParameterMismatchError("record is not a secure-sketch record")
    return authenticate(r_b, record, code)


def auth_fc(r_b, record: EnrollmentRecord, code: RsCode | None = None) -> Decision:
    """Fuzzy-commitment authentication of probe bits against a record."""
    if record.scheme != SCHEME_FUZZY_COMMITMENT:
        raise ParameterMismatchError("record is not a fuzzy-commitment record")
    return authenticate(r_b, record, code)


def authenticate(r_b, record: EnrollmentRecord, code: RsCode | None = None) -> Decision:
    """Authentication of probe bits against a record: a batch of one."""
    return authenticate_batch(np.asarray(r_b)[None], [record], _ONE_OWNER,
                              code).decision(0)


def authenticate_batch(probes, records, owner,
                       code: RsCode | None = None) -> BatchDecision:
    """Decide row i of a (B, n_bits) probe matrix against ``records[owner[i]]``.

    This is the one authentication path: ``authenticate`` is a batch of one.
    The records must share one scheme and one ``SketchParams``. Each probe
    is XORed onto its record's offset, which is zero for secure sketch, and
    all rows go through one ``RsCode.decode_batch``; each distinct (record,
    message) pair among the rows that decode is hashed once, from its
    record's salted prefix, and its verdict goes to every row that holds it.
    """
    records = list(records)
    if not records:
        raise ValueError("authenticate_batch needs at least one record")
    first = records[0]
    for record in records[1:]:
        if record.scheme != first.scheme or record.params != first.params:
            raise ParameterMismatchError(
                "records of one batch must share scheme and parameters"
            )
    code = _resolve_code(first, code)
    arr = as_bits(probes)
    n_bits = first.params.n_bits
    if arr.ndim != 2 or arr.shape[1] != n_bits:
        raise ParameterMismatchError(
            f"probes have shape {arr.shape}, record expects {n_bits} bits per row"
        )
    owner = np.asarray(owner)
    if owner.shape != (len(arr),) or (owner.size and (
            owner.dtype.kind not in "iu"
            or owner.min() < 0 or owner.max() >= len(records))):
        raise ValueError(
            f"owner must be {len(arr)} record indices in 0..{len(records) - 1}"
        )
    arr = np.array([record.offset_bits() for record in records])[owner] ^ arr
    m = code.field.m
    batch = code.decode_batch(bit_rows_to_symbols(arr, m), first.params.policy)
    rows = np.flatnonzero(batch.status != _FAILURE)
    pairs = np.column_stack([owner[rows], batch.message[rows]])
    inverse = slice(None)
    if len(pairs) > 1:
        # Probes repeat (owner, message) pairs: hash each distinct pair once.
        # A pair that fits 63 bits is keyed as one int64, the owner above the
        # message's m-bit symbols; a wider one by its row's raw bytes.
        width = m * first.params.k_symbols
        if (len(records) - 1).bit_length() + width <= 63:
            groups = pairs.astype(np.int64) @ (1 << np.arange(width, -1, -m, dtype=np.int64))
        else:
            groups = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1]))).ravel()
        _, distinct, inverse = np.unique(groups, return_index=True, return_inverse=True)
        pairs = pairs[distinct]
    owners = pairs[:, 0]
    digests = _digests(symbols_to_bits(pairs[:, 1:], m),
                       [record.salt for record in records], owners)
    matches = np.array([hmac.compare_digest(digest, records[j].digest)
                        for j, digest in zip(owners.tolist(), digests)], dtype=bool)
    accepted = np.zeros(len(arr), dtype=bool)
    accepted[rows] = matches[inverse]
    return BatchDecision(accepted, batch.status, batch.error_count)


# -- record file format -------------------------------------------------------
#
# The grammar of ``textfile``, hex-encoded binary fields and no body:
#   biosketch-record v1
#   subject_id=<id>
#   scheme=secure-sketch | fuzzy-commitment
#   m=<int>
#   k_symbols=<int>
#   policy=fail-deny | fallback
#   primitive_poly=<int>
#   salt=<hex>
#   digest=<hex, 64 chars>
#   offset=<hex>             (fuzzy commitment only)

_RECORD_HEADER = "biosketch-record v1"
# Each field is read into the ``EnrollmentRecord`` or ``SketchParams`` field
# of its name.
_PARAMS_FIELDS = ("m", "k_symbols", "policy", "primitive_poly")
_RECORD_CASTS = {"subject_id": str, "scheme": str, "m": parse_plain_int,
                 "k_symbols": parse_plain_int, "policy": DecodePolicy,
                 "primitive_poly": parse_plain_int, "salt": parse_plain_hex,
                 "digest": parse_plain_hex, "offset": parse_plain_hex}


def record_to_text(record: EnrollmentRecord) -> str:
    params = record.params
    fields = {"subject_id": record.subject_id, "scheme": record.scheme, "m": params.m,
              "k_symbols": params.k_symbols, "policy": params.policy.value,
              "primitive_poly": params.primitive_poly, "salt": record.salt.hex(),
              "digest": record.digest.hex()}
    if record.offset is not None:
        fields["offset"] = record.offset.hex()
    return to_text(_RECORD_HEADER, fields)


def record_from_text(text: str) -> EnrollmentRecord:
    fields, body = from_text(text, _RECORD_HEADER, _RECORD_CASTS, "enrollment record",
                             optional=("offset",))
    try:
        if body:
            raise ValueError("a line after the fields is not a field")
        params = SketchParams(**{name: fields.pop(name) for name in _PARAMS_FIELDS})
        return EnrollmentRecord(params=params, **fields)
    except ValueError as exc:
        raise ParseError(f"malformed enrollment record: {exc}") from exc
