import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biosketch.errors import (
    EnrollmentDecodeError,
    LengthMismatchError,
    ParameterMismatchError,
    ParseError,
)
from biosketch.gf import Field
from biosketch.pipeline import PipelineConfig, enroll_vectors, population_from_fused
from biosketch.quantizer import ReliableKey, extract
from biosketch.rs import (
    DecodePolicy,
    DecodeStatus,
    RsCode,
    bit_rows_to_symbols,
    bits_to_symbols,
    symbols_to_bits,
)
from biosketch.sketch import (
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
    enroll_batch,
    enroll_fc,
    enroll_ss,
    hash_sketch,
    record_from_text,
    record_to_text,
)

from reference import slow_digest, slow_rs_decode, slow_rs_encode
from test_quantizer import ARABIC_INDIC
from test_rs import FAR_FROM_RS75

SALT = bytes(range(16))
FB = DecodePolicy.FALLBACK_SYSTEMATIC


def _edit_field(name, edit):
    return lambda lines: [f"{name}={edit(ln.split('=', 1)[1])}" if ln.startswith(name + "=")
                          else ln for ln in lines]


# Record lines ``record_to_text`` never writes, as edits of its lines; each
# is a ParseError.
BAD_RECORD_LINES = {
    "plus-sign": _edit_field("m", lambda v: "+" + v),
    "underscore": _edit_field("k_symbols", lambda v: "0_" + v),
    "arabic-indic-digits": _edit_field("m", lambda v: v.translate(ARABIC_INDIC)),
    "leading-zero": _edit_field("k_symbols", lambda v: "0" + v),
    "poly-underscore": _edit_field("primitive_poly", lambda v: v[0] + "_" + v[1:]),
    "repeated-field": lambda lines: lines + [ln for ln in lines if ln.startswith("m=")],
    "unknown-field": lambda lines: lines + ["foo=bar"],
    "upper-case-digest": _edit_field("digest", str.upper),
    "upper-case-salt": _edit_field("salt", str.upper),
    "spaced-salt": _edit_field("salt", lambda v: v[:2] + " " + v[2:]),
    "spaced-offset": _edit_field("offset", lambda v: v[:2] + " " + v[2:]),
    "odd-length-salt": _edit_field("salt", lambda v: v + "0"),
}
FD = DecodePolicy.FAIL_DENY


def random_bits(rng, n):
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def codeword_bits(code, msg):
    return symbols_to_bits(code.encode(msg), code.field.m)


def flip_symbols(rng, code, bits, weight):
    symbols = bits_to_symbols(bits, code.field.m)
    for pos in rng.choice(len(symbols), size=weight, replace=False):
        symbols[pos] ^= int(rng.integers(1, code.field.size))
    return symbols_to_bits(symbols, code.field.m)


class TestHashSketch:
    def test_deterministic(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert hash_sketch(bits, SALT) == hash_sketch(bits, SALT)

    def test_salt_separates(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert hash_sketch(bits, SALT) != hash_sketch(bits, bytes(16))

    def test_empty_vector_defined(self):
        digest = hash_sketch(np.array([], dtype=np.uint8), SALT)
        assert len(digest) == 32

    def test_length_is_part_of_encoding(self):
        a = np.array([1, 0], dtype=np.uint8)
        b = np.array([1, 0, 0], dtype=np.uint8)  # same packed byte
        assert hash_sketch(a, SALT) != hash_sketch(b, SALT)


def slow_symbol_bits(symbols, m):
    return [(s >> (m - 1 - j)) & 1 for s in symbols for j in range(m)]


class TestDigestReference:
    """Digests against ``slow_digest``, built from the documented layout."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=300), st.binary(max_size=40))
    def test_hash_sketch_is_the_documented_layout(self, bits, salt):
        assert hash_sketch(np.array(bits, dtype=np.uint8), salt) == slow_digest(bits, salt)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_secure_sketch_digest_is_that_of_the_decoded_message(self, data):
        # Codewords with 0..N-K symbols overwritten: exact, corrected,
        # fallback and failed decodes all occur.
        m = data.draw(st.sampled_from([3, 4, 5]), label="m")
        n_symbols = (1 << m) - 1
        k = data.draw(st.integers(1, n_symbols - 1), label="k")
        policy = data.draw(st.sampled_from([FB, FD]), label="policy")
        code = RsCode(Field(m), k)
        poly = code.field.primitive_poly
        words = []
        for _ in range(data.draw(st.integers(1, 5), label="rows")):
            message = data.draw(st.lists(st.integers(0, n_symbols), min_size=k, max_size=k))
            word = slow_rs_encode(message, m, poly)
            for _ in range(data.draw(st.integers(0, n_symbols - k))):
                word[data.draw(st.integers(0, n_symbols - 1))] = data.draw(
                    st.integers(0, n_symbols))
            words.append(word)
        salts = [data.draw(st.binary(min_size=16, max_size=16)) for _ in words]
        bits = np.array([slow_symbol_bits(word, m) for word in words], dtype=np.uint8)
        records = enroll_batch(SCHEME_SECURE_SKETCH, bits, code, policy, salts,
                               ["s"] * len(words))
        for word, salt, record in zip(words, salts, records):
            status, _, message, _ = slow_rs_decode(word, k, m, poly, policy == FB)
            if status == "failure":
                assert record is None
            else:
                assert record.digest == slow_digest(slow_symbol_bits(message, m), salt)


class TestSecureSketch:
    def test_codeword_enrollment_hashes_message(self, rs_7_3):
        msg = [3, 7, 1]
        r_a = codeword_bits(rs_7_3, msg)
        record = enroll_ss(r_a, rs_7_3, FB, SALT, subject_id="alice")
        expected = hash_sketch(symbols_to_bits(msg, 3), SALT)
        assert record.digest == expected
        assert record.offset is None

    def test_fallback_hashes_systematic_bits(self, rs_7_3):
        rng = np.random.default_rng(0)
        r_a = random_bits(rng, rs_7_3.n_bits)
        record = enroll_ss(r_a, rs_7_3, FB, SALT)
        outcome = rs_7_3.decode(bits_to_symbols(r_a, 3), FB)
        expected = hash_sketch(symbols_to_bits(outcome.message, 3), SALT)
        assert record.digest == expected

    def test_fail_deny_enrollment_failure(self, rs_7_5):
        r_a = symbols_to_bits(FAR_FROM_RS75, 3)
        with pytest.raises(EnrollmentDecodeError):
            enroll_ss(r_a, rs_7_5, FD, SALT)

    def test_same_probe_accepts(self, rs_7_3):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r_a = random_bits(rng, rs_7_3.n_bits)
            record = enroll_ss(r_a, rs_7_3, FB, SALT)
            decision = auth_ss(r_a, record, rs_7_3)
            assert decision.accepted
            assert decision.reason is DecisionReason.HASH_MATCH

    def test_same_column_accepts_under_fail_deny(self, rs_7_3):
        rng = np.random.default_rng(2)
        msg = [2, 6, 4]
        clean = codeword_bits(rs_7_3, msg)
        r_a = flip_symbols(rng, rs_7_3, clean, 2)
        r_b = flip_symbols(rng, rs_7_3, clean, 2)
        record = enroll_ss(r_a, rs_7_3, FD, SALT)
        assert auth_ss(r_b, record, rs_7_3).accepted

    def test_decode_failure_denies_under_fail_deny(self, rs_7_5):
        msg = [1, 2, 3, 4, 5]
        record = enroll_ss(codeword_bits(rs_7_5, msg), rs_7_5, FD, SALT)
        decision = auth_ss(symbols_to_bits(FAR_FROM_RS75, 3), record, rs_7_5)
        assert not decision.accepted
        assert decision.reason is DecisionReason.DECODE_FAILURE

    def test_accept_iff_same_decoded_message(self, rs_7_3):
        rng = np.random.default_rng(3)
        for _ in range(60):
            r_a = random_bits(rng, rs_7_3.n_bits)
            r_b = random_bits(rng, rs_7_3.n_bits)
            record = enroll_ss(r_a, rs_7_3, FB, SALT)
            same_msg = (rs_7_3.decode(bits_to_symbols(r_a, 3), FB).message
                        == rs_7_3.decode(bits_to_symbols(r_b, 3), FB).message)
            assert auth_ss(r_b, record, rs_7_3).accepted == same_msg

    def test_wrong_length_probe_is_parameter_mismatch(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        with pytest.raises(ParameterMismatchError):
            auth_ss(np.zeros(20, dtype=np.uint8), record, rs_7_3)

    def test_probe_matrix_is_parameter_mismatch(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        for probe in (np.zeros((1, 21), dtype=np.uint8), np.uint8(0)):
            with pytest.raises(ParameterMismatchError):
                authenticate(probe, record, rs_7_3)

    def test_wrong_code_rejected(self, rs_7_3, rs_7_5):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        with pytest.raises(ParameterMismatchError):
            auth_ss(np.zeros(21, dtype=np.uint8), record, rs_7_5)

    def test_scheme_mixup_rejected(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        with pytest.raises(ParameterMismatchError):
            auth_fc(np.zeros(21, dtype=np.uint8), record, rs_7_3)

    def test_enrollment_length_checked(self, rs_7_3):
        with pytest.raises(LengthMismatchError):
            enroll_ss(np.zeros(20, dtype=np.uint8), rs_7_3, FB, SALT)


class TestFuzzyCommitment:
    def test_offset_zero_when_bits_equal_codeword(self, rs_7_3):
        # find the seed-determined message, then enroll its own codeword bits
        probe_record = enroll_fc(np.zeros(21, dtype=np.uint8), rs_7_3, 42, SALT)
        c_bits = probe_record.offset_bits()  # offset vs zeros = codeword bits
        record = enroll_fc(c_bits, rs_7_3, 42, SALT)
        assert not record.offset_bits().any()

    def test_offset_equals_codeword_for_zero_bits(self, rs_7_3):
        record = enroll_fc(np.zeros(21, dtype=np.uint8), rs_7_3, 7, SALT)
        shifted = record.offset_bits() ^ np.zeros(21, dtype=np.uint8)
        outcome = rs_7_3.decode(bits_to_symbols(shifted, 3), FB)
        assert outcome.error_count == 0
        digest = hash_sketch(symbols_to_bits(outcome.message, 3), SALT)
        assert digest == record.digest

    def test_same_probe_accepts(self, rs_7_3):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r_a = random_bits(rng, rs_7_3.n_bits)
            record = enroll_fc(r_a, rs_7_3, int(rng.integers(1 << 30)), SALT)
            assert auth_fc(r_a, record, rs_7_3).accepted

    @pytest.mark.parametrize("policy", [FB, FD])
    def test_accepts_within_t_symbol_errors(self, rs_7_3, policy):
        rng = np.random.default_rng(5)
        for _ in range(40):
            r_a = random_bits(rng, rs_7_3.n_bits)
            record = enroll_fc(r_a, rs_7_3, int(rng.integers(1 << 30)), SALT,
                               policy=policy)
            weight = int(rng.integers(0, rs_7_3.t + 1))
            r_b = flip_symbols(rng, rs_7_3, r_a, weight)
            assert auth_fc(r_b, record, rs_7_3).accepted

    def test_complement_denied(self, rs_7_3):
        rng = np.random.default_rng(6)
        r_a = random_bits(rng, rs_7_3.n_bits)
        record = enroll_fc(r_a, rs_7_3, 11, SALT, policy=FD)
        r_b = 1 - r_a  # flips every symbol: distance 7 >> t = 2
        decision = auth_fc(r_b, record, rs_7_3)
        assert not decision.accepted

    def test_seeded_message_reproducible(self, rs_7_3):
        r_a = np.zeros(21, dtype=np.uint8)
        a = enroll_fc(r_a, rs_7_3, 99, SALT)
        b = enroll_fc(r_a, rs_7_3, 99, SALT)
        assert a == b


class TestSchemeAgreement:
    def test_equal_probe_agrees_across_schemes(self, rs_7_3):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r_a = random_bits(rng, rs_7_3.n_bits)
            ss = enroll_ss(r_a, rs_7_3, FB, SALT)
            fc = enroll_fc(r_a, rs_7_3, int(rng.integers(1 << 30)), SALT)
            assert auth_ss(r_a, ss, rs_7_3).accepted
            assert auth_fc(r_a, fc, rs_7_3).accepted


class TestRecordSerialization:
    def test_ss_roundtrip(self, rs_7_3):
        record = enroll_ss(np.ones(21, dtype=np.uint8), rs_7_3, FB, SALT,
                           subject_id="u1")
        assert record_from_text(record_to_text(record)) == record

    def test_fc_roundtrip(self, rs_7_3):
        rng = np.random.default_rng(8)
        record = enroll_fc(random_bits(rng, 21), rs_7_3, 3, SALT, subject_id="u2")
        assert record_from_text(record_to_text(record)) == record

    def test_header_and_fields_validated(self):
        with pytest.raises(ParseError):
            record_from_text("garbage\n")
        with pytest.raises(ParseError):
            record_from_text("biosketch-record v1\nsubject_id=x\n")

    @pytest.mark.parametrize("edit", sorted(BAD_RECORD_LINES))
    def test_lines_record_to_text_never_writes_are_rejected(self, rs_7_3, edit):
        rng = np.random.default_rng(8)
        record = enroll_fc(random_bits(rng, 21), rs_7_3, 3, SALT, subject_id="u2")
        lines = record_to_text(record).splitlines()
        edited = BAD_RECORD_LINES[edit](lines)
        assert edited != lines
        with pytest.raises(ParseError):
            record_from_text("\n".join(edited) + "\n")

    def test_record_never_contains_biometric(self, rs_7_3):
        rng = np.random.default_rng(9)
        r_a = random_bits(rng, rs_7_3.n_bits)
        sketch_symbols = rs_7_3.decode(bits_to_symbols(r_a, 3), FB).message
        sketch_bits = symbols_to_bits(sketch_symbols, 3)
        for record in (
            enroll_ss(r_a, rs_7_3, FB, SALT, subject_id="u3"),
            enroll_fc(r_a, rs_7_3, 5, SALT, subject_id="u3"),
        ):
            text = record_to_text(record)
            keys = {line.split("=", 1)[0] for line in text.splitlines()[1:]}
            assert keys <= {"subject_id", "scheme", "m", "k_symbols", "policy",
                            "primitive_poly", "salt", "digest", "offset"}
            for secret in (r_a, sketch_bits):
                bit_string = "".join(map(str, secret.tolist()))
                packed_hex = np.packbits(secret).tobytes().hex()
                assert bit_string not in text
                assert packed_hex not in text

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        code = RsCode(Field(3), int(rng.integers(1, 8)))
        r_a = random_bits(rng, code.n_bits)
        salt = rng.bytes(16)
        record = enroll_fc(r_a, code, int(rng.integers(1 << 30)), salt)
        assert record_from_text(record_to_text(record)) == record


class TestDecision:
    def test_old_constructor_keeps_working(self):
        decision = Decision(True, DecisionReason.HASH_MATCH)
        assert decision.status is None and decision.error_count is None

    @pytest.mark.parametrize("accepted,reason", [
        (True, DecisionReason.HASH_MISMATCH),
        (True, DecisionReason.DECODE_FAILURE),
        (False, DecisionReason.HASH_MATCH),
    ])
    def test_contradiction_raises_not_asserts(self, accepted, reason):
        # a ValueError, not an assert: the check must survive python -O
        with pytest.raises(ValueError):
            Decision(accepted, reason)

    def test_carries_decode_status_and_count(self):
        code = RsCode(Field(5), 11)  # t = 10
        rng = np.random.default_rng(21)
        r_a = random_bits(rng, code.n_bits)
        for policy in (FB, FD):
            record = enroll_fc(r_a, code, 3, SALT, policy=policy)
            exact = auth_fc(r_a, record, code)
            assert (exact.accepted, exact.status, exact.error_count) == (
                True, DecodeStatus.EXACT_CODEWORD, 0)
            near = auth_fc(flip_symbols(rng, code, r_a, 4), record, code)
            assert (near.accepted, near.status, near.error_count) == (
                True, DecodeStatus.CORRECTED, 4)
        far = random_bits(rng, code.n_bits)  # beyond every decoding sphere
        fallback = auth_fc(far, enroll_fc(r_a, code, 3, SALT, policy=FB), code)
        assert (fallback.reason, fallback.status, fallback.error_count) == (
            DecisionReason.HASH_MISMATCH, DecodeStatus.FALLBACK, None)
        failure = auth_fc(far, enroll_fc(r_a, code, 3, SALT, policy=FD), code)
        assert (failure.reason, failure.status, failure.error_count) == (
            DecisionReason.DECODE_FAILURE, DecodeStatus.FAILURE, None)

    def test_text_carries_no_bits_keys_or_messages(self):
        rng = np.random.default_rng(5)
        config = PipelineConfig(m=3, k_symbols=2, scheme=SCHEME_SECURE_SKETCH,
                                out_dim=64, seed=5)
        fused = {sid: rng.normal(size=(4, 64)) for sid in ("a", "b")}
        pop = population_from_fused(fused)
        code = config.build_code()
        enr = enroll_vectors(config, code, fused["a"], pop, subject_id="a")
        message = code.decode(bits_to_symbols(enr.template_bits, 3), FB).message
        decision = authenticate(enr.template_bits, enr.record, code)
        assert decision.accepted
        assert set(Decision.__dataclass_fields__) == {
            "accepted", "reason", "status", "error_count"}
        secrets = [
            "".join(map(str, enr.template_bits.tolist())),
            np.packbits(enr.template_bits).tobytes().hex(),
            ",".join(map(str, enr.key.indices[:4])),
            ", ".join(map(str, enr.key.indices[:4])),
            str(message),
            str(list(message)),
        ]
        for text in (str(decision), repr(decision)):
            for secret in secrets:
                assert secret not in text


class TestEnrollBatch:
    @staticmethod
    def _rows(rng, code):
        """Codewords, near codewords and random rows, which fail-deny
        mostly cannot decode."""
        words = [codeword_bits(code, rng.integers(0, code.field.size, size=code.k_symbols))
                 for _ in range(4)]
        near = [flip_symbols(rng, code, w, int(rng.integers(1, code.t + 1))) for w in words]
        return np.array(words + near + [random_bits(rng, code.n_bits) for _ in range(4)])

    @pytest.mark.parametrize("m,k", [(3, 2), (5, 11)])
    @pytest.mark.parametrize("policy", [FB, FD])
    def test_rows_equal_scalar_enrollments(self, m, k, policy):
        code = RsCode(Field(m), k)
        rng = np.random.default_rng(m * 10 + k)
        rows = rng.permutation(self._rows(rng, code))
        salts = [bytes([j]) * 16 for j in range(len(rows))]
        ids = [f"s{j}" for j in range(len(rows))]
        seeds = [7 + j for j in range(len(rows))]
        ss = enroll_batch(SCHEME_SECURE_SKETCH, rows, code, policy, salts, ids, seeds)
        fc = enroll_batch(SCHEME_FUZZY_COMMITMENT, rows, code, policy, salts, ids, seeds)
        for j, r_a in enumerate(rows):
            assert fc[j] == enroll_fc(r_a, code, seeds[j], salts[j], ids[j], policy)
            outcome = code.decode(bits_to_symbols(r_a, m), policy)
            if ss[j] is None:
                assert not outcome.ok
                with pytest.raises(EnrollmentDecodeError):
                    enroll_ss(r_a, code, policy, salts[j], ids[j])
                continue
            assert ss[j] == enroll_ss(r_a, code, policy, salts[j], ids[j])
            assert ss[j].digest == hash_sketch(symbols_to_bits(outcome.message, m), salts[j])
        unenrollable = sum(record is None for record in ss)
        assert 0 < unenrollable < len(rows) if policy is FD else unenrollable == 0
        assert None not in fc

    def test_empty_batch(self, rs_7_3):
        assert enroll_batch(SCHEME_SECURE_SKETCH, np.zeros((0, 21), dtype=np.uint8),
                            rs_7_3, FB, [], []) == []
        assert enroll_batch(SCHEME_FUZZY_COMMITMENT, np.zeros((0, 21), dtype=np.uint8),
                            rs_7_3, FB, [], [], []) == []

    @pytest.mark.parametrize("bits", [np.zeros(21), np.zeros((2, 20)), np.zeros((1, 2, 21))],
                             ids=["1-d", "short-rows", "3-d"])
    @pytest.mark.parametrize("scheme", [SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT])
    def test_bad_shape_raises(self, rs_7_3, scheme, bits):
        rows = max(1, len(bits))
        with pytest.raises(LengthMismatchError):
            enroll_batch(scheme, bits, rs_7_3, FB, [SALT] * rows, ["a"] * rows, [1] * rows)

    def test_non_bit_values_raise(self, rs_7_3):
        bits = np.zeros((2, 21), dtype=np.uint8)
        bits[1, 4] = 2
        with pytest.raises(ValueError):
            enroll_batch(SCHEME_SECURE_SKETCH, bits, rs_7_3, FB, [SALT] * 2, ["a", "b"])

    @pytest.mark.parametrize("salts,ids,seeds", [
        ([SALT], ["a", "b"], [1, 2]),
        ([SALT] * 2, ["a"], [1, 2]),
        ([SALT] * 2, ["a", "b"], [1]),
        ([SALT] * 2, ["a", "b"], 1),
        ([SALT] * 2, ["a", "b"], None),
        (SALT, ["a", "b"], [1, 2]),
        ([SALT] * 2, "ab", [1, 2]),
    ], ids=["salts", "ids", "seeds", "one-seed", "no-seeds", "one-salt", "one-id-string"])
    def test_one_value_per_row_or_raise(self, rs_7_3, salts, ids, seeds):
        # A single fc seed is not broadcast: rows sharing one seed would
        # share one message.
        bits = np.zeros((2, 21), dtype=np.uint8)
        with pytest.raises(LengthMismatchError):
            enroll_batch(SCHEME_FUZZY_COMMITMENT, bits, rs_7_3, FB, salts, ids, seeds)

    def test_unknown_scheme_raises(self, rs_7_3):
        with pytest.raises(ValueError):
            enroll_batch("commitment", np.zeros((1, 21), dtype=np.uint8), rs_7_3, FB,
                         [SALT], ["a"])


def _assert_hashed_once(monkeypatch, probes, records, owner, code, pairs):
    """``authenticate_batch`` with SHA-256 watched: each record's salted
    prefix is hashed at most once, and each of the distinct (record,
    message) ``pairs`` continues one copy of its prefix state. Undoes every
    patch of ``monkeypatch`` before it returns the batch."""
    prefixes, pair_states = [], []
    sha256 = hashlib.sha256

    class Prefix:
        def __init__(self, data):
            prefixes.append(data)
            self.state = sha256(data)

        def copy(self):
            pair_states.append(self.state.copy())
            return pair_states[-1]

    monkeypatch.setattr(hashlib, "sha256", Prefix)
    batch = authenticate_batch(probes, records, owner, code)
    monkeypatch.undo()
    assert len(prefixes) == len(set(prefixes)) <= len(records)
    digests = [state.digest() for state in pair_states]
    assert len(digests) == len(set(digests)) == len(pairs)
    return batch


def _slow_verdicts(probes, records, owner, code):
    """Each row's verdict by the reference decoder and ``slow_digest``: its
    decode does not fail and the digest of its message under its record's
    salt is the record's digest."""
    m, k, poly = code.field.m, code.k_symbols, code.field.primitive_poly
    fallback = records[0].params.policy is FB
    verdicts = []
    for row, j in zip(probes, np.asarray(owner).tolist()):
        word = bits_to_symbols(row ^ records[j].offset_bits(), m)
        status, _, message, _ = slow_rs_decode(word, k, m, poly, fallback=fallback)
        verdicts.append(status != "failure" and slow_digest(
            slow_symbol_bits(message, m), records[j].salt) == records[j].digest)
    return verdicts


class TestAuthenticateBatch:
    @staticmethod
    def _probes(rng, code, enrolled):
        """Exact, complemented and near probes of each enrolled vector, then
        random ones; returns the probes and the vector each one came from."""
        probes, source = [], []
        for j, r_a in enumerate(enrolled):
            near = [flip_symbols(rng, code, r_a, int(w))
                    for w in rng.integers(0, code.t + 3, size=10)]
            probes += [r_a, 1 - r_a] + near
            source += [j] * (2 + len(near))
        probes += [random_bits(rng, code.n_bits) for _ in range(12)]
        source += rng.integers(0, len(enrolled), size=12).tolist()
        return np.array(probes), np.array(source)

    @pytest.mark.parametrize("m,k", [(3, 2), (5, 11)])
    @pytest.mark.parametrize("policy", [FB, FD])
    def test_rows_equal_scalar_decisions(self, m, k, policy):
        # One matrix against three records with their own salts (and, for
        # fuzzy commitment, offsets): every row is decided as its own
        # record would decide it alone, also the rows owned by a record
        # other than the one they came from.
        code = RsCode(Field(m), k)
        rng = np.random.default_rng(m * 10 + k)
        enrolled = [random_bits(rng, code.n_bits) for _ in range(3)]
        probes, source = self._probes(rng, code, enrolled)
        owner = np.where(rng.random(len(source)) < 0.75, source, (source + 1) % 3)
        salts = [bytes([j]) * 16 for j in range(3)]
        record_sets = [[enroll_fc(r_a, code, 7 + j, salts[j], policy=policy)
                        for j, r_a in enumerate(enrolled)]]
        if policy is FB:
            record_sets.append([enroll_ss(r_a, code, policy, salts[j])
                                for j, r_a in enumerate(enrolled)])
        for records in record_sets:
            batch = authenticate_batch(probes, records, owner, code)
            decisions = [batch.decision(i) for i in range(len(probes))]
            assert decisions == [authenticate(row, records[j], code)
                                 for row, j in zip(probes, owner)]
            assert batch.accepted.tolist() == [d.accepted for d in decisions]
            accepted_owners = set(owner[batch.accepted].tolist())
            assert accepted_owners == {0, 1, 2}
            assert not batch.accepted.all()

    @pytest.mark.parametrize("scheme", [SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT])
    @pytest.mark.parametrize("policy", [FB, FD])
    def test_each_distinct_pair_is_hashed_once(self, scheme, policy, monkeypatch):
        # At K = 1 a block against three records holds at most 3 x 8
        # distinct (record, message) pairs, so most rows repeat one.
        code = RsCode(Field(3), 1)
        rng = np.random.default_rng(11)
        enrolled = [codeword_bits(code, [j + 2]) for j in range(3)]
        salts = [bytes([j]) * 16 for j in range(3)]
        if scheme == SCHEME_SECURE_SKETCH:
            records = [enroll_ss(r_a, code, policy, salt) for r_a, salt in zip(enrolled, salts)]
        else:
            records = [enroll_fc(r_a, code, 7 + j, salts[j], policy=policy)
                       for j, r_a in enumerate(enrolled)]
        probes = np.array(
            [flip_symbols(rng, code, enrolled[j], int(w))
             for j, w in zip(rng.integers(0, 3, 150), rng.integers(0, 6, 150))]
            + [random_bits(rng, code.n_bits) for _ in range(150)])
        owner = rng.integers(0, 3, len(probes))
        pairs, decoded = set(), 0
        for row, j in zip(probes, owner):
            word = row ^ records[j].offset_bits() if records[j].offset else row
            outcome = code.decode(bits_to_symbols(word, 3), policy)
            if outcome.status is not DecodeStatus.FAILURE:
                pairs.add((int(j), outcome.message))
                decoded += 1
        assert len(pairs) < decoded // 5

        batch = _assert_hashed_once(monkeypatch, probes, records, owner, code, pairs)
        decisions = [batch.decision(i) for i in range(len(probes))]
        assert decisions == [authenticate(row, records[j], code)
                             for row, j in zip(probes, owner)]
        assert 0 < batch.accepted.sum() < decoded

    @pytest.mark.parametrize("m,k,n_records,key_kind", [
        (5, 11, 3, "i"), (5, 12, 8, "i"), (5, 12, 9, "V"), (5, 13, 3, "V"),
    ], ids=["57-bit", "63-bit", "64-bit", "67-bit"])
    @pytest.mark.parametrize("owner_dtype", [np.intp, np.int32, np.uint8, np.uint64],
                             ids=["intp", "int32", "uint8", "uint64"])
    def test_pair_keys_on_both_sides_of_63_bits(self, m, k, n_records, key_kind,
                                                 owner_dtype, monkeypatch):
        # A pair takes bit_length(records - 1) + m * K bits: up to 63 it is
        # keyed as one int64, beyond that by its raw bytes. Secure sketch
        # decodes a probe to one message whatever its owner, so every
        # message of the batch is held by several owners; the probes are
        # correctable, so they repeat (record, message) pairs. The enrolled
        # messages differ only in their last symbol, record j's being j, so
        # a key that let owner and message overlap would merge pairs.
        code = RsCode(Field(m), k)
        rng = np.random.default_rng(m * k + n_records)
        messages = np.tile(rng.integers(0, 1 << m, k), (n_records, 1))
        messages[:, -1] = np.arange(n_records)
        enrolled = symbols_to_bits(code.encode_batch(messages), m)
        salts = [bytes([j]) * 16 for j in range(n_records)]
        source = np.repeat(np.arange(n_records), 12)
        probes = np.array([flip_symbols(rng, code, enrolled[j], int(w))
                           for j, w in zip(source, rng.integers(0, code.t + 1, len(source)))])
        owner = np.where(rng.random(len(source)) < 0.5, source,
                         rng.integers(0, n_records, len(source))).astype(owner_dtype)
        for records in ([enroll_ss(r_a, code, FB, salt) for r_a, salt in zip(enrolled, salts)],
                        [enroll_fc(r_a, code, 7 + j, salts[j]) for j, r_a in enumerate(enrolled)]):
            pairs = set()
            for row, j in zip(probes, owner.tolist()):
                word = bits_to_symbols(row ^ records[j].offset_bits(), m)
                pairs.add((j, code.decode(word, FB).message))
            assert len(pairs) <= len(probes) // 2
            keys, unique = [], np.unique

            def spy(values, **kwargs):
                keys.append(values.dtype.kind)
                return unique(values, **kwargs)

            monkeypatch.setattr(np, "unique", spy)
            batch = _assert_hashed_once(monkeypatch, probes, records, owner, code, pairs)
            assert keys == [key_kind]
            assert [batch.decision(i) for i in range(len(probes))] == [
                authenticate(row, records[j], code) for row, j in zip(probes, owner)]
            assert 0 < batch.accepted.sum() < len(probes)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_accepts_exactly_rows_whose_slow_digest_matches(self, data):
        # Salts of 0..80 bytes put the prefix on both sides of SHA-256's
        # 64-byte block.
        k = data.draw(st.integers(1, 3), label="k")
        code = RsCode(Field(3), k)
        scheme = data.draw(st.sampled_from([SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT]))
        policy = data.draw(st.sampled_from([FB, FD]), label="policy")
        salts = data.draw(st.lists(st.binary(max_size=80), min_size=2, max_size=6),
                          label="salts")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        enrolled = symbols_to_bits(code.encode_batch(rng.integers(0, 8, (len(salts), k))), 3)
        records = enroll_batch(scheme, enrolled, code, policy, salts,
                               [f"s{j}" for j in range(len(salts))], range(len(salts)))
        rows = data.draw(st.integers(50, 300), label="rows")
        source = rng.integers(0, len(salts), rows)
        probes = np.array([flip_symbols(rng, code, enrolled[j], int(w))
                           for j, w in zip(source, rng.integers(0, 5, rows))])
        owner = np.where(rng.random(rows) < 0.7, source, rng.integers(0, len(salts), rows))
        batch = authenticate_batch(probes, records, owner, code)
        expected = []
        for row, j in zip(probes, owner.tolist()):
            word = bits_to_symbols(row ^ records[j].offset_bits(), 3)
            status, _, message, _ = slow_rs_decode(word, k, 3, code.field.primitive_poly,
                                                   fallback=policy is FB)
            expected.append(status != "failure" and slow_digest(
                symbols_to_bits(np.array(message), 3), salts[j]) == records[j].digest)
        assert batch.accepted.tolist() == expected

    @pytest.mark.parametrize("scheme", [SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT])
    @pytest.mark.parametrize("policy", [FB, FD])
    def test_wide_pair_keys_accept_exactly_rows_whose_slow_digest_matches(self, scheme,
                                                                          policy):
        # bit_length(4 - 1) + 5 * 13 = 67 bits: every pair is keyed by its
        # raw bytes. Probes lie within t, just beyond it and far from every
        # codeword, against their own record or another.
        code = RsCode(Field(5), 13)
        rng = np.random.default_rng(67)
        salts = [bytes([j]) * (8 * j) for j in range(4)]
        enrolled = symbols_to_bits(code.encode_batch(rng.integers(0, 32, (4, 13))), 5)
        records = enroll_batch(scheme, enrolled, code, policy, salts,
                               [f"s{j}" for j in range(4)], range(4))
        source = rng.integers(0, 4, 60)
        probes = np.array([flip_symbols(rng, code, enrolled[j], int(w))
                           for j, w in zip(source, rng.integers(0, code.t + 3, 60))]
                          + [random_bits(rng, code.n_bits) for _ in range(10)])
        owner = np.concatenate([np.where(rng.random(60) < 0.7, source,
                                         rng.integers(0, 4, 60)), rng.integers(0, 4, 10)])
        batch = authenticate_batch(probes, records, owner, code)
        expected = _slow_verdicts(probes, records, owner, code)
        assert batch.accepted.tolist() == expected
        assert 0 < sum(expected) < len(probes)

    @pytest.mark.parametrize("scheme", [SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT])
    def test_digest_compare_sees_the_first_and_the_last_byte(self, scheme, monkeypatch):
        # Records 1 and 2 are record 0 with only the first or only the last
        # byte of its digest flipped: a probe of the enrolled vector matches
        # record 0 exactly and each other record in all bytes but one.
        code = RsCode(Field(3), 2)
        rng = np.random.default_rng(5)
        r_a = random_bits(rng, code.n_bits)
        if scheme == SCHEME_SECURE_SKETCH:
            exact = enroll_ss(r_a, code, FB, SALT)
        else:
            exact = enroll_fc(r_a, code, 7, SALT)

        def flipped(i):
            digest = bytearray(exact.digest)
            digest[i] ^= 0x80
            return dataclasses.replace(exact, digest=bytes(digest))

        records = [exact, flipped(0), flipped(-1)]
        probes = np.array([r_a] * 6 + [flip_symbols(rng, code, r_a, int(w))
                                       for w in rng.integers(0, code.t + 2, 30)])
        owner = np.concatenate([[0, 1, 2, 2, 1, 0], rng.integers(0, 3, 30)])
        batch = authenticate_batch(probes, records, owner, code)
        assert batch.accepted.tolist() == _slow_verdicts(probes, records, owner, code)
        assert batch.accepted[:6].tolist() == [True, False, False, False, False, True]
        assert not batch.accepted[owner != 0].any()
        # A batch of one, against each record.
        for j in range(3):
            one = authenticate_batch(r_a[None], records, [j], code)
            assert one.accepted.tolist() == [j == 0]
            assert authenticate(r_a, records[j], code).accepted == (j == 0)
        # Every row repeats one (record, message) pair: it is hashed once and
        # its verdict goes to every row.
        message = tuple(code.decode(bits_to_symbols(r_a ^ exact.offset_bits(), 3)).message)
        for j in range(3):
            owner = np.full(25, j)
            batch = _assert_hashed_once(monkeypatch, np.tile(r_a, (25, 1)), records, owner,
                                        code, {(j, message)})
            assert batch.accepted.tolist() == [j == 0] * 25

    def test_empty_and_wrong_width(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        empty = authenticate_batch(np.zeros((0, 21), dtype=np.uint8), [record],
                                   np.zeros(0, dtype=np.intp))
        assert [(a.shape, a.dtype) for a in empty] == [
            ((0,), np.bool_), ((0,), np.int8), ((0,), np.int64)]
        with pytest.raises(ParameterMismatchError):
            authenticate_batch(np.zeros((2, 20), dtype=np.uint8), [record],
                               np.zeros(2, dtype=np.intp), rs_7_3)

    def test_empty_batch_needs_integer_owner(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        with pytest.raises(ValueError):
            authenticate_batch(np.zeros((0, 21), dtype=np.uint8), [record], [])

    def test_mixed_scheme_or_params_raise(self, rs_7_3, rs_7_5):
        r_a = np.zeros(21, dtype=np.uint8)
        ss = enroll_ss(r_a, rs_7_3, FB, SALT)
        others = [
            enroll_fc(r_a, rs_7_3, 3, SALT),          # scheme
            enroll_ss(r_a, rs_7_5, FB, SALT),         # K
            enroll_ss(r_a, rs_7_3, FD, SALT),         # policy
        ]
        probes = np.zeros((2, 21), dtype=np.uint8)
        for other in others:
            for records in ([ss, other], [other, ss]):
                with pytest.raises(ParameterMismatchError):
                    authenticate_batch(probes, records, np.array([0, 1]))

    @pytest.mark.parametrize("owner", [
        [0], [0, 0, 0], [[0, 1]], [0, 2], [-1, 0], [0.0, 1.0], [True, False],
    ], ids=["short", "long", "2-d", "beyond", "negative", "float", "bool"])
    def test_bad_owner_raises_value_error(self, rs_7_3, owner):
        records = [enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, salt)
                   for salt in (SALT, bytes(16))]
        with pytest.raises(ValueError):
            authenticate_batch(np.zeros((2, 21), dtype=np.uint8), records, owner)

    def test_no_records_raises_value_error(self, rs_7_3):
        with pytest.raises(ValueError):
            authenticate_batch(np.zeros((1, 21), dtype=np.uint8), [], [0], rs_7_3)

    def test_repr_carries_no_bits_keys_or_messages(self):
        rng = np.random.default_rng(6)
        config = PipelineConfig(m=3, k_symbols=2, scheme=SCHEME_FUZZY_COMMITMENT,
                                out_dim=64, seed=5)
        fused = {sid: rng.normal(size=(4, 64)) for sid in ("a", "b")}
        pop = population_from_fused(fused)
        code = config.build_code()
        enrs = [enroll_vectors(config, code, fused[sid], pop, subject_id=sid)
                for sid in ("a", "b")]
        probes = np.stack([enr.template_bits for enr in enrs])
        batch = authenticate_batch(probes, [enr.record for enr in enrs], [0, 1], code)
        assert batch.accepted.all()
        assert BatchDecision._fields == ("accepted", "status", "error_count")
        secrets = []
        for enr in enrs:
            message = code.decode(bits_to_symbols(
                enr.record.offset_bits() ^ enr.template_bits, 3), FB).message
            secrets += [
                "".join(map(str, enr.template_bits.tolist())),
                np.packbits(enr.template_bits).tobytes().hex(),
                ",".join(map(str, enr.key.indices[:4])),
                ", ".join(map(str, enr.key.indices[:4])),
                " ".join(map(str, enr.key.indices[:4])),
                str(message),
                str(list(message)),
                enr.record.offset.hex(),
            ]
        for text in (str(batch), repr(batch)):
            for secret in secrets:
                assert secret not in text


class TestExactStolenKeyFar:
    """Every word of a small code, sent through ``authenticate_batch``
    against one enrolled record, counts the stolen-key FAR exactly.

    The fallback decode is total and maps exactly q^(N-K) words to each
    message, so 2^(m(N-K)) words accept. The fail-deny decode accepts the
    words within t symbols of the enrolled codeword, the sphere of volume
    V_t = sum_{i<=t} C(N, i) (q - 1)^i.
    """

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("scheme", [SCHEME_SECURE_SKETCH, SCHEME_FUZZY_COMMITMENT])
    @pytest.mark.parametrize("policy", [FB, FD])
    def test_accepts_exactly_the_preimage_or_the_sphere(self, m, k, scheme, policy):
        code = RsCode(Field(m), k)
        rng = np.random.default_rng(m * 10 + k)
        if scheme == SCHEME_SECURE_SKETCH and policy is FD:
            # A uniform r_a is almost never within t symbols of a codeword, so
            # under fail-deny it would not enroll.
            r_a = symbols_to_bits(np.array(code.encode(rng.integers(1 << m, size=k))), m)
        else:
            r_a = random_bits(rng, code.n_bits)
        record = enroll_batch(scheme, r_a[None], code, policy, [SALT], ["victim"], [7])[0]
        shifts = np.arange(code.n_bits - 1, -1, -1)
        accepts = 0
        for lo in range(0, 1 << code.n_bits, 1 << 17):
            words = np.arange(lo, min(1 << code.n_bits, lo + (1 << 17)))
            probes = ((words[:, None] >> shifts) & 1).astype(np.uint8)
            owner = np.zeros(len(probes), dtype=np.intp)
            accepts += int(authenticate_batch(probes, [record], owner, code).accepted.sum())
        q, n = 1 << m, code.n_symbols
        if policy is FB:
            assert accepts == q ** (n - k)
        else:
            assert accepts == sum(math.comb(n, i) * (q - 1) ** i for i in range(code.t + 1))


def _record(scheme):
    code = RsCode(Field(3), 1)
    bits = random_bits(np.random.default_rng(1), code.n_bits)
    if scheme == SCHEME_SECURE_SKETCH:
        return enroll_ss(bits, code, FB, SALT)
    return enroll_fc(bits, code, 4, SALT)


PARAMS3 = SketchParams(3, 1, FB, 0b1011)

# Refusals the pipeline never reaches, each with the class it raises.
REFUSALS = {
    "record-unknown-scheme": (
        lambda: EnrollmentRecord("hash-only", "s", PARAMS3, SALT, bytes(32)), ValueError),
    "secure-sketch-record-with-offset": (
        lambda: EnrollmentRecord(SCHEME_SECURE_SKETCH, "s", PARAMS3, SALT, bytes(32),
                                 offset=bytes(3)), ValueError),
    "fuzzy-commitment-offset-too-short": (
        lambda: EnrollmentRecord(SCHEME_FUZZY_COMMITMENT, "s", PARAMS3, SALT, bytes(32),
                                 offset=bytes(2)), ValueError),
    "fuzzy-commitment-without-offset": (
        lambda: EnrollmentRecord(SCHEME_FUZZY_COMMITMENT, "s", PARAMS3, SALT, bytes(32)),
        ValueError),
    "hash-of-bit-matrix": (
        lambda: hash_sketch(np.zeros((2, 4), dtype=np.uint8), SALT), LengthMismatchError),
    "hash-of-entry-2": (lambda: hash_sketch([1, 2, 0], SALT), ValueError),
    "auth-ss-on-fuzzy-commitment-record": (
        lambda: auth_ss(np.zeros(21, dtype=np.uint8), _record(SCHEME_FUZZY_COMMITMENT)),
        ParameterMismatchError),
    "authenticate-probe-matrix": (
        lambda: authenticate(np.zeros((1, 21), dtype=np.uint8),
                             _record(SCHEME_SECURE_SKETCH)), ParameterMismatchError),
    "authenticate-scalar-probe": (
        lambda: authenticate(1, _record(SCHEME_SECURE_SKETCH)), ParameterMismatchError),
    "batch-ss-probe-holding-2": (
        lambda: authenticate_batch(np.full((1, 21), 2, dtype=np.uint8),
                                   [_record(SCHEME_SECURE_SKETCH)], [0]), ValueError),
    "batch-fc-probe-holding-2": (
        lambda: authenticate_batch(np.full((1, 21), 2, dtype=np.uint8),
                                   [_record(SCHEME_FUZZY_COMMITMENT)], [0]), ValueError),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_its_class(case):
    call, error = REFUSALS[case]
    with pytest.raises(error):
        call()


# Bit vectors of the m=3, K=1 code (21 bits) whose entry 0 is not 0 or 1.
# A uint8 cast would wrap 256 to 0 and 257 to 1, and read 0.7 as 0; a uint8
# array is read without a cast, so a reader that packs nothing (extract)
# must still refuse its 2.
BAD_BITS = {
    "uint8-2": np.array([2] + [0] * 20, dtype=np.uint8),
    "256": np.array([256] + [0] * 20),
    "257": np.array([257] + [0] * 20),
    "minus-1": np.array([-1] + [1] * 20),
    "0.7": np.full(21, 0.7),
    "list-holding-256": [256] + [0] * 20,
}

# Every entry point that reads bits, called on one such vector.
BIT_READERS = {
    "hash_sketch": lambda bits: hash_sketch(bits, SALT),
    "enroll_batch": lambda bits: enroll_batch(SCHEME_SECURE_SKETCH, [bits], RsCode(Field(3), 1),
                                              FB, [SALT], ["s"]),
    "enroll_ss": lambda bits: enroll_ss(bits, RsCode(Field(3), 1), FB, SALT),
    "enroll_fc": lambda bits: enroll_fc(bits, RsCode(Field(3), 1), 4, SALT),
    "authenticate": lambda bits: authenticate(bits, _record(SCHEME_SECURE_SKETCH)),
    "authenticate_batch": lambda bits: authenticate_batch(
        [bits], [_record(SCHEME_FUZZY_COMMITMENT)], [0]),
    "bits_to_symbols": lambda bits: bits_to_symbols(bits, 3),
    "bit_rows_to_symbols": lambda bits: bit_rows_to_symbols([bits], 3),
    "extract": lambda bits: extract(bits, ReliableKey(tuple(range(0, 21, 2)), 21, 0)),
}


@pytest.mark.parametrize("bad", sorted(BAD_BITS))
@pytest.mark.parametrize("reader", sorted(BIT_READERS))
def test_non_bit_entry_is_refused(reader, bad):
    with pytest.raises(ValueError, match="0 or 1"):
        BIT_READERS[reader](BAD_BITS[bad])


@pytest.mark.parametrize("reader", sorted(BIT_READERS))
def test_bit_dtypes_read_alike(reader):
    """0/1 entries give the same result as int64, float, bool or uint8."""
    bits = random_bits(np.random.default_rng(8), 21)
    results = [BIT_READERS[reader](bits.astype(dtype))
               for dtype in (np.uint8, np.int64, np.float64, np.bool_)]
    results.append(BIT_READERS[reader](bits.tolist()))
    for result in results[1:]:
        assert repr(result) == repr(results[0])
