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
from biosketch.rs import (
    DecodePolicy,
    DecodeStatus,
    RsCode,
    bits_to_symbols,
    symbols_to_bits,
)
from biosketch.sketch import (
    SCHEME_FUZZY_COMMITMENT,
    SCHEME_SECURE_SKETCH,
    BatchDecision,
    Decision,
    DecisionReason,
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

    def test_empty_and_wrong_width(self, rs_7_3):
        record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3, FB, SALT)
        empty = authenticate_batch(np.zeros((0, 21), dtype=np.uint8), [record],
                                   np.zeros(0, dtype=np.intp))
        assert [(a.shape, a.dtype) for a in empty] == [
            ((0,), np.bool_), ((0,), np.int8), ((0,), np.int64)]
        with pytest.raises(ParameterMismatchError):
            authenticate_batch(np.zeros((2, 20), dtype=np.uint8), [record],
                               np.zeros(2, dtype=np.intp), rs_7_3)

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
