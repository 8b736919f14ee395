import itertools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biosketch import rs
from biosketch.errors import LengthMismatchError, UnsupportedSymbolSizeError
from biosketch.gf import Field
from biosketch.rs import (
    _BM_LOCKSTEP,
    BATCH_STATUSES,
    DecodePolicy,
    DecodeStatus,
    RsCode,
    bit_rows_to_symbols,
    bits_to_symbols,
    symbols_to_bits,
)
from reference import (
    _slow_berlekamp_massey,
    _slow_poly_eval,
    all_codewords,
    brute_force_nearest,
    error_patterns,
    slow_alpha_pow,
    slow_gf_mul,
    slow_high_evaluator,
    slow_rs_decode,
    slow_rs_encode,
    slow_rs_generator,
)

# Frozen on first computation: minimum distance 2 from every RS(7,5) codeword
# (verified against the exhaustive oracle below).
FAR_FROM_RS75 = [1, 2, 1, 2, 6, 3, 7]


def corrupt(rng, field, codeword, weight):
    received = list(codeword)
    for pos in rng.choice(len(codeword), size=weight, replace=False):
        received[pos] ^= int(rng.integers(1, field.size))
    return received


class TestParameters:
    @pytest.mark.parametrize("m,n_sym,n_bits", [(5, 31, 155), (6, 63, 378), (7, 127, 889)])
    def test_code_lengths(self, m, n_sym, n_bits):
        code = RsCode(Field(m), 1)
        assert code.n_symbols == n_sym
        assert code.n_bits == n_bits

    def test_t_and_distance(self, gf8):
        code = RsCode(gf8, 3)
        assert code.t == 2
        assert code.d_min == 5

    @pytest.mark.parametrize("k", [0, 8, -1])
    def test_invalid_k(self, gf8, k):
        with pytest.raises(ValueError):
            RsCode(gf8, k)

    @pytest.mark.parametrize("k", [1.5, 2.0, np.float64(2), True, False, "2", None], ids=repr)
    def test_k_must_be_an_integer_in_range(self, gf8, k):
        """K is an integer in 1..N and not a bool, refused with one message
        before any table is built."""
        with pytest.raises(ValueError, match=re.escape(f"K must be in 1..7, got {k}")):
            RsCode(gf8, k)

    def test_numpy_integer_k_is_stored_as_int(self, gf8):
        code = RsCode(gf8, np.int64(3))
        assert type(code.k_symbols) is int and code.k_symbols == 3
        assert code.encode([1, 2, 3]) == RsCode(gf8, 3).encode([1, 2, 3])

    def test_generator_has_prescribed_roots(self, rs_7_3):
        exp, log = rs_7_3.exp_table, rs_7_3.log_table
        gen = list(rs_7_3.generator_poly)
        for j in range(1, rs_7_3.num_parity + 1):
            root = slow_alpha_pow(j, rs_7_3.field.primitive_poly, 3)
            acc = 0
            for coef in gen:  # highest degree first
                acc = int(exp[log[acc] + log[root]]) ^ coef
            assert acc == 0


class TestEncode:
    def test_zero_message_zero_codeword(self, rs_7_3):
        assert rs_7_3.encode([0, 0, 0]) == [0] * 7

    def test_systematic_prefix(self, rs_7_3):
        msg = [3, 1, 4]
        assert rs_7_3.encode(msg)[:3] == msg

    def test_codeword_syndromes_zero(self, rs_7_3):
        rng = np.random.default_rng(2)
        for _ in range(50):
            msg = rng.integers(0, 8, size=3).tolist()
            assert not any(rs_7_3.syndromes(rs_7_3.encode(msg)))

    def test_length_mismatch(self, rs_7_3):
        with pytest.raises(LengthMismatchError):
            rs_7_3.encode([1, 2])
        with pytest.raises(LengthMismatchError):
            rs_7_3.decode([0] * 6)

    def test_symbol_out_of_range(self, rs_7_3):
        with pytest.raises(ValueError):
            rs_7_3.encode([8, 0, 0])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_mds_minimum_weight_exhaustive(self, gf8, k):
        code = RsCode(gf8, k)
        weights = np.count_nonzero(all_codewords(code), axis=1)
        assert int(weights[1:].min()) == code.d_min


class TestEncodeBatch:
    """``encode_batch`` is the one encoder; ``encode`` is a batch of one."""

    @pytest.mark.parametrize("m", [3, 5, 6, 8])
    def test_rows_equal_encode_and_long_division(self, m):
        field = Field(m)
        rng = np.random.default_rng(70 + m)
        for k in (1, field.order // 2, field.order):  # K = N has no parity
            code = RsCode(field, k)
            messages = rng.integers(0, field.size, (4, k))
            words = code.encode_batch(messages)
            assert words.shape == (4, field.order) and words.dtype == code.exp_table.dtype
            for msg, word in zip(messages.tolist(), words.tolist()):
                assert word == code.encode(msg) == slow_rs_encode(msg, m, field.primitive_poly)

    def test_empty_batch(self, rs_7_3):
        assert rs_7_3.encode_batch(np.zeros((0, 3), dtype=np.int64)).shape == (0, 7)

    def test_validation_as_encode(self, rs_7_3):
        with pytest.raises(LengthMismatchError):
            rs_7_3.encode_batch(np.zeros(3, dtype=np.int64))
        with pytest.raises(LengthMismatchError):
            rs_7_3.encode_batch(np.zeros((2, 2), dtype=np.int64))
        for bad in (8, -1):
            with pytest.raises(ValueError):
                rs_7_3.encode_batch([[0, bad, 0]])

    @pytest.mark.parametrize("m", [3, 5, 6, 8])
    def test_decoded_codeword_is_encoded_message(self, m):
        field = Field(m)
        rng = np.random.default_rng(80 + m)
        for k, per_class in TestDifferential.CODES[m]:
            code = RsCode(field, k)
            for word in differential_words(code, rng, per_class):
                for policy in DecodePolicy:
                    out = code.decode(word, policy)
                    if out.ok:
                        assert out.codeword == tuple(code.encode(out.message))


class TestDecode:
    def test_exact_codeword(self, rs_7_3):
        msg = [5, 0, 2]
        out = rs_7_3.decode(rs_7_3.encode(msg))
        assert out.status is DecodeStatus.EXACT_CODEWORD
        assert out.message == tuple(msg)
        assert out.error_count == 0

    @pytest.mark.parametrize("m", [3, 5, 6, 7])
    def test_recovers_within_t(self, m):
        field = Field(m)
        rng = np.random.default_rng(100 + m)
        cases = 400 if m < 7 else 60
        for _ in range(cases):
            k = int(rng.integers(1, field.order + 1))
            code = RsCode(field, k)
            msg = rng.integers(0, field.size, size=k).tolist()
            codeword = code.encode(msg)
            weight = int(rng.integers(0, code.t + 1))
            received = corrupt(rng, field, codeword, weight)
            out = code.decode(received, DecodePolicy.FAIL_DENY)
            assert out.ok
            assert out.message == tuple(msg)
            assert out.codeword == tuple(codeword)
            actual = sum(1 for a, b in zip(received, codeword) if a != b)
            assert out.error_count == actual

    def test_two_corruptions_example(self, rs_7_3):
        rng = np.random.default_rng(9)
        for _ in range(200):
            msg = rng.integers(0, 8, size=3).tolist()
            received = corrupt(rng, rs_7_3.field, rs_7_3.encode(msg), 2)
            out = rs_7_3.decode(received, DecodePolicy.FAIL_DENY)
            assert out.status is DecodeStatus.CORRECTED
            assert out.message == tuple(msg)
            nearest, _ = brute_force_nearest(all_codewords(rs_7_3), received)
            assert len(nearest) == 1 and nearest[0] == out.codeword

    def test_fail_deny_far_word(self, rs_7_5):
        _, distance = brute_force_nearest(all_codewords(rs_7_5), FAR_FROM_RS75)
        assert distance >= 2 > rs_7_5.t
        out = rs_7_5.decode(FAR_FROM_RS75, DecodePolicy.FAIL_DENY)
        assert out.status is DecodeStatus.FAILURE
        assert out.codeword is None and out.message is None
        assert not out.ok

    def test_fallback_far_word(self, rs_7_5):
        out = rs_7_5.decode(FAR_FROM_RS75, DecodePolicy.FALLBACK_SYSTEMATIC)
        assert out.status is DecodeStatus.FALLBACK
        assert out.message == tuple(FAR_FROM_RS75[:5])
        assert out.codeword == tuple(rs_7_5.encode(FAR_FROM_RS75[:5]))

    def test_syndromes_depend_only_on_error_pattern(self, rs_7_3):
        rng = np.random.default_rng(4)
        for _ in range(100):
            msg_a = rng.integers(0, 8, size=3).tolist()
            msg_b = rng.integers(0, 8, size=3).tolist()
            pattern = rng.integers(0, 8, size=7).tolist()
            received_a = [c ^ e for c, e in zip(rs_7_3.encode(msg_a), pattern)]
            received_b = [c ^ e for c, e in zip(rs_7_3.encode(msg_b), pattern)]
            assert rs_7_3.syndromes(received_a) == rs_7_3.syndromes(received_b)

    def test_deterministic_outcomes(self, rs_7_3):
        rng = np.random.default_rng(5)
        for _ in range(50):
            received = rng.integers(0, 8, size=7).tolist()
            for policy in DecodePolicy:
                assert rs_7_3.decode(received, policy) == rs_7_3.decode(received, policy)

    def test_k_equals_n_everything_is_a_codeword(self, gf8):
        code = RsCode(gf8, 7)
        word = [3, 1, 4, 1, 5, 2, 6]
        out = code.decode(word, DecodePolicy.FAIL_DENY)
        assert out.status is DecodeStatus.EXACT_CODEWORD
        assert out.message == tuple(word)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_roundtrip_hypothesis(self, data):
        field = Field(3)
        k = data.draw(st.integers(1, 7), label="k")
        code = RsCode(field, k)
        msg = data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k), label="msg")
        positions = data.draw(
            st.lists(st.integers(0, 6), unique=True, max_size=code.t), label="pos")
        values = data.draw(
            st.lists(st.integers(1, 7), min_size=len(positions), max_size=len(positions)),
            label="vals")
        received = code.encode(msg)
        for p, v in zip(positions, values):
            received[p] ^= v
        out = code.decode(received, DecodePolicy.FAIL_DENY)
        assert out.ok and out.message == tuple(msg)


class TestOracleEquivalence:
    def test_sampled_within_spheres(self, rs_7_3):
        rng = np.random.default_rng(11)
        codewords = all_codewords(rs_7_3)
        for _ in range(3000):
            cw = codewords[int(rng.integers(len(codewords)))].tolist()
            weight = int(rng.integers(0, rs_7_3.t + 1))
            received = corrupt(rng, rs_7_3.field, cw, weight)
            nearest, _ = brute_force_nearest(codewords, received)
            out = rs_7_3.decode(received, DecodePolicy.FAIL_DENY)
            assert len(nearest) == 1
            assert out.ok and out.codeword == nearest[0]

    def test_fallback_agrees_when_oracle_within_t(self, rs_7_3):
        rng = np.random.default_rng(12)
        for _ in range(1500):
            received = rng.integers(0, 8, size=7).tolist()
            nearest, distance = brute_force_nearest(all_codewords(rs_7_3), received)
            out = rs_7_3.decode(received, DecodePolicy.FALLBACK_SYSTEMATIC)
            if distance <= rs_7_3.t:
                assert out.status in (DecodeStatus.EXACT_CODEWORD, DecodeStatus.CORRECTED)
                assert out.codeword == nearest[0]
            else:
                assert out.status is DecodeStatus.FALLBACK

    def test_exhaustive_spheres_in_one_batch(self, rs_7_3):
        """Criterion 3(b)'s 50 x 1079 radius-t sphere words of RS(7,3), in
        one fail-deny ``decode_batch``: every row decodes to its centre."""
        codewords = all_codewords(rs_7_3).astype(np.int64)
        patterns = np.array(list(error_patterns(7, 8, rs_7_3.t)))
        assert patterns.shape == (1 + 49 + 1029, 7)
        centres = codewords[np.random.default_rng(99).choice(len(codewords), size=50,
                                                              replace=False)]
        words = (centres[:, None, :] ^ patterns).reshape(-1, 7)
        batch = rs_7_3.decode_batch(words, DecodePolicy.FAIL_DENY)
        assert np.array_equal(batch.message, np.repeat(centres[:, :3], len(patterns), axis=0))
        weights = np.tile(np.count_nonzero(patterns, axis=1), len(centres))
        assert np.array_equal(batch.error_count, weights)
        statuses = np.where(weights == 0, BATCH_STATUSES.index(DecodeStatus.EXACT_CODEWORD),
                            BATCH_STATUSES.index(DecodeStatus.CORRECTED))
        assert np.array_equal(batch.status, statuses)


def reference_outcome(code, word, policy):
    """(status, codeword, message, error_count) of the slow scalar decoder."""
    field = code.field
    return slow_rs_decode(word, code.k_symbols, field.m, field.primitive_poly,
                          fallback=policy is DecodePolicy.FALLBACK_SYSTEMATIC)


def outcome_fields(out):
    return out.status.value, out.codeword, out.message, out.error_count


def differential_words(code, rng, per_class):
    """Exact codewords, 1..t errors, exactly t, t + 1, and uniform words."""
    field = code.field
    n = code.n_symbols
    weights = [0, code.t, code.t + 1]
    if code.t > 1:
        weights.append(None)  # uniform in 1..t
    words = []
    for _ in range(per_class):
        for weight in weights:
            msg = rng.integers(0, field.size, code.k_symbols).tolist()
            word = slow_rs_encode(msg, field.m, field.primitive_poly)
            if weight is None:
                weight = int(rng.integers(1, code.t + 1))
            for pos in rng.choice(n, size=min(weight, n), replace=False):
                word[pos] ^= int(rng.integers(1, field.size))
            words.append(word)
        words.append(rng.integers(0, field.size, n).tolist())
    return words


class TestDifferential:
    """The table-driven codec against the slow scalar decoder in reference.py.

    Each word is decoded once by the reference under ``fallback``; under
    ``fail-deny`` its fallback rows become failures and the rest agree.
    """

    CODES = {
        3: [(k, 8) for k in range(1, 8)],
        5: [(1, 3), (11, 3), (20, 3), (30, 3), (31, 2)],
        6: [(1, 1), (17, 2), (40, 2), (63, 1)],
        8: [(32, 1), (200, 2), (255, 1)],
        # Small N-K keeps the slow reference fast; m > 8 has two-byte symbols.
        9: [(491, 1), (509, 2)],
        10: [(1003, 1), (1021, 2)],
    }

    @pytest.mark.parametrize("m", sorted(CODES))
    def test_decode_equals_reference(self, m):
        field = Field(m)
        rng = np.random.default_rng(1000 + m)
        seen = set()
        for k, per_class in self.CODES[m]:
            code = RsCode(field, k)
            words = differential_words(code, rng, per_class)
            expected = {policy: [] for policy in DecodePolicy}
            for word in words:
                ref = reference_outcome(code, word, DecodePolicy.FALLBACK_SYSTEMATIC)
                expected[DecodePolicy.FALLBACK_SYSTEMATIC].append(ref)
                expected[DecodePolicy.FAIL_DENY].append(
                    ("failure", None, None, None) if ref[0] == "fallback" else ref)
            for policy, refs in expected.items():
                batch = code.decode_batch(np.array(words), policy)
                for i, (word, ref) in enumerate(zip(words, refs)):
                    out = code.decode(word, policy)
                    assert outcome_fields(out) == ref, (m, k, policy, word)
                    assert code.outcome(batch, i) == out
                    seen.add(out.status)
        assert seen == set(DecodeStatus)

    @pytest.mark.parametrize("m,k", [(3, 1), (3, 4), (3, 7), (5, 20), (6, 1),
                                     (8, 32), (8, 255)])
    def test_encode_equals_long_division(self, m, k):
        field = Field(m)
        code = RsCode(field, k)
        rng = np.random.default_rng(m + k)
        assert list(code.generator_poly) == slow_rs_generator(m, field.primitive_poly, k)
        for _ in range(10):
            msg = rng.integers(0, field.size, k).tolist()
            assert code.encode(msg) == slow_rs_encode(msg, m, field.primitive_poly)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_words_hypothesis(self, data):
        m = data.draw(st.sampled_from([2, 3, 4]), label="m")
        field = Field(m)
        code = RsCode(field, data.draw(st.integers(1, field.order), label="k"))
        word = data.draw(st.lists(st.integers(0, field.order), min_size=field.order,
                                  max_size=field.order), label="word")
        for policy in DecodePolicy:
            assert outcome_fields(code.decode(word, policy)) == reference_outcome(
                code, word, policy)


@pytest.fixture
def algebraic(monkeypatch):
    """Codes built under this fixture decode by Berlekamp-Massey, Chien and
    Forney: ``_LOOKUP_BITS`` is patched below every code's key width before
    they are built, so none builds a syndrome lookup."""
    monkeypatch.setattr(rs, "_LOOKUP_BITS", -1)


def lockstep_spy(monkeypatch):
    """Record the row count of every lockstep Berlekamp-Massey call."""
    calls = []
    original = RsCode._berlekamp_massey_rows

    def spy(self, synd):
        calls.append(len(synd))
        return original(self, synd)

    monkeypatch.setattr(RsCode, "_berlekamp_massey_rows", spy)
    return calls


class TestLockstepBerlekampMassey:
    """``decode_batch`` with at least ``_BM_LOCKSTEP`` pending rows, or with
    any at m > 8, runs Berlekamp-Massey in lockstep over them; with fewer
    one-byte rows, packed per row. Both must give, row by row, what
    ``decode`` (a batch of one) and the slow reference give, for every
    status mixed in one batch. The tests that follow a batch down these
    paths build their codes under ``algebraic``, since the small ones
    would otherwise decode by syndrome lookup."""

    # (k, per_class); K = N - 1 has t = 0 and K = N - 2 has t = 1. RS(255, 32)
    # is checked against ``decode`` only: its reference decode takes ~0.2 s
    # a word, and TestDifferential already ties ``decode`` to the reference.
    CODES = {
        3: [(1, 5), (3, 5), (5, 9), (6, 9)],
        5: [(11, 5), (20, 5), (29, 9), (30, 9)],
        6: [(17, 5), (61, 9), (62, 9)],
        8: [(32, 5), (200, 5), (253, 9), (254, 9)],
        9: [(501, 2)],
        10: [(1013, 2)],
    }

    @pytest.mark.usefixtures("algebraic")
    @pytest.mark.parametrize("m", sorted(CODES))
    def test_batches_equal_decode_and_reference(self, m, monkeypatch):
        field = Field(m)
        rng = np.random.default_rng(2000 + m)
        calls = lockstep_spy(monkeypatch)
        seen = set()
        for k, per_class in self.CODES[m]:
            code = RsCode(field, k)
            words = differential_words(code, rng, per_class)
            expected = {policy: [code.decode(w, policy) for w in words]
                        for policy in DecodePolicy}
            if (m, k) != (8, 32):
                for i, word in enumerate(words):
                    ref = reference_outcome(code, word, DecodePolicy.FALLBACK_SYSTEMATIC)
                    assert outcome_fields(expected[DecodePolicy.FALLBACK_SYSTEMATIC][i]) == ref
                    assert outcome_fields(expected[DecodePolicy.FAIL_DENY][i]) == (
                        ("failure", None, None, None) if ref[0] == "fallback" else ref)
            pending = [i for i, w in enumerate(words) if any(code.syndromes(w))]
            exact = [i for i in range(len(words)) if i not in pending]
            if code.exp_table.itemsize > 1:
                # Every pending-row count, 1 included, runs in lockstep.
                cut, counts = 0, range(1, len(pending) + 1)
            else:
                cut = _BM_LOCKSTEP
                assert len(pending) > cut
                counts = (cut - 1, cut, len(pending))
            for count in counts:
                rows = rng.permutation(pending[:count] + exact)
                for policy in DecodePolicy:
                    del calls[:]
                    batch = code.decode_batch(np.array([words[i] for i in rows]), policy)
                    assert calls == ([count] if count >= cut else [])
                    for j, i in enumerate(rows):
                        assert code.outcome(batch, j) == expected[policy][i], (m, k, count, words[i])
                        seen.add(expected[policy][i].status)
        assert seen == set(DecodeStatus)

    def test_row_chunks_decode_as_one_batch(self, monkeypatch):
        code = RsCode(Field(5), 11)
        rng = np.random.default_rng(4000)
        words = np.array(differential_words(code, rng, 25))
        whole = code.decode_batch(words)
        pending = int(whole.status.astype(bool).sum())
        assert pending > 30
        chunk = _BM_LOCKSTEP + 2
        calls = lockstep_spy(monkeypatch)
        monkeypatch.setattr(rs, "_CHUNK", chunk * code.num_parity)
        chunked = code.decode_batch(words)
        assert calls == [chunk] * (pending // chunk) + [pending % chunk] * (pending % chunk > 0)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)

    @pytest.mark.usefixtures("algebraic")
    @pytest.mark.parametrize("m,k", [(3, 1), (5, 11), (8, 200)])
    def test_kernel_chunks_decode_and_encode_as_one_batch(self, m, k, monkeypatch):
        """With ``_CHUNK`` shrunk to 2, 3 and 5 items of each gather kernel,
        ``_products`` and the Forney sums of ``_correct`` each
        split into 3 or more chunks with a ragged last one, and every batch
        still equals the unchunked one and the reference."""
        code = RsCode(Field(m), k)
        rng = np.random.default_rng(4100 + m)
        words = np.array(differential_words(code, rng, 6))
        messages = rng.integers(0, code.field.size, (20, k))
        expected = {policy: [expected_outcome(code, w, policy) for w in words.tolist()]
                    for policy in DecodePolicy}
        whole = {policy: code.decode_batch(words, policy) for policy in DecodePolicy}
        encoded = code.encode_batch(messages)
        split = set()
        original = rs._chunks

        def spy(count, per_item):
            parts = original(count, per_item)
            sizes = [len(range(count)[part]) for part in parts]
            if len(parts) >= 3 and sizes[-1] < sizes[0]:
                split.add(sys._getframe(1).f_code.co_name)
            return parts

        monkeypatch.setattr(rs, "_chunks", spy)
        n, npar, t = code.n_symbols, code.num_parity, code.t
        for per_item in (n * npar, (t + 1) * n, k * npar, t):
            for step in (2, 3, 5):
                monkeypatch.setattr(rs, "_CHUNK", per_item * step)
                assert np.array_equal(code.encode_batch(messages), encoded)
                for policy in DecodePolicy:
                    batch = code.decode_batch(words, policy)
                    for a, b in zip(whole[policy], batch):
                        assert np.array_equal(a, b)
                    for i, ref in enumerate(expected[policy]):
                        assert outcome_fields(code.outcome(batch, i)) == ref
        assert split == {"_products", "_correct"}

    def test_forney_peak_memory_is_chunked(self):
        """A batch of 400 m=8, K=32 words with 65 errors each decodes within
        8 MB of traced peak memory: every gather goes in chunks."""
        code = RsCode(Field(8), 32)
        rng = np.random.default_rng(4200)
        messages = rng.integers(0, 256, (400, 32))
        words = code.encode_batch(messages).astype(np.int64)
        for word in words:
            word[rng.choice(255, size=65, replace=False)] ^= rng.integers(1, 256, size=65)
        tracemalloc.start()
        try:
            batch = code.decode_batch(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (batch.status == BATCH_STATUSES.index(DecodeStatus.CORRECTED)).all()
        assert np.array_equal(batch.message, messages)
        assert batch.error_count.tolist() == [65] * 400
        assert peak <= 8 << 20, peak

    @pytest.mark.parametrize("m,k", [(3, 1), (3, 5), (3, 6), (5, 20), (6, 61), (8, 200),
                                     (8, 254), (2, 1), (4, 7), (7, 101), (9, 491), (10, 1003)])
    def test_locators_equal_reference(self, m, k):
        """sigma, its degree and the LFSR length from the lockstep
        Berlekamp-Massey at every m, and from the packed one at m <= 8
        (m > 8 decodes in lockstep only): uniform words, words within t and
        just beyond it, syndromes with runs of zeros, and rows where the
        degree is below the LFSR length: syndromes (s, 0, .., 0) leave
        sigma = 1 at length 1. Words within t end in a run of zero
        discrepancies."""
        field = Field(m)
        code = RsCode(field, k)
        rng = np.random.default_rng(3000 + m + k)
        npar = code.num_parity
        words = [rng.integers(0, field.size, code.n_symbols) for _ in range(20)]
        for weight in (1, code.t, code.t + 1, code.t + 2):
            for _ in range(4):
                word = np.array(code.encode(rng.integers(0, field.size, k)))
                pos = rng.choice(code.n_symbols, size=min(weight, code.n_symbols),
                                 replace=False)
                word[pos] ^= rng.integers(1, field.size, size=len(pos))
                words.append(word)
        synd = code._syndromes(np.array(words).astype(code.exp_table.dtype))
        runs = rng.integers(0, field.size, size=(8, npar)).astype(synd.dtype)
        for row in runs:
            lo = int(rng.integers(0, npar))
            row[lo:lo + int(rng.integers(1, npar + 1))] = 0
        single = np.zeros((2 * npar, npar), dtype=synd.dtype)
        single[np.arange(2 * npar), np.arange(2 * npar) % npar] = rng.integers(
            1, field.size, size=2 * npar)
        synd = np.concatenate([synd, runs, single])
        synd = synd[synd.any(axis=1)]
        expected = [_slow_berlekamp_massey(s, field.primitive_poly, m) for s in synd.tolist()]
        paths = [code._berlekamp_massey_rows]
        if code.exp_table.itemsize == 1:
            paths.append(code._berlekamp_massey_packed)
        for locators in paths:
            sigma, degree, length, *evaluator = locators(synd)
            assert sigma.shape == (len(synd), npar + 1)
            for row, deg, lfsr, (ref, ref_length) in zip(
                    sigma.tolist(), degree.tolist(), length.tolist(), expected):
                assert deg == len(ref) - 1
                assert row == ref + [0] * (npar - deg)
                assert lfsr == ref_length
            for high in evaluator:  # Omega^h, the fourth value of both paths
                assert high.tolist() == [
                    slow_high_evaluator(s, ref, field.primitive_poly, m)[:code.t]
                    for s, (ref, _) in zip(synd.tolist(), expected)]
            if npar > 1:  # the (s, 0, .., 0) row
                assert degree[len(synd) - 2 * npar] == 0
                assert length[len(synd) - 2 * npar] == 1

    def test_packed_tables_built_on_first_small_batch(self):
        """Only a correction of fewer than ``_BM_LOCKSTEP`` one-byte rows
        builds the packed tables; at m > 8 none does."""
        for m, k in ((8, 200), (10, 1013)):
            code = RsCode(Field(m), k)
            word = code.encode(list(range(k)))
            code.decode(word)
            code.decode_batch(np.array([[1] + word[1:]] * _BM_LOCKSTEP))
            assert code._packed_tables is None
            word[3] ^= 1
            assert code.decode(word).error_count == 1
            assert (code._packed_tables is not None) == (m <= 8)


def single_syndrome_word(code):
    """A word whose syndromes are (S_1, 0, .., 0) with S_1 != 0: the
    coefficients of prod_(j=2..N-K) (x - alpha^j), which vanishes at
    alpha^2 .. alpha^(N-K) and not at alpha. Its error locator is sigma = 1."""
    m, poly = code.field.m, code.field.primitive_poly
    g = [1]
    for j in range(2, code.num_parity + 1):
        root = slow_alpha_pow(j, poly, m)
        g = [a ^ slow_gf_mul(b, root, poly, m) for a, b in zip(g + [0], [0] + g)]
    return [0] * (code.n_symbols - len(g)) + g


def expected_outcome(code, word, policy):
    ref = reference_outcome(code, word, DecodePolicy.FALLBACK_SYSTEMATIC)
    if policy is DecodePolicy.FAIL_DENY and ref[0] == "fallback":
        return "failure", None, None, None
    return ref


class TestReCheck:
    """A row is corrected when its locator's degree equals the LFSR length
    L, with 0 < L <= t, and Chien finds L roots; there is no syndrome
    re-check. The decoder must refuse exactly the rows the reference, which
    re-checks the syndromes of its corrected word, refuses. The uniform-word
    test builds its codes under ``algebraic``."""

    @pytest.mark.usefixtures("algebraic")
    @pytest.mark.parametrize("m", [3, 4])
    def test_uniform_words_equal_reference(self, m, monkeypatch):
        """Uniform words decoded as one batch (lockstep Berlekamp-Massey)
        and one by one (packed) include rows whose locator has degree
        0 < deg <= t below L and deg distinct roots, which only the degree
        test refuses; each is labelled as the reference labels it."""
        field = Field(m)
        poly = field.primitive_poly
        rng = np.random.default_rng(6000 + m)
        located = []
        for name in ("_berlekamp_massey_rows", "_berlekamp_massey_packed"):
            def spy(self, synd, original=getattr(RsCode, name), name=name):
                out = original(self, synd)
                located.append((name, synd, *out))
                return out

            monkeypatch.setattr(RsCode, name, spy)

        def short_split(code):
            """The syndromes of the rows each path found with a split
            locator of degree below the LFSR length."""
            found = {"_berlekamp_massey_rows": set(), "_berlekamp_massey_packed": set()}
            for name, synd, sigma, degree, length, *_ in located:
                for s, row, deg, lfsr in zip(synd.tolist(), sigma.tolist(),
                                             degree.tolist(), length.tolist()):
                    if not 0 < deg < lfsr or deg > code.t:
                        continue
                    roots = sum(_slow_poly_eval(row, slow_alpha_pow(-d, poly, m), poly, m) == 0
                                for d in range(code.n_symbols))
                    if roots == deg:
                        found[name].add(tuple(s))
            return found

        seen = {"_berlekamp_massey_rows": 0, "_berlekamp_massey_packed": 0}
        for k in range(1, field.order - 1):
            code = RsCode(field, k)
            words = rng.integers(0, field.size, (100, field.order))
            for policy in DecodePolicy:
                expected = [expected_outcome(code, w, policy) for w in words.tolist()]
                del located[:]
                batch = code.decode_batch(words, policy)
                outcomes = [code.decode(word, policy) for word in words]
                assert located[0][0] == "_berlekamp_massey_rows"
                assert {entry[0] for entry in located[1:]} <= {"_berlekamp_massey_packed"}
                for _, synd, sigma, _, _, high in located[1:]:
                    assert high.tolist() == [slow_high_evaluator(s, row, poly, m)[:code.t]
                                             for s, row in zip(synd.tolist(), sigma.tolist())]
                found = short_split(code)
                for i, (word, ref) in enumerate(zip(words.tolist(), expected)):
                    assert outcome_fields(code.outcome(batch, i)) == ref, (k, policy, word)
                    assert outcome_fields(outcomes[i]) == ref, (k, policy, word)
                    synd = tuple(code.syndromes(word))
                    for name, rows in found.items():
                        if synd in rows:
                            assert ref[0] in ("fallback", "failure"), (k, word)
                            seen[name] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("m,k", [(3, 1), (3, 3), (4, 7), (5, 11), (8, 200), (9, 507)])
    def test_degree_zero_locator_is_not_corrected(self, m, k):
        """A pending row whose locator is sigma = 1 locates no error, alone
        in a batch and beside corrected rows, under both Berlekamp-Massey
        paths."""
        code = RsCode(Field(m), k)
        single = single_syndrome_word(code)
        synd = code.syndromes(single)
        assert synd[0] and not any(synd[1:])
        locators = [code._berlekamp_massey_rows]
        if code.exp_table.itemsize == 1:
            locators.append(code._berlekamp_massey_packed)
        for locator in locators:
            assert locator(np.array([synd], dtype=code.exp_table.dtype))[1].tolist() == [0]
        rng = np.random.default_rng(7000 + m)
        near = []
        for weight in (1, code.t, 1, code.t):
            word = np.array(code.encode(rng.integers(0, code.field.size, k)))
            pos = rng.choice(code.n_symbols, size=weight, replace=False)
            word[pos] ^= rng.integers(1, code.field.size, size=weight)
            near.append(word.tolist())
        batches = [[single], [near[0], single, near[1]], [single] + near,
                   near[:2] + [single] * 3 + near[2:], [single, near[0]] * _BM_LOCKSTEP]
        for policy in DecodePolicy:
            expected = {tuple(w): expected_outcome(code, w, policy) for w in [single] + near}
            assert expected[tuple(single)][0] in ("fallback", "failure")
            for words in batches:
                batch = code.decode_batch(np.array(words), policy)
                for i, word in enumerate(words):
                    assert outcome_fields(code.outcome(batch, i)) == expected[tuple(word)]


class TestForneyMessageOnly:
    """Forney runs only for errors at message positions, and a corrected
    row reports its locator's degree as the error count. Errors only in
    parity, only in the message, and in both, e = 1..t, must give the
    reference's status, message and count under both policies, as one row
    (packed Berlekamp-Massey) and as a batch of at least ``_BM_LOCKSTEP``
    rows (lockstep), with every code built under ``algebraic``."""

    # (m, K, copies of each (placement, e) word)
    CODES = [(3, 3, 4), (5, 11, 1), (8, 235, 1)]

    @pytest.mark.usefixtures("algebraic")
    @pytest.mark.parametrize("m,k,copies", CODES)
    def test_error_placements_equal_reference(self, m, k, copies, monkeypatch):
        field = Field(m)
        code = RsCode(field, k)
        n, t = code.n_symbols, code.t
        rng = np.random.default_rng(8000 + m)
        message_pos, parity_pos = np.arange(k), np.arange(k, n)
        words = []
        for e in range(1, t + 1):
            placements = [rng.choice(parity_pos, e, replace=False),
                          rng.choice(message_pos, e, replace=False)]
            if e > 1:
                split = int(rng.integers(1, e))
                placements.append(np.concatenate([rng.choice(message_pos, split, replace=False),
                                                  rng.choice(parity_pos, e - split,
                                                             replace=False)]))
            for pos in placements:
                for _ in range(copies):
                    word = np.array(code.encode(rng.integers(0, field.size, k)))
                    word[pos] ^= rng.integers(1, field.size, size=e)
                    words.append(word.tolist())
        assert len(words) >= _BM_LOCKSTEP
        calls = lockstep_spy(monkeypatch)
        for policy in DecodePolicy:
            expected = [expected_outcome(code, w, policy) for w in words]
            assert {ref[0] for ref in expected} == {"corrected"}
            del calls[:]
            batch = code.decode_batch(np.array(words), policy)
            assert calls == [len(words)]
            singles = [code.decode_batch(np.array([w]), policy) for w in words]
            assert calls == [len(words)]
            for i, ref in enumerate(expected):
                for out, j in ((batch, i), (singles[i], 0)):
                    assert BATCH_STATUSES[out.status[j]].value == ref[0]
                    assert tuple(out.message[j].tolist()) == ref[2]
                    assert out.error_count[j] == ref[3]


class TestHighEvaluator:
    """Forney reads the high-order evaluator Omega^h, coefficients N-K and
    up of S(x) sigma(x), which both Berlekamp-Massey paths return as their
    fourth value: the packed one (m <= 8) from its final discrepancy
    register, the lockstep one summed from the syndromes and its final
    locator. Both must equal the slow product on every row, from words
    with e = 1..t errors and uniform words."""

    @pytest.mark.parametrize("m,k", [(3, 1), (4, 5), (5, 11), (8, 200), (9, 491)])
    def test_evaluators_equal_reference(self, m, k):
        field = Field(m)
        poly, t = field.primitive_poly, (field.order - k) // 2
        code = RsCode(field, k)
        rng = np.random.default_rng(9000 + m)
        words = [rng.integers(0, field.size, field.order) for _ in range(20)]
        for e in range(1, t + 1):
            for _ in range(2):
                word = np.array(code.encode(rng.integers(0, field.size, k)))
                pos = rng.choice(field.order, size=e, replace=False)
                word[pos] ^= rng.integers(1, field.size, size=e)
                words.append(word)
        synd = code._syndromes(np.array(words))
        synd = synd[synd.any(axis=1)]
        expected, located = [], 0
        for s in synd.tolist():
            sigma, length = _slow_berlekamp_massey(s, poly, m)
            expected.append(slow_high_evaluator(s, sigma, poly, m)[:t])
            located += 0 < len(sigma) - 1 == length <= t
        assert located >= 2 * t
        paths = [code._berlekamp_massey_rows]
        if code.exp_table.itemsize == 1:
            paths.append(code._berlekamp_massey_packed)
        for locators in paths:
            assert locators(synd)[3].tolist() == expected


def lookup_words(code, rng, per_class=30):
    """Uniform words, then exact codewords and words with 1 .. t + 1 errors."""
    field, n, t = code.field, code.n_symbols, code.t
    messages = rng.integers(0, field.size, ((t + 2) * per_class, code.k_symbols))
    words = code.encode_batch(messages).astype(np.int64).reshape(t + 2, per_class, n)
    for weight, block in enumerate(words[1:], start=1):
        for word in block:
            pos = rng.choice(n, size=min(weight, n), replace=False)
            word[pos] ^= rng.integers(1, field.size, size=len(pos))
    return np.concatenate([rng.integers(0, field.size, (2 * per_class, n)),
                           words.reshape(-1, n)])


def beyond_word(code):
    """A word of a code with N-K = 2 whose key no error pattern of weight
    <= 1 has: zero but in its last two positions. Any two positions of the
    parity-check matrix are independent, so those words take every key."""
    lookup, n, size = code._lookup, code.n_symbols, code.field.size
    keys = lookup.keys.reshape(n, size)
    tail = keys[n - 2, :, None] ^ keys[n - 1, None, :]
    first, last = np.argwhere(lookup.weight[lookup.index[tail]] < 0)[0]
    word = np.zeros(n, dtype=np.int64)
    word[n - 2:] = first, last
    return word


def assert_same_batches(got, want, rows=slice(None)):
    """Two ``BatchDecode`` results agree array by array, dtypes included;
    ``rows`` picks the rows of ``want`` that ``got`` decoded."""
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b[rows])


class TestSyndromeLookup:
    """A code that corrects at least one error and whose key, its m(N-K)
    syndrome bits packed into one integer, is at most ``_LOOKUP_BITS`` wide
    decodes by one lookup of the error pattern of weight <= t with that key.
    It must decode every word as Berlekamp-Massey, Chien and Forney and the
    slow reference do."""

    # The K of every such code: N-K >= 2, so t >= 1. At m = 10 there is none.
    CODES = {m: [k for k in range(1, (1 << m) - 2) if m * ((1 << m) - 1 - k) <= rs._LOOKUP_BITS]
             for m in range(2, 10)}

    def test_eligible_codes(self):
        assert {m: ks[0] for m, ks in self.CODES.items()} == {
            2: 1, 3: 1, 4: 11, 5: 28, 6: 60, 7: 125, 8: 253, 9: 509}
        assert all(ks == list(range(ks[0], (1 << m) - 2)) for m, ks in self.CODES.items())
        assert RsCode(Field(3), 1)._lookup is not None
        for m, k in ((8, 32), (5, 20), (4, 10), (8, 252), (10, 1021),
                     (2, 2), (3, 6), (8, 254), (9, 510), (10, 1022)):
            assert RsCode(Field(m), k)._lookup is None

    @pytest.mark.parametrize("m", sorted(CODES))
    def test_batches_equal_algebraic_decoder(self, m, monkeypatch):
        """Under both policies, a batch and single rows of it decode to the
        same arrays and dtypes with the lookup and without it. A code with
        N-K = 2 also decodes a word whose key no pattern has, since at m = 8
        the t = 1 spheres cover ~99% of all words."""
        field = Field(m)
        rng = np.random.default_rng(11000 + m)
        seen = set()
        for k in self.CODES[m]:
            code = RsCode(field, k)
            with monkeypatch.context() as patch:
                patch.setattr(rs, "_LOOKUP_BITS", -1)
                algebraic = RsCode(field, k)
            assert code._lookup is not None and algebraic._lookup is None
            words = lookup_words(code, rng)
            if code.num_parity == 2:
                words = np.vstack([words, beyond_word(code)])
            for policy in DecodePolicy:
                want = algebraic.decode_batch(words, policy)
                assert_same_batches(code.decode_batch(words, policy), want)
                for i in rng.choice(len(words), size=8, replace=False):
                    assert_same_batches(code.decode_batch(words[i:i + 1], policy), want,
                                        slice(i, i + 1))
                seen.update(BATCH_STATUSES[s] for s in want.status)
        assert seen == set(DecodeStatus)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_word_equals_reference_at_m2(self, k):
        code = RsCode(Field(2), k)
        words = np.array(list(itertools.product(range(4), repeat=3)))
        for policy in DecodePolicy:
            batch = code.decode_batch(words, policy)
            for i, word in enumerate(words.tolist()):
                assert outcome_fields(code.outcome(batch, i)) == expected_outcome(
                    code, word, policy), (k, policy, word)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_sample_equals_reference_at_m3(self, k):
        code = RsCode(Field(3), k)
        words = lookup_words(code, np.random.default_rng(12000 + k), per_class=15)
        for policy in DecodePolicy:
            batch = code.decode_batch(words, policy)
            for i, word in enumerate(words.tolist()):
                assert outcome_fields(code.outcome(batch, i)) == expected_outcome(
                    code, word, policy), (k, policy, word)

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 4), (4, 11), (5, 28), (6, 60),
                                     (7, 125)])
    def test_every_pattern_has_its_own_key(self, m, k):
        """The lookup holds every error pattern of weight <= t once, and each
        such pattern, as a word, decodes to the zero message with its weight
        as the count."""
        code = RsCode(Field(m), k)
        lookup, n = code._lookup, code.n_symbols
        patterns = sum(math.comb(n, w) * n ** w for w in range(code.t + 1))
        assert lookup.weight.shape == (patterns + 1,) and lookup.weight[-1] == -1
        assert np.count_nonzero(lookup.index != patterns) == patterns
        words = np.zeros((patterns, n + 1), dtype=np.int64)
        rows = np.arange(patterns)[:, None]
        words[rows, lookup.positions[:-1]] = lookup.values[:-1]  # unused slots write column N
        batch = code.decode_batch(words[:, :n], DecodePolicy.FAIL_DENY)
        assert not batch.message.any()
        assert np.array_equal(batch.error_count, lookup.weight[:-1])
        assert np.array_equal(np.count_nonzero(words[:, :n], axis=1), lookup.weight[:-1])
        assert np.array_equal(batch.status, np.where(lookup.weight[:-1] > 0, 1, 0))

    def test_lookup_sizes(self):
        """At m <= 8 every lookup holds at most 1 MB; weights are int8."""
        for m in range(2, 9):
            for k in self.CODES[m]:
                lookup = RsCode(Field(m), k)._lookup
                assert sum(table.nbytes for table in lookup) <= 1_000_000, (m, k)
                assert lookup.weight.dtype == np.int8

    def test_lookup_codes_run_no_algebra(self, monkeypatch):
        """``decode_batch`` of a code with a lookup computes no syndromes
        and runs no Berlekamp-Massey, Chien or Forney."""
        def refuse(*args):
            raise AssertionError("the algebraic decoder ran")

        rng = np.random.default_rng(13000)
        codes = [RsCode(Field(m), k) for m, k in ((2, 1), (3, 1), (3, 5), (4, 11), (8, 253))]
        for name in ("_syndromes", "_correct"):
            monkeypatch.setattr(RsCode, name, refuse)
        for code in codes:
            words = lookup_words(code, rng, per_class=4)
            for policy in DecodePolicy:
                code.decode_batch(words, policy)
                code.decode(words[-1], policy)

    def test_row_chunks_decode_as_one_batch(self, monkeypatch):
        code = RsCode(Field(3), 1)
        words = lookup_words(code, np.random.default_rng(14000))
        whole = {policy: code.decode_batch(words, policy) for policy in DecodePolicy}
        calls = []
        original = rs._chunks

        def spy(count, per_item):
            calls.append(len(original(count, per_item)))
            return original(count, per_item)

        monkeypatch.setattr(rs, "_chunks", spy)
        monkeypatch.setattr(rs, "_CHUNK", 7 * code.n_symbols)
        for policy in DecodePolicy:
            assert_same_batches(code.decode_batch(words, policy), whole[policy])
        assert calls == [-(-len(words) // 7)] * 2


class TestSymbolRefusal:
    """Every codec entry refuses, with ``ValueError``, an entry that is not
    an integer symbol, before a cast could truncate, parse or overflow it;
    integer, bool and integral float entries are read as they are."""

    BAD = [0.7, 3.9, -0.5, float("nan"), "1", b"1", None, 2**64 + 1, -1, 8, 1.5j]
    GOOD = [1, True, np.uint8(7), 3.0, np.int16(2)]

    @staticmethod
    def calls(code, entry):
        msg = [entry] + [0] * (code.k_symbols - 1)
        word = [entry] + [0] * (code.n_symbols - 1)
        return {
            "encode": lambda: code.encode(msg),
            "encode_batch": lambda: code.encode_batch([msg, [0] * code.k_symbols]),
            "syndromes": lambda: code.syndromes(word),
            "decode": lambda: code.decode(word),
            "decode_batch": lambda: code.decode_batch([[0] * code.n_symbols, word]),
        }

    @pytest.mark.parametrize("entry", BAD, ids=repr)
    def test_refused(self, entry):
        code = RsCode(Field(3), 1)
        for name, call in self.calls(code, entry).items():
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("entry", GOOD, ids=repr)
    def test_integers_read_as_they_are(self, entry):
        code = RsCode(Field(3), 1)
        value = int(entry)
        got = self.calls(code, entry)
        assert got["encode"]() == code.encode([value])
        assert got["encode_batch"]()[0].tolist() == code.encode([value])
        word = [value] + [0] * (code.n_symbols - 1)
        assert got["syndromes"]() == code.syndromes(word)
        assert got["decode"]() == code.decode(word)
        assert got["decode_batch"]().message[1].tolist() == [code.decode(word).message[0]]


class TestDecodeBatch:
    def test_arrays_layout(self, rs_7_5):
        rows = np.array([rs_7_5.encode([1, 2, 3, 4, 5]), FAR_FROM_RS75])
        batch = rs_7_5.decode_batch(rows, DecodePolicy.FAIL_DENY)
        assert [BATCH_STATUSES[s] for s in batch.status] == [
            DecodeStatus.EXACT_CODEWORD, DecodeStatus.FAILURE]
        assert batch.message.shape == (2, 5)
        assert batch.error_count.tolist() == [0, -1]
        assert batch.message[0].tolist() == [1, 2, 3, 4, 5]
        assert not batch.message[1].any()

    def test_empty_batch(self, rs_7_3):
        batch = rs_7_3.decode_batch(np.zeros((0, 7), dtype=np.int64))
        assert batch.status.shape == (0,) and batch.message.shape == (0, 3)

    @pytest.mark.parametrize("m,k", [(3, 1), (5, 20), (3, 6), (10, 1013)])
    def test_zero_rows(self, m, k):
        """A (0, N) batch decodes to (0,) int8 statuses, a (0, K) message in
        ``exp_table.dtype`` and (0,) int64 counts, under both policies: by
        the syndrome lookup (m = 3, K = 1) and by the algebraic corrector
        (RS(31, 20), the t = 0 RS(7, 6) and an m = 10 code)."""
        code = RsCode(Field(m), k)
        assert (code._lookup is not None) == ((m, k) == (3, 1))
        for policy in DecodePolicy:
            batch = code.decode_batch(np.zeros((0, code.n_symbols), dtype=np.int64), policy)
            assert (batch.status.shape, batch.status.dtype) == ((0,), np.int8)
            assert (batch.message.shape, batch.message.dtype) == ((0, k), code.exp_table.dtype)
            assert (batch.error_count.shape, batch.error_count.dtype) == ((0,), np.int64)

    def test_validation(self, rs_7_3):
        with pytest.raises(LengthMismatchError):
            rs_7_3.decode_batch(np.zeros((2, 6), dtype=np.int64))
        with pytest.raises(LengthMismatchError):
            rs_7_3.decode_batch(np.zeros(7, dtype=np.int64))
        with pytest.raises(ValueError):
            rs_7_3.decode_batch(np.full((1, 7), 8))
        with pytest.raises(ValueError):
            rs_7_3.decode([0, 0, 0, -1, 0, 0, 0])

    def test_tables_are_read_only(self, rs_7_3):
        with pytest.raises(ValueError):
            rs_7_3.syndrome_exponents[0, 0] = 1
        for table in rs_7_3._lookup:
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("m", range(2, 11))
    def test_quotient_logs_divide_and_keep_the_zero_log(self, m):
        """Entry a - b + N of ``quotient_logs`` is (a - b) mod N, the log of
        alpha^a / alpha^b, for every pair of logs a, b < N; a zero dividend,
        log 2N, gives the zero log 2N. The table is int16 and read-only."""
        code = RsCode(Field(m), 1)
        n, table = code.n_symbols, code.quotient_logs
        assert table.shape == (3 * n + 1,) and table.dtype == np.int16
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
        logs = np.arange(n)
        quotient = table[logs[:, None] - logs[None, :] + n]
        assert np.array_equal(quotient, (logs[:, None] - logs[None, :]) % n)
        assert (table[2 * n - logs + n] == 2 * n).all()

    def test_zero_sentinel_multiplies_without_branch(self, gf8, rs_7_3):
        exp, log = rs_7_3.exp_table, rs_7_3.log_table
        for a in range(8):
            for b in range(8):
                assert exp[log[a] + log[b]] == slow_gf_mul(a, b, gf8.primitive_poly, 3)


class TestBitPacking:
    def test_documented_example(self):
        assert bits_to_symbols([1, 0, 1, 1, 1, 0], 3) == [5, 6]

    def test_155_bits_make_31_symbols(self):
        assert len(bits_to_symbols([0] * 155, 5)) == 31

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_roundtrip_random(self, m):
        rng = np.random.default_rng(m)
        bits = rng.integers(0, 2, size=m * 40, dtype=np.uint8)
        assert np.array_equal(symbols_to_bits(bits_to_symbols(bits, m), m), bits)

    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("shape", [(9,), (3, 5), (2, 3, 4), (0, 5), (3, 0), (2, 0, 3)],
                             ids=["1-d", "2-d", "3-d", "zero-rows", "zero-symbols", "3-d-empty"])
    def test_roundtrip_every_symbol_size(self, m, shape):
        # The first symbol of every row is 0 and the last 2^m - 1; m = 9 and
        # 10 make symbols wider than a byte.
        rng = np.random.default_rng(m)
        symbols = rng.integers(0, 1 << m, size=shape)
        if shape[-1]:
            symbols[..., 0], symbols[..., -1] = 0, (1 << m) - 1
        rows = symbols.reshape(math.prod(shape[:-1]), shape[-1]).tolist()
        expected = np.array([[(s >> (m - 1 - j)) & 1 for s in row for j in range(m)]
                             for row in rows], dtype=np.uint8).reshape(len(rows), shape[-1] * m)
        for given_symbols in (symbols, symbols.astype(Field(m).exp_table.dtype)):
            bits = symbols_to_bits(given_symbols, m)
            assert bits.dtype == np.uint8
            assert bits.shape == (*shape[:-1], shape[-1] * m)
            assert np.array_equal(bits.reshape(expected.shape), expected)
        packed = bit_rows_to_symbols(bits, m)
        assert packed.dtype == np.int64
        assert packed.shape == shape and np.array_equal(packed, symbols)
        if len(shape) == 1:
            assert bits_to_symbols(bits, m) == symbols.tolist()

    @pytest.mark.parametrize("m", [0, 1, 11, -1, True], ids=["0", "1", "11", "-1", "True"])
    def test_symbol_size_outside_2_to_10_raises(self, m):
        # 66 bits are a whole number of 1-, 2-, 3- and 11-bit symbols.
        assert issubclass(UnsupportedSymbolSizeError, ValueError)
        bits = [1, 0] * 33
        with pytest.raises(UnsupportedSymbolSizeError):
            bits_to_symbols(bits, m)
        with pytest.raises(UnsupportedSymbolSizeError):
            bit_rows_to_symbols(np.array([bits, bits]), m)
        with pytest.raises(UnsupportedSymbolSizeError):
            symbols_to_bits([0], m)

    @given(st.lists(st.integers(0, 7), min_size=0, max_size=30))
    def test_roundtrip_symbols_hypothesis(self, symbols):
        assert bits_to_symbols(symbols_to_bits(symbols, 3), 3) == symbols

    def test_length_not_multiple(self):
        with pytest.raises(LengthMismatchError):
            bits_to_symbols([1, 0, 1, 1], 3)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 6), (1, 1, 3)])
    def test_bit_array_is_a_length_mismatch(self, shape):
        with pytest.raises(LengthMismatchError):
            bits_to_symbols(np.zeros(shape, dtype=np.uint8), 3)

    def test_scalar_is_a_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            bit_rows_to_symbols(1, 3)
        with pytest.raises(LengthMismatchError):
            symbols_to_bits(1, 3)

    def test_non_bit_values(self):
        with pytest.raises(ValueError):
            bits_to_symbols([2, 0, 1], 3)
        with pytest.raises(ValueError):
            symbols_to_bits([9], 3)
