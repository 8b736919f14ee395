import numpy as np
import pytest

from biosketch.gf import Field
from biosketch.rs import RsCode

from reference import all_codewords, brute_force_nearest

# Frozen: exhaustive search on RS(7,5) found 21 codewords tied at distance 2.
TIED_RECEIVED_RS75 = [1, 6, 6, 1, 4, 6, 1]


def test_all_codewords_lex_order(rs_7_3):
    cws = all_codewords(rs_7_3)
    assert cws.shape == (512, 7)
    # row index encodes the message as base-8 digits, first symbol leading
    for idx in (0, 1, 8, 77, 511):
        msg = [(idx // 64) % 8, (idx // 8) % 8, idx % 8]
        assert cws[idx].tolist() == rs_7_3.encode(msg)


@pytest.mark.parametrize("m,k", [(2, 2), (3, 3), (3, 5), (4, 3), (5, 2)])
def test_enumeration_matches_encode_batch(m, k):
    code = RsCode(Field(m), k)
    q = 1 << m
    messages = np.indices((q,) * k).reshape(k, -1).T
    assert np.array_equal(all_codewords(code), code.encode_batch(messages))


def test_codeword_itself_distance_zero(rs_7_3):
    cw = rs_7_3.encode([2, 4, 6])
    codewords, distance = brute_force_nearest(all_codewords(rs_7_3), cw)
    assert distance == 0
    assert len(codewords) == 1
    assert codewords[0] == tuple(cw)
    assert codewords[0][:3] == (2, 4, 6)


def test_ties_preserved_on_rs_7_5(rs_7_5):
    codewords, distance = brute_force_nearest(all_codewords(rs_7_5), TIED_RECEIVED_RS75)
    assert distance == 2
    assert len(codewords) > 1
    messages = [cw[:5] for cw in codewords]
    assert messages == sorted(messages)


def test_within_t_nearest_is_unique_exhaustive(rs_7_3):
    # Spheres of radius t around every codeword: uniqueness is forced by
    # d = 5 > 2t, and the decode target is always the sphere's center.
    codewords = all_codewords(rs_7_3).astype(np.int64)
    rng = np.random.default_rng(17)
    # all weight<=2 patterns over GF(8), generated positionally
    patterns = [np.zeros(7, dtype=np.int64)]
    for p1 in range(7):
        for v1 in range(1, 8):
            e = np.zeros(7, dtype=np.int64)
            e[p1] = v1
            patterns.append(e)
            for p2 in range(p1 + 1, 7):
                for v2 in range(1, 8):
                    e2 = e.copy()
                    e2[p2] = v2
                    patterns.append(e2)
    patterns = np.asarray(patterns)
    assert len(patterns) == 1 + 49 + 1029
    for cw_idx in rng.choice(len(codewords), size=8, replace=False):
        center = codewords[cw_idx]
        received = center[None, :] ^ patterns
        dist = np.count_nonzero(
            received[:, None, :] != codewords[None, :, :], axis=2)
        argmin = dist.argmin(axis=1)
        assert (argmin == cw_idx).all()
        assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) == 1).all()
