import numpy as np
import pytest

from biosketch.errors import BudgetExceededError
from biosketch.gf import Field
from biosketch.oracle import (
    all_codewords,
    column_collision_rate,
    coset_leader_table,
    nearest_codeword,
)
from biosketch.rs import RsCode

from reference import brute_force_nearest

# Frozen: exhaustive search on RS(7,5) found 21 codewords tied at distance 2.
TIED_RECEIVED_RS75 = [1, 6, 6, 1, 4, 6, 1]


def test_all_codewords_lex_order(rs_7_3):
    cws = all_codewords(rs_7_3)
    assert cws.shape == (512, 7)
    # row index encodes the message as base-8 digits, first symbol leading
    for idx in (0, 1, 8, 77, 511):
        msg = [(idx // 64) % 8, (idx // 8) % 8, idx % 8]
        assert cws[idx].tolist() == rs_7_3.encode(msg)


def test_codeword_itself_distance_zero(rs_7_3):
    cw = rs_7_3.encode([2, 4, 6])
    result = nearest_codeword(rs_7_3, cw)
    assert result.distance == 0
    assert result.unique
    assert result.codewords[0] == tuple(cw)
    assert result.messages[0] == (2, 4, 6)


def test_matches_reference_search(rs_7_5):
    rng = np.random.default_rng(31)
    codewords = [row.tolist() for row in all_codewords(rs_7_5)]
    for _ in range(20):
        received = rng.integers(0, 8, size=7).tolist()
        expect, expect_d = brute_force_nearest(codewords, received)
        result = nearest_codeword(rs_7_5, received)
        assert result.distance == expect_d
        assert list(result.codewords) == expect


def test_ties_preserved_on_rs_7_5(rs_7_5):
    result = nearest_codeword(rs_7_5, TIED_RECEIVED_RS75)
    assert result.distance == 2
    assert len(result.codewords) > 1
    assert list(result.messages) == sorted(result.messages)


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


def test_budget_exceeded():
    code = RsCode(Field(8), 4)  # 256^4 codewords
    with pytest.raises(BudgetExceededError):
        all_codewords(code)
    with pytest.raises(BudgetExceededError):
        nearest_codeword(code, [0] * 255)


def test_leader_table_is_minimum_weight(rs_7_3):
    leaders = coset_leader_table(rs_7_3)
    assert leaders.shape == (8**4, 7)
    # spot-check: a leader's weight equals the oracle distance of the leader
    rng = np.random.default_rng(5)
    for key in rng.integers(0, len(leaders), size=25):
        leader = leaders[int(key)].tolist()
        result = nearest_codeword(rs_7_3, leader)
        assert int(np.count_nonzero(leaders[int(key)])) == result.distance


@pytest.mark.parametrize("k,expected", [(1, 0.125), (2, 0.015625)])
def test_column_collision_rate_small(gf8, k, expected):
    code = RsCode(gf8, k)
    trials = 20_000
    rate = column_collision_rate(code, trials, seed=77)
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(rate - expected) <= 3 * sigma


def test_collision_trials_validation(rs_7_3):
    with pytest.raises(ValueError):
        column_collision_rate(rs_7_3, 0, seed=1)
    with pytest.raises(ValueError):
        column_collision_rate(rs_7_3, -5, seed=1)
