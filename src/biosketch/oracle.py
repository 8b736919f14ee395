"""Brute-force complete decoders for small codes.

Ground truth for the bounded-distance decoder. ``nearest_codeword``
enumerates every codeword and reports *all* codewords at minimum symbol
Hamming distance, in lexicographic message order, so ties are visible.
``column_collision_rate`` measures how often two uniform random words decode
to the same codeword under a complete decoder; building the decoder as a
coset-leader (syndrome) table keeps its decision regions exactly equal in
size, which is what makes 2^(-K*m) the exact collision probability.

Everything here enumerates exponentially large sets and is guarded by an
explicit cap; it is meant for toy codes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, LengthMismatchError
from .rs import RsCode

# Caps on enumeration: codewords (q^K) and cosets (q^(N-K)), and the full
# space the coset-leader table walks (q^N).
_BUDGET = 1 << 20
_LEADER_SPACE_CAP = 1 << 24


@dataclass(frozen=True)
class NearestResult:
    """All codewords at minimum distance from a received word.

    ``codewords`` and ``messages`` are aligned and sorted lexicographically
    by message; ``codewords[0]`` is the deterministic tie-break choice.
    """

    codewords: tuple[tuple[int, ...], ...]
    messages: tuple[tuple[int, ...], ...]
    distance: int

    @property
    def unique(self) -> bool:
        return len(self.codewords) == 1


def all_codewords(code: RsCode) -> np.ndarray:
    """Every codeword as a (q^K, N) array, row i = message with lex index i.

    The lex index treats the message as base-q digits, message[0] most
    significant.
    """
    q, k = code.field.size, code.k_symbols
    if q**k > _BUDGET:
        raise BudgetExceededError(f"{q**k} codewords exceed budget {_BUDGET}")
    return code.encode_batch(np.indices((q,) * k).reshape(k, -1).T)


def nearest_codeword(code: RsCode, received) -> NearestResult:
    """Exhaustive minimum over all codewords; ties preserved in lex order."""
    rec = np.asarray([int(s) for s in received], dtype=np.int64)
    if rec.size != code.n_symbols:
        raise LengthMismatchError(
            f"received must be {code.n_symbols} symbols, got {rec.size}"
        )
    if rec.size and (rec.min() < 0 or rec.max() >= code.field.size):
        raise ValueError("received symbol out of field range")
    codewords = all_codewords(code)
    dist = np.count_nonzero(codewords != rec[None, :], axis=1)
    dmin = int(dist.min())
    idx = np.flatnonzero(dist == dmin)
    cws = tuple(tuple(int(s) for s in codewords[i]) for i in idx)
    msgs = tuple(cw[: code.k_symbols] for cw in cws)
    return NearestResult(cws, msgs, dmin)


def coset_leader_table(code: RsCode) -> np.ndarray:
    """Minimum-weight coset leaders indexed by packed syndrome.

    Enumerates the whole space in (weight, lex) order and keeps the first
    vector seen per syndrome, so each leader is the lexicographically first
    minimum-weight vector of its coset. Shape (q^(N-K), N).
    """
    q = code.field.size
    n = code.n_symbols
    npar = code.num_parity
    if q**npar > _BUDGET:
        raise BudgetExceededError(f"{q**npar} cosets exceed budget {_BUDGET}")
    if q**n > _LEADER_SPACE_CAP:
        raise BudgetExceededError(
            f"coset-leader table needs q^N = {q**n} enumeration, cap {_LEADER_SPACE_CAP}"
        )

    vectors = np.indices((q,) * n, dtype=np.uint8).reshape(n, -1).T
    weights = np.count_nonzero(vectors, axis=1)
    order = np.argsort(weights, kind="stable")  # stable keeps lex order inside a weight
    vectors = vectors[order]

    keys = _syndrome_keys(code, vectors)
    _, first = np.unique(keys, return_index=True)
    leaders = np.zeros((q**npar, n), dtype=np.uint8)
    leaders[keys[first]] = vectors[first]
    return leaders


def _syndrome_keys(code: RsCode, vectors: np.ndarray) -> np.ndarray:
    """Pack the N-K syndromes of each row into one integer key.

    Each syndrome symbol gets its own m-bit lane, so XOR of keys matches
    symbol-wise XOR of syndromes and the zero key is the code itself.
    """
    m = code.field.m
    n = code.n_symbols
    # contrib[pos, val] packs the syndromes of the word holding val at pos:
    # S_j = val * alpha^E[j, pos], read off the code's syndrome table.
    values = np.arange(code.field.size)
    synd = code.exp_table[code.log_table[values][None, :, None]
                          + code.syndrome_exponents.T[:, None, :]]
    lanes = np.arange(code.num_parity, dtype=np.int64) * m
    contrib = np.bitwise_or.reduce(synd.astype(np.int64) << lanes, axis=2)
    keys = np.zeros(vectors.shape[0], dtype=np.int64)
    for pos in range(n):
        keys ^= contrib[pos, vectors[:, pos]]
    return keys


def column_collision_rate(code: RsCode, trials: int, seed: int) -> float:
    """Fraction of uniform random word pairs decoding to the same codeword.

    Decoding is the coset-leader map v -> v + leader(syndrome(v)): a complete
    decoder whose decision regions are translates of one another, so the
    collision probability is exactly q^(-K) = 2^(-K*m).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    leaders = coset_leader_table(code)
    q = code.field.size
    n = code.n_symbols
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, q, size=(2, trials, n), dtype=np.int64)
    decoded = []
    for side in range(2):
        v = pairs[side].astype(np.uint8)
        keys = _syndrome_keys(code, v)
        decoded.append(v ^ leaders[keys])
    collisions = np.all(decoded[0] == decoded[1], axis=1)
    return float(np.count_nonzero(collisions)) / trials
