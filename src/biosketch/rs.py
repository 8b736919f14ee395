"""Systematic Reed-Solomon codes over GF(2^m).

An ``RsCode`` is the full-length (N, K) code with N = 2^m - 1 symbols,
minimum distance d = N - K + 1 (the MDS bound), correcting up to
t = floor((N - K) / 2) symbol errors. The generator polynomial has roots
alpha^1 .. alpha^(N-K). Encoding is systematic: the K message symbols appear
verbatim at positions 0..K-1 of the codeword array and the N-K parity
symbols follow. Position i of the array carries the coefficient of
x^(N-1-i), so position 0 is the highest-degree term.

Every codec operation runs on integer tables built once, in numpy. The
field's own ``exp_table`` / ``log_table`` carry a zero sentinel (see
``gf``), so ``exp_table[log_table[a] + log_table[b]]`` is the product a*b
for all symbols, zeros included, without a branch. The code builds these
at construction (the packed Berlekamp-Massey's on first use, below):

* ``syndrome_exponents``, N x (N-K): ``E[i, j] = (j+1)(N-1-i) mod N``, the
  log of the power of alpha^(j+1) that array position i is weighted by.
* ``chien_exponents``, (t+1) x N: ``C[k, d] = -d*k mod N``, the log of
  (alpha^-d)^k.
* ``parity_logs``, K x (N-K): the log of parity symbol j of the unit
  message at position i; encoding is linear, so parity is a sum over i.
* ``quotient_logs``, 3N+1 entries: entry a - b + N is (a - b) mod N, the
  log of alpha^a / alpha^b, for logs a, b < N, and the zero log 2N where
  a is the zero log.

The index tables are int16, since every entry is at most 2N; at m = 10
they hold about 4 MB together. Each of the first three holds the summed
term on its first axis and is stored contiguous in the order the gathers
read it.

Each of syndromes, Chien search and parity is then one gather of
``exp_table`` at (row logs + table), laid out (terms, rows, outputs), and
an XOR reduction over its leading axis, over all rows of a batch at once.
XOR is exact, so the order of the reduction does not matter, and over the
leading axis numpy XORs whole (rows, outputs) planes where a reduction over
a short last axis would restart its inner loop for every output element.
The field's ``log_table`` is int16 and a sum of two logs is at most 4N,
so each gather of ``exp_table`` at such sums, the Forney sums' too, is a
``take`` on int16 indices. The lockstep Berlekamp-Massey reduces over its
leading axis too; it holds its whole state in int16 logs, and divides by
the last discrepancy with one ``take`` from ``quotient_logs``, which also
sends a zero discrepancy to the zero log.

``decode_batch`` is one skeleton around two correctors. It checks the
(B, N) words, copies their K message columns, and hands both to the code's
corrector, which corrects the message in place and returns every row's
number of corrected symbols, or -1 for a row that no codeword within t
explains. The count alone then sets the status: EXACT_CODEWORD for 0,
CORRECTED above 0, and the policy's status (below) for -1.

The syndrome-lookup corrector serves a code with t >= 1, so N-K >= 2,
whose key, its N-K syndromes packed into one m(N-K)-bit integer, is at
most ``_LOOKUP_BITS`` = 18 bits wide. Since
2t < d, every error pattern of weight <= t has a key of its own, so a
table from key to pattern decodes exactly the words bounded-distance
decoding does (standard-array decoding; Lin & Costello, *Error Control
Coding*, 2nd ed., section 3.5). At construction the code builds
``_Lookup``: the key of every symbol alone at every position, the key of
every pattern of weight <= t as the XOR of its errors' keys, and per
pattern its at most t (position, value) pairs and its int8 weight. The
corrector gets each row's key from one gather and XOR reduction, its
pattern from one ``take``, and XORs the pattern's errors in message
positions into the message; the pattern's weight is the count, and weight
-1 marks a key that no such pattern has. The largest table at each m, that
of the smallest such K, holds (build time on one core of a Xeon VM,
numpy 2.4):

  =====  ====  =  ========  =======  =======
  m      K     t  patterns  bytes    build
  =====  ====  =  ========  =======  =======
  2      1     1        10    124 B  0.09 ms
  3      1     3    13 084   655 KB   1.1 ms
  4      11    2    23 851   299 KB   1.5 ms
  5      28    1       962    72 KB  0.14 ms
  6      60    1     3 970   557 KB  0.22 ms
  7      125   1    16 130   131 KB  0.37 ms
  8      253   1    65 026   524 KB   1.6 ms
  9      509   1   261 122   3.4 MB    15 ms
  =====  ====  =  ========  =======  =======

Every other code, RS(255, 32), RS(31, 20), every code with t = 0 and every
code at m = 10 among them, runs the algebraic corrector:

1. syndromes of every row; rows with zero syndromes are exact codewords;
2. Berlekamp-Massey for the error locator of every remaining row: with
   at least ``_BM_LOCKSTEP`` such rows, or with symbols wider than a byte
   (m > 8), in numpy over all of them in lockstep, in the log domain; with
   fewer one-byte rows, row by row on polynomials packed into Python ints,
   where a sum is an XOR and a product with a symbol one
   ``bytes.translate`` through a 256-byte row of a multiplication table
   the code builds on first use; the two polynomials that change only with
   the LFSR length are converted to bytes once per length change. Both
   return the same four values: the locator, its degree, read from its
   coefficients, the LFSR length, and the t low coefficients of the
   high-order error evaluator Omega^h, the coefficients N-K and up of
   S(x) sigma(x). The packed form ends with Omega^h in its discrepancy
   register; the lockstep form sums it from the syndromes and the final
   locator;
3. Chien search over all N points of every locator whose degree equals
   the LFSR length L of Berlekamp-Massey, with 0 < L <= t; it and Forney
   gather the terms up to the largest such L in the batch, not up to t;
4. Forney for the magnitudes of the located errors in message positions
   only, since only the message is returned, from Omega^h: e =
   X^-(N-K) Omega^h(X^-1) / sigma'(X^-1). A row is corrected when
   Chien finds L roots: by Massey's theorem L is then the linear
   complexity of the row's syndromes, so they are those of the error
   pattern on the L roots with Forney's magnitudes, all nonzero, and no
   syndrome re-check is needed. A row that a pattern of at most t errors
   explains passes the same test. Its count is L, and every other row
   with nonzero syndromes counts -1. A code with t = 0 thus counts -1 for
   every such row, with no table.

The policy only labels rows: no parity is computed. ``decode_batch``
returns each row's status, message and corrected-symbol count, which is
all its callers read. ``encode_batch`` is the one encoder: every parity in
the package is its one gather over a (B, K) message array, and ``encode``
is a batch of one. Scalar ``decode`` is ``decode_batch`` of one row, and
``outcome`` re-encodes its message into the codeword of a ``DecodeOutcome``,
so there is one decoder.
Batched gathers go in chunks that keep the index temporary near 2 MB: of
rows, of lockstep Berlekamp-Massey rows, or for the Forney sums of located
errors in message positions.
A word within t symbol errors of a codeword is always decoded to that
codeword. A word that is within t of a *different* codeword than the caller
had in mind is miscorrected; that is inherent to bounded-distance decoding
and is not detected here.

Words beyond every decoding sphere are resolved by an explicit policy:

* ``FAIL_DENY``      - report ``DecodeStatus.FAILURE``;
* ``FALLBACK_SYSTEMATIC`` - take the systematic positions of the received
  word as the message, making the decode map total and deterministic; its
  codeword is that message re-encoded.

Bit/symbol packing is big-endian within each symbol: the first of m bits is
the most significant bit of symbol 0. The packers take m in 2..10, as
``Field`` does, and raise ``UnsupportedSymbolSizeError`` for any other m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, check_int
from .gf import Field, check_symbol_size

# Elements per batched gather: bounds the intp index temporary to ~2 MB.
_CHUNK = 1 << 18

# Pending rows from which Berlekamp-Massey runs in lockstep over the batch;
# below it the packed per-row BM is faster. At 16 rows packed is faster at
# every code measured (m = 3, 5, 8; N-K = 6 to 223). On uniform words,
# every row beyond t, lockstep is ahead from 24 rows at N-K <= 11 and from
# 32 at N-K = 20 to 223. On words with 0.6t errors, whose discrepancies are
# zero after 2L steps, which the packed BM skips, the crossover moves up
# with N-K: lockstep is ahead from 32 rows at N-K = 6, from 48 at N-K = 11
# and 20, even at 48 and ahead from 64 at N-K = 55, and ahead from 128 at
# N-K = 223. The packed BM takes one-byte symbols only, so m > 8 runs in
# lockstep at every row count. Codes with N-K = 6 at m = 3 decode by syndrome
# lookup, so the N-K = 6 figures describe only the algebraic path forced
# with ``_LOOKUP_BITS`` lowered.
_BM_LOCKSTEP = 16

# Widest packed syndrome, m(N-K) bits, of a code with t >= 1 that decodes by
# syndrome lookup: its table then has at most 2^18 entries.
_LOOKUP_BITS = 18


class DecodePolicy(str, Enum):
    FAIL_DENY = "fail-deny"
    FALLBACK_SYSTEMATIC = "fallback"


class DecodeStatus(Enum):
    EXACT_CODEWORD = "exact"
    CORRECTED = "corrected"
    FALLBACK = "fallback"
    FAILURE = "failure"


# Code i in the status array of ``decode_batch`` is BATCH_STATUSES[i].
BATCH_STATUSES = tuple(DecodeStatus)
_EXACT, _CORRECTED, _FALLBACK, _FAILURE = range(len(BATCH_STATUSES))


@dataclass(frozen=True, slots=True)
class DecodeOutcome:
    """Result of one decode: message/codeword are None only on FAILURE.

    ``error_count`` is the number of symbols actually corrected (0 for an
    exact codeword, None for fallback and failure).
    """

    status: DecodeStatus
    codeword: tuple[int, ...] | None
    message: tuple[int, ...] | None
    error_count: int | None

    @property
    def ok(self) -> bool:
        return self.status is not DecodeStatus.FAILURE


class BatchDecode(NamedTuple):
    """Row-aligned results of ``RsCode.decode_batch``.

    ``status[i]`` indexes ``BATCH_STATUSES``. ``message`` is zero on FAILURE
    rows. ``error_count`` is -1 on FALLBACK and FAILURE rows.
    """

    status: np.ndarray       # (B,) int8
    message: np.ndarray      # (B, K)
    error_count: np.ndarray  # (B,) int64


class RsCode:
    """An (N, K) Reed-Solomon code over a given ``Field``."""

    __slots__ = ("field", "n_symbols", "k_symbols", "num_parity", "t", "d_min",
                 "exp_table", "log_table", "syndrome_exponents",
                 "chien_exponents", "generator_poly", "parity_logs",
                 "quotient_logs", "_packed_tables", "_lookup")

    def __init__(self, field: Field, k_symbols: int):
        n = field.order
        k_symbols = _check_k(field.m, k_symbols)
        self.field = field
        self.n_symbols = n
        self.k_symbols = k_symbols
        self.num_parity = n - k_symbols
        self.t = (n - k_symbols) // 2
        self.d_min = n - k_symbols + 1

        self.exp_table = field.exp_table
        self.log_table = field.log_table
        powers = np.arange(n, dtype=np.int32)
        self.syndrome_exponents = (np.outer(powers[::-1], powers[1:self.num_parity + 1])
                                   % n).astype(np.int16)
        self.chien_exponents = (np.outer(powers[:self.t + 1], -powers) % n).astype(np.int16)
        self.generator_poly = self._build_generator()
        self.parity_logs = self._build_parity_logs()
        # Entry a - b + N is the log of alpha^a / alpha^b, (a - b) mod N, for
        # logs a, b < N; a zero dividend (a = 2N) gives the zero log.
        zero_log = 2 * n
        quotient = np.arange(-n, zero_log + 1, dtype=np.int16) % n
        quotient[zero_log + 1:] = zero_log
        self.quotient_logs = quotient
        for table in (self.syndrome_exponents, self.chien_exponents, self.parity_logs,
                      self.quotient_logs):
            table.setflags(write=False)
        self._packed_tables = None
        self._lookup = (self._build_lookup()
                        if 0 < self.t and field.m * self.num_parity <= _LOOKUP_BITS else None)

    @property
    def n_bits(self) -> int:
        """Codeword length in bits, m * N."""
        return self.field.m * self.n_symbols

    def _build_generator(self) -> tuple[int, ...]:
        # g(x) = prod_{j=1..N-K} (x - alpha^j), coefficients highest degree
        # first, g[0] == 1.
        g = np.ones(1, dtype=self.exp_table.dtype)
        for j in range(1, self.num_parity + 1):
            nxt = np.zeros(len(g) + 1, dtype=g.dtype)
            nxt[:-1] = g
            nxt[1:] ^= self.exp_table[self.log_table[g] + j]
            g = nxt
        return tuple(g.tolist())

    def _build_parity_logs(self) -> np.ndarray:
        # Message position i carries x^(N-1-i), so its parity is
        # x^(N-1-i) mod g(x). Walk r = N-K .. N-1 with the division register:
        # x^(N-K) mod g is g without its leading 1, and each step multiplies
        # by x and folds the overflow back with g.
        npar, k = self.num_parity, self.k_symbols
        exp, log = self.exp_table, self.log_table
        rows = np.zeros((k, npar), dtype=exp.dtype)
        if npar:
            low_logs = log.take(self.generator_poly[1:])
            rem = exp.take(low_logs)
            for r in range(k):
                rows[r] = rem
                shifted = np.zeros_like(rem)
                shifted[:-1] = rem[1:]
                rem = shifted ^ exp.take(log[rem[0]] + low_logs)
        return log.take(rows[::-1])

    def _build_lookup(self) -> _Lookup:
        """The syndrome lookup of a code with t >= 1 whose key is at most
        ``_LOOKUP_BITS`` wide.

        A word's key is its syndromes packed into one integer, S_(j+1) in
        bits mj and up. Syndromes are linear, so the key of a word is the
        XOR, over its positions i, of the key of its symbol v there alone,
        packed from exp[log v + E[i]]. An error pattern's key is the XOR
        of the keys of its errors, and since 2t < d every pattern of weight
        at most t has a key of its own.
        """
        m, n, t, size = self.field.m, self.n_symbols, self.t, self.field.size
        exp, log = self.exp_table, self.log_table
        keys = np.zeros((n, size), dtype=_index_dtype(1 << (m * self.num_parity)))
        for j in range(self.num_parity):
            syndrome = exp.take(log[None, :] + self.syndrome_exponents[:, j, None])
            keys |= syndrome.astype(keys.dtype) << (m * j)
        keys = keys.ravel()  # the key of symbol v at position i is entry i 2^m + v

        counts = [math.comb(n, w) * self.field.order ** w for w in range(t + 1)]
        total = sum(counts)
        index = np.full(1 << (m * self.num_parity), total, dtype=_index_dtype(total + 1))
        positions = np.full((total + 1, t), n, dtype=np.int16)
        values = np.zeros((total + 1, t), dtype=exp.dtype)
        weight = np.full(total + 1, -1, dtype=np.int8)
        lo = 0
        for w, count in enumerate(counts):
            pos = np.array(list(itertools.combinations(range(n), w)), dtype=np.intp)
            val = np.array(list(itertools.product(range(1, size), repeat=w)), dtype=np.intp)
            errors = keys.take(pos[:, None, :] * size + val[None, :, :])
            rows = slice(lo, lo + count)
            index[np.bitwise_xor.reduce(errors, axis=2).ravel()] = np.arange(lo, lo + count)
            positions[rows, :w] = np.broadcast_to(pos[:, None, :], errors.shape).reshape(count, w)
            values[rows, :w] = np.broadcast_to(val[None, :, :], errors.shape).reshape(count, w)
            weight[rows] = w
            lo += count
        offsets = np.arange(n, dtype=np.intp)[:, None] * size
        lookup = _Lookup(keys, offsets, index, positions, values, weight)
        for table in lookup:
            table.setflags(write=False)
        return lookup

    # -- validation and the batched gather ------------------------------------

    def _check(self, words, length: int, what: str, ndim: int = 1) -> np.ndarray:
        """``words`` as int64, refusing an entry that is not a symbol.

        Any dtype but integer and bool is checked before the cast, which
        would read 0.7 as 0, parse "1" as 1 and overflow on 2**64.
        """
        arr = np.asarray(words)
        if arr.ndim != ndim or arr.shape[-1] != length:
            raise LengthMismatchError(
                f"{what} must be {length} symbols per row, got shape {arr.shape}"
            )
        if arr.dtype.kind not in "biu":
            if arr.size and not np.isin(arr, np.arange(self.field.size)).all():
                raise ValueError(f"symbol entries must be integers in "
                                 f"0..{self.field.size - 1}")
        elif arr.size and (arr.min() < 0 or arr.max() >= self.field.size):
            raise ValueError(f"symbol out of range for GF(2^{self.field.m})")
        return arr.astype(np.int64, copy=False)

    def _products(self, logs: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """out[r, x] = XOR over l of exp_table[logs[l, r] + exps[l, x]].

        Both are int16 logs. The gather is laid out (l, r, x) and reduced
        over its leading axis, one XOR of whole (r, x) planes per term, not
        one short reduction per output element.
        """
        # Every sum is at most 4N, so it fits int16, which adds faster than
        # intp; ``take`` gathers with int16 indices faster than indexing.
        out = np.empty((logs.shape[1], exps.shape[1]), dtype=self.exp_table.dtype)
        for part in _chunks(logs.shape[1], exps.size):
            terms = self.exp_table.take(logs[:, part, None] + exps[:, None, :])
            np.bitwise_xor.reduce(terms, axis=0, out=out[part])
        return out

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """(B, N-K) syndromes S_1..S_(N-K) of checked (B, N) words."""
        return self._products(self.log_table.take(words.T), self.syndrome_exponents)

    def _parity(self, messages: np.ndarray) -> np.ndarray:
        """(B, N-K) parity symbols of checked (B, K) messages."""
        return self._products(self.log_table.take(messages.T), self.parity_logs)

    # -- public codec ----------------------------------------------------------

    def encode_batch(self, messages) -> np.ndarray:
        """Systematic encode of every row of a (B, K) message array: the
        (B, N) codewords [message | parity], in ``exp_table.dtype``."""
        msg = self._check(messages, self.k_symbols, "message", ndim=2)
        out = np.empty((len(msg), self.n_symbols), dtype=self.exp_table.dtype)
        out[:, :self.k_symbols] = msg
        out[:, self.k_symbols:] = self._parity(msg)
        return out

    def encode(self, message) -> list[int]:
        """Systematic encode: returns [message | parity] of length N."""
        return self.encode_batch(np.asarray(message)[None])[0].tolist()

    def syndromes(self, word) -> list[int]:
        """S_j = word(alpha^j) for j = 1..N-K (empty when K = N)."""
        w = self._check(word, self.n_symbols, "word")
        return self._syndromes(w[None])[0].tolist()

    def decode(self, received, policy: DecodePolicy = DecodePolicy.FALLBACK_SYSTEMATIC) -> DecodeOutcome:
        """Bounded-distance decode of N received symbols under a policy."""
        return self.outcome(self.decode_batch(np.asarray(received)[None], policy), 0)

    def outcome(self, batch: BatchDecode, i: int) -> DecodeOutcome:
        """Row i of a ``decode_batch`` result as a ``DecodeOutcome``, whose
        codeword is the row's message re-encoded."""
        status = BATCH_STATUSES[batch.status[i]]
        if status is DecodeStatus.FAILURE:
            return DecodeOutcome(status, None, None, None)
        codeword = self.encode(batch.message[i])
        count = int(batch.error_count[i])
        return DecodeOutcome(status, tuple(codeword), tuple(codeword[:self.k_symbols]),
                             count if count >= 0 else None)

    def decode_batch(self, words, policy: DecodePolicy = DecodePolicy.FALLBACK_SYSTEMATIC) -> BatchDecode:
        """Bounded-distance decode of every row of a (B, N) symbol array.

        The code's corrector fixes the message columns in place and counts
        each row's corrected symbols, -1 on a row beyond t; the counts set
        the statuses, and the policy labels the rows beyond t.
        """
        words = self._check(words, self.n_symbols, "received", ndim=2)
        deny = DecodePolicy(policy) is DecodePolicy.FAIL_DENY
        message = words[:, :self.k_symbols].astype(self.exp_table.dtype)
        correct = self._correct if self._lookup is None else self._correct_by_lookup
        error_count = correct(words, message)
        # The sign of the count picks the status: beyond t, exact, corrected.
        status = np.array([_FAILURE if deny else _FALLBACK, _EXACT, _CORRECTED], dtype=np.int8)
        status = status.take(np.sign(error_count) + 1)
        # Beyond t, the fallback message is the received systematic symbols
        # as they stand, and FAIL_DENY zeroes it.
        if deny:
            message[error_count < 0] = 0
        return BatchDecode(status, message, error_count)

    # -- decoding internals ---------------------------------------------------

    def _correct_by_lookup(self, words: np.ndarray, message: np.ndarray) -> np.ndarray:
        """The syndrome-lookup corrector: the key of every row is one gather
        of per-symbol keys and an XOR reduction, the key indexes the row's
        error pattern, and its errors in message positions are XORed into
        ``message``. A key no pattern of weight <= t has points to weight
        -1, the count of a row beyond t."""
        lookup = self._lookup
        key = np.empty(len(words), dtype=lookup.keys.dtype)
        for part in _chunks(len(words), self.n_symbols):
            np.bitwise_xor.reduce(lookup.keys.take(words[part].T + lookup.offsets), axis=0,
                                  out=key[part])
        pattern = lookup.index.take(key)
        pos = lookup.positions.take(pattern, axis=0)
        # Distinct in a row, so no element is XORed twice in one scatter.
        row, slot = np.nonzero(pos < self.k_symbols)
        message[row, pos[row, slot]] ^= lookup.values[pattern[row], slot]
        return lookup.weight.take(pattern).astype(np.int64)

    def _correct(self, words: np.ndarray, message: np.ndarray) -> np.ndarray:
        """The algebraic corrector: Berlekamp-Massey, Chien and Forney on
        every row with nonzero syndromes, its errors in message positions
        XORed into ``message``. Returns each row's corrected-symbol count,
        its locator degree, or -1 where no codeword within t explains it."""
        n, t, npar = self.n_symbols, self.t, self.num_parity
        exp, log = self.exp_table, self.log_table
        error_count = np.zeros(len(words), dtype=np.int64)
        synd = self._syndromes(words)
        pending = np.flatnonzero(synd.any(axis=1))
        if not pending.size:
            return error_count
        synd = synd[pending]
        if len(synd) >= _BM_LOCKSTEP or exp.itemsize > 1:
            # A numpy step costs the same for 1 row as for many, so lockstep
            # pays from ``_BM_LOCKSTEP`` rows on. Row chunks keep each
            # (N-K+1, rows) gather of a step near ``_CHUNK`` elements.
            parts = [self._berlekamp_massey_rows(synd[part]) for part in _chunks(len(synd), npar)]
            sigma, degree, length, high = (np.concatenate(p) for p in zip(*parts))
        else:
            sigma, degree, length, high = self._berlekamp_massey_packed(synd)
        # A locator of degree 0 locates no error; one of degree below the
        # LFSR length, or above t, is no error pattern's within t.
        ok = (0 < degree) & (degree == length) & (degree <= t)
        rows = np.flatnonzero(ok)
        # Term k of every row's sigma as logs, (terms, rows). Terms above the
        # batch's largest degree are zero on every row, so they are left out.
        terms = int(degree[rows].max(initial=0)) + 1
        sigma_logs = log.take(sigma[rows, :terms].T)

        # Chien search: roots alpha^-d of sigma mark errors at power x^d.
        roots = self._products(sigma_logs, self.chien_exponents[:terms]) == 0
        split = roots.sum(axis=1) == degree[rows]
        ok[rows[~split]] = False
        rows, sigma_logs, roots = rows[split], sigma_logs.compress(split, axis=1), roots[split]
        error_count[pending] = np.where(ok, degree, -1)

        # Forney on the high-order evaluator Omega^h, the coefficients N-K
        # and up of S(x) sigma(x): magnitude = X^-(N-K) Omega^h(X^-1) /
        # sigma'(X^-1) at X = alpha^d. In characteristic 2, X^-1 sigma'(X^-1)
        # is the odd part of sigma at X^-1, so sigma'(X^-1) = odd * alpha^d.
        # Only errors at powers d >= N-K, array positions N-1-d < K, are in
        # the message. deg Omega^h < L, so terms - 1 of its coefficients are
        # all of it on every row. Each gathers up to t terms of each sum, so
        # the errors go in chunks.
        omega_logs = log.take(high[rows, :terms - 1].T)
        row, deg = np.nonzero(roots[:, npar:])
        deg += npar
        chien = self.chien_exponents  # chien[k, d]: (alpha^-d)^k
        num = np.empty(len(row), dtype=exp.dtype)
        odd = np.empty_like(num)
        for part in _chunks(len(row), t):
            r, d = row[part], deg[part]
            np.bitwise_xor.reduce(exp.take(omega_logs[:, r] + chien[:terms - 1, d]), axis=0,
                                  out=num[part])
            np.bitwise_xor.reduce(exp.take(sigma_logs[1::2, r] + chien[1:terms:2, d]), axis=0,
                                  out=odd[part])
        magnitude = exp[(log[num] - log[odd] - deg * (npar + 1)) % n]
        message[pending[rows[row]], n - 1 - deg] ^= magnitude
        return error_count

    def _berlekamp_massey_rows(self, synd: np.ndarray) -> tuple[np.ndarray, ...]:
        """Error locators of every row of (B, N-K) syndromes, low to high.

        Massey's algorithm, as ``_packed_locator`` runs it, in lockstep
        over the rows: every step is the same gathers on every row, and a
        row whose discrepancy is zero adds nothing. The state is held
        (coefficients, rows), so a step's discrepancies are one XOR
        reduction over the leading axis. Division by the last discrepancy
        b is a subtraction of logs, so sigma is Massey's own, not a scalar
        multiple of it. Every log of the state is int16 and every gather a
        ``take``; the quotient's log is one ``take`` from ``quotient_logs``,
        which also sends a zero discrepancy to the zero log.

        Returns the (B, N-K+1) coefficients, a transposed view of that
        state, the degree of each row, read from its highest nonzero
        coefficient, its LFSR length, and the (B, t) low coefficients of its
        high-order evaluator Omega^h, as ``_berlekamp_massey_packed`` does.
        The length exceeds the degree only on a row that no error pattern of
        weight <= t explains.
        """
        n_order = self.n_symbols
        exp, log, quotient = self.exp_table, self.log_table, self.quotient_logs
        zero_log = log[0]
        rows, npar = synd.shape
        width = npar + 1
        # Step n reads rows base .. base + w - 1 of both arrays below, with
        # base = npar - 1 - n. synd_logs[c] = log S_(npar - c), so the
        # window is S_(n+1), S_n, ...; the last row reads as zero.
        synd_logs = np.full((width, rows), zero_log)
        synd_logs[:npar] = log.take(synd[:, ::-1].T)
        # Logs of x^gap * B(x): B is sigma as of the last length change and
        # gap the steps since; they start at B = 1, gap = 1. Lowering base
        # by one each step multiplies by x for free.
        shifted_logs = np.full((width, rows), zero_log)
        shifted_logs[npar] = 0
        sigma = np.zeros((width, rows), dtype=exp.dtype)
        sigma[0] = 1
        length = np.zeros(rows, dtype=np.int16)
        # The log of the last discrepancy b, less N: delta_log - prev_delta_log
        # is then the index log(delta) - log(b) + N into ``quotient``.
        prev_delta_log = np.full(rows, -n_order, dtype=np.int16)
        for n in range(npar):
            # At step n, deg sigma <= length <= n and deg x^gap B <= n + 1.
            base, w = npar - 1 - n, min(n + 2, width)
            sigma_logs = log.take(sigma[:w])
            delta = np.bitwise_xor.reduce(exp.take(sigma_logs + synd_logs[base:base + w]),
                                          axis=0)
            delta_log = log.take(delta)
            # sigma += (delta / b) x^gap B; a zero delta adds nothing.
            coef = quotient.take(delta_log - prev_delta_log)
            shifted = shifted_logs[base:base + w]
            sigma[:w] ^= exp.take(shifted + coef)
            change = (delta != 0) & (length <= n // 2)
            np.copyto(shifted, sigma_logs, where=change)
            np.copyto(length, n + 1 - length, where=change)
            np.copyto(prev_delta_log, delta_log - n_order, where=change)
        degree = npar - np.argmax(sigma[::-1] != 0, axis=0)
        # Coefficient j of Omega^h, that of x^(npar + j) in S(x) sigma(x),
        # sums S_(npar - i) sigma_(j + 1 + i) over i >= 0: synd_logs[i] is the
        # log of that syndrome, so each is one shifted gather and reduction.
        sigma_logs = log.take(sigma)
        high = np.empty((self.t, rows), dtype=exp.dtype)
        for j in range(self.t):
            np.bitwise_xor.reduce(exp.take(synd_logs[:npar - j] + sigma_logs[j + 1:]), axis=0,
                                  out=high[j])
        return sigma.T, degree, length, high.T

    def _berlekamp_massey_packed(self, synd: np.ndarray) -> tuple[np.ndarray, ...]:
        """Error locators of every row of (B, N-K) one-byte syndromes, one
        row at a time by ``_packed_locator``: the same four values as
        ``_berlekamp_massey_rows``, without a numpy call per step. Omega^h
        is the final discrepancy register.

        On a row whose sigma has degree L, the LFSR length, with 0 < L <= t
        and L distinct roots, deg Omega^h < L, so its t low coefficients are
        all of it.
        """
        tables = self._packed_tables or self._build_packed_tables()
        rows, npar = synd.shape
        t = self.t
        data = np.ascontiguousarray(synd, dtype=np.uint8).tobytes()
        polys, lengths, highs = zip(*[
            _packed_locator(int.from_bytes(data[lo:lo + npar], "little"), npar, tables)
            for lo in range(0, len(data), npar)])
        sigma = np.frombuffer(b"".join(p.to_bytes(npar + 1, "little") for p in polys),
                              dtype=np.uint8).reshape(rows, npar + 1)
        degree = np.array([(p.bit_length() - 1) >> 3 for p in polys], dtype=np.intp)
        high = np.frombuffer(b"".join(h.to_bytes(npar, "little")[:t] for h in highs),
                             dtype=np.uint8).reshape(rows, t)
        return sigma, degree, np.array(lengths, dtype=np.intp), high

    def _build_packed_tables(self) -> _PackedTables:
        """Build, once per code of m <= 8, what ``_packed_locator`` reads.

        A symbol is one byte, and multiplying a packed polynomial by c is
        one ``bytes.translate`` through row c of the multiplication table:
        ``size`` rows of 256 bytes, 64 KB at m = 8.
        """
        exp, log = self.exp_table, self.log_table
        byte = np.arange(256)
        product = exp[log[:, None] + log[np.where(byte < self.field.size, byte, 0)]]
        self._packed_tables = _PackedTables(exp.tolist(), log.tolist(),
                                            [row.tobytes() for row in product])
        return self._packed_tables

    def __repr__(self) -> str:
        return (f"RsCode(m={self.field.m}, N={self.n_symbols}, "
                f"K={self.k_symbols}, t={self.t})")


def _check_k(m: int, k_symbols) -> int:
    """``k_symbols`` as an int, if it is an integer in 1..2^m - 1."""
    n = (1 << m) - 1
    return check_int(k_symbols, 1, n, f"K must be in 1..{n}, got {k_symbols}")


def _index_dtype(entries: int) -> type:
    """The narrower of uint16 and int32 that holds 0 .. entries - 1."""
    return np.uint16 if entries <= 1 << 16 else np.int32


def _chunks(count: int, per_item: int) -> list[slice]:
    """Slices of ``count`` items whose gathers, ``per_item`` elements an
    item, keep the index temporary near ``_CHUNK`` elements."""
    step = max(1, _CHUNK // max(1, per_item))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class _Lookup(NamedTuple):
    """A code's syndrome lookup, as ``RsCode._correct_by_lookup`` reads it.
    Its P patterns are every error pattern of weight <= t; row P of the
    pattern arrays is the one a key outside them indexes."""

    keys: np.ndarray       # (N 2^m,) the key of symbol v alone at position i, at i 2^m + v
    offsets: np.ndarray    # (N, 1) i 2^m
    index: np.ndarray      # (2^(m(N-K)),) the pattern row of every key
    positions: np.ndarray  # (P + 1, t) int16 error positions, N in unused slots
    values: np.ndarray     # (P + 1, t) error values, 0 in unused slots
    weight: np.ndarray     # (P + 1,) int8 pattern weight, -1 in row P


class _PackedTables(NamedTuple):
    """A code's tables as ``_packed_locator`` reads them."""

    exp: list[int]     # the zero-sentinel tables as lists
    log: list[int]
    rows: list[bytes]  # rows[c] maps byte p to the symbol c * p


def _to_bytes(poly: int) -> bytes:
    return poly.to_bytes((poly.bit_length() + 7) >> 3, "little")


def _packed_locator(synd: int, npar: int, tables: _PackedTables) -> tuple[int, int, int]:
    """Minimal error locator sigma(x) of the one-byte syndromes S_1 .. S_npar,
    its LFSR length and its high-order evaluator Omega^h.

    A polynomial is packed into an int, coefficient i in byte i. Adding
    two polynomials is then an XOR and multiplying by x^j a shift by 8j
    bits. Multiplying by a symbol c is a ``bytes.translate`` through row c
    of the multiplication table, so it takes the polynomial as bytes.

    Massey's algorithm carries the discrepancy series D = S sigma next to
    sigma, and E = S B next to B, which is sigma as of the last length
    change (Sarwate & Shanbhag, "High-speed architectures for Reed-Solomon
    decoders", IEEE TVLSI 2001), so no step takes an inner product:

    * D is kept from coefficient n on, so the discrepancy at step n is its
      lowest coefficient;
    * E is kept as x^gap S B from coefficient n on. That needs no shift:
      gap and n grow together until the next length change sets E to D.
      B = 1 enters at step -1 with gap 1, so E starts as x S.

    Only sigma and D change at every step; B and E change only with the
    length, so they are held as bytes and converted once per length change.

    After the last step D holds coefficients npar and up of S(x) sigma(x):
    that register is Omega^h, which Forney's formula takes in place of the
    classical evaluator (S sigma) mod x^npar.

    Division by the last discrepancy b is a subtraction of logs, so sigma
    is Massey's own, not a scalar multiple of it.
    """
    exp, log, rows = tables
    from_bytes, order = int.from_bytes, len(log) - 1
    sigma, d = 1, synd
    prev, e = b"\x01", _to_bytes(synd << 8)
    length = gap = prev_log = 0
    for n in range(npar):
        gap += 1
        delta = d & 0xFF
        if delta:
            # sigma += (delta / b) x^gap B, and D += (delta / b) E with it.
            row = rows[exp[log[delta] - prev_log + order]]
            updated = sigma ^ from_bytes(prev.translate(row), "little") << 8 * gap
            scaled = from_bytes(e.translate(row), "little")
            if 2 * length <= n:
                prev, e = _to_bytes(sigma), _to_bytes(d)
                length, prev_log, gap = n + 1 - length, log[delta], 0
            d ^= scaled
            sigma = updated
        d >>= 8
    return sigma, length, d


def as_bits(bits) -> np.ndarray:
    """``bits`` as a uint8 array, refusing an entry that is not 0 or 1.

    A bool array is viewed as uint8, and a uint8 array returned as it is
    after one ``max()`` check. Any other dtype is checked before the cast,
    which would wrap 256 to 0 and read 0.7 as 0.
    """
    arr = np.asarray(bits)
    if arr.dtype == np.bool_:
        return arr.view(np.uint8)
    if arr.dtype == np.uint8:
        if arr.size and arr.max() > 1:
            raise ValueError("bit entries must be 0 or 1")
        return arr
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bit entries must be 0 or 1")
    return arr.astype(np.uint8)


def bits_to_symbols(bits, m: int) -> list[int]:
    """Pack a 0/1 sequence into symbols, big-endian within each symbol."""
    arr = as_bits(bits)
    if arr.ndim != 1:
        raise LengthMismatchError("bit vector must be one-dimensional")
    return bit_rows_to_symbols(arr, m).tolist()


def bit_rows_to_symbols(bits, m: int) -> np.ndarray:
    """Pack the last axis of a 0/1 array into int64 symbols, big-endian per
    symbol."""
    check_symbol_size(m)
    arr = as_bits(bits)
    if arr.ndim == 0:
        raise LengthMismatchError("bits must be a vector or an array of rows")
    if arr.shape[-1] % m != 0:
        raise LengthMismatchError(
            f"bit length {arr.shape[-1]} is not a multiple of m={m}"
        )
    weights = 1 << np.arange(m - 1, -1, -1)
    return arr.reshape(*arr.shape[:-1], arr.shape[-1] // m, m) @ weights


def symbols_to_bits(symbols, m: int) -> np.ndarray:
    """Unpack symbols on the last axis to 0/1 uint8, big-endian per symbol.

    Each symbol is unpacked from its big-endian uint16 bytes, of which the
    low m bits are kept; m is at most 10.
    """
    check_symbol_size(m)
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim == 0:
        raise LengthMismatchError("symbols must be a vector or an array of rows")
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << m)):
        raise ValueError(f"symbol out of range for m={m}")
    bits = np.unpackbits(arr.astype(">u2").view(np.uint8)).reshape(*arr.shape, 16)
    return bits[..., 16 - m:].reshape(*arr.shape[:-1], arr.shape[-1] * m)
