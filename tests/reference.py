"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares no
code with the package: polynomial arithmetic by shift-and-reduce, matrix
products by explicit loops, decoding by exhaustive search, a dataset CSV
by ``csv.reader`` and one ``float()`` per value, a digest by ``hashlib``
over bits packed one shift at a time.
"""

import csv
import hashlib
import itertools
import math

import numpy as np


def slow_gf_mul(a: int, b: int, primitive_poly: int, m: int) -> int:
    """Carry-less multiply then reduce modulo the field polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & (1 << m):
            a ^= primitive_poly
    return acc


def slow_gf_pow(a: int, e: int, primitive_poly: int, m: int) -> int:
    acc = 1
    for _ in range(e):
        acc = slow_gf_mul(acc, a, primitive_poly, m)
    return acc


def element_order(a: int, primitive_poly: int, m: int) -> int:
    """Multiplicative order of a nonzero element, by iteration."""
    acc = a
    order = 1
    while acc != 1:
        acc = slow_gf_mul(acc, a, primitive_poly, m)
        order += 1
        if order > (1 << m):
            raise AssertionError("element never cycled; polynomial not invertible")
    return order


def brute_force_nearest(codewords, received):
    """All codewords at minimum symbol distance, in enumeration order, and
    that distance."""
    words = np.asarray(codewords)
    dist = np.count_nonzero(words != np.asarray(received)[None, :], axis=1)
    best = int(dist.min())
    return [tuple(int(s) for s in words[i]) for i in np.flatnonzero(dist == best)], best


def naive_affine(W, b, x):
    """Matrix-vector product plus bias with explicit loops."""
    out = []
    for i in range(len(W)):
        acc = b[i]
        for j in range(len(x)):
            acc += W[i][j] * x[j]
        out.append(acc)
    return np.asarray(out)


def naive_bilinear(P, face, iris):
    """Projection of the outer product with explicit loops."""
    flat = []
    for f in face:
        for g in iris:
            flat.append(f * g)
    out = []
    for i in range(len(P)):
        acc = 0.0
        for j in range(len(flat)):
            acc += P[i][j] * flat[j]
        out.append(acc)
    return np.asarray(out)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def error_patterns(n: int, q: int, max_weight: int):
    """Every q-ary error pattern of length n with weight <= max_weight."""
    yield (0,) * n
    for w in range(1, max_weight + 1):
        for positions in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, q), repeat=w):
                pattern = [0] * n
                for p, v in zip(positions, values):
                    pattern[p] = v
                yield tuple(pattern)


# -- Reed-Solomon: the scalar BM/Chien/Forney decoder, on slow_gf_mul --------
#
# Conventions match the package's RsCode: N = 2^m - 1, generator roots
# alpha^1 .. alpha^(N-K) with alpha = x (the value 2), codeword array
# [message | parity] with position i holding the coefficient of x^(N-1-i).
# Polynomials in the decoder are lists of coefficients, low to high.


def slow_gf_inv(a: int, primitive_poly: int, m: int) -> int:
    """a^(q-2) by repeated multiplication."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return slow_gf_pow(a, (1 << m) - 2, primitive_poly, m)


def slow_alpha_pow(e: int, primitive_poly: int, m: int) -> int:
    return slow_gf_pow(2, e % ((1 << m) - 1), primitive_poly, m)


def slow_rs_generator(m: int, primitive_poly: int, k: int) -> list[int]:
    """prod_{j=1..N-K} (x - alpha^j), highest degree first."""
    n = (1 << m) - 1
    g = [1]
    for j in range(1, n - k + 1):
        root = slow_alpha_pow(j, primitive_poly, m)
        nxt = g + [0]
        for i, coef in enumerate(g):
            nxt[i + 1] ^= slow_gf_mul(coef, root, primitive_poly, m)
        g = nxt
    return g


def slow_rs_encode(message, m: int, primitive_poly: int) -> list[int]:
    """Systematic encode by long division of message * x^(N-K) by g(x)."""
    msg = [int(s) for s in message]
    gen = slow_rs_generator(m, primitive_poly, len(msg))
    npar = len(gen) - 1
    rem = [0] * npar
    for s in msg:
        feedback = s ^ (rem[0] if npar else 0)
        rem = rem[1:] + [0] if npar else []
        for j in range(npar):
            rem[j] ^= slow_gf_mul(feedback, gen[j + 1], primitive_poly, m)
    return msg + rem


def all_codewords(code) -> np.ndarray:
    """Every codeword as a (q^K, N) array, row i = the message with lex index i.

    The lex index reads the message as base-q digits, message[0] most
    significant. Only m, K and the field polynomial are read off ``code``.
    The code is linear, so each codeword is the XOR sum of the unit-message
    codewords from ``slow_rs_encode`` scaled by its message symbols, the
    scaling read from a q x q product table built with ``slow_gf_mul``.
    """
    m, poly, k = code.field.m, code.field.primitive_poly, code.k_symbols
    q = 1 << m
    product = np.array([[slow_gf_mul(a, b, poly, m) for b in range(q)] for a in range(q)])
    words = np.zeros((1, q - 1), dtype=np.int64)
    for i in range(k):
        unit = slow_rs_encode([int(j == i) for j in range(k)], m, poly)
        # scaled[v] = v * unit; appending digit i keeps the rows in lex order
        scaled = product[:, unit]
        words = (words[:, None, :] ^ scaled[None, :, :]).reshape(-1, q - 1)
    return words


def slow_rs_syndromes(word, k: int, m: int, primitive_poly: int) -> list[int]:
    """word(alpha^j) for j = 1..N-K, by Horner from the highest degree."""
    n = (1 << m) - 1
    out = []
    for j in range(1, n - k + 1):
        a = slow_alpha_pow(j, primitive_poly, m)
        acc = 0
        for c in word:
            acc = slow_gf_mul(acc, a, primitive_poly, m) ^ c
        out.append(acc)
    return out


def _slow_poly_eval(poly, x, primitive_poly, m):
    """Low-to-high coefficients evaluated at x (Horner)."""
    acc = 0
    for coef in reversed(poly):
        acc = slow_gf_mul(acc, x, primitive_poly, m) ^ coef
    return acc


def _slow_berlekamp_massey(synd, primitive_poly, m):
    """The minimal LFSR of the syndromes: its connection polynomial sigma,
    low to high without trailing zeros, and its length."""
    def mul(a, b):
        return slow_gf_mul(a, b, primitive_poly, m)

    def xor_poly(a, b):
        out = [0] * max(len(a), len(b))
        for i, v in enumerate(a):
            out[i] ^= v
        for i, v in enumerate(b):
            out[i] ^= v
        return out

    cur, prev = [1], [1]
    lenc, gap, prev_delta = 0, 1, 1
    for n, s_n in enumerate(synd):
        delta = s_n
        for i in range(1, lenc + 1):
            if i < len(cur):
                delta ^= mul(cur[i], synd[n - i])
        if delta == 0:
            gap += 1
            continue
        coef = mul(delta, slow_gf_inv(prev_delta, primitive_poly, m))
        adjust = [0] * gap + [mul(coef, p) for p in prev]
        if 2 * lenc <= n:
            cur, prev = xor_poly(cur, adjust), cur
            lenc = n + 1 - lenc
            prev_delta = delta
            gap = 1
        else:
            cur = xor_poly(cur, adjust)
            gap += 1
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    return cur, lenc


def slow_high_evaluator(synd, sigma, primitive_poly, m):
    """The high-order error evaluator: coefficients N-K .. 2(N-K)-1 of
    S(x) sigma(x), low to high, where S(x) = sum_j S_(j+1) x^j over the
    N-K syndromes and sigma has degree at most N-K."""
    npar = len(synd)
    out = [0] * npar
    for i, s in enumerate(synd):
        for j, c in enumerate(sigma):
            if i + j >= npar:
                out[i + j - npar] ^= slow_gf_mul(s, c, primitive_poly, m)
    return out


def _slow_try_correct(word, synd, k, m, primitive_poly):
    n = (1 << m) - 1
    t = (n - k) // 2
    npar = n - k

    def mul(a, b):
        return slow_gf_mul(a, b, primitive_poly, m)

    sigma, _ = _slow_berlekamp_massey(synd, primitive_poly, m)
    deg = len(sigma) - 1
    if deg > t:
        return None
    err_degrees = [d for d in range(n)
                   if _slow_poly_eval(sigma, slow_alpha_pow(-d, primitive_poly, m),
                                      primitive_poly, m) == 0]
    if len(err_degrees) != deg:
        return None
    omega = [0] * npar
    for i, s in enumerate(synd):
        for j, c in enumerate(sigma):
            if i + j < npar:
                omega[i + j] ^= mul(s, c)
    sigma_deriv = [sigma[i] if i % 2 == 1 else 0 for i in range(1, len(sigma))]
    out = list(word)
    nerr = 0
    for d in err_degrees:
        x_inv = slow_alpha_pow(-d, primitive_poly, m)
        num = _slow_poly_eval(omega, x_inv, primitive_poly, m)
        den = _slow_poly_eval(sigma_deriv, x_inv, primitive_poly, m)
        e = mul(num, slow_gf_inv(den, primitive_poly, m))
        if e:
            out[n - 1 - d] ^= e
            nerr += 1
    if any(slow_rs_syndromes(out, k, m, primitive_poly)):
        return None
    return tuple(out), nerr


def slow_rs_decode(received, k: int, m: int, primitive_poly: int, fallback: bool):
    """Bounded-distance decode: (status, codeword, message, error_count).

    ``status`` is "exact", "corrected", "fallback" or "failure"; codeword and
    message are None on failure, error_count is None on fallback and failure.
    """
    word = [int(s) for s in received]
    synd = slow_rs_syndromes(word, k, m, primitive_poly)
    if not any(synd):
        return "exact", tuple(word), tuple(word[:k]), 0
    corrected = _slow_try_correct(word, synd, k, m, primitive_poly)
    if corrected is not None:
        cw, nerr = corrected
        return "corrected", cw, cw[:k], nerr
    if not fallback:
        return "failure", None, None, None
    message = tuple(word[:k])
    return "fallback", tuple(slow_rs_encode(message, m, primitive_poly)), message, None


def slow_digest(bits, salt: bytes) -> bytes:
    """SHA-256 over salt || bit length as 64-bit little-endian || the bits
    packed big-endian, eight to a byte, the last byte zero-padded."""
    bits = [int(b) for b in bits]
    packed = bytearray()
    for start in range(0, len(bits), 8):
        byte = 0
        for i, bit in enumerate(bits[start:start + 8]):
            byte |= bit << (7 - i)
        packed.append(byte)
    return hashlib.sha256(bytes(salt) + len(bits).to_bytes(8, "little")
                          + bytes(packed)).digest()


class ParseError(ValueError):
    """The reference reader's refusal; tests compare it with the package's
    error of the same name."""


class DimensionMismatchError(ValueError):
    """The reference reader's refusal of a vector of another length."""


def slow_read_embeddings(path):
    """A dataset CSV as ``(face, iris)``, one dict of (n_samples, d) matrices
    per modality keyed by subject id in file order, read line by line."""
    rows: dict[str, dict[int, dict[str, list[float]]]] = {}
    dims: dict[str, int] = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 4:
                raise ParseError(f"line {lineno}: expected subject,sample,modality,values")
            sid, sample_str, modality = row[0], row[1], row[2]
            if modality not in ("face", "iris"):
                raise ParseError(f"line {lineno}: unknown modality {modality!r}")
            try:
                sample = int(sample_str)
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if modality in dims and len(values) != dims[modality]:
                raise DimensionMismatchError(
                    f"line {lineno}: {modality} vector has {len(values)} values, "
                    f"expected {dims[modality]}"
                )
            dims.setdefault(modality, len(values))
            slot = rows.setdefault(sid, {}).setdefault(sample, {})
            if modality in slot:
                raise ParseError(f"line {lineno}: duplicate {modality} row")
            slot[modality] = values
    if not rows:
        raise ParseError("empty embeddings file")

    face: dict[str, np.ndarray] = {}
    iris: dict[str, np.ndarray] = {}
    for sid, samples in rows.items():
        ordered = sorted(samples)
        for sample in ordered:
            if set(samples[sample]) != {"face", "iris"}:
                raise ParseError(f"subject {sid} sample {sample}: missing modality row")
        face[sid] = np.asarray([samples[s]["face"] for s in ordered])
        iris[sid] = np.asarray([samples[s]["iris"] for s in ordered])
    return face, iris
