"""Per-word timings of the public RS calls at m = 3, 5, 6 and 8.

Each kernel is timed one word at a time on fixed seeded inputs and reported
as the median in microseconds. `decode_uniform` decodes uniform random
words, which lie beyond every decoding sphere once m >= 5 and so take the
fallback path; `decode_terr` decodes codewords carrying exactly t symbol
errors, the most expensive word the decoder still corrects. The private
Berlekamp-Massey, Chien and Forney steps are not split out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from biosketch import rs
from biosketch.gf import Field

# Message length K per symbol size: the far-mc, cli-auth and matcher-m8
# codes, and a 102-bit code at m = 6.
KERNEL_K = {3: 2, 5: 20, 6: 17, 8: 32}


def _median_us(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _with_t_errors(code: rs.RsCode, codeword, rng) -> list[int]:
    word = list(codeword)
    for pos in rng.choice(code.n_symbols, size=code.t, replace=False):
        word[pos] ^= int(rng.integers(1, code.field.size))
    return word


def kernel_table(seed: int, words: dict[int, int]) -> tuple[dict[str, float], int]:
    """Kernel metrics and the number of t-error words not corrected exactly."""
    out: dict[str, float] = {}
    wrong = 0
    for m, k_symbols in KERNEL_K.items():
        code = rs.RsCode(Field(m), k_symbols)
        rng = np.random.default_rng([seed, m])
        n_words = words[m]
        size = code.field.size
        messages = [rng.integers(0, size, code.k_symbols).tolist() for _ in range(n_words)]
        uniform = [rng.integers(0, size, code.n_symbols).tolist() for _ in range(n_words)]
        bits = [rng.integers(0, 2, code.n_bits).astype(np.uint8) for _ in range(n_words)]
        terr = [_with_t_errors(code, code.encode(msg), rng) for msg in messages]

        prefix = f"rs.m{m}."
        out[prefix + "encode_us"] = _median_us(code.encode, messages)
        out[prefix + "syndromes_us"] = _median_us(code.syndromes, uniform)
        out[prefix + "decode_uniform_us"] = _median_us(code.decode, uniform)
        out[prefix + "decode_terr_us"] = _median_us(code.decode, terr)
        out[prefix + "bits_to_symbols_us"] = _median_us(
            lambda b: rs.bits_to_symbols(b, m), bits)
        for msg, word in zip(messages, terr):
            outcome = code.decode(word)
            if (outcome.status is not rs.DecodeStatus.CORRECTED
                    or outcome.error_count != code.t
                    or list(outcome.message) != msg):
                wrong += 1
    return out, wrong
