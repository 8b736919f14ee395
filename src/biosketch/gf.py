"""The binary extension fields GF(2^m), 2 <= m <= 10.

The Reed-Solomon layer works with symbols from these fields. A ``Field``
checks that its polynomial is primitive and builds, once and in numpy, a
discrete-log table and an anti-log table over the generator alpha (the
class of x). They carry a zero sentinel: ``log_table[0]`` is 2N, for
N = 2^m - 1, and ``exp_table`` holds alpha^i at every i < 2N and zero from
2N to 4N. A sum of two logs then indexes ``exp_table`` without a modular
reduction, and ``exp_table[log_table[a] + log_table[b]]`` is the product
a*b for all symbols, zeros included, without a branch. There is no scalar
arithmetic here: ``RsCode`` computes with these tables as they are.
``exp_table`` is uint8 for m <= 8 and uint16 above, and ``log_table``
int16: every log is at most 2N and every sum of two at most 4N, so gathers
take int16 indices.

A ``Field`` is immutable after construction (its tables are read-only), so
instances can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPrimitivePolynomialError, UnsupportedSymbolSizeError

# Fixed default polynomial per m (minimum-weight primitive choices). Any
# primitive polynomial yields an equivalent code; pinning one per m keeps
# outputs reproducible across runs.
DEFAULT_PRIMITIVE_POLY = {
    2: 0b111,           # x^2 + x + 1
    3: 0b1011,          # x^3 + x + 1
    4: 0b10011,         # x^4 + x + 1
    5: 0b100101,        # x^5 + x^2 + 1
    6: 0b1000011,       # x^6 + x + 1
    7: 0b10001001,      # x^7 + x^3 + 1
    8: 0b100011101,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,    # x^9 + x^4 + 1
    10: 0b10000001001,  # x^10 + x^3 + 1
}

MIN_M = 2
MAX_M = 10


def check_symbol_size(m: int) -> None:
    if not MIN_M <= m <= MAX_M:
        raise UnsupportedSymbolSizeError(
            f"symbol size m={m} outside supported range {MIN_M}..{MAX_M}"
        )


class Field:
    """GF(2^m) with zero-sentinel exp/log tables over the generator alpha.

    Construction verifies primitivity directly: alpha must enumerate all
    2^m - 1 nonzero elements before cycling back to 1, otherwise
    ``NonPrimitivePolynomialError`` is raised.
    """

    __slots__ = ("m", "size", "order", "primitive_poly", "exp_table", "log_table")

    def __init__(self, m: int, primitive_poly: int | None = None):
        check_symbol_size(m)
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLY[m]
        if primitive_poly.bit_length() != m + 1:
            raise NonPrimitivePolynomialError(
                f"polynomial 0b{primitive_poly:b} does not have degree {m}"
            )

        self.m = m
        self.size = 1 << m          # number of field elements
        self.order = self.size - 1  # order of the multiplicative group
        self.primitive_poly = primitive_poly

        powers = []
        seen = bytearray(self.size)
        x = 1
        for i in range(self.order):
            if seen[x]:
                raise NonPrimitivePolynomialError(
                    f"0b{primitive_poly:b} is not primitive: alpha has order {i}"
                )
            seen[x] = 1
            powers.append(x)
            x <<= 1
            if x & self.size:
                x ^= primitive_poly
        if x != 1:
            raise NonPrimitivePolynomialError(
                f"0b{primitive_poly:b} is not primitive: alpha^{self.order} != 1"
            )
        zero_log = 2 * self.order
        exp = np.zeros(2 * zero_log + 1, dtype=np.uint8 if m <= 8 else np.uint16)
        exp[:self.order] = exp[self.order:zero_log] = powers
        log = np.full(self.size, zero_log, dtype=np.int16)
        log[powers] = np.arange(self.order)
        for table in (exp, log):
            table.setflags(write=False)
        self.exp_table = exp
        self.log_table = log
