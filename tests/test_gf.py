import numpy as np
import pytest
from hypothesis import given, strategies as st

from biosketch.errors import NonPrimitivePolynomialError, UnsupportedSymbolSizeError
from biosketch.gf import DEFAULT_PRIMITIVE_POLY, MAX_M, MIN_M, Field
from biosketch.rs import RsCode

from reference import element_order, slow_gf_inv, slow_gf_mul

ALL_M = range(MIN_M, MAX_M + 1)


def test_alpha_cubed_is_x_plus_one_in_gf8():
    field = Field(3, 0b1011)
    assert field.exp_table[3] == 0b011


def test_reducible_polynomial_rejected():
    # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1); alpha cannot generate 7 elements
    assert element_order(2, 0b1011, 3) == 7
    try:
        generated = element_order(2, 0b1111, 3)
    except AssertionError:
        generated = 0
    assert generated != 7
    with pytest.raises(NonPrimitivePolynomialError):
        Field(3, 0b1111)


def test_irreducible_but_nonprimitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible yet alpha has order 5, not 15
    with pytest.raises(NonPrimitivePolynomialError):
        Field(4, 0b11111)


def test_wrong_degree_polynomial_rejected():
    with pytest.raises(NonPrimitivePolynomialError):
        Field(3, 0b10011)


@pytest.mark.parametrize("m", [1, 0, 11, 16])
def test_unsupported_symbol_size(m):
    with pytest.raises(UnsupportedSymbolSizeError):
        Field(m)


def test_m6_field_has_63_nonzero_elements():
    field = Field(6)
    assert field.order == 63
    assert sorted(field.exp_table[:63]) == list(range(1, 64))


@pytest.mark.parametrize("m", ALL_M)
def test_default_polynomials_are_primitive(m):
    poly = DEFAULT_PRIMITIVE_POLY[m]
    assert poly.bit_length() == m + 1
    assert element_order(2, poly, m) == (1 << m) - 1


@pytest.mark.parametrize("m", ALL_M)
def test_exp_table_period_and_log_inverse(m):
    field = Field(m)
    order = field.order
    assert sorted(field.exp_table[:order]) == list(range(1, field.size))
    for i in range(order):
        assert field.log_table[field.exp_table[i]] == i
        assert field.exp_table[i + order] == field.exp_table[i]


def codec_product(m):
    """The codec's branch-free product on the field's zero-sentinel tables."""
    field = Field(m)
    exp, log = field.exp_table, field.log_table
    return lambda a, b: exp[log[a] + log[b]]


@pytest.mark.parametrize("m", ALL_M)
def test_field_owns_read_only_sentinel_tables(m):
    """``log_table[0]`` is 2N and ``exp_table`` is alpha^i below 2N and zero
    from 2N to 4N; both are read-only, ``log_table`` is int16, and a code
    computes with the field's own arrays, not copies."""
    field = Field(m)
    exp, log, order = field.exp_table, field.log_table, field.order
    assert log[0] == 2 * order
    assert exp.shape == (4 * order + 1,)
    assert exp.dtype == (np.uint8 if m <= 8 else np.uint16)
    assert log.dtype == np.int16
    assert not exp[2 * order:].any()
    assert np.array_equal(exp[:order], exp[order:2 * order])
    for table in (exp, log):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
    code = RsCode(field, 1)
    assert code.exp_table is exp and code.log_table is log


@pytest.mark.parametrize("m", [3, 4])
def test_table_mul_matches_shift_and_reduce_exhaustively(m):
    mul = codec_product(m)
    poly = DEFAULT_PRIMITIVE_POLY[m]
    for a in range(1 << m):
        for b in range(1 << m):
            assert mul(a, b) == slow_gf_mul(a, b, poly, m)


def test_mul_identity_and_alpha_powers():
    mul = codec_product(3)
    for a in range(8):
        assert mul(a, 1) == a
    # alpha * alpha^2 = alpha^3 = x + 1
    assert mul(2, mul(2, 2)) == 0b011
    assert mul(mul(0b011, mul(2, 2)), mul(2, 2)) == 1  # alpha^7


def test_inverse_everywhere():
    # Forney divides in log form: a / b = alpha^(log a - log b mod N).
    for m in ALL_M:
        field = Field(m)
        exp, log, order = field.exp_table, field.log_table, field.order
        nonzero = np.arange(1, 1 << m)
        inverse = exp[(order - log[nonzero]) % order]
        assert np.all(exp[log[nonzero] + log[inverse]] == 1)
        poly = DEFAULT_PRIMITIVE_POLY[m]
        for a in range(1, min(1 << m, 64)):
            assert inverse[a - 1] == slow_gf_inv(a, poly, m)


@pytest.mark.parametrize("m", ALL_M)
def test_field_laws_random_triples(m):
    mul = codec_product(m)
    rng = np.random.default_rng(1000 + m)
    a, b, c = rng.integers(0, 1 << m, size=(3, 10_000))
    assert np.array_equal(mul(a, mul(b, c)), mul(mul(a, b), c))
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))
    poly = DEFAULT_PRIMITIVE_POLY[m]
    for x, y in zip(a[:200].tolist(), b[:200].tolist()):
        assert mul(x, y) == slow_gf_mul(x, y, poly, m)


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_field_laws_hypothesis(a, b, c):
    mul = codec_product(3)
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b) == slow_gf_mul(a, b, DEFAULT_PRIMITIVE_POLY[3], 3)
