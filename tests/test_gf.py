import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insdelcode import linalg
from insdelcode.errors import InvalidSpecError, UsageError
from insdelcode.gf import (BinaryField, PrimeField, field_from_json,
                           irreducible_poly, poly_find_factor, poly_mulmod)


def test_prime_arithmetic_examples():
    g3 = PrimeField(3)
    assert g3.add(2, 2) == 1
    assert g3.sub(0, 1) == 2
    assert g3.neg(1) == 2
    assert g3.inv(1) == 1
    assert g3.mul(2, 2) == 1


def test_gf8_reduction_example():
    g8 = BinaryField(3, 0b1011)  # x^3 + x + 1
    assert g8.mul(0b010, 0b100) == 0b011  # x * x^2 = x + 1
    assert g8.inv(1) == 1


def test_validate_spec_examples():
    PrimeField(7)  # ok
    with pytest.raises(InvalidSpecError, match="factor 3"):
        PrimeField(9)
    with pytest.raises(InvalidSpecError, match="0x3"):
        BinaryField(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_declared_degree_must_match():
    with pytest.raises(InvalidSpecError):
        BinaryField(4, 0b1011)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5),
                                   PrimeField(13), BinaryField(2),
                                   BinaryField(3), BinaryField(4)])
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))


@pytest.mark.parametrize("field", [PrimeField(251), BinaryField(8)])
def test_inverse_bijection_exhaustive(field):
    seen = set()
    for a in range(1, field.q):
        inv = field.inv(a)
        assert field.mul(a, inv) == 1
        seen.add(inv)
    assert len(seen) == field.q - 1


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_large_prime_axioms_sampled(a, b, c):
    field = PrimeField(101)
    assert field.mul(a, field.add(b, c)) == \
        field.add(field.mul(a, b), field.mul(a, c))


def test_big_binary_field_inverse():
    field = BinaryField(100)
    x = 0x1234_5678_9abc_def0_1357
    assert field.mul(x, field.inv(x)) == 1


def test_inv_of_zero_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        BinaryField(4).inv(0)


def test_json_round_trip():
    for field in (PrimeField(17), BinaryField(6)):
        again = field_from_json(field.to_json())
        assert again == field
    with pytest.raises(InvalidSpecError):
        field_from_json({"kind": "prime", "q": 8, "modulus": 7})
    with pytest.raises(InvalidSpecError):
        field_from_json({"kind": "weird", "modulus": 7})


def test_bundled_polynomials_are_irreducible():
    for degree in list(range(1, 17)) + [32, 64, 100]:
        assert poly_find_factor(irreducible_poly(degree)) is None


def test_canonical_range_check():
    field = PrimeField(5)
    with pytest.raises(UsageError):
        field.check(7)
    with pytest.raises(UsageError):
        field.check(-1)


def test_sampling_deterministic():
    field = BinaryField(6)
    a = field.sample(np.random.default_rng(3), 10)
    b = field.sample(np.random.default_rng(3), 10)
    assert list(a) == list(b)
    big = BinaryField(100)
    v = big.sample(np.random.default_rng(0))
    assert 0 <= v < big.q


# the densest irreducible degree-20 modulus below x^20 + 2^20 - 1: its low
# taps reach x^19, so reduction needs many folds instead of two
DENSE_20 = next(f for f in range((1 << 21) - 1, 1 << 20, -2)
                if poly_find_factor(f) is None)


@pytest.mark.parametrize("degree, modulus", [
    (17, None), (20, None), (22, None), (61, None), (64, None), (100, None),
    (128, None), (20, DENSE_20)])
def test_mul_matches_shift_xor_reference(degree, modulus):
    field = BinaryField(degree, modulus)
    rng = np.random.default_rng(degree)
    operands = [0, 1, 2, 3, 0x7f, 0x80, 0xff, field.q - 1, field.q >> 1]
    operands += [int(v) for v in rng.integers(2, 1 << 7, 4)]     # < 8 bits
    operands += [int(v) for v in rng.integers(1 << 7, 1 << 8, 4)]  # < 256
    operands += field.sample(rng, 8)                               # full width
    for a in operands:
        for b in operands:
            expected = poly_mulmod(a, b, field.modulus)
            assert field.mul(a, b) == expected
            assert field.mul(b, a) == expected


@pytest.mark.parametrize("field", [BinaryField(40), PrimeField(2**61 - 1),
                                   BinaryField(100)])
def test_samples_multiply_like_python_ints(field):
    # fields linalg works on as object arrays sample Python ints, so numpy
    # int64 can neither overflow a product nor lack int methods
    rng = np.random.default_rng(4)
    a, b = field.sample(rng, 12), field.sample(rng, 12)
    assert all(type(v) is int for v in a + b)
    assert type(field.sample(rng)) is int
    assert [field.mul(x, y) for x, y in zip(a, b)] == \
        [field.mul(int(x), int(y)) for x, y in zip(a, b)]
    M = [field.sample(rng, 5) for _ in range(12)]
    assert linalg.matvec(a, M, field) == linalg.matvec(
        [int(v) for v in a], [[int(v) for v in row] for row in M], field)


def test_word_sized_fields_sample_int64_arrays():
    rng = np.random.default_rng(4)
    for field in (BinaryField(6), BinaryField(16), PrimeField(2**31 - 1)):
        assert field.word_sized
        assert field.sample(rng, 3).dtype == np.int64
    for field in (BinaryField(17), PrimeField(2**31 + 11), BinaryField(100)):
        assert not field.word_sized
