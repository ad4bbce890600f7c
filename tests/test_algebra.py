import random

import pytest
from sympy import isprime

from regmaps.algebra import (
    MR_BOUND,
    IntMatrix,
    PrimePower,
    SnfResult,
    as_prime_power,
    det_bareiss,
    epsilon,
    is_prime,
    mod_p_rank,
    p_part,
    smith_normal_form,
)
from regmaps.errors import ParameterError, ResourceError


def test_p_part():
    assert p_part(720, 2) == 16
    assert p_part(720, 3) == 9
    assert p_part(7, 3) == 1
    assert p_part(3 ** 40, 3) == 3 ** 40
    with pytest.raises(ParameterError):
        p_part(10, 4)
    with pytest.raises(ParameterError):
        p_part(0, 3)


def test_p_part_multiplicative():
    import random

    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(1, 10 ** 6)
        b = rng.randint(1, 10 ** 6)
        for p in (2, 3, 7):
            assert p_part(a * b, p) == p_part(a, p) * p_part(b, p)


def test_as_prime_power():
    assert as_prime_power(49) == (7, 2)
    assert as_prime_power(60) is None
    assert as_prime_power(2187) == (3, 7)
    assert as_prime_power(2) == (2, 1)
    assert as_prime_power(97) == (97, 1)
    with pytest.raises(ParameterError):
        as_prime_power(1)


def test_is_prime_matches_sympy():
    assert all(is_prime(n) == isprime(n) for n in range(-3, 10 ** 5))
    rng = random.Random(0x5EED)
    for _ in range(2000):
        n = rng.getrandbits(64)
        assert is_prime(n) == isprime(n), n
    assert is_prime(2 ** 61 - 1)


def test_is_prime_bound():
    # composites above the bound are still proven by a witness
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    assert not is_prime(2 ** 200)
    # the bound itself is a strong pseudoprime to every base
    with pytest.raises(ResourceError):
        is_prime(MR_BOUND)
    with pytest.raises(ResourceError):
        is_prime(2 ** 89 - 1)


def test_as_prime_power_large():
    assert as_prime_power(3 ** 40) == (3, 40)
    assert as_prime_power((2 ** 31 - 1) * (2 ** 61 - 1)) is None
    assert as_prime_power((2 ** 61 - 1) ** 3) == (2 ** 61 - 1, 3)
    assert as_prime_power(3 ** 40 * 5) is None
    assert as_prime_power(2 ** 127) == (2, 127)


def test_epsilon():
    assert epsilon(PrimePower.of(9), 3) == 2  # r = p
    assert epsilon(PrimePower.of(9), 7) == 3  # q = 9, r != 3
    assert epsilon(PrimePower.of(13), 7) == 6  # (q-1)/2
    assert epsilon(PrimePower.of(25), 3) == 12
    with pytest.raises(ParameterError):
        epsilon(PrimePower.of(13), 2)
    with pytest.raises(ParameterError):
        PrimePower.of(8)


def test_snf_examples():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(m) == SnfResult((2, 4), 0)
    assert smith_normal_form(IntMatrix(2, 3, [0] * 6)) == SnfResult((), 3)
    ident = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(ident) == SnfResult((1, 1, 1), 0)
    # empty matrix: all-free cokernel
    assert smith_normal_form(IntMatrix(0, 4, [])) == SnfResult((), 4)


def test_mod_p_rank_examples():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert mod_p_rank(m, 2) == 0
    assert mod_p_rank(m, 3) == 2
    ident = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert mod_p_rank(ident, 5) == 2


def test_mod_p_rank_big_entries():
    m = IntMatrix.from_rows([[3 ** 100, 1], [0, 5 ** 80]])
    assert mod_p_rank(m, 3) == 1
    assert mod_p_rank(m, 5) == 1
    assert mod_p_rank(m, 7) == 2
    p = 4294967311  # (p - 1)^2 overflows int64
    assert mod_p_rank(IntMatrix.from_rows([[3, p - 1, 5], [6, p - 2, 10]]), p) == 1


def test_matrix_text_roundtrip():
    m = IntMatrix.from_rows([[1, -2, 3], [0, 4, -5]])
    assert IntMatrix.from_text(m.to_text()) == m
    with pytest.raises(ParameterError):
        IntMatrix.from_text("2 2\n1 2\n")


def test_snf_vs_det_and_modp(snf_random_cases):
    """Divisibility chain, |det| product check, and the rank relation
    mod_p_rank = #factors not divisible by p, over random matrices."""
    for m, res in snf_random_cases:
        facs = res.invariant_factors
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0
        if m.rows == m.cols:
            det = det_bareiss(m)
            if det:
                prod = 1
                for d in facs:
                    prod *= d
                assert prod == abs(det)
                assert res.free_rank == 0
        for p in (2, 3, 5):
            expect = sum(1 for d in facs if d % p) + 0
            assert mod_p_rank(m, p) == expect
