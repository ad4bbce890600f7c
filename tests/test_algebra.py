import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import GF, ZZ, Matrix, isprime, nextprime, primefactors
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import invariant_factors

from regmaps.algebra import (
    MR_BOUND,
    TRIAL_DIVISION_BOUND,
    IntMatrix,
    PrimePower,
    SnfResult,
    as_prime_power,
    det_bareiss,
    is_prime,
    mod_p_rank,
    odd_prime_divisors,
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


def test_odd_prime_divisors_matches_sympy():
    assert odd_prime_divisors(2 ** 61 - 1) == [2 ** 61 - 1]
    assert odd_prime_divisors(1) == [] and odd_prime_divisors(2 ** 40) == []
    rng = random.Random(0xD1F)
    for i in range(500):
        if i % 2:
            # a large prime cofactor is accepted at once
            n = rng.randint(1, 10 ** 6) * nextprime(rng.getrandbits(61))
        else:
            # every composite cofactor below 10^12 has a factor below the bound
            n = rng.randint(1, 10 ** 12)
        assert odd_prime_divisors(n) == [q for q in primefactors(n) if q != 2], n


def test_odd_prime_divisors_budget():
    p = nextprime(TRIAL_DIVISION_BOUND)
    with pytest.raises(ResourceError):
        odd_prime_divisors(p * nextprime(p))
    with pytest.raises(ParameterError):
        odd_prime_divisors(0)


def test_as_prime_power_large():
    assert as_prime_power(3 ** 40) == (3, 40)
    assert as_prime_power((2 ** 31 - 1) * (2 ** 61 - 1)) is None
    assert as_prime_power((2 ** 61 - 1) ** 3) == (2 ** 61 - 1, 3)
    assert as_prime_power(3 ** 40 * 5) is None
    assert as_prime_power(2 ** 127) == (2, 127)
    with pytest.raises(ParameterError):
        PrimePower.of(8)  # even characteristic


def test_snf_examples():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(m) == SnfResult((2, 4), 0)
    assert smith_normal_form(IntMatrix(2, 3, [0] * 6)) == SnfResult((), 3)
    ident = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(ident) == SnfResult((1, 1, 1), 0)
    # empty matrix: all-free cokernel
    assert smith_normal_form(IntMatrix(0, 4, [])) == SnfResult((), 4)


def _snf_pool(kind, rng):
    """A seeded matrix of at most 12x12 from one of four pools."""
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    if kind == "two_term":  # chains, cycles and cancellations of two-term rows
        a = [[0] * cols for _ in range(rows)]
        for row in a:
            j = rng.randrange(cols)
            row[j] += rng.choice((1, -1, 1, -1, 2, -2, 3))
            k = (j + 1) % cols if rng.random() < 0.7 else rng.randrange(cols)
            row[k] += rng.choice((1, -1, 1, 2, -2))
        for _ in range(rng.randint(0, 2)):  # a few longer rows for the heap
            a.insert(rng.randint(0, rows), [rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)])
        return a
    if kind == "units":  # +-1-heavy and sparse: the sparse phase does most work
        vals = (1, -1, 1, -1, 1, -1, 2, -3, 6)
        density = rng.uniform(0.1, 0.5)
    elif kind == "no_units":  # no +-1 entry: only the dense phase runs
        vals = (2, -2, 3, -3, 4, 6, -9, 10, 15)
        density = rng.uniform(0.2, 1.0)
    else:  # "zero_lines": whole zero rows and zero columns
        vals = (1, -1, 2, -2, 3, 4, -6)
        density = rng.uniform(0.3, 0.9)
    a = [[rng.choice(vals) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    if kind == "zero_lines":
        for i in rng.sample(range(rows), rng.randint(0, rows - 1)):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
            for row in a:
                row[j] = 0
    return a


@pytest.mark.parametrize("kind", ["units", "no_units", "zero_lines", "two_term"])
def test_snf_matches_sympy(kind):
    rng = random.Random(f"snf-{kind}")
    for _ in range(150):
        a = _snf_pool(kind, rng)
        if kind == "no_units":
            assert all(abs(x) != 1 for row in a for x in row)
        want = [abs(int(d)) for d in invariant_factors(Matrix(a), domain=ZZ) if d]
        got = smith_normal_form(IntMatrix.from_rows(a))
        assert got == SnfResult(tuple(want), len(a[0]) - len(want)), a


def test_two_term_substitutions():
    # x1 + x2 and x2 + x3 substitute x1 = x3, so x1 + x3 closes to 2 x3
    cycle = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert smith_normal_form(cycle) == SnfResult((1, 1, 2), 0)
    assert mod_p_rank(cycle, 2) == 2 and mod_p_rank(cycle, 3) == 3
    # a chain x1 = x2 = x3 = x4, then 3 x4
    chain = IntMatrix.from_rows([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, -1, 1], [0, 0, 0, 3]])
    assert smith_normal_form(chain) == SnfResult((1, 1, 1, 3), 0)
    # the second row resolves to x2 - x2 = 0 and is dropped
    assert smith_normal_form(IntMatrix.from_rows([[1, 1], [-1, -1]])) == SnfResult((1,), 1)
    # 2x + y pivots on y; 2x + 2y has no unit and is left for the dense pass
    assert smith_normal_form(IntMatrix.from_rows([[2, 1]])) == SnfResult((1,), 1)
    assert smith_normal_form(IntMatrix.from_rows([[2, 2]])) == SnfResult((2,), 1)
    assert smith_normal_form(IntMatrix.from_rows([[2, 1, 0], [0, 2, 2]])) == SnfResult((1, 2), 1)
    # multiples of p vanish before the pass, other residues are units
    assert mod_p_rank(IntMatrix.from_rows([[3, 1], [1, 6], [9, 3]]), 3) == 2
    assert mod_p_rank(IntMatrix.from_rows([[3, 6], [2, 5]]), 3) == 1


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


def _modp_pool(p, rng):
    """A seeded sparse matrix of at most 20x15 with zero rows and columns,
    entries that are multiples of p, rows that combine two others, and
    two-term rows that chain neighbouring columns."""
    rows, cols = rng.randint(0, 12), rng.randint(0, 15)
    vals = (1, -1, 2, p, -p, 3 * p, p - 1, p + 1, 5 * p + 2, rng.randint(-p * p, p * p))
    density = rng.uniform(0.1, 0.6)
    a = [[rng.choice(vals) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    for _ in range(rng.randint(0, 3) if rows >= 2 else 0):
        (s, x), (t, y) = [(rng.choice(a), rng.randint(-3, 3)) for _ in range(2)]
        a.insert(rng.randint(0, len(a)), [x * u + y * v for u, v in zip(s, t)])
    for _ in range(rng.randint(0, 5) if cols else 0):  # two-term rows on neighbouring columns
        row, j = [0] * cols, rng.randrange(cols)
        row[j] = rng.choice(vals)
        row[(j + 1) % cols] += rng.choice(vals)
        a.insert(rng.randint(0, len(a)), row)
    rows = len(a)
    for i in rng.sample(range(rows), rng.randint(0, rows // 3)):
        a[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
        for row in a:
            row[j] = 0
    return rows, cols, a


@pytest.mark.parametrize("p", [3, 7, 10007, 4294967311])
def test_mod_p_rank_matches_sympy(p):
    rng = random.Random(f"modp-{p}")
    for _ in range(200):
        rows, cols, a = _modp_pool(p, rng)
        want = DomainMatrix([[ZZ(x) for x in row] for row in a], (rows, cols), ZZ)
        dense = IntMatrix(rows, cols, [x for row in a for x in row])
        assert mod_p_rank(dense, p) == want.convert_to(GF(p)).rank(), a
        # the same matrix from sparse rows, explicit zeros included
        sparse = IntMatrix.from_sparse(
            cols, [{j: x for j, x in enumerate(row) if x or j % 2} for row in a]
        )
        assert sparse == dense and sparse.rows == rows
        assert sparse.entries == dense.entries
        assert sparse.to_rows() == dense.to_rows()
        assert smith_normal_form(sparse) == smith_normal_form(dense)
        assert mod_p_rank(sparse, p) == mod_p_rank(dense, p)


def test_matrix_from_sparse_validation():
    m = IntMatrix.from_sparse(3, [{2: np.int64(4), 0: 0}, {}])
    assert m.to_rows() == [[0, 0, 4], [0, 0, 0]] and m.sparse == ({2: 4}, {})
    assert IntMatrix.from_sparse(2, []) == IntMatrix(0, 2, [])
    for bad in ({3: 1}, {-1: 1}, {0: 1.5}, {"0": 1}, {0.0: 1}):
        with pytest.raises(ParameterError):
            IntMatrix.from_sparse(3, [bad])


def test_matrix_text_roundtrip():
    rows = [[1, -2, 3], [0, 4, -5]]
    text = "2 3\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    m = IntMatrix.from_text(text)
    assert m == IntMatrix.from_rows(rows) and m.to_rows() == rows
    with pytest.raises(ParameterError):
        IntMatrix.from_text("2 2\n1 2\n")
    with pytest.raises(ParameterError):
        IntMatrix.from_text("1 2\n1 x\n")


@pytest.mark.parametrize("bad", [2.7, 3.0, "3", None, Fraction(3)])
def test_matrix_entries_must_be_integers(bad):
    with pytest.raises(ParameterError):
        IntMatrix(1, 2, [1, bad])
    with pytest.raises(ParameterError):
        IntMatrix.from_rows([[bad]])


def test_matrix_accepts_numpy_integers():
    m = IntMatrix(1, 3, [np.int64(-3), np.uint8(200), True])
    assert m.entries == (-3, 200, 1)
    assert all(type(x) is int for x in m.entries)


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
