import signal
from math import gcd, isqrt

import pytest

from regmaps import families
from regmaps.errors import ContractError, ParameterError, ResourceError
from regmaps.families import (
    CONGRUENCE_ROWS,
    FamilyRow,
    minimal_rows,
    row_chi,
    scan_pgl_cases,
    search_c1_c2,
    search_c3,
    search_c4,
    search_c6_c7,
    verify_congruence_row,
    verify_corollary_table,
)
from regmaps.algebra import as_prime_power


def test_all_minimal_rows_consistent():
    rows = minimal_rows()
    assert len(rows) == 18
    for row in rows:
        neg = row_chi(row)
        pp = as_prime_power(neg)
        assert pp is not None and pp[0] % 2 == 1, (row.id, neg)


def test_row_values():
    assert row_chi(FamilyRow("A1", {"O": 1})) == 3
    assert row_chi(FamilyRow("A2", {"O": 3 ** 6})) == 3 ** 7
    assert row_chi(FamilyRow("A3", {"O": 1})) == 7 ** 2
    assert row_chi(FamilyRow("A4", {"O": 1})) == 13
    assert row_chi(FamilyRow("B1", {"O": 1})) == 5
    assert row_chi(FamilyRow("B2", {"O": 5 ** 3})) == 5 ** 5
    assert row_chi(FamilyRow("B3", {"N": 1, "s": 0, "ell": 1})) == 7
    assert row_chi(FamilyRow("B4", {"N": 3 ** 6, "s": 1, "ell": 3221})) == 3 ** 18
    ell = (3 ** 21 + 8) // 77
    assert row_chi(FamilyRow("B5", {"p": 7, "r": 3, "s": 1, "N": 3 ** 85, "ell": ell})) == 3 ** 106
    assert row_chi(FamilyRow("B6", {"p": 5, "r": 3, "ell": 1, "N": 1})) == 3
    assert row_chi(FamilyRow("C1", {"i": 1, "N": 3})) == 3
    assert row_chi(FamilyRow("C3", {"j": 3, "k": 5, "N": 1, "r": 7})) == 7
    assert row_chi(FamilyRow("C5", {"ell": 9, "N": 1, "r": 5})) == 5
    assert row_chi(FamilyRow("C6", {"ell": 3, "alpha": 1, "beta": 0, "N": 27})) == 27


def test_row_validation():
    with pytest.raises(ParameterError):
        FamilyRow("C3", {"j": 3, "k": 9, "N": 1, "r": 7})  # not coprime
    with pytest.raises(ParameterError):
        FamilyRow("C5", {"ell": 9, "N": 1, "r": 7})  # 7 = 1 mod 6
    with pytest.raises(ParameterError):
        FamilyRow("B3", {"N": 1, "s": 0, "ell": 3})  # ell not coprime to |PGL2(7)|
    with pytest.raises(ParameterError):
        FamilyRow("Z9")


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize(
    "row, params",
    [
        ("B5", {"p": 7, "s": 1, "N": 3, "ell": 1}),
        ("B6", {"p": 5, "ell": 1}),
        ("B7", {"p": 5, "s": 1, "N": 3, "ell": 1}),
    ],
    ids=["B5", "B6", "B7"],
)
def test_b_rows_refuse_r_below_2_without_hanging(row, params, r):
    def give_up(*_):
        raise TimeoutError(f"{row} validation ran for 5 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        with pytest.raises(ParameterError):
            FamilyRow(row, {**params, "r": r})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_search_c1_c2():
    sols = {(d["row"], d["i"]): d for d in search_c1_c2(3)}
    assert sols[("C1", 1)]["ell"] == 6 and sols[("C1", 1)]["type"] == (6, 6)
    assert sols[("C1", 3)]["ell"] == 30 and sols[("C1", 3)]["type"] == (6, 30)
    assert sols[("C1", 0)]["ell"] == 4 and "9" in sols[("C1", 0)]["note"]
    assert sols[("C2", 1)]["type"] == (6, 12)


def test_search_c3():
    assert search_c3(7, 1) == [(3, 5)]
    assert search_c3(3, 3) == []
    assert search_c3(3, 1) == []
    for j, k in search_c3(19, 3):
        assert (j - 1) * (k - 1) == 19 ** 3 + 1
        assert j % 2 == 1 and k % 2 == 1
        # (j-1)(k-1) = 0 mod 4 is forced by both factors being even
        assert (j - 1) * (k - 1) % 4 == 0


def _divisors_by_trial_division(n):
    small = [u for u in range(1, isqrt(n) + 1) if n % u == 0]
    return small + [n // u for u in reversed(small) if u * u != n]


@pytest.mark.parametrize("r", [3, 7, 11, 19, 23, 31])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_search_c3_finds_every_factorization(r, d):
    # every (j-1)(k-1) = r^d + 1 with j, k odd coprime and 3 <= j <= k,
    # with the divisors found by trial division
    n = r ** d + 1
    want = []
    for u in _divisors_by_trial_division(n):
        j, k = u + 1, n // u + 1
        if 3 <= j <= k and j % 2 == 1 and k % 2 == 1 and gcd(j, k) == 1:
            want.append((j, k))
    assert search_c3(r, d) == want


@pytest.mark.parametrize("r", [3, 7, 11])
def test_search_c4_finds_every_solution(r):
    # every (j r^alpha - 1)(k r^beta - 1) = r^(i+beta) + 1 with j, k odd
    # coprime, jk > 1 and alpha >= max(beta, 1), in the search's order
    i_max, alpha_max = 5, 2
    want = []
    for beta in range(alpha_max + 1):
        for i in range(1, i_max + 1):
            n = r ** (i + beta) + 1
            for u in _divisors_by_trial_division(n):
                for alpha in range(max(beta, 1), alpha_max + 1):
                    j, jrem = divmod(u + 1, r ** alpha)
                    k, krem = divmod(n // u + 1, r ** beta)
                    if jrem or krem or j % 2 == 0 or k % 2 == 0:
                        continue
                    if gcd(j, k) == 1 and j * k > 1:
                        want.append((i, alpha, beta, j, k))
    got = [(s["i"], s["alpha"], s["beta"], s["j"], s["k"])
           for s in search_c4(r, i_max, alpha_max)]
    assert got == want


@pytest.mark.parametrize(
    "search, args",
    [
        (search_c3, (7, -1)),
        (search_c3, (7, 0)),
        (search_c4, (3, -1, 2)),
        (search_c4, (3, 5, -1)),
        (search_c6_c7, (3, -1, 8)),
        (search_c6_c7, (3, 2, -1)),
    ],
)
def test_searches_refuse_negative_bounds(search, args):
    with pytest.raises(ParameterError):
        search(*args)


def test_search_c4():
    sols = search_c4(3, i_max=9, alpha_max=2)
    seen = {(s["i"], s["alpha"], s["beta"], s["j"], s["k"]) for s in sols}
    assert (2, 1, 1, 5, 1) in seen
    assert (3, 1, 0, 5, 3) in seen
    assert (5, 1, 0, 41, 3) in seen
    for s in sols:
        ra, rb = 3 ** s["alpha"], 3 ** s["beta"]
        assert (s["j"] * ra - 1) * (s["k"] * rb - 1) == 3 ** (s["i"] + s["beta"]) + 1
        assert s["i_plus_beta_odd"]


def test_search_c4_r11():
    sols = search_c4(11, i_max=9, alpha_max=1)
    # the j = 5 family at i = 9: the equation forces k = (11^9 + 55)/54
    k = (11 ** 9 + 55) // 54
    assert any(s["j"] == 5 and s["i"] == 9 and s["k"] == k for s in sols)


def test_search_c4_factors_each_target_once(monkeypatch):
    # r^m + 1 for each m = i + beta, once, the largest first
    seen = []
    divisors = families._divisors

    def counted(n):
        seen.append(n)
        return divisors(n)

    monkeypatch.setattr(families, "_divisors", counted)
    search_c4(3, i_max=9, alpha_max=2)
    assert seen == [3 ** m + 1 for m in range(11, 0, -1)]


def test_factoring_budget_refuses_before_sympy(monkeypatch):
    import sympy

    # the CLI default C4 search factors up to 3^102 + 1, the budget exactly
    assert (3 ** 102 + 1).bit_length() == families.FACTOR_BITS_BOUND

    def never(n):
        raise AssertionError(f"sympy was handed {n}")

    monkeypatch.setattr(sympy, "divisors", never)
    with pytest.raises(ResourceError, match="287-bit target"):
        search_c4(7, 100, 2)  # 7^102 + 1, refused before 7^1 + 1 is factored
    with pytest.raises(ResourceError, match="above the factoring budget of 162 bits"):
        search_c3(7, 59)


def test_search_c6_c7():
    sols = {(s["alpha"], s["beta"], s["delta"]): s for s in search_c6_c7(3, 2, 8)}
    assert sols[(1, 0, 4)]["ell"] == 51
    assert sols[(1, 0, 0)]["ell"] == 3 and sols[(1, 0, 0)]["type"] == (12, 3)
    sols5 = {(s["alpha"], s["beta"], s["delta"]): s for s in search_c6_c7(5, 1, 3)}
    assert sols5[(0, 0, 1)]["ell"] == 9
    assert sols5[(0, 0, 3)]["ell"] == 129
    for s in search_c6_c7(5, 2, 9):
        assert s["delta"] % 2 == 1  # delta odd when r = 5 mod 6
        assert s["gamma"] == s["delta"] + s["alpha"] - s["beta"]


@pytest.mark.parametrize("row", sorted(CONGRUENCE_ROWS))
def test_congruence_rows(row):
    res = verify_congruence_row(row, 100)
    assert res["window"][1] >= 100
    assert res["pass"], (res["hits"][:8], res["predicted"][:8])


def test_congruence_row_b3_exact():
    res = verify_congruence_row("B3", 100)
    assert res["residues"] == (1, 7) and res["modulus"] == 9
    assert all(d % 9 in (1, 7) for d in res["hits"])


def test_scan_pgl_cases():
    hits = scan_pgl_cases(121)
    assert hits == [(5, (4, 5), 3, 1), (5, (4, 6), 5, 1), (7, (3, 8), 7, 1)]
    assert scan_pgl_cases(1000) == hits  # stable under a larger bound
    with pytest.raises(ParameterError):
        scan_pgl_cases(4)


def test_scan_excludes_q13_and_q9():
    hits = scan_pgl_cases(121)
    assert not any(q in (9, 13) for q, _mn, _r, _d in hits)


def test_corollary_table_propagates_bugs(monkeypatch):
    def fail(exc):
        def find_triples(*args, **kwargs):
            raise exc
        return find_triples

    # a library error is a failed row; anything else is a bug and propagates
    monkeypatch.setattr(families, "COROLLARY_ROWS", families.COROLLARY_ROWS[:1])
    monkeypatch.setattr(families, "find_triples", fail(ContractError("no triple")))
    [row] = verify_corollary_table()
    assert not row["ok"] and row["detail"] == "ContractError: no triple"
    monkeypatch.setattr(families, "find_triples", fail(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        verify_corollary_table()
