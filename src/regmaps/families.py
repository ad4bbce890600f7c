"""Symbolic verification of the 18 family rows and the small-d table.

Each family row carries a closed-form -chi expression in its parameters;
row_chi evaluates it exactly and cross-checks it against the Euler formula
with the implied group order.  The Diophantine searches enumerate the
parameter families (dihedral-quotient shapes, factorizations of r^i + 1,
the (4 + r^delta)/(2 r^alpha - 1) shapes), the congruence rows reproduce
the residue classes governing when the stretched types have prime-power
characteristic, and the corollary verifier rebuilds the complete d <= 4
table, constructing every group that is within desk reach and checking
the rest by exact numerology.  Extension rows only consume the candidates
that ``constructors`` yields, one per conjugacy class of actions.

sympy is imported only inside ``_divisors``, the one helper that the C3 and
C4 searches call, so importing this module loads numpy but not sympy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable, NamedTuple

from .algebra import as_prime_power, is_prime, p_part
from .errors import ContractError, ParameterError, ResourceError
from .mapcore import classify_maps_for_group, euler_characteristic
from .constructors import (
    build_heisenberg,
    build_module_extension,
    build_split_extension,
    build_wreath_c3,
    make_dihedral,
    make_field,
    make_pgl2,
    search_module_actions,
    split_action_classes,
)
from .permgrp import PermGroup

__all__ = [
    "FamilyRow",
    "row_chi",
    "minimal_rows",
    "search_c1_c2",
    "search_c3",
    "search_c4",
    "search_c6_c7",
    "verify_congruence_row",
    "CONGRUENCE_ROWS",
    "scan_pgl_cases",
    "verify_corollary_table",
    "COROLLARY_ROWS",
]


# ---------------------------------------------------------------------------
# family rows


@dataclass(frozen=True)
class FamilyRow:
    """One row of the A/B/C family tables, instantiated with parameters.

    ``params`` maps symbol names to integers; which symbols are read
    depends on the row id.  |O| and |N| are spelled "O" and "N".
    """

    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in _ROW_EVALUATORS:
            raise ParameterError(f"unknown family row {self.id!r}")
        _ROW_EVALUATORS[self.id].validate(self.params)


class _Row(NamedTuple):
    """Closed forms of one family row, each a function of the parameters;
    ``validate`` raises ParameterError on parameters outside the row."""

    type_pair: Callable
    order: Callable
    neg_chi: Callable
    validate: Callable


def _need(p, *names):
    for nm in names:
        if nm not in p:
            raise ParameterError(f"missing parameter {nm!r}")


def _check_b_row(p, psl_order):
    _need(p, "N", "ell")
    ell = p["ell"]
    if ell < 1 or ell % 2 == 0:
        raise ParameterError("ell must be odd and positive")
    if gcd(ell, psl_order * 2) != 1:
        raise ParameterError("ell must be coprime to |PGL2(q)|")


_ROW_EVALUATORS = {
    # A rows: G/O = PSL2(q), orders 60 and 1092
    "A1": _Row(lambda p: (5, 5), lambda p: 60 * p["O"], lambda p: 3 * p["O"],
               lambda p: _need(p, "O")),
    "A2": _Row(lambda p: (3, 15), lambda p: 60 * p["O"], lambda p: 3 * p["O"],
               lambda p: _need(p, "O")),
    "A3": _Row(lambda p: (3, 13), lambda p: 1092 * p["O"], lambda p: 49 * p["O"],
               lambda p: _need(p, "O")),
    "A4": _Row(lambda p: (3, 7), lambda p: 1092 * p["O"], lambda p: 13 * p["O"],
               lambda p: _need(p, "O")),
    # B rows: G/O = PGL2(q)
    "B1": _Row(lambda p: (4, 6), lambda p: 120 * p["O"], lambda p: 5 * p["O"],
               lambda p: _need(p, "O")),
    "B2": _Row(lambda p: (20, 30), lambda p: 120 * p["O"], lambda p: 25 * p["O"],
               lambda p: _need(p, "O")),
    "B3": _Row(
        lambda p: (3 * p["ell"] * 7 ** p["s"], 8 * 7 ** p["s"]),
        lambda p: p["N"] * p["ell"] * 336,
        lambda p: 7 * (p["N"] // 7 ** p["s"]) * (12 * 7 ** p["s"] * p["ell"] - 3 * p["ell"] - 8),
        lambda p: (_check_b_row(p, 168), _need(p, "s"),
                   None if p["N"] % 7 ** p["s"] == 0 else _fail("7^s must divide |N|")),
    ),
    "B4": _Row(
        lambda p: (5 * p["ell"] * 3 ** p["s"], 8 * 3 ** p["s"]),
        lambda p: p["N"] * p["ell"] * 720,
        lambda p: 9 * (p["N"] // 3 ** p["s"]) * (20 * 3 ** p["s"] * p["ell"] - 5 * p["ell"] - 8),
        lambda p: (_check_b_row(p, 360), _need(p, "s"),
                   None if p["N"] % 3 ** p["s"] == 0 else _fail("3^s must divide |N|")),
    ),
    "B5": _Row(
        lambda p: (p["ell"] * p["p"] * p["r"] ** p["s"], (p["p"] + 1) * p["r"] ** p["s"]),
        lambda p: p["N"] * p["ell"] * p["p"] * (p["p"] ** 2 - 1),
        lambda p: ((p["p"] - 1) * p["N"] // (2 * p["r"] ** p["s"]))
        * (p["r"] ** p["s"] * p["ell"] * p["p"] * (p["p"] + 1) // 2 - p["ell"] * p["p"] - p["p"] - 1),
        lambda p: _validate_b5(p),
    ),
    "B6": _Row(
        lambda p: (p["ell"] * p["p"], p["p"] - 1),
        lambda p: p["ell"] * p["p"] * (p["p"] ** 2 - 1),
        lambda p: ((p["p"] + 1) // 2)
        * (p["ell"] * p["p"] * (p["p"] - 1) // 2 - p["ell"] * p["p"] - p["p"] + 1),
        lambda p: _validate_b67(p, minus=False),
    ),
    "B7": _Row(
        lambda p: (p["ell"] * p["p"] * p["r"] ** p["s"], (p["p"] - 1) * p["r"] ** p["s"]),
        lambda p: p["N"] * p["ell"] * p["p"] * (p["p"] ** 2 - 1),
        lambda p: ((p["p"] + 1) * p["N"] // (2 * p["r"] ** p["s"]))
        * (p["r"] ** p["s"] * p["ell"] * p["p"] * (p["p"] - 1) // 2 - p["ell"] * p["p"] - p["p"] + 1),
        lambda p: _validate_b67(p, minus=True),
    ),
    # C rows: soluble
    "C1": _Row(
        lambda p: (6, 3 + 3 ** p["i"]),
        lambda p: 2 * (3 + 3 ** p["i"]) * p["N"],
        lambda p: 3 ** p["i"] * p["N"] // 3,
        lambda p: _validate_c12(p, shape=1),
    ),
    "C2": _Row(
        lambda p: (6, 3 * (1 + 3 ** p["i"])),
        lambda p: 2 * (1 + 3 ** p["i"]) * p["N"],
        lambda p: 3 ** p["i"] * p["N"] // 3,
        lambda p: _validate_c12(p, shape=2),
    ),
    "C3": _Row(
        lambda p: (2 * p["j"], 2 * p["k"]),
        lambda p: 4 * p["j"] * p["k"] * p["N"],
        lambda p: p["N"] * (p["j"] * p["k"] - p["j"] - p["k"]),
        lambda p: _validate_c34(p, with_powers=False),
    ),
    "C4": _Row(
        lambda p: (2 * p["j"] * p["r"] ** p["alpha"], 2 * p["k"] * p["r"] ** p["beta"]),
        lambda p: 4 * p["j"] * p["k"] * p["N"],
        lambda p: (p["N"] // p["r"] ** p["alpha"])
        * (p["j"] * p["k"] * p["r"] ** p["alpha"] - p["j"] * p["r"] ** (p["alpha"] - p["beta"]) - p["k"]),
        lambda p: _validate_c34(p, with_powers=True),
    ),
    "C5": _Row(
        lambda p: (4, p["ell"]),
        lambda p: 8 * p["ell"] * p["N"],
        lambda p: p["N"] * (p["ell"] - 4),
        lambda p: _validate_c567(p, powers=False),
    ),
    "C6": _Row(
        lambda p: (4 * 3 ** p["alpha"], p["ell"] * 3 ** p["beta"]),
        lambda p: 8 * p["ell"] * p["N"],
        lambda p: (p["N"] // 3 ** p["alpha"])
        * (2 * p["ell"] * 3 ** p["alpha"] - 4 * 3 ** (p["alpha"] - p["beta"]) - p["ell"]),
        lambda p: _validate_c567(p, powers=True, r=3),
    ),
    "C7": _Row(
        lambda p: (4 * p["r"] ** p["alpha"], p["ell"] * p["r"] ** p["beta"]),
        lambda p: 8 * p["ell"] * p["N"],
        lambda p: (p["N"] // p["r"] ** p["alpha"])
        * (2 * p["ell"] * p["r"] ** p["alpha"] - 4 * p["r"] ** (p["alpha"] - p["beta"]) - p["ell"]),
        lambda p: _validate_c567(p, powers=True),
    ),
}


def _fail(msg):
    raise ParameterError(msg)


def _validate_b5(p):
    _need(p, "p", "r", "s", "N", "ell")
    if p["s"] < 1:
        raise ParameterError("B5 needs s >= 1")
    if p["p"] < 7:
        raise ParameterError("B5 needs p >= 7")
    half = (p["p"] - 1) // 2
    if 2 * half != p["p"] - 1 or p_part(half, p["r"]) != half:
        raise ParameterError("B5 needs (p-1)/2 a power of r")
    if p["N"] % p["r"] ** p["s"]:
        raise ParameterError("r^s must divide |N|")
    _check_b_row(p, p["p"] * (p["p"] ** 2 - 1) // 2)


def _validate_b67(p, minus):
    _need(p, "p", "r", "ell")
    half = (p["p"] + 1) // 2
    if 2 * half != p["p"] + 1 or p_part(half, p["r"]) != half:
        raise ParameterError("B6/B7 need (p+1)/2 a power of r")
    if minus:
        _need(p, "s", "N")
        if p["s"] < 1 or p["N"] % p["r"] ** p["s"]:
            raise ParameterError("B7 needs s >= 1 and r^s | |N|")
    else:
        if p.get("N", 1) != 1:
            raise ParameterError("B6 has |N| = 1")
    _check_b_row(p, p["p"] * (p["p"] ** 2 - 1) // 2)


def _validate_c12(p, shape):
    _need(p, "i", "N")
    if p["i"] < 0:
        raise ParameterError("need i >= 0")
    n = p["N"]
    if n < 1 or p_part(max(n, 1), 3) != n:
        raise ParameterError("|N| must be a power of 3")
    if shape == 2 and n < 9:
        raise ParameterError("C2 needs |N| >= 9")
    if shape == 1 and p["i"] == 0 and n < 9:
        raise ParameterError("C1 with i = 0 needs |N| >= 9")
    if p["i"] == 0 and n % 3:
        raise ParameterError("need 3 | |N| when i = 0")


def _validate_c34(p, with_powers):
    _need(p, "j", "k", "N", "r")
    j, k, r = p["j"], p["k"], p["r"]
    if j % 2 == 0 or k % 2 == 0 or gcd(j, k) != 1:
        raise ParameterError("j and k must be odd and coprime")
    if not is_prime(r) or r % 4 != 3:
        raise ParameterError("need a prime r = 3 mod 4")
    if with_powers:
        _need(p, "alpha", "beta")
        if not (p["alpha"] >= 1 and p["alpha"] >= p["beta"] >= 0):
            raise ParameterError("need alpha >= 1 and alpha >= beta >= 0")
        if p["N"] % r ** (p["alpha"] + 1):
            raise ParameterError("need |N| >= r^(alpha+1) (divisibility)")


def _validate_c567(p, powers, r=None):
    _need(p, "ell", "N")
    if p["ell"] % 6 != 3:
        raise ParameterError("ell must be 3 mod 6")
    rr = r if r is not None else p.get("r")
    if rr is None:
        raise ParameterError("missing parameter 'r'")
    if r is None:
        if not is_prime(rr) or rr % 6 != 5:
            raise ParameterError("need a prime r = 5 mod 6")
    if powers:
        _need(p, "alpha", "beta")
        if not (p["alpha"] >= 1 and p["alpha"] >= p["beta"] >= 0):
            raise ParameterError("need alpha >= 1 and alpha >= beta >= 0")
        if p["N"] % rr ** (p["alpha"] + 1):
            raise ParameterError("need r^(alpha+1) | |N|")


def row_chi(row: FamilyRow) -> int:
    """-chi from the row formula, cross-checked against the Euler formula
    with the implied order and type."""
    ev = _ROW_EVALUATORS[row.id]
    neg = ev.neg_chi(row.params)
    m, n = ev.type_pair(row.params)
    order = ev.order(row.params)
    from_euler = -euler_characteristic(order, m, n)
    if neg != from_euler:
        raise ContractError(
            f"row {row.id}: formula gives {neg}, Euler formula gives {from_euler}"
        )
    return neg


def minimal_rows():
    """One instance per family row, at the smallest workable parameters."""
    return [
        FamilyRow("A1", {"O": 1}),
        FamilyRow("A2", {"O": 3 ** 6}),
        FamilyRow("A3", {"O": 1}),
        FamilyRow("A4", {"O": 1}),
        FamilyRow("B1", {"O": 1}),
        FamilyRow("B2", {"O": 5 ** 3}),
        FamilyRow("B3", {"N": 1, "s": 0, "ell": 1}),
        FamilyRow("B4", {"N": 3 ** 6, "s": 1, "ell": 3221}),
        FamilyRow("B5", {"p": 7, "r": 3, "s": 1, "N": 3 ** 85, "ell": (3 ** 21 + 8) // 77}),
        FamilyRow("B6", {"p": 5, "r": 3, "ell": 1, "N": 1}),
        FamilyRow("B7", {"p": 5, "r": 3, "s": 1, "N": 3 ** 31, "ell": (3 ** 16 + 4) // 25}),
        FamilyRow("C1", {"i": 1, "N": 3}),
        FamilyRow("C2", {"i": 1, "N": 27}),
        FamilyRow("C3", {"j": 3, "k": 5, "N": 1, "r": 7}),
        FamilyRow("C4", {"j": 5, "k": 1, "r": 3, "alpha": 1, "beta": 1, "N": 9}),
        FamilyRow("C5", {"ell": 9, "N": 1, "r": 5}),
        FamilyRow("C6", {"ell": 3, "alpha": 1, "beta": 0, "N": 27}),
        # the cover construction behind this row wants |N| = 5^(1+2 ell),
        # far beyond exact arithmetic at this ell; the least |N| the row
        # permits keeps the formula check honest
        FamilyRow("C7", {"ell": (5 ** 13 + 4) // 9, "r": 5, "alpha": 1, "beta": 1,
                         "N": 25}),
    ]


# ---------------------------------------------------------------------------
# Diophantine searches


FACTOR_BITS_BOUND = 162  # bit length of the largest target _divisors factors (3^102 + 1)


def _divisors(n: int):
    """All positive divisors of n, ascending.  A target of more than
    ``FACTOR_BITS_BOUND`` bits raises ``ResourceError`` before it is
    factored.  sympy is imported here, on the first call, and nowhere else
    in the package."""
    if n.bit_length() > FACTOR_BITS_BOUND:
        raise ResourceError(
            f"a {n.bit_length()}-bit target is above the factoring budget of {FACTOR_BITS_BOUND} bits"
        )
    import sympy

    return sympy.divisors(n)


def search_c1_c2(max_i: int):
    """The two dihedral-quotient shapes: C1 has ell = 3 + 3^i with type
    {6, ell}; C2 has ell = 1 + 3^i with type {6, 3 ell}.  -chi = 3^(i-1)|N|.
    """
    if max_i < 0:
        raise ParameterError("need max_i >= 0")
    out = []
    for i in range(max_i + 1):
        ell = 3 + 3 ** i
        out.append({
            "row": "C1", "i": i, "ell": ell, "type": (6, ell),
            "note": "|N| divisible by 9" if i == 0 else "",
        })
        ell = 1 + 3 ** i
        out.append({
            "row": "C2", "i": i, "ell": ell, "type": (6, 3 * ell),
            "note": "|N| divisible by 9",
        })
    return out


def search_c3(r: int, d: int):
    """All factorizations r^d + 1 = (j-1)(k-1) with j, k odd coprime,
    3 <= j <= k.  Factors r^d + 1 with sympy, loaded on the first call,
    within ``FACTOR_BITS_BOUND``."""
    if not is_prime(r) or r % 4 != 3:
        raise ParameterError("need a prime r = 3 mod 4")
    if d < 1:
        raise ParameterError("need d >= 1")
    if d % 2 == 0:
        raise ParameterError("need odd d")
    target = r ** d + 1
    out = []
    for u in _divisors(target):
        v = target // u
        if u > v:
            break
        j, k = u + 1, v + 1
        if j < 3 or j % 2 == 0 or k % 2 == 0:
            continue
        if gcd(j, k) != 1:
            continue
        out.append((j, k))
    return out


def search_c4(r: int, i_max: int, alpha_max: int = 3):
    """Solutions of (j r^alpha - 1)(k r^beta - 1) = r^(i+beta) + 1 with
    j, k odd, coprime, alpha >= max(beta, 1).

    Enumerates divisor pairs of r^(i+beta) + 1, factored with sympy loaded
    on the first call; each solution is annotated with the parity fact
    i + beta odd and the (divisibility form of the) bound |N| >= r^(alpha+1).
    Each r^m + 1 is factored once, the largest first, so a target above
    ``FACTOR_BITS_BOUND`` is refused before any is factored.
    """
    if not is_prime(r) or r % 4 != 3:
        raise ParameterError("need a prime r = 3 mod 4")
    if i_max < 0 or alpha_max < 0:
        raise ParameterError("need i_max >= 0 and alpha_max >= 0")
    divisors = {m: _divisors(r ** m + 1) for m in range(i_max + alpha_max, 0, -1)} if i_max else {}
    out = []
    for beta in range(0, alpha_max + 1):
        for i in range(1, i_max + 1):
            target = r ** (i + beta) + 1
            for u in divisors[i + beta]:
                v = target // u
                for alpha in range(max(beta, 1), alpha_max + 1):
                    ra = r ** alpha
                    if (u + 1) % ra:
                        continue
                    j = (u + 1) // ra
                    if j % 2 == 0 or j < 1:
                        continue
                    rb = r ** beta
                    if (v + 1) % rb:
                        continue
                    k = (v + 1) // rb
                    if k % 2 == 0 or k < 1:
                        continue
                    if gcd(j, k) != 1 or j * k == 1:
                        continue
                    out.append({
                        "r": r, "i": i, "alpha": alpha, "beta": beta, "j": j, "k": k,
                        "type": (2 * j * ra, 2 * k * rb),
                        "i_plus_beta_odd": (i + beta) % 2 == 1,
                        "min_N": r ** (alpha + 1),
                    })
    for sol in out:
        if not sol["i_plus_beta_odd"]:
            raise ContractError(f"solution with even i+beta: {sol}")
    return out


def search_c6_c7(r: int, alpha_max: int, delta_max: int):
    """Integral ell = r^(alpha-beta) (4 + r^delta)/(2 r^alpha - 1) with
    ell = 3 mod 6; returns dicts with gamma = delta + alpha - beta.
    Row C6 when r = 3, row C7 when r = 5 mod 6 (where delta must be odd).
    """
    if not is_prime(r) or r == 2:
        raise ParameterError("need an odd prime")
    if not (r == 3 or r % 6 == 5):
        raise ParameterError("need r = 3 or r = 5 mod 6")
    if alpha_max < 0 or delta_max < 0:
        raise ParameterError("need alpha_max >= 0 and delta_max >= 0")
    out = []
    for alpha in range(0, alpha_max + 1):
        den = 2 * r ** alpha - 1
        for beta in range(0, alpha + 1):
            for delta in range(0, delta_max + 1):
                num = r ** (alpha - beta) * (4 + r ** delta)
                if num % den:
                    continue
                ell = num // den
                if ell % 6 != 3:
                    continue
                sol = {
                    "row": "C6" if r == 3 else "C7",
                    "r": r, "alpha": alpha, "beta": beta, "delta": delta,
                    "ell": ell, "gamma": delta + alpha - beta,
                    "type": (4 * r ** alpha, ell * r ** beta),
                }
                if r % 6 == 5 and delta % 2 == 0:
                    raise ContractError(f"even delta slipped through for r = {r}: {sol}")
                out.append(sol)
    return out


# ---------------------------------------------------------------------------
# congruence rows

# Each stretched family needs ell = (base^j + add) / den to be a positive
# integer coprime to cop; the hit set of exponents is an exact union of
# residue classes.
_CONG = {
    # row: (base, add, den, cop, modulus, include)
    "B3": (7, 8, 9, 3, 9, (1, 7)),        # exponent is d (ell = (7^(d-1)+8)/9)
    "B4": (3, 8, 55, 5, 20, (11,)),
    "B5": (3, 8, 77, 7, 210, tuple(j for j in range(210) if j % 30 == 21 and j % 210 != 141)),
    # B6: integrality of (3^j+4)/5 forces j = 0 mod 4 (the printed class
    # "4 mod 5" does not even meet its own exclusion class 16 mod 20)
    "B6": (3, 4, 5, 30, 20, tuple(j for j in range(20) if j % 4 == 0 and j % 20 != 16)),
    "B7": (3, 4, 25, 5, 100, tuple(j for j in range(100) if j % 20 == 16 and j % 100 != 36)),
    "C7": (5, 4, 9, None, 18, (13,)),      # ell = 3 mod 6 instead of coprimality
}

CONGRUENCE_ROWS = tuple(_CONG)


def verify_congruence_row(row_id: str, window: int = 0):
    """Brute-force scan of the integrality + coprimality condition for a
    stretched row, compared against its closed-form residue classes.

    Returns (hits, predicted, modulus, pass).  The scan window is at least
    four moduli long regardless of the requested length.
    """
    if row_id not in _CONG:
        raise ParameterError(f"unknown congruence row {row_id!r}")
    base, add, den, cop, modulus, include = _CONG[row_id]
    width = max(window, 4 * modulus)
    exps = range(1, width + 1)

    def condition(j):
        val = base ** (j - 1 if row_id == "B3" else j) + add
        if val % den:
            return False
        ell = val // den
        if row_id == "C7":
            return ell % 6 == 3
        return gcd(ell, cop) == 1

    hits = [j for j in exps if condition(j)]
    predicted = [j for j in exps if j % modulus in include]
    return {
        "row": row_id,
        "window": (1, width),
        "hits": hits,
        "predicted": predicted,
        "modulus": modulus,
        "residues": tuple(sorted(include)),
        "pass": hits == predicted,
    }


# ---------------------------------------------------------------------------
# the PGL2 type scan (which PGL2(q) star-types have prime-power -chi)


def _odd_prime_powers(bound):
    out = []
    for q in range(5, bound + 1, 2):
        pe = as_prime_power(q)
        if pe and pe[0] % 2 == 1:
            out.append((q, pe[0], pe[1]))
    return out


def scan_pgl_cases(q_bound: int):
    """For every odd prime power 5 <= q <= q_bound, test the candidate
    star-types of PGL2(q) (the {(q+-1)/2, q-+1}, {q-1, q+1} and, for
    p >= 5, {p, p+-1} shapes) and keep those whose -chi with
    |G| = q(q^2-1) is a power of an odd prime r.  For q >= 5 both entries
    of every shape are at least 2 and 2 lcm(m, n) divides q(q^2-1), so
    ``euler_characteristic`` accepts each one.

    Returns sorted (q, (m, n), r, d) with m <= n.
    """
    if q_bound < 5:
        raise ParameterError("need q_bound >= 5")
    hits = set()
    for q, p, _e in _odd_prime_powers(q_bound):
        order = q * (q * q - 1)
        types = [
            ((q - 1) // 2, q + 1),
            ((q + 1) // 2, q - 1),
            (q - 1, q + 1),
        ]
        if p >= 5:
            types.append((p, p + 1))
            types.append((p, p - 1))
        for m, n in types:
            chi = euler_characteristic(order, m, n)
            if chi >= -1:
                continue
            pp = as_prime_power(-chi)
            if pp is None or pp[0] == 2:
                continue
            hits.add((q, (min(m, n), max(m, n)), pp[0], pp[1]))
    return sorted(hits)


# ---------------------------------------------------------------------------
# the d <= 4 split table


@dataclass(frozen=True)
class CorollaryRow:
    """One row of the d <= 4 table.  ``candidates`` returns the groups that
    may carry the row, built lazily; it is None for a row checked by
    numerology only."""

    family: str
    group_label: str
    mn: tuple
    neg_chi: int
    order: int
    census: str | None
    n_classes: int | None  # expected class count where the census names several maps
    candidates: Callable | None


def _pgl2(q: int, kind: str):
    return lambda: [make_pgl2(make_field(q, 1), kind)]


def _modext(d_n: int, p: int, k: int):
    def candidates():
        d = make_dihedral(d_n)
        return (build_module_extension(d, sp) for sp in search_module_actions(d, p, k))

    return candidates


def _split(build_kernel, d_n: int):
    def candidates():
        d = make_dihedral(d_n)
        reg, homs = split_action_classes(build_kernel(), d)
        return (build_split_extension(reg, d, hom) for hom in homs)

    return candidates


def _product_split_candidates():
    """(C3 x He3) : D4 candidates: D4 acts separately on the C3 factor
    (through a sign) and on He3 (through Aut(He3)).  Automorphisms of the
    factors conjugate an action into an isomorphic extension, so one action
    per class on each factor suffices."""
    d4 = make_dihedral(4)
    reg_c3, homs_c3 = split_action_classes(PermGroup(3, [(1, 2, 0)]), d4)
    reg_he3, homs_he3 = split_action_classes(build_heisenberg(), d4)
    nv = 3 + reg_he3.degree
    vgens = [tuple(list(g) + list(range(3, nv))) for g in reg_c3.generators]
    vgens += [tuple(list(range(3)) + [3 + g[i] for i in range(reg_he3.degree)])
              for g in reg_he3.generators]
    v = PermGroup(nv, vgens, order=81)
    for hc in homs_c3:
        for hh in homs_he3:
            auts = [
                tuple(list(a3) + [3 + ah[i] for i in range(reg_he3.degree)])
                for a3, ah in zip(hc, hh)
            ]
            yield build_split_extension(v, d4, auts)


COROLLARY_ROWS = (
    CorollaryRow("A1", "PSL(2,5)", (5, 5), 3, 60, "N5.3", 1, _pgl2(5, "psl")),
    CorollaryRow("A3", "PSL(2,13)", (3, 13), 49, 1092, "N51.1", 1, _pgl2(13, "psl")),
    CorollaryRow("A4", "PSL(2,13)", (3, 7), 13, 1092, "N15.1", 1, _pgl2(13, "psl")),
    CorollaryRow("A4", "E_13^3 . PSL(2,13)", (3, 7), 13 ** 4, 13 ** 3 * 1092, None, None, None),
    CorollaryRow("B6", "PGL(2,5)", (4, 5), 3, 120, "N5.1", 1, _pgl2(5, "pgl")),
    CorollaryRow("B1", "PGL(2,5)", (4, 6), 5, 120, "N7.1", 1, _pgl2(5, "pgl")),
    CorollaryRow("B3", "PGL(2,7)", (3, 8), 7, 336, "N9.1,2", 2, _pgl2(7, "pgl")),
    CorollaryRow("B1", "E_5^3 . PGL(2,5)", (4, 6), 5 ** 4, 5 ** 3 * 120, None, None, None),
    CorollaryRow("B3", "E_7^3 . PGL(2,7)", (3, 8), 7 ** 4, 7 ** 3 * 336, None, None, None),
    CorollaryRow("C1", "E_3^2 : D4", (4, 6), 3, 72, "N5.2", 1, _modext(4, 3, 2)),
    CorollaryRow("C1,2,4", "E_3^2 : D2", (6, 6), 3, 36, "N5.4", 1, _modext(2, 3, 2)),
    CorollaryRow("C1", "He3 : D4", (4, 6), 9, 216, "N11.1", 1, _split(build_heisenberg, 4)),
    CorollaryRow("C1,2,4", "He3 : D2", (6, 6), 9, 108, "N11.2", 1, _split(build_heisenberg, 2)),
    CorollaryRow("C6", "E_3^3 . (D2 : D3)", (3, 12), 27, 648, "N29.1", None, None),
    CorollaryRow("C1,2,4", "(C3 wr C3) : D2", (6, 6), 27, 324, "N29.2", 1, _split(build_wreath_c3, 2)),
    CorollaryRow("C1,2", "E_3^3 : D4", (6, 12), 27, 216, "N29.3", 1, _modext(4, 3, 3)),
    CorollaryRow("C2", "He3 : D4", (6, 12), 27, 216, "N29.4,5", 2, _split(build_heisenberg, 4)),
    CorollaryRow("C1,2,4", "E_3^2 : D10", (6, 30), 27, 180, "N29.6", 1, _modext(10, 3, 2)),
    CorollaryRow("C1", "(E_3^2 . He3) : D4", (4, 6), 81, 1944, "N83.1", None, None),
    CorollaryRow("C1,2,4", "(E_3^2 . He3) : D2", (6, 6), 81, 972, "N83.2", None, None),
    CorollaryRow("C1,2", "(C3 x He3) : D4", (6, 12), 81, 648, "N83.3", 1, _product_split_candidates),
    CorollaryRow("C1,2,4", "He3 : D10", (6, 30), 81, 540, "N83.4", 1, _split(build_heisenberg, 10)),
)


def _numerology_ok(row: CorollaryRow) -> bool:
    return -euler_characteristic(row.order, *row.mn) == row.neg_chi


def verify_corollary_table():
    """Verify all 22 rows of the d <= 4 table.

    A row with ``candidates`` is constructed: the groups it yields (a
    PSL/PGL group, or module and split extensions over E_3^k, He3, C3 wr C3
    and C3 x He3) are tried in turn, and the first whose order, type, chi
    and -- where the census names several maps -- Aut-class count match
    carries the row.  An extension row yields one candidate per conjugacy
    class of actions (``search_module_actions``, ``split_action_classes``),
    built lazily.
    A library error fails the row; any other exception propagates.  Rows
    without candidates are checked by exact numerology and marked so.
    """
    results = []
    for row in COROLLARY_ROWS:
        entry = {
            "family": row.family,
            "group": row.group_label,
            "type": row.mn,
            "neg_chi": row.neg_chi,
            "order": row.order,
            "census": row.census,
        }
        if not _numerology_ok(row):
            entry.update(evidence="numerology", ok=False, detail="Euler identity failed")
            results.append(entry)
            continue
        if row.candidates is None:
            entry.update(evidence="numerology", ok=True)
            results.append(entry)
            continue
        m, n = row.mn
        ok = False
        detail = ""
        try:
            for g in row.candidates():
                if g.order() != row.order:
                    continue
                # a candidate without elements of orders m and n has no
                # (2,m,n)* triple; this skips its involution-triple search
                profile = g.element_orders()
                if m not in profile or n not in profile:
                    continue
                # the order and the numerology already fix chi; an empty
                # census means the candidate has no triple of the type
                classes = classify_maps_for_group(g, types={(m, n)})
                if not classes:
                    continue
                got = classes[0].duality_classes_of_type
                if row.n_classes is not None and got != row.n_classes:
                    detail = f"{got} classes, expected {row.n_classes}"
                    continue
                ok = True
                break
            if not ok and not detail:
                detail = "no candidate group carries the type"
        except (ContractError, ParameterError, ResourceError) as exc:  # fails the row
            detail = f"{type(exc).__name__}: {exc}"
        entry.update(evidence="constructed", ok=ok, detail=detail)
        results.append(entry)
    return results
