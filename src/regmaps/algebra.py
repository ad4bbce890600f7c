"""Exact integer arithmetic: prime parts, prime-power tests, integer
matrices, Smith normal form and mod-p rank.

Everything here works with Python's arbitrary-precision integers.

Matrices are stored sparse, one {col: value} dict per row.  One sparse
eliminator (Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", J. Symbolic Comput. 32 (2001))
pivots on unit entries, those of two-term rows first as substitutions of
one column by another, then the rest in Markowitz order.  The Smith
normal form runs it over Z on the +-1 entries, then a dense minimal-pivot
pass finishes the rows that are left; kernel relation matrices have a few
nonzeros per row and almost all of them go in the sparse phase.  The
mod-p rank runs it over F_p, where every nonzero entry is a unit, so it
needs no dense pass.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from itertools import islice
import operator
from math import gcd

from .errors import ParameterError, ResourceError

__all__ = [
    "is_prime",
    "p_part",
    "odd_prime_divisors",
    "as_prime_power",
    "PrimePower",
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "mod_p_rank",
    "det_bareiss",
]


# Miller-Rabin with these bases is exact below MR_BOUND, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86 (2017)).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin over the prime bases 2..41.

    A composite answer is proven at any size by its witness.  A prime answer
    is proven only below ``MR_BOUND``; above it, an n that no base witnesses
    raises ``ResourceError``.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise ResourceError(f"cannot certify {n} prime: Miller-Rabin is exact below {MR_BOUND}")
    return True


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing the positive integer n."""
    if n < 1:
        raise ParameterError(f"p_part needs n >= 1, got {n}")
    if not is_prime(p):
        raise ParameterError(f"p_part needs a prime, got p={p}")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


TRIAL_DIVISION_BOUND = 10 ** 6  # largest trial divisor for odd_prime_divisors


def odd_prime_divisors(n: int):
    """The odd primes dividing the positive integer n, ascending.

    Trial division stops as soon as the cofactor is 1 or prime; a composite
    cofactor with no factor up to ``TRIAL_DIVISION_BOUND`` raises
    ``ResourceError``.
    """
    if n < 1:
        raise ParameterError(f"odd_prime_divisors needs n >= 1, got {n}")
    out = []
    m = n
    while m % 2 == 0:
        m //= 2
    d = 3
    while m > 1 and not is_prime(m):
        while m % d:
            d += 2
            if d > TRIAL_DIVISION_BOUND:
                raise ResourceError(
                    f"{m} has no prime factor up to the trial-division bound {TRIAL_DIVISION_BOUND}"
                )
        out.append(d)
        while m % d == 0:
            m //= d
    if m > 1:
        out.append(m)
    return out


def _iroot(n: int, e: int) -> int:
    """Largest r with r**e <= n, for n >= 1 (integer Newton from above)."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def as_prime_power(n: int):
    """Return (p, e) with n = p**e if n >= 2 is a prime power, else None."""
    if n < 2:
        raise ParameterError(f"as_prime_power needs n >= 2, got {n}")
    for e in range(n.bit_length(), 0, -1):
        p = _iroot(n, e)
        if p >= 2 and p ** e == n and is_prime(p):
            return (p, e)
    return None


@dataclass(frozen=True)
class PrimePower:
    """An odd prime power q = p**e."""

    p: int
    e: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ParameterError(f"PrimePower needs an odd prime, got p={self.p}")
        if self.e < 1:
            raise ParameterError(f"PrimePower needs e >= 1, got e={self.e}")

    @property
    def q(self) -> int:
        return self.p ** self.e

    @classmethod
    def of(cls, q: int) -> "PrimePower":
        pe = as_prime_power(q)
        if pe is None:
            raise ParameterError(f"{q} is not a prime power")
        return cls(*pe)


def _ints(values):
    """The values as Python ints, or ``ParameterError``."""
    try:
        return list(map(operator.index, values))
    except TypeError as exc:
        raise ParameterError(f"IntMatrix entries must be integers: {exc}") from exc


class IntMatrix:
    """Sparse integer matrix with arbitrary-precision entries.

    ``sparse`` holds one ``{col: value}`` dict per row with the zeros left
    out; it is the only storage and must not be mutated.  Entries must be
    integers (anything ``operator.index`` accepts, such as numpy integers);
    floats and strings raise ``ParameterError``.  ``entries`` is a dense
    row-major view built on each access, for small matrices and tests.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, entries):
        entries = _ints(entries)
        if rows < 0 or cols < 0 or rows * cols != len(entries):
            raise ParameterError(
                f"IntMatrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.sparse = tuple(
            {j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)
        )

    @classmethod
    def from_sparse(cls, cols: int, sparse_rows) -> "IntMatrix":
        """Matrix with ``cols`` columns and one row per ``{col: value}``
        mapping; zero values are dropped and every column must lie in
        range(cols)."""
        m = cls(0, cols, ())
        sparse_rows = list(sparse_rows)
        keys = _ints(j for row in sparse_rows for j in row)
        values = _ints(x for row in sparse_rows for x in row.values())
        if keys and not 0 <= min(keys) <= max(keys) < cols:
            raise ParameterError(f"IntMatrix columns {min(keys)}..{max(keys)} exceed range({cols})")
        entries = iter(zip(keys, values))
        m.rows = len(sparse_rows)
        m.sparse = tuple(
            {j: x for j, x in islice(entries, len(row)) if x} for row in sparse_rows
        )
        return m

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != ncols for r in rows_list):
            raise ParameterError("ragged rows")
        return cls(nrows, ncols, [x for r in rows_list for x in r])

    @property
    def entries(self) -> tuple:
        dense = [0] * (self.rows * self.cols)
        for i, row in enumerate(self.sparse):
            for j, x in row.items():
                dense[i * self.cols + j] = x
        return tuple(dense)

    def row(self, i: int):
        return [self.sparse[i].get(j, 0) for j in range(self.cols)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and (self.rows, self.cols, self.sparse) == (other.rows, other.cols, other.sparse)
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    # text format used by the `snf` CLI subcommand:
    # first line "rows cols", then rows of space-separated decimal integers
    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParameterError("empty matrix file")
        try:
            nrows, ncols = map(int, lines[0].split())
        except ValueError as exc:
            raise ParameterError(f"bad header line {lines[0]!r}") from exc
        if len(lines) - 1 != nrows:
            raise ParameterError(f"expected {nrows} rows, found {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            try:
                row = [int(tok) for tok in ln.split()]
            except ValueError as exc:
                raise ParameterError(f"row {ln!r} has a non-integer entry") from exc
            if len(row) != ncols:
                raise ParameterError(f"row {ln!r} does not have {ncols} entries")
            rows.append(row)
        return cls.from_rows(rows) if rows else cls(0, ncols, [])


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors (including any 1s) and free rank of the cokernel
    Z^cols / rowspace."""

    invariant_factors: tuple
    free_rank: int

    def torsion(self):
        """The invariant factors > 1."""
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form of the cokernel Z^cols / (row lattice of m).

    Two phases, all arithmetic exact.  ``_eliminate_unit_pivots`` takes the
    +-1 pivots; each splits off a factor Z/1 of the cokernel.  Minimal-pivot
    elimination then runs on the rows left, over the columns that still hold
    a nonzero.  Returns the nonzero diagonal entries d1 | d2 | ... (the 1s
    first) and the free rank cols - (number of nonzero factors).
    """
    rows = dict(enumerate(m.sparse))
    units = _eliminate_unit_pivots(rows)
    cols_left = sorted({j for row in rows.values() for j in row})
    A = [[row.get(c, 0) for c in cols_left] for _i, row in sorted(rows.items())]
    factors = [1] * units + _dense_snf(A, len(cols_left))
    return SnfResult(tuple(factors), m.cols - len(factors))


def _eliminate_unit_pivots(rows, p=None) -> int:
    """Pivot on unit entries of the integer rows {row: {col: value}} until
    none is left; return how many.  ``rows`` is replaced in place by the
    nonzero rows left, over the columns that were not pivots.

    Over Z (``p`` None) the units are the +-1 entries and the arithmetic is
    exact.  Over F_p the entries are reduced mod p, every nonzero residue
    is a unit, and the count is the rank.

    First the rows of at most two entries, in row order, are resolved
    through the column map ``sub`` (x_j = c x_k, or x_j = 0 with k None);
    one that resolves to a unit x at column j beside y at column k is a
    pivot recorded as x_j = -(y / x) x_k, and the other rows are rewritten
    through the map: the same unimodular elimination as a heap pivot.

    Then each step takes the unit of least Markowitz cost (row nnz - 1) *
    (col nnz - 1), ties to the first row and then the first column, clears
    its column by row operations and drops its row and column.  The heap
    holds (cost, row, col) with a cost no larger than the entry's current
    one: after each pivot, the units of every row it changed and of every
    column that lost a nonzero are pushed at their current cost, and an
    entry popped with a stale, lower cost is pushed again.
    """
    sub = {}

    def rewrite(row):
        out = {}
        for j, c in row.items():
            while j in sub:
                j, d = sub[j]
                c *= d
            if j is not None:
                out[j] = out.get(j, 0) + c
        return {j: y for j, x in out.items() if (y := x % p if p else x)}

    units = 0
    for i in list(rows):
        if len(rows[i]) <= 2:
            row = rows[i] = rewrite(rows[i])
            j = next((j for j, x in row.items() if p or x in (1, -1)), None)
            if j is not None:
                x = row.pop(j)
                (k, y), = row.items() or ((None, 0),)
                sub[j] = (k, -y * pow(x, -1, p) % p) if p else (k, -y * x)
                del rows[i]
                units += 1
    col_rows = {}
    for i in list(rows):
        rows[i] = rewrite(rows[i])
        if not rows[i]:
            del rows[i]
        for j in rows.get(i, ()):
            col_rows.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    def units_of(row_ids, col_ids):
        cells = [(i, j) for i in row_ids if i in rows for j in rows[i]]
        cells += [(i, j) for j in col_ids if j in col_rows for i in col_rows[j]]
        return [(cost(i, j), i, j) for i, j in cells if p or rows[i][j] in (1, -1)]

    heap = units_of(rows, ())
    heapq.heapify(heap)
    while heap:
        old, r, c = heapq.heappop(heap)
        prow = rows.get(r)
        if prow is None or c not in prow or not (p or prow[c] in (1, -1)):
            continue
        now = cost(r, c)
        if now != old:
            if now > old:
                heapq.heappush(heap, (now, r, c))
            continue
        inverse = pow(prow[c], -1, p) if p else prow[c]
        changed_rows = col_rows[c] - {r}
        for i in changed_rows:
            row = rows[i]
            q = row[c] * inverse  # row_i -= q * row_r clears column c
            for j, x in prow.items():
                y = row.get(j, 0) - q * x
                if p:
                    y %= p
                if y:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if not row:
                del rows[i]
        del rows[r]
        for j in prow:
            col_rows[j].discard(r)
        del col_rows[c]
        units += 1
        # every column of the pivot row lost at least that row's entry
        for entry in units_of(changed_rows, prow):
            heapq.heappush(heap, entry)
    return units


def _dense_snf(A, ncols: int):
    """Nonzero Smith invariant factors of the dense row list A (modified in
    place): minimal-absolute-value pivoting to a diagonal, whose entries
    are then put in divisibility order."""
    nrows = len(A)
    factors = []
    t = 0
    while t < min(nrows, ncols):
        # find minimal-absolute-value nonzero pivot in A[t:, t:]
        piv = None
        best = None
        for i in range(t, nrows):
            row = A[i]
            for j in range(t, ncols):
                a = row[j]
                if a:
                    a = abs(a)
                    if best is None or a < best:
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            A[t], A[i] = A[i], A[t]
        if j != t:
            for row in A:
                row[t], row[j] = row[j], row[t]
        # clear row and column t; restart if a division leaves a remainder
        while True:
            pivot = A[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                a = A[i][t]
                if a:
                    q = a // pivot
                    if q:
                        rt = A[t]
                        ri = A[i]
                        for k in range(t, ncols):
                            ri[k] -= q * rt[k]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                a = A[t][j]
                if a:
                    q = a // pivot
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        factors.append(abs(A[t][t]))
        t += 1
    # diag(d_i, d_j) ~ diag(gcd, lcm): after the pass over j > i, d_i
    # divides every later entry (Newman, *Integral Matrices*, 1972, ch. II)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            d = gcd(factors[i], factors[j])
            factors[i], factors[j] = d, factors[i] // d * factors[j]
    return factors


def mod_p_rank(m: IntMatrix, p: int) -> int:
    """Rank of m over the field with p elements.

    The sparse eliminator of ``smith_normal_form`` reduces the rows mod p
    in exact arithmetic; over F_p every nonzero entry is a unit pivot, so
    the number of pivots is the rank.
    """
    if not is_prime(p):
        raise ParameterError(f"mod_p_rank needs a prime, got {p}")
    return _eliminate_unit_pivots(dict(enumerate(m.sparse)), p)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Used as an independent cross-check of SNF: for square nonsingular m the
    product of invariant factors equals |det|.
    """
    if m.rows != m.cols:
        raise ParameterError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    A = [row[:] for row in m.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]
