"""Exact integer arithmetic: prime parts, prime-power tests, integer
matrices, Smith normal form and mod-p rank.

Every answer is exact: values that do not fit int64 are Python's
arbitrary-precision integers.

Matrices are stored sparse in compressed rows: a row pointer, a column
array and a value array, int64 where every value fits and Python ints
otherwise.  One sparse eliminator (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", J.
Symbolic Comput. 32 (2001)) pivots on unit entries.  It starts with bulk
rounds on those arrays, each killing the columns of single-entry unit rows
and substituting the unit columns of two-entry rows that cannot chain,
while the products fit int64.  On dict rows for what is left, two-term
rows go first as substitutions of one column by another, then the rest in
Markowitz order.  The Smith normal form runs it over Z on the +-1
entries, then a dense minimal-pivot pass finishes the rows that are left;
kernel relation matrices have a few nonzeros per row and almost all of
them go in the sparse phase.  The mod-p rank runs it over F_p, where
every nonzero entry is a unit, so it needs no dense pass.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
import operator
from math import gcd

import numpy as np

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


# The largest int64.  A matrix keeps its values as int64 when every one
# fits, and a bulk elimination round (``_bulk_rounds``) runs only while
# every product it forms and every sum of them stays within it.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _compact(values) -> np.ndarray:
    """The integers ``values`` (a list or an array) as an int64 array if
    every one fits, else as an object array of Python ints."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class IntMatrix:
    """Sparse integer matrix with arbitrary-precision entries.

    One storage, compressed rows: row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, and the nonzero
    ``values`` at the same places.  ``values`` is int64 when every entry
    fits and an object array of exact Python ints otherwise.  The arrays
    must not be mutated.  Entries must be integers (anything
    ``operator.index`` accepts, such as numpy integers); floats and strings
    raise ``ParameterError``.  ``sparse`` (one ``{col: value}`` dict per
    row), ``row``, ``to_rows`` and the dense row-major ``entries`` are
    views built on each access.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "values")

    def __init__(self, rows: int, cols: int, entries):
        entries = _ints(entries)
        if rows < 0 or cols < 0 or rows * cols != len(entries):
            raise ParameterError(
                f"IntMatrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
            )
        self._store(rows, cols, np.arange(len(entries)), _compact(entries))

    def _store(self, rows, cols, flat, values):
        """Keep the nonzero ``values`` at the in-range positions ``flat`` =
        row * cols + col, given in any order and without repeats."""
        nonzero = values != 0
        flat, values = flat[nonzero], values[nonzero]
        if np.any(flat[1:] <= flat[:-1]):
            order = np.argsort(flat, kind="stable")
            flat, values = flat[order], values[order]
            if np.any(flat[1:] == flat[:-1]):
                raise ParameterError("IntMatrix triples repeat a position")
        self.rows = rows
        self.cols = cols
        self.indptr = np.searchsorted(flat, np.arange(rows + 1, dtype=np.int64) * cols)
        self.indices = flat % max(cols, 1)
        self.values = _compact(values)

    @classmethod
    def from_triples(cls, rows: int, cols: int, row_ids, col_ids, values) -> "IntMatrix":
        """Matrix with entry ``values[t]`` at (``row_ids[t]``, ``col_ids[t]``),
        from integer arrays (``values`` may be an object array of Python
        ints); zero values are dropped, a repeated position raises
        ``ParameterError``."""
        row_ids, col_ids, values = map(np.asarray, (row_ids, col_ids, values))
        if values.dtype in (object, np.uint64):  # ints that int64 may not hold
            values = np.array(_ints(values.tolist()), dtype=object)
        for name, a in (("row", row_ids), ("column", col_ids), ("value", values)):
            if a.dtype != object and not np.issubdtype(a.dtype, np.integer):
                raise ParameterError(f"IntMatrix {name} array must hold integers, not {a.dtype}")
        if rows < 0 or cols < 0 or row_ids.ndim != 1 or not (
            row_ids.shape == col_ids.shape == values.shape
        ):
            raise ParameterError("IntMatrix triples need three 1-D arrays of one length")
        if row_ids.size and not (0 <= row_ids.min() <= row_ids.max() < rows
                                 and 0 <= col_ids.min() <= col_ids.max() < cols):
            raise ParameterError(f"IntMatrix positions exceed range({rows}) x range({cols})")
        m = cls.__new__(cls)
        m._store(rows, cols, row_ids.astype(np.int64) * cols + col_ids, values)
        return m

    @classmethod
    def from_sparse(cls, cols: int, sparse_rows) -> "IntMatrix":
        """Matrix with ``cols`` columns and one row per ``{col: value}``
        mapping; zero values are dropped and every column must lie in
        range(cols)."""
        sparse_rows = list(sparse_rows)
        keys = _ints(j for row in sparse_rows for j in row)
        values = _ints(x for row in sparse_rows for x in row.values())
        if cols < 0:
            raise ParameterError(f"IntMatrix needs cols >= 0, got {cols}")
        if keys and not 0 <= min(keys) <= max(keys) < cols:
            raise ParameterError(f"IntMatrix columns {min(keys)}..{max(keys)} exceed range({cols})")
        row_ids = np.repeat(np.arange(len(sparse_rows)), [len(row) for row in sparse_rows])
        m = cls.__new__(cls)
        m._store(len(sparse_rows), cols, row_ids * cols + np.array(keys, dtype=np.int64),
                 _compact(values))
        return m

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != ncols for r in rows_list):
            raise ParameterError("ragged rows")
        return cls(nrows, ncols, [x for r in rows_list for x in r])

    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry, ascending."""
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))

    @property
    def sparse(self) -> tuple:
        ptr, cols, values = self.indptr.tolist(), self.indices.tolist(), self.values.tolist()
        return tuple(dict(zip(cols[a:b], values[a:b])) for a, b in zip(ptr, ptr[1:]))

    @property
    def entries(self) -> tuple:
        dense = np.zeros(self.rows * self.cols, dtype=self.values.dtype)
        dense[self._row_ids() * self.cols + self.indices] = self.values
        return tuple(dense.tolist())

    def row(self, i: int):
        i = range(self.rows)[i]
        a, b = int(self.indptr[i]), int(self.indptr[i + 1])
        out = [0] * self.cols
        for j, x in zip(self.indices[a:b].tolist(), self.values[a:b].tolist()):
            out[j] = x
        return out

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
    units, rows = _eliminate_unit_pivots(m)
    cols_left = sorted({j for row in rows.values() for j in row})
    A = [[row.get(c, 0) for c in cols_left] for _i, row in sorted(rows.items())]
    factors = [1] * units + _dense_snf(A, len(cols_left))
    return SnfResult(tuple(factors), m.cols - len(factors))


def _bulk_rounds(nrows, ncols, i, j, x, p=None):
    """Unit pivots of the short rows, taken in rounds of array operations.

    The entries are given as arrays in (row i, column j) order, nonzero,
    with int64 values x (reduced mod p over F_p).  A round takes

    - for each column j, the first row whose only entry is a unit at j
      (x_j = 0);
    - each two-entry row with a unit x at column j, beside y at column k,
      where j lies in no other row of at most two entries (x_j =
      -(y / x) x_k; the first such unit of the row).  No other pivot row
      holds j, and k is no such pivot, so these pivots do not chain; a k
      killed in the round kills j as well;

    drops the pivot rows and rewrites every other entry through the
    column map in one gather, summing the entries that meet at one
    (row, column) and dropping the zeros.  These are the unimodular row
    operations of taking the pivots one after another.  Rounds go on until
    one takes no pivot, or until a product or a row's sum of them could
    leave int64.  Over Z a round runs only while (largest |x|)^2 * (longest
    row) <= ``_INT64_MAX``, so below 2^31 for two-entry rows; over F_p the
    products are reduced before they are summed, and rounds run only for
    (p - 1) * max(p - 1, longest row) <= ``_INT64_MAX``, so for p < 2^31.
    Returns (pivots, i, j, x) of the entries left.
    """
    units = 0
    while x.size:
        starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
        lengths = np.diff(np.r_[starts, x.size])
        longest = int(lengths.max())
        largest = p - 1 if p else int(np.abs(x).max())
        if largest * (max(largest, longest) if p else largest * longest) > _INT64_MAX:
            break
        unit = np.ones(x.size, dtype=bool) if p else np.abs(x) == 1
        length = np.repeat(lengths, lengths)
        in_short = np.bincount(j[length <= 2], minlength=ncols)
        single = np.flatnonzero((length == 1) & unit)
        killed, first = np.unique(j[single], return_index=True)
        a = starts[lengths == 2]
        a_ok = unit[a] & (in_short[j[a]] == 1)
        b_ok = unit[a + 1] & (in_short[j[a + 1]] == 1) & ~a_ok
        pivot = np.where(a_ok, a, a + 1)[a_ok | b_ok]
        other = np.where(a_ok, a + 1, a)[a_ok | b_ok]
        if not killed.size and not pivot.size:
            break
        target = np.arange(ncols)
        factor = np.ones(ncols, dtype=np.int64)
        alive = np.ones(ncols, dtype=bool)
        alive[killed] = False
        cj, ck = j[pivot], j[other]
        target[cj] = ck
        if p:
            residues, at = np.unique(x[pivot], return_inverse=True)
            inverses = np.array([pow(r, -1, p) for r in residues.tolist()], dtype=np.int64)
            factor[cj] = (p - x[other]) * inverses[at] % p
        else:
            factor[cj] = -x[other] * x[pivot]
        alive[cj] = alive[ck]
        gone = np.zeros(nrows, dtype=bool)
        gone[i[single[first]]] = True
        gone[i[pivot]] = True
        keep = alive[j] & ~gone[i]
        i, j, x = i[keep], j[keep], x[keep]
        j, x = target[j], x * factor[j]
        if p:
            x %= p
        key = i * ncols + j
        order = np.argsort(key, kind="stable")
        key, i, j, x = key[order], i[order], j[order], x[order]
        at = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        if at.size < key.size:
            i, j, x = i[at], j[at], np.add.reduceat(x, at)
        if p:
            x %= p
        nonzero = x != 0
        i, j, x = i[nonzero], j[nonzero], x[nonzero]
        units += killed.size + pivot.size
    return units, i, j, x


def _eliminate_unit_pivots(m: IntMatrix, p=None):
    """Pivot on unit entries of m until none is left; return (pivots,
    rows), ``rows`` the nonzero rows left as {row: {col: value}}, over the
    columns that were not pivots.

    Over Z (``p`` None) the units are the +-1 entries and the arithmetic is
    exact.  Over F_p the entries are reduced mod p, every nonzero residue
    is a unit, and the count is the rank.

    The bulk rounds of ``_bulk_rounds`` go first, on the stored arrays,
    when the values are int64; then the dict rows are built for the rows
    that are left (for every row on the exact path of larger values).
    On them, the rows of at most two entries, in row order, are resolved
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
    i, j, x = m._row_ids(), m.indices, m.values
    if p:
        x = _compact(x.astype(object) % p if p > _INT64_MAX else x % p)
        nonzero = x != 0
        i, j, x = i[nonzero], j[nonzero], x[nonzero]
    units = 0
    if x.dtype != object:
        units, i, j, x = _bulk_rounds(m.rows, m.cols, i, j, x, p)
    rows = {}
    for r, c, v in zip(i.tolist(), j.tolist(), x.tolist()):
        rows.setdefault(r, {})[c] = v
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
    return units, rows


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
    return _eliminate_unit_pivots(m, p)[0]


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
