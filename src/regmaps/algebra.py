"""Exact integer arithmetic: prime parts, prime-power tests, integer
matrices, Smith normal form and mod-p rank.

Everything here works with Python's arbitrary-precision integers; numpy
is used only for the mod-p rank kernel, after reducing every entry mod p
in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ParameterError, ResourceError

__all__ = [
    "is_prime",
    "p_part",
    "odd_prime_divisors",
    "as_prime_power",
    "PrimePower",
    "epsilon",
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


def odd_prime_divisors(n: int):
    """The odd primes dividing the positive integer n, ascending."""
    out = []
    m = n
    while m % 2 == 0:
        m //= 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 2
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


def epsilon(q: PrimePower, r: int) -> int:
    """Minimal-dimension bound for a PSL2(q) section of a linear group in
    characteristic r: 2 when r = p, 3 when q = 9 and r != 3, else (q-1)/2.
    """
    if not is_prime(r) or r == 2:
        raise ParameterError(f"epsilon needs an odd prime r, got {r}")
    if q.q < 5 or q.q % 2 == 0:
        raise ParameterError(f"epsilon needs an odd prime power q >= 5, got {q.q}")
    if r == q.p:
        return 2
    if q.q == 9:
        return 3
    return (q.q - 1) // 2


class IntMatrix:
    """Dense integer matrix with arbitrary-precision entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(int(x) for x in entries)
        if rows * cols != len(entries):
            raise ParameterError(
                f"IntMatrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != ncols for r in rows_list):
            raise ParameterError("ragged rows")
        return cls(nrows, ncols, [x for r in rows_list for x in r])

    def row(self, i: int):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    # text format used by the `snf` CLI subcommand:
    # first line "rows cols", then rows of space-separated decimal integers
    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append(" ".join(str(x) for x in self.row(i)))
        return "\n".join(lines) + "\n"

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
            row = [int(tok) for tok in ln.split()]
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

    Minimal-absolute-value pivoting keeps intermediate entries small; all
    arithmetic is exact.  Returns the nonzero diagonal entries d1 | d2 | ...
    and the free rank cols - (number of nonzero factors).
    """
    A = m.to_rows()
    nrows, ncols = m.rows, m.cols
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
        # pivot must divide every remaining entry; if not, fold that row in
        pivot = A[t][t]
        offender = None
        for i in range(t + 1, nrows):
            row = A[i]
            for j in range(t + 1, ncols):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            rt = A[t]
            ro = A[offender]
            for k in range(t, ncols):
                rt[k] += ro[k]
            continue  # redo column clearing at the same t
        factors.append(abs(pivot))
        t += 1
    return SnfResult(tuple(factors), ncols - len(factors))


def mod_p_rank(m: IntMatrix, p: int) -> int:
    """Rank of m over the field with p elements (dense elimination)."""
    if not is_prime(p):
        raise ParameterError(f"mod_p_rank needs a prime, got {p}")
    if m.rows == 0 or m.cols == 0:
        return 0
    # exact reduction of arbitrary-precision entries before handing to numpy;
    # products of two residues must fit int64, else use exact Python ints
    reduced = [x % p for x in m.entries]
    dtype = np.int64 if (p - 1) ** 2 < 2 ** 63 else object
    A = np.array(reduced, dtype=dtype).reshape(m.rows, m.cols)
    rank = 0
    row = 0
    nrows, ncols = A.shape
    for col in range(ncols):
        sub = A[row:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            A[[row, i]] = A[[i, row]]
        inv = pow(int(A[row, col]), -1, p)
        A[row] = (A[row] * inv) % p
        below = A[row + 1:, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            idx = row + 1 + hit
            A[idx] = (A[idx] - np.outer(A[idx, col], A[row])) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


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
