"""Builders for the concrete groups and map triples.

Finite fields GF(p^e) with a deterministic modulus choice, PSL2/PGL2 on
the projective line, the three soluble almost-Sylow-cyclic families as
explicit permutation triples, Heisenberg and wreath 3-groups, (split)
extensions by modules and by 3-groups, the C_ell twisted products that
stretch a map's face size by ell, and the involution-triple search.

GL_k(p) acts as the permutations it induces on the p^k vectors of F_p^k
(vector codes, see ``_vec_index``), so module actions and automorphism
actions are both found by one generator-image search over permutations,
the rows of one integer array (``_action_homs``); matrices appear only in
``ModuleExtensionSpec``.  Every extension takes one
path: search the actions, keep one per conjugacy class (under GL_k(p) or
Aut(V), one orbit helper), and build with ``build_split_extension``; a
module extension is the split extension of the translations of F_p^k.  An
extension's order is proved from its generators, not computed by Schreier-Sims.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .algebra import is_prime
from .errors import ContractError, ParameterError, ResourceError
from .mapcore import (
    MapTriple, _enumerated_triple, euler_characteristic, involution_triples, verify_star_group,
)
from .permgrp import (
    CHAIN_CAP,
    PermGroup,
    _hom_room,
    _orbit_labels,
    element_table,
    hom_from_generator_images,
    identity,
    pinv,
    pmul,
    porder,
    ppow,
)

__all__ = [
    "FieldCtx",
    "make_field",
    "ProjectiveLine",
    "make_pgl2",
    "pgl2_order",
    "psl2_membership",
    "make_dihedral",
    "build_h1",
    "build_h2",
    "build_h3",
    "build_heisenberg",
    "build_wreath_c3",
    "ModuleExtensionSpec",
    "build_module_extension",
    "search_module_actions",
    "gl_group",
    "regular_form",
    "automorphism_perm_group",
    "search_split_actions",
    "split_action_classes",
    "build_split_extension",
    "SemidirectSpec",
    "build_semidirect_cell",
    "find_triples",
]

CELL_DEGREE_CAP = 1_000_000


# ---------------------------------------------------------------------------
# finite fields


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a, mod, p):
    a = _poly_trim(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm and a:
        k = len(a) - 1 - dm
        q = a[-1] * inv_lead % p
        for i, mi in enumerate(mod):
            a[i + k] = (a[i + k] - q * mi) % p
        a = _poly_trim(a)
    return a


def _poly_powmod(a, n, mod, p):
    result = [1]
    base = _poly_rem(list(a), mod, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a = _poly_rem(a, [x * pow(b[-1], -1, p) % p for x in b], p)
        a, b = b, a
    return a


def _poly_sub_x(a, p):
    """a(x) - x, coefficients mod p, trimmed."""
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] = (out[1] - 1) % p
    return _poly_trim([x % p for x in out])


def _is_irreducible(mod, p):
    """Rabin test: x^(p^e) = x mod f, and gcd(x^(p^(e/q)) - x, f) = 1 for
    prime divisors q of e.  Degrees here are at most 4."""
    e = len(mod) - 1
    if e == 1:
        return True
    xq = _poly_powmod([0, 1], p ** e, mod, p)
    if _poly_sub_x(xq, p):
        return False
    for q in {d for d in (2, 3) if e % d == 0}:
        xs = _poly_powmod([0, 1], p ** (e // q), mod, p)
        g = _poly_gcd(_poly_sub_x(xs, p), list(mod), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _vec_index(v, p):
    code = 0
    for x in reversed(v):
        code = code * p + x
    return code


def _vec_of_index(code, k, p):
    v = []
    for _ in range(k):
        v.append(code % p)
        code //= p
    return tuple(v)


@dataclass(frozen=True)
class FieldCtx:
    """GF(p^e) with elements as little-endian coefficient tuples of length e."""

    p: int
    e: int
    modulus: tuple  # monic, length e+1, little-endian

    @property
    def q(self) -> int:
        return self.p ** self.e

    def elements(self):
        """Canonical enumeration: element i has base-p digits of i."""
        return [_vec_of_index(i, self.e, self.p) for i in range(self.q)]

    def from_int(self, i):
        return _vec_of_index(i % self.q, self.e, self.p)

    @property
    def zero(self):
        return (0,) * self.e

    @property
    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _pad(self, coeffs):
        return tuple(coeffs + [0] * (self.e - len(coeffs)))

    def mul(self, a, b):
        return self._pad(_poly_mulmod(list(a), list(b), list(self.modulus), self.p))

    def _pow(self, a, n):
        return self._pad(_poly_powmod(list(a), n, list(self.modulus), self.p))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        return self._pow(a, self.q - 2)

    def is_square(self, a):
        return a == self.zero or self._pow(a, (self.q - 1) // 2) == self.one


def make_field(p: int, e: int) -> FieldCtx:
    """GF(p^e) with the lexicographically least monic irreducible modulus
    (coefficients compared from the constant term up to the x^(e-1)
    coefficient, so make_field(5, 2) has modulus x^2 + x + 1)."""
    if not is_prime(p) or p == 2 or p > 97:
        raise ParameterError(f"need an odd prime p <= 97, got {p}")
    if not 1 <= e <= 4:
        raise ParameterError(f"need 1 <= e <= 4, got {e}")
    if e == 1:
        return FieldCtx(p, 1, (0, 1))
    # the constant term is the top digit of code: codes below p^(e-1) have
    # constant term 0 and are divisible by x
    for code in range(p ** (e - 1), p ** e):
        digs = _vec_of_index(code, e, p)
        # digs[0] multiplies x^(e-1), ..., digs[e-1] is the constant term
        coeffs = list(reversed(digs)) + [1]  # little-endian with leading 1
        if _is_irreducible(coeffs, p):
            return FieldCtx(p, e, tuple(coeffs))
    raise ContractError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class ProjectiveLine:
    """P^1(F_q): point 0 is infinity = (1:0), point 1+i is (x_i : 1)."""

    ctx: FieldCtx

    @property
    def size(self) -> int:
        return self.ctx.q + 1

    def moebius_perm(self, a, b, c, d):
        """Permutation of the q+1 points induced by x -> (ax+b)/(cx+d)."""
        F = self.ctx
        if F.sub(F.mul(a, d), F.mul(b, c)) == F.zero:
            raise ParameterError("matrix is singular")

        def point(num, den):  # the index of (num : den)
            return 0 if den == F.zero else 1 + _vec_index(F.mul(num, F.inv(den)), F.p)

        finite = (point(F.add(F.mul(a, x), b), F.add(F.mul(c, x), d)) for x in F.elements())
        return (point(a, c), *finite)  # infinity goes to (a : c)


def make_pgl2(ctx: FieldCtx, kind: str) -> PermGroup:
    """PSL2(q) or PGL2(q) acting faithfully on the q+1 projective points.

    PSL is generated by the upper unipotents [[1, x^i], [0, 1]] and the
    Weyl element [[0, -1], [1, 0]] (all determinant-square); PGL adds
    diag(nu, 1) for the least non-square nu.  The group carries its order,
    q(q^2 - 1) for PGL and half that for PSL (q is odd).  A degree q + 1
    above CELL_DEGREE_CAP is refused before any permutation is built.
    """
    if kind not in ("psl", "pgl"):
        raise ParameterError(f"kind must be 'psl' or 'pgl', got {kind!r}")
    if ctx.q < 5:
        raise ParameterError(f"need q >= 5, got {ctx.q}")
    if ctx.q + 1 > CELL_DEGREE_CAP:
        raise ResourceError(f"projective line degree {ctx.q + 1} exceeds {CELL_DEGREE_CAP}")
    F = ctx
    line = ProjectiveLine(F)
    one, zero = F.one, F.zero
    gens = []
    for i in range(F.e):
        t = tuple(1 if j == i else 0 for j in range(F.e))
        gens.append(line.moebius_perm(one, t, zero, one))
    gens.append(line.moebius_perm(zero, F.neg(one), one, zero))
    if kind == "pgl":
        nu = next(x for x in F.elements() if x != zero and not F.is_square(x))
        gens.append(line.moebius_perm(nu, zero, zero, one))
    return PermGroup(F.q + 1, gens, order=pgl2_order(F.q, kind))


def pgl2_order(q: int, kind: str) -> int:
    """|PGL2(q)| = q(q^2 - 1), and half that for PSL2(q) (q odd)."""
    order = q * (q ** 2 - 1)
    return order if kind == "pgl" else order // 2


def psl2_membership(ctx: FieldCtx):
    """The element set of PSL2(q) inside PGL2(q) (same projective action).

    Usable as the index-2 subgroup test for twisted products.  A PSL2(q)
    of order above ELEMENTS_CAP is refused before it is enumerated.
    """
    return make_pgl2(ctx, "psl").elements()


# ---------------------------------------------------------------------------
# dihedral and soluble families


def make_dihedral(n: int) -> PermGroup:
    """D_n of order 2n as a permutation group, its order given, not
    computed; D_2 is the Klein group on 4 points, D_1 is C_2."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if n == 1:
        return PermGroup(2, [(1, 0)], order=2)
    if n == 2:
        return PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], order=4)
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, ref], order=2 * n)


def build_h1(ell: int) -> MapTriple:
    """The dihedral family: D_ell as a (2,2,ell)*-triple, ell even.

    With y, b the generators of ``make_dihedral(ell)`` (y of order ell):
    a = y^(ell/2) (central), c = b y.  The extra relator a (bc)^(ell/2) holds.
    """
    if ell < 2 or ell % 2:
        raise ParameterError(f"need even ell >= 2, got {ell}")
    g = make_dihedral(ell)
    y, b = g.generators
    a = ppow(y, ell // 2)
    t = verify_star_group(g, a, b, pmul(b, y))
    # the defining relator a (bc)^(ell/2)
    if pmul(a, ppow(t.bc, ell // 2)) != g.ident:
        raise ContractError("H1 relator failed")
    return t


def build_h2(j: int, k: int) -> MapTriple:
    """D_j x D_k of order 4jk as a (2,2j,2k)*-triple, j, k odd coprime >= 3.

    a = (s, 1), b = (s rho, theta tau), c = (1, theta) on j + k points;
    the relator b (ab)^j (bc)^k holds.
    """
    if j < 3 or k < 3 or j % 2 == 0 or k % 2 == 0:
        raise ParameterError(f"need odd j, k >= 3, got ({j}, {k})")
    if gcd(j, k) != 1:
        raise ParameterError(f"need coprime j, k, got ({j}, {k})")
    deg = j + k
    rho = tuple(list(((i + 1) % j) for i in range(j)) + list(range(j, deg)))
    sigma = tuple(list(((-i) % j) for i in range(j)) + list(range(j, deg)))
    tau = tuple(list(range(j)) + [(j + ((i - j + 1) % k)) for i in range(j, deg)])
    theta = tuple(list(range(j)) + [(j + ((-(i - j)) % k)) for i in range(j, deg)])
    a = sigma
    b = pmul(sigma, pmul(rho, pmul(theta, tau)))
    c = theta
    g = PermGroup(deg, [a, b, c])
    t = verify_star_group(g, a, b, c)
    if (t.m, t.n) != (2 * j, 2 * k):
        raise ContractError(f"H2 built type ({t.m},{t.n}), wanted ({2*j},{2*k})")
    rel = pmul(b, pmul(ppow(t.ab, j), ppow(t.bc, k)))
    if rel != g.ident:
        raise ContractError("H2 relator failed")
    return t


def build_h3(ell: int) -> MapTriple:
    """(C2 x C2) x| D_ell of order 8 ell as a (2,4,ell)*-triple,
    ell = 3 mod 6.

    b swaps the two Klein generators, c fixes the first and sends the
    second to their product; bc then acts with order 3, which is why
    3 | ell.  The relator c b a b c (ab)^2 holds.
    """
    if ell % 6 != 3:
        raise ParameterError(f"need ell = 3 mod 6, got {ell}")
    deg = 4 + ell
    # Klein part on points 0..3 = vectors 00,10,01,11 (e1 = 10, e2 = 01)
    def klein_point(v):
        return v[0] + 2 * v[1]

    def translate(w):
        return tuple(
            [klein_point(((v0 + w[0]) % 2, (v1 + w[1]) % 2)) for v0, v1 in ((0, 0), (1, 0), (0, 1), (1, 1))]
            + list(range(4, deg))
        )

    def linear(img_e1, img_e2, dihedral_part):
        imgs = []
        for v0, v1 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            w0 = (v0 * img_e1[0] + v1 * img_e2[0]) % 2
            w1 = (v0 * img_e1[1] + v1 * img_e2[1]) % 2
            imgs.append(klein_point((w0, w1)))
        return tuple(imgs + [4 + dihedral_part[i] for i in range(ell)])

    rot = [(i + 1) % ell for i in range(ell)]
    ref = [(-i) % ell for i in range(ell)]
    ident_d = list(range(ell))
    a = translate((1, 0))
    # b: swap e1 <-> e2; c: fix e1, e2 -> e1 + e2
    b = linear((0, 1), (1, 0), ref)
    c_ref = [(1 - i) % ell for i in range(ell)]  # another reflection, b*c of order ell
    c = linear((1, 0), (1, 1), c_ref)
    g = PermGroup(deg, [a, b, c])
    t = verify_star_group(g, a, b, c)
    if (t.m, t.n) != (4, ell):
        raise ContractError(f"H3 built type ({t.m},{t.n}), wanted (4,{ell})")
    rel = pmul(pmul(pmul(c, b), pmul(a, b)), pmul(c, ppow(t.ab, 2)))
    if rel != g.ident:
        raise ContractError("H3 relator failed")
    if g.order() != 8 * ell:
        raise ContractError("H3 order wrong")
    return t


def build_heisenberg() -> PermGroup:
    """The Heisenberg group of order 27 (exponent 3, centre C_3) in its
    regular action: elements (x, y, z) with
    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+xy')."""
    elems = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    index = {e: i for i, e in enumerate(elems)}

    def right_mul(w):
        return tuple(
            index[((x + w[0]) % 3, (y + w[1]) % 3, (z + w[2] + x * w[1]) % 3)]
            for (x, y, z) in elems
        )

    return PermGroup(27, [right_mul((1, 0, 0)), right_mul((0, 1, 0))])


def build_wreath_c3() -> PermGroup:
    """C3 wr C3 of order 81, imprimitive on 9 points (3 blocks of 3)."""
    base = tuple([1, 2, 0] + list(range(3, 9)))
    top = tuple((i + 3) % 9 for i in range(9))
    return PermGroup(9, [base, top])


# ---------------------------------------------------------------------------
# module extensions V x| H for elementary abelian V


@dataclass(frozen=True)
class ModuleExtensionSpec:
    """Action of a group's generators on F_p^k by invertible matrices.

    Matrices are k x k tuples-of-tuples over F_p, acting on row vectors
    (v -> v M), so composition matches left-to-right permutation products.
    """

    k: int
    p: int
    matrices: tuple

    def __post_init__(self):
        _check_vector_space(self.k, self.p)
        for m in self.matrices:
            if len(m) != self.k or any(len(r) != self.k for r in m):
                raise ParameterError("matrix shape mismatch")
            if any(not isinstance(x, int) or not 0 <= x < self.p for r in m for x in r):
                raise ParameterError(f"matrix entries must be integers in [0, {self.p})")


def _check_vector_space(k, p):
    """Refuse F_p^k unless p is prime, k >= 0 and it has at most
    CELL_DEGREE_CAP points."""
    if not is_prime(p):
        raise ParameterError(f"need a prime p, got {p}")
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    if k > CELL_DEGREE_CAP.bit_length() or p ** k > CELL_DEGREE_CAP:
        raise ResourceError(f"F_{p}^{k} has more than {CELL_DEGREE_CAP} points")


def _mat_perm(m, p):
    """The map v -> v m on the p^k vector codes; a permutation exactly when
    m is invertible."""
    k = len(m)
    return tuple(
        _vec_index(tuple(sum(v[i] * m[i][j] for i in range(k)) % p for j in range(k)), p)
        for v in (_vec_of_index(c, k, p) for c in range(p ** k))
    )


def _perm_mat(x, k, p):
    """The matrix of the linear permutation x: row i is the image of e_i."""
    return tuple(_vec_of_index(x[p ** i], k, p) for i in range(k))


def gl_group(k: int, p: int) -> PermGroup:
    """GL_k(p) as the permutation group it induces on the p^k vector codes.

    Its elements are listed as one array of p^(k^2) x p^k entries
    (``_gl_listing``), so GL_k(p) is refused with ``ResourceError`` before
    anything is built when that array would pass CHAIN_CAP.  The order is
    the formula prod(p^k - p^i), and it cross-checks the generators: their
    Schreier-Sims chain must give exactly that order."""
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    _check_vector_space(k, p)
    if p ** (k * k + k) > CHAIN_CAP:
        raise ResourceError(
            f"GL_{k}({p}) listing budget is {CHAIN_CAP} entries (matrix codes x vectors):"
            f" {p ** (k * k)} x {p ** k}"
        )
    order = prod(p ** k - p ** i for i in range(k))
    gl = PermGroup(p ** k, [_mat_perm(m, p) for m in _gl_generators(k, p)])
    if gl.order() != order:
        raise ContractError(f"the generators of GL_{k}({p}) give order {gl.order()}, not {order}")
    return gl


def _gl_listing(k, p):
    """The elements of GL_k(p) as one array, row r the permutation
    ``_mat_perm`` of the r-th invertible matrix in ascending code order, in
    the smallest unsigned dtype that holds a vector code.

    The code of a matrix m is the base-p number whose digit i*k + j is
    m[i][j], so row i of m is the vector with code ``code // p^(ik) % p^k``.
    Every code is mapped at once, vector by vector: v + e_t goes to the
    image of v plus row t, one gather from the table ``add[u * p^k + w]``
    of the codes of u + w by an intp index, so no small dtype wraps.  The
    maps with trivial kernel are kept.  ``gl_group(k, p)`` budgets the array."""
    nv, vecs = p ** k, np.arange(p ** k)
    add = sum((vecs[:, None] // p ** j + vecs // p ** j) % p * p ** j for j in range(k)).ravel()
    codes = np.arange(p ** (k * k))
    rows = [codes // nv ** i % nv for i in range(k)]
    images = np.zeros((codes.size, nv), dtype=np.min_scalar_type(nv - 1))
    for v in range(1, nv):
        t = next(i for i in range(k) if v // p ** i % p)
        images[:, v] = add.take(images[:, v - p ** t].astype(np.intp) * nv + rows[t])
    return images[(images[:, 1:] != 0).all(axis=1)]


def _gl_generators(k, p):
    """Generating matrices of GL_k(p): a primitive scalar in slot (0, 0)
    and, for k > 1, the cyclic permutation matrix and a transvection."""
    # the least primitive root mod p, which exists because p is prime
    nu = next(g for g in range(1, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)
    diag = tuple(
        tuple((nu if i == 0 else 1) if i == j else 0 for j in range(k)) for i in range(k)
    )
    if k == 1:
        return [diag]
    cyc = tuple(
        tuple(1 if j == (i + 1) % k else 0 for j in range(k)) for i in range(k)
    )
    trans = tuple(
        tuple(1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(k))
        for i in range(k)
    )
    return [cyc, trans, diag]


def _power_is_identity(perms, n):
    """Mask of the rows x of ``perms`` (permutations, one per row) with
    x^n = identity, n >= 1, by binary powering of every row at once."""
    power, base = None, perms
    while True:
        if n & 1:
            power = base if power is None else np.take_along_axis(base, power, axis=1)
        n >>= 1
        if not n:
            return (power == np.arange(perms.shape[1])).all(axis=1)
        base = np.take_along_axis(base, base, axis=1)


def _action_homs(acting: PermGroup, targets):
    """The generator images from the rows of ``targets`` (permutations of
    one degree, one per row) that extend to homomorphisms from ``acting``,
    as index rows into ``targets`` (one column per generator) in
    lexicographic order.

    Candidates are index rows into ``targets``, filtered by power tests over
    all of them at once: an image t of g_j must have t^ord(g_j) = 1 and,
    for each image x chosen for g_i, i < j, (x t)^ord(g_i g_j) = 1 (the
    (rs)^2 relator of a dihedral group).  One Cayley walk of ``acting``
    (``_walk_consistent``) then tests every surviving row."""
    gens = acting.generators
    rows = np.zeros((1, 0), dtype=np.intp)
    for j, g in enumerate(gens):
        cands = np.flatnonzero(_power_is_identity(targets, porder(g)))
        bounds = [porder(pmul(x, g)) for x in gens[:j]]
        grown = [np.zeros((0, j + 1), dtype=np.intp)]
        for pre in rows:
            ok = cands
            for b, i in zip(bounds, pre):
                ok = ok[_power_is_identity(targets[ok][:, targets[i]], b)]
            grown.append(np.column_stack((np.broadcast_to(pre, (ok.size, j)), ok)))
        rows = np.concatenate(grown)
    return rows[_walk_consistent(acting, targets, rows)]


def _hom_tuples(targets, rows):
    """The index rows as generator-image tuples of permutation tuples."""
    return [tuple(map(tuple, images)) for images in targets[rows].tolist()]


def _walk_consistent(acting: PermGroup, targets, rows):
    """Mask of the index ``rows`` (one row of ``targets`` per generator)
    that extend to homomorphisms from ``acting``.

    Each element x of ``acting`` gets its (rows, degree) images f(x) along
    the BFS tree of ``ElementTable.generator_tree``, then f(x s) = f(x) f(s)
    is checked on every edge x -> x s off that tree.  Rows go in blocks of
    |acting| x block x degree <= CHAIN_CAP entries, and |acting| is held to
    ``_hom_room`` before its table is built."""
    ok = np.ones(len(rows), dtype=bool)
    if not len(rows):
        return ok
    degree = targets.shape[1]
    _hom_room(acting, degree)
    t = element_table(acting)
    schedule, off_tree = t.generator_tree
    block = CHAIN_CAP // (t.n * degree)
    for start in range(0, len(rows), block):
        images = [targets[col] for col in rows[start:start + block].T]
        good = ok[start:start + block]
        f = np.empty((t.n,) + good.shape + (degree,), dtype=targets.dtype)
        f[t.identity_index] = np.arange(degree)
        for dst, src, slot in schedule:
            f[dst] = np.take_along_axis(images[slot], f[src], axis=1)
        for img, (srcs, dsts) in zip(images, off_tree):
            fs = np.take_along_axis(img[None], f[srcs], axis=2)  # f(x) f(s) for each x
            good &= (fs == f[dsts]).all(axis=(0, 2))
    return ok


def _conjugacy_representatives(targets, homs, conjugators):
    """As tuples, the first of each orbit of the index rows ``homs`` (into
    ``targets``) under simultaneous conjugation by the group that the rows
    of ``conjugators`` (in the dtype of ``targets``) generate, in the order
    of ``homs``: those whose index
    ``_orbit_labels`` labels with itself.  The conjugates by one g are one
    array gather, found among ``homs`` by a binary search of their images
    as bytes; one outside is a ContractError."""
    h = len(homs)
    if not h or not homs.shape[1] or not len(conjugators):
        return _hom_tuples(targets, homs)
    rows = targets[homs]
    flat = rows.reshape(h, -1)
    key = np.dtype((np.void, flat[0].nbytes))  # a row as one byte string
    order = np.argsort(flat.view(key).ravel())
    keys = flat[order].view(key).ravel()
    maps = []
    for g in conjugators:
        conj = np.ascontiguousarray(g[rows[:, :, np.argsort(g)]]).reshape(h, -1)  # g^-1 x g
        at = order[np.minimum(np.searchsorted(keys, conj.view(key).ravel()), h - 1)]
        if not np.array_equal(flat[at], conj):
            raise ContractError("conjugate action escaped the search set")
        maps.append(at.tolist())
    labels = _orbit_labels(h, maps)
    return _hom_tuples(targets, homs[labels == np.arange(h)])


def build_module_extension(h: PermGroup, spec: ModuleExtensionSpec) -> PermGroup:
    """The affine group V x| H on p^k + deg(H) points: the split extension
    (``build_split_extension``) of the translations of V = F_p^k on its
    vector codes by H.

    The generators of ``h`` act through spec.matrices; the generator
    images must satisfy H's relations, which ``build_split_extension``
    checks along the BFS tree of H's element table; |H| is checked against
    that walk's budget before any action permutation is built.
    """
    k, p = spec.k, spec.p
    if k == 0:
        return h
    if len(spec.matrices) != len(h.generators):
        raise ParameterError("need one matrix per generator")
    nv = p ** k
    if nv + h.degree > CELL_DEGREE_CAP:
        raise ResourceError(f"extension degree {nv + h.degree} exceeds {CELL_DEGREE_CAP}")
    _hom_room(h, nv)  # the walk's budget, before any action is built
    actions = [_mat_perm(m, p) for m in spec.matrices]
    if any(len(set(x)) != nv for x in actions):
        raise ContractError("action matrix is singular")
    vectors = [_vec_of_index(c, k, p) for c in range(nv)]
    shifts = [
        [_vec_index(v[:b] + ((v[b] + 1) % p,) + v[b + 1:], p) for v in vectors]
        for b in range(k)
    ]
    return build_split_extension(PermGroup(nv, shifts, order=nv), h, actions)


def search_module_actions(acting: PermGroup, p: int, k: int):
    """All actions of `acting` on F_p^k, up to GL_k(p)-conjugacy.

    GL_k(p) acts as permutations of the vector codes (``gl_group``), listed
    in the code order of their matrices (``_gl_listing``).  The
    generator-image tuples that extend to a homomorphism (``_action_homs``,
    candidates pruned by element orders) are split into
    orbits under simultaneous conjugation by GL_k(p)'s generators, and the
    first tuple of each orbit becomes one ModuleExtensionSpec.  The trivial
    action is included.
    """
    if k == 0:
        return [ModuleExtensionSpec(0, p, tuple(() for _ in acting.generators))]
    gl = gl_group(k, p)
    elems = _gl_listing(k, p)
    if len(elems) != gl.order():
        raise ContractError(f"{len(elems)} invertible matrix codes, but |GL_{k}({p})| = {gl.order()}")
    conjugators = np.array(gl.generators, dtype=elems.dtype)
    reps = _conjugacy_representatives(elems, _action_homs(acting, elems), conjugators)
    return [ModuleExtensionSpec(k, p, tuple(_perm_mat(x, k, p) for x in s)) for s in reps]


# ---------------------------------------------------------------------------
# split extensions V x| D for a (possibly nonabelian) small kernel V


def regular_form(g: PermGroup) -> PermGroup:
    """g in its right-regular action: point i is the i-th of g's sorted
    elements.  Its element list, |g|^2 entries, is refused above CHAIN_CAP
    from the order, before anything is enumerated."""
    if g.order() ** 2 > CHAIN_CAP:
        raise ResourceError(f"regular form budget is {CHAIN_CAP} entries (|V| x |V|): |V| = {g.order()}")
    t = element_table(g)
    return PermGroup(t.n, [tuple(t.right(j).tolist()) for j in t.gen_indices], order=t.n)


def _automorphisms(v: PermGroup):
    """The regular form of v, then Aut(v) in the order of
    ``automorphism_perm_group`` and its generators (the coset maps of the
    search, the conjugations by v's generators) as integer array rows.
    Inner automorphisms take one row each; the |Aut(v)| x |v| listing is
    refused above CHAIN_CAP before it is allocated."""
    reg, t = regular_form(v), element_table(v)
    outer = np.array(t.automorphism_index_maps(t.gen_indices))
    count = t.automorphism_count(outer)
    if count * t.n > CHAIN_CAP:
        raise ResourceError(f"Aut(V) listing budget is {CHAIN_CAP} entries (automorphisms x |V|):"
                            f" {count} x {t.n}")
    ys = t.conjugates(np.array(t.gen_indices, dtype=np.intp)).T  # row y: each generator's y^-1 g y
    _, reps = np.unique(ys, axis=0, return_index=True)  # one y per inner automorphism
    inner = np.array([t.conjugation(y) for y in reps], dtype=np.int32)
    maps = np.concatenate([inner[:, f] for f in outer])
    _, first = np.unique(maps[:, t.gen_indices], axis=0, return_index=True)
    dtype = np.min_scalar_type(t.n - 1)
    conj = [t.conjugation(j) for j in t.gen_indices]
    return reg, maps[first].astype(dtype), np.vstack([outer, *conj]).astype(dtype)


def automorphism_perm_group(v: PermGroup):
    """(regular copy of v, Aut(v) as permutations of v's element indices),
    in the lexicographic order of the generator images: each map of
    ``ElementTable.automorphism_index_maps``, one per coset of Inn(v),
    followed by every inner automorphism, the |Z(v)| copies dropped."""
    reg, auts, _ = _automorphisms(v)
    return reg, [tuple(f) for f in auts.tolist()]


def search_split_actions(v: PermGroup, d: PermGroup):
    """All homomorphisms d -> Aut(v), as tuples of Aut-permutations (one
    per generator of d).  v is replaced by its regular form internally;
    the matching regular copy is returned alongside.
    """
    reg, targets, _ = _automorphisms(v)
    return reg, _hom_tuples(targets, _action_homs(d, targets))


def split_action_classes(v: PermGroup, d: PermGroup):
    """Like ``search_split_actions``, but one homomorphism d -> Aut(v) per
    Aut(v)-conjugacy class, the first of each class in the search order.

    Conjugating by an automorphism alpha of v maps the split extension of
    phi onto that of alpha^-1 phi alpha, so one per class builds every
    extension up to isomorphism.  The orbits are walked under the coset
    maps of the automorphism search and the conjugations by v's generators.
    """
    reg, targets, gens = _automorphisms(v)
    return reg, _conjugacy_representatives(targets, _action_homs(d, targets), gens)


def build_split_extension(v_regular: PermGroup, d: PermGroup, aut_images) -> PermGroup:
    """V x| D on deg(V) + deg(D) points: V acts (faithfully) on its first
    deg(V) points, and the i-th generator of D acts on them through the
    permutation ``aut_images[i]``; these images must normalize V.

    The order |V| |D| is proved, not computed.  N, the V-generators fixing
    the D points, has |N| = |V| (V's enumerated elements).  The D-generators
    (aut_i, d_i) generate the graph H of the homomorphism d_i -> aut_i
    (checked along the BFS tree of D's element table), so |H| = |D| and
    only the identity of H fixes the D points, so H meets N trivially.
    Every aut_i^-1 v aut_i is in V, so N is normal in <N, H> = NH, of order |N| |H|.
    """
    nv = v_regular.degree
    deg = nv + d.degree
    gens = [tuple(list(g) + list(range(nv, deg))) for g in v_regular.generators]
    for dgen, aut in zip(d.generators, aut_images):
        gens.append(tuple(list(aut) + [nv + i for i in dgen]))
    ext = PermGroup(deg, gens)  # rejects an image that is no permutation of V's points
    hom = hom_from_generator_images(d, aut_images)
    if hom is None:
        raise ContractError("action images do not satisfy the acting group's relations")
    v_elems = v_regular.elements()
    if any(pmul(pmul(inv, g), aut) not in v_elems
           for aut, inv in zip(aut_images, map(pinv, aut_images)) for g in v_regular.generators):
        raise ContractError("action images do not normalize V")
    ext.cached_order = len(v_elems) * len(hom)
    return ext


# ---------------------------------------------------------------------------
# C_ell twisted products (face-size stretching)


@dataclass(frozen=True)
class SemidirectSpec:
    """Data for G = C_ell x| H*: a base star-triple, the index-2 subgroup
    H0 (elements centralizing C_ell; everything outside inverts it), and
    ell, odd and coprime to |H*|.  H0 is read only through the signs of a,
    b and c, which must extend to a homomorphism onto C2: one lies outside
    H0, and the graph group of the signs (each of a, b, c acting on 2 new
    points too, by a swap when it is outside H0) has order |H*|."""

    base: MapTriple
    h0_elements: frozenset
    ell: int

    def __post_init__(self):
        if self.ell < 1 or self.ell % 2 == 0:
            raise ParameterError(f"ell must be odd and positive, got {self.ell}")
        base_order, deg = self.base.group.order(), self.base.group.degree
        if gcd(self.ell, base_order) != 1:
            raise ParameterError(f"ell = {self.ell} not coprime to |H*| = {base_order}")
        triple = (self.base.a, self.base.b, self.base.c)
        signs = [x in self.h0_elements for x in triple]
        if all(signs):
            raise ParameterError("h0 contains a, b and c, so it is not of index 2")
        swaps = {True: (deg, deg + 1), False: (deg + 1, deg)}
        graph = PermGroup(deg + 2, [x + swaps[s] for x, s in zip(triple, signs)])
        if graph.order() != base_order:
            raise ParameterError("the signs of a, b, c on h0 do not extend to a homomorphism onto C2")


def build_semidirect_cell(spec: SemidirectSpec) -> MapTriple:
    """The (2, ell*m, n)* triple on C_ell x| H* (or its dual).

    The base triple must have its two inside-H0 canonical products split as
    one product inside H0 (whose two involution factors both lie outside
    H0) and the other outside H0; the C_ell generator is folded into one of
    the two outside-H0 involutions.  ``SemidirectSpec`` makes ell coprime
    to |H*|, which m and n divide, so the stretched order is ell*m (or
    ell*n).  Element orders and chi are computed analytically, then checked
    on the permutations, which live on ell + deg(base) points.
    """
    base, ell = spec.base, spec.ell
    h0 = spec.h0_elements
    in0 = lambda x: x in h0
    a0, b0, c0 = base.a, base.b, base.c
    sa, sb, sc = in0(a0), in0(b0), in0(c0)
    base_order = base.group.order()

    if (not sa) and (not sb) and sc:
        # ab in H0 picks up the ell factor
        attach = "a"
        new_m, new_n = ell * base.m, base.n
    elif sa and (not sb) and (not sc):
        # bc in H0 picks up ell (dual pattern)
        attach = "c"
        new_m, new_n = base.m, ell * base.n
    else:
        raise ContractError(
            "base triple membership pattern unusable: need the two factors of "
            "the H0-product outside H0 (signs -,-,+ or +,-,-)"
        )

    if ell == 1:
        return base

    deg_base = base.group.degree
    if ell + deg_base > CELL_DEGREE_CAP:
        raise ResourceError(f"cell degree {ell + deg_base} exceeds {CELL_DEGREE_CAP}")

    def lift(x):
        """x in H*: acts on the ell cycle by j -> -j if outside H0."""
        if in0(x):
            cycle = list(range(ell))
        else:
            cycle = [(-j) % ell for j in range(ell)]
        return tuple(cycle + [ell + x[i] for i in range(deg_base)])

    z = tuple([(j + 1) % ell for j in range(ell)] + list(range(ell, ell + deg_base)))
    a1, b1, c1 = lift(a0), lift(b0), lift(c0)
    if attach == "a":
        a1 = pmul(z, a1)
    else:
        c1 = pmul(z, c1)

    order = ell * base_order
    chi = euler_characteristic(order, new_m, new_n)
    ident = identity(ell + deg_base)
    for name, x in (("a", a1), ("b", b1), ("c", c1)):
        if pmul(x, x) != ident:
            raise ContractError(f"cell generator {name} is not an involution")
    ab, bc = pmul(a1, b1), pmul(b1, c1)
    ac = pmul(a1, c1)
    if pmul(ac, ac) != ident:
        raise ContractError("(ac)^2 != 1 in cell")
    if porder(ab) != new_m or porder(bc) != new_n:
        raise ContractError("cell product orders disagree with analysis")
    # <a,b,c> projects onto H* (base triple generates) and contains the
    # C_ell part: (ab)^m (resp. (bc)^n) is a generator of C_ell since
    # gcd(ell, m*n) = 1; so the cell group has order ell * |H*|.
    power = ppow(ab, base.m) if attach == "a" else ppow(bc, base.n)
    if porder(power) != ell:
        raise ContractError("C_ell part not recovered from the stretched product")
    group = PermGroup(ell + deg_base, [a1, b1, c1], order=order)
    return MapTriple(group=group, a=a1, b=b1, c=c1, m=new_m, n=new_n, chi=chi)


# ---------------------------------------------------------------------------
# involution-triple search


def find_triples(g: PermGroup, m: int, n: int, limit: int = 16) -> list:
    """Up to ``limit`` verified (2,m,n)*-triples in g.

    The triples come from mapcore.involution_triples: a ranges over
    involution conjugacy-class representatives (sufficient for existence
    up to conjugacy), then b and c in ascending order, and its closure
    test of <ab, bc> = G is each triple's proof: no Schreier-Sims chain is
    built per triple (``verify_star_group`` does that for triples found
    elsewhere).  Fewer than
    ``limit`` triples means the search was exhaustive, so an empty list is
    a definitive nonexistence certificate.  A group of order above
    ELEMENTS_CAP, the element table's budget, is refused before its
    elements are enumerated.
    """
    table = element_table(g)
    out = []
    for ia, ib, ic, *_ in involution_triples(g, {(m, n)}):
        out.append(_enumerated_triple(g, table, ia, ib, ic, m, n))
        if len(out) >= limit:
            break
    return out
