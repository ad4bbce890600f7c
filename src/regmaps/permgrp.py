"""Finite-group engine over permutation representations.

Permutations are tuples of 0-based images; ``pmul(p, q)`` applies p first,
then q, and composes in C through ``operator.itemgetter``.  Groups carry
their generators plus lazily-computed caches (order, element set, conjugacy
classes).  Everything is sized for the desk-scale groups of this project:
element enumeration up to ~2*10^4, orders up to 10^6 via a deterministic
Schreier-Sims chain that sifts its Schreier generators.
"""

from __future__ import annotations

from math import gcd, prod
from operator import itemgetter

import numpy as np

from .algebra import is_prime, odd_prime_divisors, p_part
from .errors import ContractError, ParameterError, ResourceError

__all__ = [
    "Perm",
    "identity",
    "pmul",
    "pinv",
    "ppow",
    "porder",
    "cycles",
    "from_cycles",
    "PermGroup",
    "NormalSubgroupHandle",
    "group_order",
    "element_order",
    "normal_closure",
    "odd_core",
    "sylow2_shape",
    "is_almost_sylow_cyclic",
    "quotient_group",
    "frattini_of_pgroup",
    "check_order_bound",
    "count_automorphisms",
    "automorphisms",
    "hom_from_generator_images",
    "ElementTable",
    "element_table",
]

Perm = tuple

ORDER_CAP = 10 ** 6
ELEMENTS_CAP = 20000
AUT_CAP = 1500


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(p: Perm, q: Perm) -> Perm:
    """Product 'apply p, then q'."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)  # one-argument itemgetter returns a scalar


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def ppow(p: Perm, n: int) -> Perm:
    if n < 0:
        return ppow(pinv(p), -n)
    result = identity(len(p))
    base = p
    while n:
        if n & 1:
            result = pmul(result, base)
        base = pmul(base, base)
        n >>= 1
    return result


def porder(p: Perm) -> int:
    """Least k >= 1 with p^k = identity (lcm of cycle lengths)."""
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def cycles(p: Perm) -> str:
    """One-line cycle notation, 0-based; '()' for the identity."""
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        seen[i] = True
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def from_cycles(degree: int, cycle_list) -> Perm:
    images = list(range(degree))
    for cyc in cycle_list:
        for a, b in zip(cyc, cyc[1:]):
            images[a] = b
        if cyc:
            images[cyc[-1]] = cyc[0]
    return tuple(images)


class PermGroup:
    """A finite group given by permutation generators of a common degree."""

    def __init__(self, degree: int, generators, order=None):
        if degree < 1:
            raise ParameterError(f"degree must be >= 1, got {degree}")
        gens = []
        seen = set()
        ident = identity(degree)
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ParameterError("generator degree mismatch")
            if sorted(g) != list(range(degree)):
                raise ParameterError("generator is not a permutation")
            if g != ident and g not in seen:
                seen.add(g)
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.cached_order = order
        self._elements = None
        self._classes = None

    def __repr__(self):
        size = self.cached_order if self.cached_order else "?"
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)}, order={size})"

    @property
    def ident(self) -> Perm:
        return identity(self.degree)

    def order(self, cap: int = ORDER_CAP) -> int:
        if self.cached_order is None:
            if self._elements is not None:
                self.cached_order = len(self._elements)
            else:
                self.cached_order = _schreier_sims_order(self.degree, self.generators, cap)
        return self.cached_order

    def elements(self, cap: int = ELEMENTS_CAP) -> frozenset:
        """All group elements by breadth-first closure (budgeted)."""
        if self._elements is None:
            elems = {self.ident}
            frontier = [self.ident]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = pmul(x, g)
                        if y not in elems:
                            if len(elems) >= cap:
                                raise ResourceError(
                                    f"element enumeration exceeded cap {cap}",
                                    partial=len(elems),
                                )
                            elems.add(y)
                            nxt.append(y)
                frontier = nxt
            self._elements = frozenset(elems)
            if self.cached_order is None:
                self.cached_order = len(self._elements)
            elif self.cached_order != len(self._elements):
                raise ContractError("cached order disagrees with enumeration")
        return self._elements

    def contains(self, x: Perm) -> bool:
        return x in self.elements()

    def conjugacy_classes(self, cap: int = ELEMENTS_CAP):
        """List of (representative, class size), deterministic order."""
        if self._classes is None:
            elems = self.elements(cap)
            conj = [(pinv(g), g) for g in self.generators]
            unseen = set(elems)
            classes = []
            while unseen:
                x = min(unseen)
                orbit = {x}
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        for gi, g in conj:
                            z = pmul(pmul(gi, y), g)
                            if z not in orbit:
                                orbit.add(z)
                                nxt.append(z)
                    frontier = nxt
                classes.append((x, len(orbit)))
                unseen -= orbit
            self._classes = classes
        return self._classes

    def involutions(self, cap: int = ELEMENTS_CAP):
        return sorted(x for x in self.elements(cap) if x != self.ident and pmul(x, x) == self.ident)

    def element_orders(self, cap: int = ELEMENTS_CAP):
        """Multiset {order: count} over the whole group."""
        counts = {}
        for x in self.elements(cap):
            k = porder(x)
            counts[k] = counts.get(k, 0) + 1
        return counts

    def subgroup(self, gens) -> "PermGroup":
        return PermGroup(self.degree, gens)

    def is_soluble(self, cap: int = ELEMENTS_CAP) -> bool:
        """Derived series reaches the trivial group."""
        current = self
        size = current.order()
        while size > 1:
            gens = [(pinv(a), a) for a in current.generators]
            comms = []
            for ai, a in gens:
                for bi, b in gens:
                    comms.append(pmul(pmul(ai, bi), pmul(a, b)))
            derived = normal_closure(current, comms)
            dsize = derived.group().order()
            if dsize == size:
                return False
            current = derived.group()
            size = dsize
        return True


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the transversal ``{point: u}`` of
    the base point's orbit (u sends the base point to that point), with the
    inverses filled in as sifts need them.  ``tested[k]`` counts the
    generators that the k-th orbit point has been tested with."""

    __slots__ = ("point", "gens", "trans", "invs", "orbit", "tested")

    def __init__(self, point: int, ident: Perm):
        self.point = point
        self.gens = []
        self.trans = {point: ident}
        self.invs = {point: ident}
        self.orbit = [point]
        self.tested = [0]

    def add_generator(self, g: Perm) -> None:
        """Extend the orbit in place: old points see only g, new points
        every generator."""
        self.gens.append(g)
        trans, orbit = self.trans, self.orbit
        start = len(orbit)
        k = 0
        while k < len(orbit):
            pt = orbit[k]
            for s in (g,) if k < start else self.gens:
                img = s[pt]
                if img not in trans:
                    trans[img] = pmul(trans[pt], s)
                    orbit.append(img)
            k += 1
        self.tested.extend([0] * (len(orbit) - start))


def _schreier_sims_order(degree: int, gens, cap: int) -> int:
    """Order via a deterministic Schreier-Sims with sifting (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, sec. 4.4.2).

    Each base point is the first point moved by the first generator that
    fixes the base so far.  Levels are closed from the last to the first:
    every Schreier generator ``u_p s u_(p^s)^-1`` of level l that is not a
    tree edge is sifted through the levels below.  A residue that stops at
    level j joins levels l+1..j (and a new base point, the first point it
    moves, when j is past the last level); the scan then resumes at level j.
    Transversals only grow, so a Schreier generator that once sifted to the
    identity still does, and none is sifted twice.

    The order is the product of the orbit lengths.  That product never
    exceeds |G|, so ``ResourceError`` is raised as soon as it passes ``cap``
    and never for a group within it.
    """
    ident = identity(degree)
    chain = []

    def sift(h, start):
        for j in range(start, len(chain)):
            level = chain[j]
            pt = h[level.point]
            u = level.trans.get(pt)
            if u is None:
                return h, j
            ui = level.invs.get(pt)
            if ui is None:
                ui = level.invs[pt] = pinv(u)
            h = pmul(h, ui)
        return h, len(chain)

    def add_residue(h, lo, hi):
        # h fixes the base points before level hi; it joins levels lo..hi
        if hi == len(chain):
            chain.append(_Level(next(i for i in range(degree) if h[i] != i), ident))
        for level in chain[lo:hi + 1]:
            level.add_generator(h)
        order = prod(len(level.orbit) for level in chain)
        if order > cap:
            raise ResourceError(f"group order exceeds cap {cap}", partial=order)

    for g in gens:
        if g != ident:
            moved = (j for j, level in enumerate(chain) if g[level.point] != level.point)
            add_residue(g, 0, next(moved, len(chain)))

    i = len(chain) - 1
    while i >= 0:
        level = chain[i]
        gens_i, trans, tested = level.gens, level.trans, level.tested
        residue = None
        for k, pt in enumerate(level.orbit):
            while residue is None and tested[k] < len(gens_i):
                s = gens_i[tested[k]]
                tested[k] += 1
                ups = pmul(trans[pt], s)
                if ups != trans[s[pt]]:  # not a tree edge
                    h, j = sift(ups, i)  # the first step divides by u_(p^s)
                    if h != ident:
                        residue = h, j
            if residue is not None:
                break
        if residue is None:
            i -= 1
        else:
            add_residue(residue[0], i + 1, residue[1])
            i = residue[1]
    return prod(len(level.orbit) for level in chain)


class NormalSubgroupHandle:
    """Generators of a subgroup normal in an ambient group."""

    def __init__(self, ambient: PermGroup, generators):
        self.ambient = ambient
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if g != ambient.ident and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators = tuple(gens)
        self._group = None

    def group(self) -> PermGroup:
        if self._group is None:
            self._group = PermGroup(self.ambient.degree, self.generators)
        return self._group

    def order(self) -> int:
        return self.group().order()

    def elements(self, cap: int = ELEMENTS_CAP) -> frozenset:
        return self.group().elements(cap)

    def is_trivial(self) -> bool:
        return not self.generators

    def check_normal(self) -> bool:
        elems = self.elements()
        for g in self.ambient.generators:
            gi = pinv(g)
            for h in self.generators:
                if pmul(pmul(gi, h), g) not in elems:
                    return False
        return True


def group_order(g: PermGroup, cap: int = ORDER_CAP) -> int:
    return g.order(cap)


def element_order(g: PermGroup, x: Perm) -> int:
    if len(x) != g.degree:
        raise ParameterError("element degree mismatch")
    return porder(x)


def normal_closure(g: PermGroup, seeds) -> NormalSubgroupHandle:
    """Smallest normal subgroup of g containing the seeds."""
    gens = []
    seen = set()
    for s in seeds:
        s = tuple(s)
        if s != g.ident and s not in seen:
            seen.add(s)
            gens.append(s)
    if not gens:
        return NormalSubgroupHandle(g, ())
    while True:
        sub = PermGroup(g.degree, gens)
        elems = sub.elements()
        new = []
        for a in g.generators:
            ai = pinv(a)
            for h in gens:
                c = pmul(pmul(ai, h), a)
                if c not in elems:
                    new.append(c)
        if not new:
            return NormalSubgroupHandle(g, gens)
        for c in new:
            if c not in seen:
                seen.add(c)
                gens.append(c)


def odd_core(g: PermGroup) -> NormalSubgroupHandle:
    """O(g): the largest normal subgroup of odd order.

    Equal to the subgroup generated by all elements whose cyclic normal
    closure has odd order (class representatives suffice, since normal
    closure is a class invariant).
    """
    seeds = []
    for rep, _size in g.conjugacy_classes():
        if rep == g.ident:
            continue
        if porder(rep) % 2 == 0:
            continue
        ncl = normal_closure(g, [rep])
        if ncl.order() % 2 == 1:
            seeds.append(rep)
    core = normal_closure(g, seeds)
    if core.order() % 2 == 0:
        raise ContractError("odd core came out even")
    return core


def _sylow2(g: PermGroup) -> PermGroup:
    """A Sylow 2-subgroup, by growing a 2-subgroup inside its normalizer."""
    target = p_part(g.order(), 2)
    if target == 1:
        return PermGroup(g.degree, ())
    elems = sorted(g.elements())
    two_elements = [x for x in elems if x != g.ident and _is_2_element(x)]
    sub_gens = [two_elements[0]]
    sub = PermGroup(g.degree, sub_gens)
    sub_elems = sub.elements()
    while len(sub_elems) < target:
        grown = False
        for x in two_elements:
            if x in sub_elems:
                continue
            # x must normalize the current 2-subgroup
            xi = pinv(x)
            if any(pmul(pmul(xi, s), x) not in sub_elems for s in sub_gens):
                continue
            cand = PermGroup(g.degree, sub_gens + [x])
            cand_elems = cand.elements()
            if len(cand_elems) & (len(cand_elems) - 1):
                continue  # not a power of 2
            if len(cand_elems) > target:
                continue
            sub_gens.append(x)
            sub = cand
            sub_elems = cand_elems
            grown = True
            break
        if not grown:
            raise ContractError("failed to grow 2-subgroup to Sylow size")
    return sub


def _is_2_element(x: Perm) -> bool:
    k = porder(x)
    return k & (k - 1) == 0


def sylow2_shape(g: PermGroup) -> str:
    """One of 'trivial', 'cyclic', 'klein', 'dihedral', 'other'.

    'klein' (C2 x C2) is reported distinctly but counts as dihedral for the
    structural checks.  A 2-group of order 2^k >= 8 is dihedral iff two of
    its involutions multiply to an element of order 2^(k-1).
    """
    syl = _sylow2(g)
    size = syl.order()
    if size == 1:
        return "trivial"
    if size == 2:
        return "cyclic"
    elems = syl.elements()
    max_order = max(porder(x) for x in elems)
    if max_order == size:
        return "cyclic"
    if size == 4:
        return "klein" if max_order == 2 else "cyclic"
    invs = [x for x in elems if porder(x) == 2]
    for u in invs:
        for v in invs:
            if porder(pmul(u, v)) == size // 2:
                return "dihedral"
    return "other"


def is_almost_sylow_cyclic(g: PermGroup) -> bool:
    """Odd Sylow subgroups cyclic; Sylow 2-subgroup trivial or containing a
    cyclic subgroup of index 2.

    A Sylow t-subgroup is cyclic iff the group has an element of order
    |G|_t, so the element-order profile decides everything.
    """
    n = g.order()
    orders = set(g.element_orders())
    for t in odd_prime_divisors(n):
        if p_part(n, t) not in orders:
            return False
    n2 = p_part(n, 2)
    if n2 <= 2:
        return True
    return n2 in orders or (n2 // 2) in orders


class QuotientGroup(PermGroup):
    """Faithful action of g on the cosets of a normal subgroup, with the
    projection g -> quotient available on elements."""

    def __init__(self, ambient: PermGroup, handle: NormalSubgroupHandle):
        n_elems = sorted(handle.elements())
        rep_cache = {}

        def coset_rep(x: Perm) -> Perm:
            got = rep_cache.get(x)
            if got is None:
                got = min(pmul(h, x) for h in n_elems)
                rep_cache[x] = got
            return got

        start = coset_rep(ambient.ident)
        index_of = {start: 0}
        reps = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for rep in frontier:
                for gen in ambient.generators:
                    img = coset_rep(pmul(rep, gen))
                    if img not in index_of:
                        index_of[img] = len(reps)
                        reps.append(img)
                        nxt.append(img)
            frontier = nxt
        self._ambient = ambient
        self._coset_rep = coset_rep
        self._index_of = index_of
        self._reps = reps
        gen_perms = [self._perm_of(gen) for gen in ambient.generators]
        super().__init__(max(1, len(reps)), gen_perms)

    def _perm_of(self, x: Perm) -> Perm:
        return tuple(self._index_of[self._coset_rep(pmul(rep, x))] for rep in self._reps)

    def project(self, x: Perm) -> Perm:
        """Image of an ambient element in the quotient's permutation action."""
        return self._perm_of(x)


def quotient_group(g: PermGroup, n: NormalSubgroupHandle) -> QuotientGroup:
    if n.ambient is not g:
        raise ContractError("handle does not belong to this group")
    if not n.check_normal():
        raise ContractError("subgroup is not normal in ambient")
    return QuotientGroup(g, n)


def frattini_of_pgroup(g: PermGroup, p: int) -> NormalSubgroupHandle:
    """Frattini subgroup of a p-group: generated by p-th powers and
    commutators; the quotient is elementary abelian."""
    if not is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    n = g.order()
    if p_part(n, p) != n:
        raise ContractError(f"group of order {n} is not a {p}-group")
    elems = sorted(g.elements())
    gens = set()
    for x in elems:
        px = ppow(x, p)
        if px != g.ident:
            gens.add(px)
    elem_invs = [(pinv(y), y) for y in elems]
    for x in g.generators:
        xi = pinv(x)
        for yi, y in elem_invs:
            c = pmul(pmul(xi, yi), pmul(x, y))
            if c != g.ident:
                gens.add(c)
    return NormalSubgroupHandle(g, sorted(gens))


def check_order_bound(g: PermGroup, l: NormalSubgroupHandle, p: int) -> bool:
    """For a normal p-subgroup L with L/Phi(L) of rank j, every element
    order in g has p-part at most |G|_p / p^(j-1).  Trivial L is treated as
    bound |G|_p (vacuously true)."""
    if not is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    gp = p_part(g.order(), p)
    if l.is_trivial():
        bound = gp
    else:
        lgrp = l.group()
        lsize = lgrp.order()
        if p_part(lsize, p) != lsize:
            raise ContractError("handle is not a p-subgroup")
        if not l.check_normal():
            raise ContractError("handle is not normal")
        phi = frattini_of_pgroup(lgrp, p)
        j = 0
        quot = lsize // phi.order()
        while quot > 1:
            quot //= p
            j += 1
        bound = gp // p ** (j - 1)
    for rep, _size in g.conjugacy_classes():
        if p_part(porder(rep), p) > bound:
            return False
    return True


def hom_from_generator_images(degree: int, gens, images):
    """Try to extend generator -> image to a homomorphism from <gens> into
    the permutations of the images' degree.

    Walks the Cayley graph of the generated group once; returns the dict
    element -> image, or None if the assignment is inconsistent.
    """
    if len(images) != len(gens):
        raise ParameterError("need one image per generator")
    ident = identity(degree)
    mapping = {ident: identity(len(images[0]) if images else 0)}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            fx = mapping[x]
            for gen, img in zip(gens, images):
                y = pmul(x, gen)
                fy = pmul(fx, img)
                old = mapping.get(y)
                if old is None:
                    mapping[y] = fy
                    nxt.append(y)
                elif old != fy:
                    return None
        frontier = nxt
    return mapping


TABLE_BLOCK_CELLS = 1 << 14  # cells of ``mul`` filled per block; bounds temporaries


def _base_lookups(arr):
    """A base for the rows of ``arr`` (n distinct permutations, one per row)
    and one lookup array per base point.

    Points are taken in domain order whenever their images split more
    elements apart, until all n are apart.  After base point t, element i has
    the code ``c_t[i]``: the least element index that agrees with it on base
    points 0..t.  ``luts[t][c_{t-1} * degree + image]`` is that code, or -1 if
    no element agrees (``c_{-1}`` is 0).  Codes are below n, so no lookup
    array is longer than ``(n + 1) * degree``, and the last codes are the
    element indices themselves.  Each array ends in ``degree`` extra -1
    entries: a miss (-1) makes the next key negative, which lands there and
    stays -1.
    """
    n, degree = arr.shape
    code = np.zeros(n, dtype=np.intp)
    distinct = 1
    base, luts = [], []
    for point in range(degree):
        if distinct == n:
            break
        keys = code * degree + arr[:, point]
        uniq, first = np.unique(keys, return_index=True)
        if uniq.size == distinct:
            continue
        lut = np.full((int(code.max()) + 2) * degree, -1, dtype=np.intp)
        lut[uniq] = first
        code = lut[keys]
        distinct = uniq.size
        base.append(point)
        luts.append(lut)
    return base, luts


class ElementTable:
    """Indexed multiplication table of a (small) group.

    Elements are sorted and indexed 0..n-1; ``mul[i, j]`` is the index of
    elems[i] * elems[j].  All census and automorphism machinery runs in
    this index space.

    The table is built from a base (see ``_base_lookups``): a product is
    found from its images of the base points by a chain of array lookups,
    never by comparing whole permutations.  The element list is built as
    the closure of the generators; checking every generator column on every
    point proves it closed under them, hence a group, and a base tells the
    elements of a group apart, so every lookup is exact.
    """

    def __init__(self, g: PermGroup, cap: int = ELEMENTS_CAP):
        self.group = g
        self.elems = sorted(g.elements(cap))
        n = len(self.elems)
        self.n = n
        self.pos = {e: i for i, e in enumerate(self.elems)}
        try:
            e = self.identity_index = self.pos[g.ident]
            gen_cols = [self.pos[x] for x in g.generators]
        except KeyError:
            raise ContractError("element list misses the identity or a generator") from None
        degree = g.degree
        arr = np.array(self.elems, dtype=np.int32)  # n x degree
        base, luts = _base_lookups(arr)
        # images[p, j] = elems[j][p]; a product x_i * y_j sends b to y_j[x_i[b]]
        images = np.ascontiguousarray(arr.T)
        base_images = arr[:, base]
        mul = np.empty((n, n), dtype=np.int32)
        inv = np.empty(n, dtype=np.int32)
        rows = max(1, TABLE_BLOCK_CELLS // n)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            code = 0
            for t, lut in enumerate(luts):
                code = lut[code * degree + images[base_images[lo:hi, t]]]
            if np.min(code) < 0:
                raise ContractError("a product is missing from the element list")
            mul[lo:hi] = code
            inv[lo:hi] = np.argmax(mul[lo:hi] == e, axis=1)
        for gen, j in zip(g.generators, gen_cols):
            if not np.array_equal(arr[mul[:, j]], np.array(gen)[arr]):
                raise ContractError("a generator column disagrees with the permutations")
        self.mul = mul
        self.inv = inv
        # order of x: the least k with x^k = identity, powering through mul
        order_of = np.zeros(n, dtype=np.int32)
        todo = np.arange(n)
        power = todo
        for k in range(1, n + 1):
            hit = power == e
            order_of[todo[hit]] = k
            todo, power = todo[~hit], power[~hit]
            if not todo.size:
                break
            power = mul[power, todo]
        else:
            raise ContractError("an element has order above the group order")
        self.order_of = order_of

    def involution_indices(self):
        return [i for i in range(self.n) if self.order_of[i] == 2]

    def closure(self, seed_indices):
        """Indices of the subgroup generated by the given element indices."""
        mul = self.mul
        members = np.zeros(self.n, dtype=bool)
        members[self.identity_index] = True
        frontier = np.array(sorted(set(seed_indices)), dtype=np.int32)
        members[frontier] = True
        gens = frontier
        while frontier.size:
            prods = mul[np.ix_(frontier, gens)].ravel()
            prods = np.unique(prods)
            new = prods[~members[prods]]
            members[new] = True
            frontier = new
        return members

    def bfs_schedule(self, gen_indices):
        """BFS spanning tree (dst, src, gen_slot) of the Cayley graph, each
        frontier element scanning the generators in slot order."""
        mul = self.mul
        seen = np.zeros(self.n, dtype=bool)
        seen[self.identity_index] = True
        schedule = []
        frontier = [self.identity_index]
        while frontier:
            nxt = []
            for i in frontier:
                for slot, gj in enumerate(gen_indices):
                    d = int(mul[i, gj])
                    if not seen[d]:
                        seen[d] = True
                        schedule.append((d, i, slot))
                        nxt.append(d)
            frontier = nxt
        if not seen.all():
            raise ParameterError("tuple does not generate the group")
        return schedule

    def automorphism_index_maps(self, gen_indices):
        """All automorphisms as index arrays f with f[x*y] = f[x]*f[y].

        ``gen_indices`` must generate; candidate images are filtered by
        element orders and pairwise product orders, then checked against
        the whole multiplication table.
        """
        mul = self.mul
        order_of = self.order_of
        schedule = self.bfs_schedule(gen_indices)
        k = len(gen_indices)
        by_order = {}
        for i in range(self.n):
            by_order.setdefault(int(order_of[i]), []).append(i)
        gen_orders = [int(order_of[i]) for i in gen_indices]
        pair_orders = {}
        for i in range(k):
            for j in range(i + 1, k):
                pair_orders[(i, j)] = int(order_of[mul[gen_indices[i], gen_indices[j]]])

        ref_cols = [mul[:, gj] for gj in gen_indices]
        found = []

        def check(images):
            f = np.full(self.n, -1, dtype=np.int32)
            f[self.identity_index] = self.identity_index
            for dst, src, slot in schedule:
                f[dst] = mul[f[src], images[slot]]
            for slot in range(k):
                if not np.array_equal(f[ref_cols[slot]], mul[f, images[slot]]):
                    return
            if np.unique(f).size == self.n:
                found.append(f)

        def extend(i, chosen):
            if i == k:
                check(chosen)
                return
            want = gen_orders[i]
            for cand in by_order.get(want, ()):
                ok = True
                for j in range(i):
                    if int(order_of[mul[chosen[j], cand]]) != pair_orders[(j, i)]:
                        ok = False
                        break
                if ok:
                    extend(i + 1, chosen + [cand])

        extend(0, [])
        return found


def element_table(g: PermGroup, cap: int = ELEMENTS_CAP) -> ElementTable:
    """Cached ElementTable for g."""
    cached = getattr(g, "_table", None)
    if cached is None:
        cached = ElementTable(g, cap)
        g._table = cached
    return cached


def automorphisms(g: PermGroup, triple=None, cap: int = AUT_CAP):
    """All automorphisms of g, each as a mapping element -> element.

    ``triple`` may name a generating tuple to anchor the image search (its
    element orders prune candidates); defaults to g's generators.
    Budgeted at |g| <= cap.
    """
    n = g.order()
    if n > cap:
        raise ResourceError(f"automorphism search budget is {cap}, group has order {n}")
    table = element_table(g)
    gens = tuple(triple) if triple is not None else g.generators
    gen_indices = [table.pos[x] for x in gens]
    maps = table.automorphism_index_maps(gen_indices)
    elems = table.elems
    return [{elems[i]: elems[int(f[i])] for i in range(table.n)} for f in maps]


def count_automorphisms(g: PermGroup, triple, cap: int = AUT_CAP) -> int:
    """|Aut(g)|, counted as the number of generator-image tuples that extend
    to an automorphism."""
    n = g.order()
    if n > cap:
        raise ResourceError(f"automorphism search budget is {cap}, group has order {n}")
    table = element_table(g)
    gen_indices = [table.pos[x] for x in tuple(triple)]
    return len(table.automorphism_index_maps(gen_indices))
