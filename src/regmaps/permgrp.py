"""Finite-group engine over permutation representations.

Permutations are tuples of 0-based images; ``pmul(p, q)`` applies p first,
then q, and composes in C through ``operator.itemgetter``.  Groups carry
their generators plus lazily-computed caches (order, element set, element
table).  Orders up to 10^6 come from a deterministic Schreier-Sims chain of
at most 10^7 stored entries that sifts its Schreier generators.

Everything else works in the index space of one ``ElementTable`` per group
(up to 2*10^4 elements and 10^7 entries): an element is its index in the
sorted element list, a subgroup is a boolean mask over the indices, and
conjugacy classes and cosets are orbit labels (the least index of each
orbit).  Products with one fixed element are whole columns, ``right(i)``
and ``left(i)``, found by base-point lookups; these columns are the only
products the index space has, and no n x n table is ever stored.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, reduce
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
    "element_order",
    "normal_closure",
    "odd_core",
    "sylow2_shape",
    "is_almost_sylow_cyclic",
    "quotient_group",
    "frattini_of_pgroup",
    "check_order_bound",
    "count_automorphisms",
    "hom_from_generator_images",
    "ElementTable",
    "element_table",
]

Perm = tuple

ORDER_CAP = 10 ** 6
CHAIN_CAP = 10 ** 7  # degree x transversal elements of one Schreier-Sims chain
ELEMENTS_CAP = 20000


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

    def __repr__(self):
        size = self.cached_order if self.cached_order else "?"
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)}, order={size})"

    @property
    def ident(self) -> Perm:
        return identity(self.degree)

    def order(self) -> int:
        """|G|: the cached order, or a Schreier-Sims chain under ORDER_CAP
        and CHAIN_CAP."""
        if self.cached_order is None:
            self.cached_order = _schreier_sims_order(self.degree, self.generators)
        return self.cached_order

    def elements(self) -> frozenset:
        """All group elements by breadth-first closure.

        The order is read first, and a group of order above ELEMENTS_CAP,
        or whose order x degree entries would pass CHAIN_CAP, is refused
        with ``ResourceError`` before any element is enumerated.  The
        closure must then find exactly that many elements; it stops with
        ``ContractError`` as soon as it finds one more, so a wrong
        ``order=`` cannot make it run on."""
        if self._elements is None:
            order = self.order()
            if order > ELEMENTS_CAP:
                raise ResourceError(f"element budget is {ELEMENTS_CAP}, group has order {order}")
            if order * self.degree > CHAIN_CAP:
                raise ResourceError(
                    f"element list budget is {CHAIN_CAP} entries (elements x degree):"
                    f" order {order} at degree {self.degree}"
                )
            elems = {self.ident}
            frontier = [self.ident]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = pmul(x, g)
                        if y not in elems:
                            if len(elems) == order:
                                raise ContractError(f"the generators give more than {order} elements")
                            elems.add(y)
                            nxt.append(y)
                frontier = nxt
            if len(elems) != order:
                raise ContractError("cached order disagrees with enumeration")
            self._elements = frozenset(elems)
        return self._elements

    def involutions(self):
        t = element_table(self)
        return [t.elems[i] for i in t.involution_indices()]

    def element_orders(self):
        """Multiset {order: count} over the whole group, orders ascending."""
        orders, counts = np.unique(element_table(self).order_of, return_counts=True)
        return dict(zip(orders.tolist(), counts.tolist()))

    def subgroup(self, gens) -> "PermGroup":
        return PermGroup(self.degree, gens)

    def derived_series(self) -> list:
        """Orders of G, G', G'', ..., ending at the first term that equals
        its derived subgroup."""
        t = element_table(self)
        gens, sizes = t.gen_indices, [t.n]
        while sizes[-1] > 1:
            gens, mask = _derived(t, gens)
            size = int(mask.sum())
            if size == sizes[-1]:
                break
            sizes.append(size)
        return sizes

    def is_soluble(self) -> bool:
        """Derived series reaches the trivial group."""
        return self.derived_series()[-1] == 1


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

    def add_generator(self, g: Perm, room: int) -> None:
        """Extend the orbit in place: old points see only g, new points
        every generator.  The orbit may hold ``room`` points; the next one
        raises ``ResourceError`` before its transversal element is made."""
        self.gens.append(g)
        trans, orbit = self.trans, self.orbit
        start = len(orbit)
        k = 0
        while k < len(orbit):
            pt = orbit[k]
            for s in (g,) if k < start else self.gens:
                img = s[pt]
                if img not in trans:
                    if len(orbit) >= room:
                        raise ResourceError(
                            f"Schreier-Sims chain budget is {CHAIN_CAP} entries"
                            f" (degree x transversal elements): {CHAIN_CAP // len(g)} at degree {len(g)}"
                        )
                    trans[img] = pmul(trans[pt], s)
                    orbit.append(img)
            k += 1
        self.tested.extend([0] * (len(orbit) - start))


def _schreier_sims_order(degree: int, gens) -> int:
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
    exceeds |G|, so ``ResourceError`` is raised as soon as it passes ORDER_CAP
    and never for a group within it.  The chain's memory is one permutation
    of ``degree`` points per orbit point, so ``ResourceError`` is also raised
    before degree x (the sum of the orbit lengths) would pass CHAIN_CAP.
    """
    ident = identity(degree)
    chain = []
    room = CHAIN_CAP // degree

    def sift(h, start):
        for j in range(start, len(chain)):
            level = chain[j]
            pt = h[level.point]
            u = level.trans.get(pt)
            if u is None:
                return h, j
            ui = level.invs.get(pt)
            if ui is None:
                # re-read through ident, so each entry is a pointer to one of
                # ident's ints, not a fresh int (pinv makes them anew)
                ui = level.invs[pt] = pmul(pinv(u), ident)
            h = pmul(h, ui)
        return h, len(chain)

    def add_residue(h, lo, hi):
        # h fixes the base points before level hi; it joins levels lo..hi
        if hi == len(chain):
            chain.append(_Level(next(i for i in range(degree) if h[i] != i), ident))
        for level in chain[lo:hi + 1]:
            others = sum(len(other.orbit) for other in chain) - len(level.orbit)
            level.add_generator(h, room - others)
        order = prod(len(level.orbit) for level in chain)
        if order > ORDER_CAP:
            raise ResourceError(f"group order exceeds cap {ORDER_CAP}", partial=order)

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
    """A subgroup of an ambient group, given by generators and held as a
    mask over the ambient's element table; ``check_normal`` tests that it
    is normal."""

    def __init__(self, ambient: PermGroup, generators):
        self.ambient = ambient
        self.generators = ambient.subgroup(generators).generators

    @cached_property
    def mask(self) -> np.ndarray:
        t = element_table(self.ambient)
        return t.closure(_indices(t, self.generators))

    def group(self) -> PermGroup:
        return PermGroup(self.ambient.degree, self.generators, order=self.order())

    def order(self) -> int:
        return int(self.mask.sum())

    def elements(self) -> frozenset:
        elems = element_table(self.ambient).elems
        return frozenset(elems[i] for i in np.flatnonzero(self.mask).tolist())

    def is_trivial(self) -> bool:
        return not self.generators

    def check_normal(self) -> bool:
        t = element_table(self.ambient)
        mask, gens = self.mask, _indices(t, self.generators)
        return all(mask[t.product(t.inv[a], h, a)] for a in t.gen_indices for h in gens)


def _indices(t: "ElementTable", perms) -> list:
    try:
        return [t.pos[tuple(x)] for x in perms]
    except KeyError:
        raise ParameterError("element is not in the group") from None


def _handle(g: PermGroup, t: "ElementTable", gens, mask) -> NormalSubgroupHandle:
    """A handle on the subgroup of g with generator indices ``gens`` whose
    mask is already known."""
    handle = NormalSubgroupHandle(g, [t.elems[i] for i in gens])
    handle.mask = mask
    return handle


def _orbit_labels(n: int, maps) -> np.ndarray:
    """The least index in the orbit of each of 0..n-1 under the group
    generated by ``maps`` (index permutations of 0..n-1, as lists).

    Indices are scanned in ascending order, so the first one met in an
    orbit is its least; a search from it labels the whole orbit.
    """
    label = [-1] * n
    for x in range(n):
        if label[x] >= 0:
            continue
        label[x] = x
        stack = [x]
        while stack:
            y = stack.pop()
            for col in maps:
                z = col[y]
                if label[z] < 0:
                    label[z] = x
                    stack.append(z)
    return np.array(label)


def _normal_closure(t: "ElementTable", ambient, seeds):
    """Generator indices and mask of the smallest subgroup that contains
    ``seeds`` and is normalized by the elements ``ambient``.

    A seed or conjugate becomes a generator only when the subgroup so far
    misses it, so each generator at least doubles the subgroup and there
    are at most log2(n) of them.  Every generator's conjugates by
    ``ambient`` are tested, so the result is normalized by them.
    """
    gens = []
    mask = t.closure(gens)
    todo = deque(seeds)
    while todo:
        x = todo.popleft()
        if not mask[x]:
            gens.append(x)
            mask = t.closure(gens)
            todo.extend(t.product(t.inv[a], x, a) for a in ambient)
    return gens, mask


def _derived(t: "ElementTable", gens):
    """Generator indices and mask of the derived subgroup of <gens>: the
    normal closure in <gens> of the generators' commutators."""
    comms = [t.product(t.inv[a], t.inv[b], a, b) for a in gens for b in gens]
    return _normal_closure(t, gens, comms)


def element_order(g: PermGroup, x: Perm) -> int:
    if len(x) != g.degree:
        raise ParameterError("element degree mismatch")
    return porder(x)


def normal_closure(g: PermGroup, seeds) -> NormalSubgroupHandle:
    """Smallest normal subgroup of g containing the seeds."""
    t = element_table(g)
    return _handle(g, t, *_normal_closure(t, t.gen_indices, _indices(t, seeds)))


def odd_core(g: PermGroup) -> NormalSubgroupHandle:
    """O(g): the largest normal subgroup of odd order.

    Equal to the subgroup generated by all elements whose cyclic normal
    closure has odd order (class representatives suffice, since normal
    closure is a class invariant).
    """
    t = element_table(g)
    seeds = []
    for i in np.unique(t.class_labels()).tolist():
        if i == t.identity_index or t.order_of[i] % 2 == 0:
            continue
        if _normal_closure(t, t.gen_indices, [i])[1].sum() % 2 == 1:
            seeds.append(i)
    gens, mask = _normal_closure(t, t.gen_indices, seeds)
    if mask.sum() % 2 == 0:
        raise ContractError("odd core came out even")
    return _handle(g, t, gens, mask)


def _sylow2(t: "ElementTable") -> np.ndarray:
    """Mask of a Sylow 2-subgroup, grown by 2-elements that normalize it."""
    target = p_part(t.n, 2)
    if target == 1:
        return t.closure(())
    k = t.order_of
    two_elements = np.flatnonzero((k > 1) & (k & (k - 1) == 0)).tolist()
    sub_gens = [two_elements[0]]
    sub = t.closure(sub_gens)
    while sub.sum() < target:
        for x in two_elements:
            if sub[x]:
                continue
            # a 2-element that normalizes a 2-subgroup extends it to a 2-subgroup
            if all(sub[t.product(t.inv[x], s, x)] for s in sub_gens):
                sub_gens.append(x)
                sub = t.closure(sub_gens)
                break
        else:
            raise ContractError("failed to grow 2-subgroup to Sylow size")
    return sub


def sylow2_shape(g: PermGroup) -> str:
    """One of 'trivial', 'cyclic', 'klein', 'dihedral', 'other'.

    'klein' (C2 x C2) is reported distinctly but counts as dihedral for the
    structural checks.  A 2-group of order 2^k >= 8 is dihedral iff two of
    its involutions multiply to an element of order 2^(k-1).
    """
    t = element_table(g)
    syl = _sylow2(t)
    size = int(syl.sum())
    if size == 1:
        return "trivial"
    if size == 2:
        return "cyclic"
    max_order = int(t.order_of[syl].max())
    if max_order == size:
        return "cyclic"
    if size == 4:
        return "klein" if max_order == 2 else "cyclic"
    invs = np.flatnonzero(syl & (t.order_of == 2))
    for u in invs.tolist():
        if (t.order_of[t.left(u)[invs]] == size // 2).any():
            return "dihedral"
    return "other"


def is_almost_sylow_cyclic(g: PermGroup) -> bool:
    """Odd Sylow subgroups cyclic; Sylow 2-subgroup trivial or containing a
    cyclic subgroup of index 2.

    A Sylow t-subgroup is cyclic iff the group has an element of order
    |G|_t, so the element-order profile decides everything.
    """
    n = element_table(g).n
    orders = g.element_orders()
    for t in odd_prime_divisors(n):
        if p_part(n, t) not in orders:
            return False
    n2 = p_part(n, 2)
    if n2 <= 2:
        return True
    return n2 in orders or (n2 // 2) in orders


class QuotientGroup(PermGroup):
    """Faithful action of g on the cosets of a normal subgroup, with the
    projection g -> quotient available on elements.

    The cosets are the orbits of right multiplication by the subgroup's
    generators, numbered in the order of their least element index.
    """

    def __init__(self, ambient: PermGroup, handle: NormalSubgroupHandle):
        t = self._ambient_table = element_table(ambient)
        cols = [t.right(i).tolist() for i in _indices(t, handle.generators)]
        self._reps, self._coset_of = np.unique(_orbit_labels(t.n, cols), return_inverse=True)
        index = len(self._reps)
        super().__init__(index, [self._perm_of(i) for i in t.gen_indices], order=index)

    def _perm_of(self, i: int) -> Perm:
        return tuple(self._coset_of[self._ambient_table.right(i)[self._reps]].tolist())

    def project(self, x: Perm) -> Perm:
        """Image of an ambient element in the quotient's permutation action."""
        return self._perm_of(self._ambient_table.pos[x])


def quotient_group(g: PermGroup, n: NormalSubgroupHandle) -> QuotientGroup:
    if n.ambient is not g:
        raise ContractError("handle does not belong to this group")
    if not n.check_normal():
        raise ContractError("subgroup is not normal in ambient")
    return QuotientGroup(g, n)


def frattini_of_pgroup(g: PermGroup, p: int) -> NormalSubgroupHandle:
    """Frattini subgroup of a p-group: generated by the p-th powers and the
    derived subgroup; the quotient is elementary abelian."""
    if not is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    t = element_table(g)
    n = t.n
    if p_part(n, p) != n:
        raise ContractError(f"group of order {n} is not a {p}-group")
    derived, _ = _derived(t, t.gen_indices)
    powers = sorted({t.pos[ppow(x, p)] for x in t.elems})
    return _handle(g, t, *_normal_closure(t, (), derived + powers))


def check_order_bound(g: PermGroup, l: NormalSubgroupHandle, p: int) -> bool:
    """For a normal p-subgroup L with L/Phi(L) of rank j, every element
    order in g has p-part at most |G|_p / p^(j-1).  Trivial L is treated as
    bound |G|_p (vacuously true)."""
    if not is_prime(p):
        raise ParameterError(f"needs a prime, got {p}")
    t = element_table(g)
    gp = p_part(t.n, p)
    if l.is_trivial():
        bound = gp
    else:
        lsize = l.order()
        if p_part(lsize, p) != lsize:
            raise ContractError("handle is not a p-subgroup")
        if not l.check_normal():
            raise ContractError("handle is not normal")
        phi = frattini_of_pgroup(l.group(), p)
        j = 0
        quot = lsize // phi.order()
        while quot > 1:
            quot //= p
            j += 1
        bound = gp // p ** (j - 1)
    return all(p_part(k, p) <= bound for k in g.element_orders())


def _hom_room(degree: int, image_degree: int):
    """(room, error): how many elements ``hom_from_generator_images`` may
    list for a group on ``degree`` points with images on ``image_degree``
    points, and the ResourceError that refuses a group with more."""
    room = min(ELEMENTS_CAP, CHAIN_CAP // (degree + image_degree))
    return room, ResourceError(
        f"element budget is {ELEMENTS_CAP} elements and {CHAIN_CAP} entries:"
        f" the group on {degree} points, with images on {image_degree} points,"
        f" has more than {room} elements"
    )


def hom_from_generator_images(degree: int, gens, images):
    """Try to extend generator -> image to a homomorphism from <gens> into
    the permutations of the images' degree.

    Walks the Cayley graph of the generated group once; returns the dict
    element -> image, or None if the assignment is inconsistent.  Images of
    different degrees are a ParameterError.  The walk lists the group's
    elements with their images, so it is under the budgets of
    ``PermGroup.elements()``: it raises ``ResourceError`` as soon as it
    finds more than ELEMENTS_CAP elements, or more entries of elements and
    images than CHAIN_CAP.
    """
    if len(images) != len(gens):
        raise ParameterError("need one image per generator")
    if len({len(img) for img in images}) > 1:
        raise ParameterError("generator images of different degrees")
    ident = identity(degree)
    mapping = {ident: identity(len(images[0]) if images else 0)}
    room, overflow = _hom_room(degree, len(mapping[ident]))
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
                    if len(mapping) == room:
                        raise overflow
                    mapping[y] = fy
                    nxt.append(y)
                elif old != fy:
                    return None
        frontier = nxt
    return mapping


def _base_lookups(arr):
    """A base for the rows of ``arr`` (n distinct permutations, one per row,
    in ascending order) and one lookup array per base point.

    Points are taken in domain order whenever their images split more
    elements apart, until all n are apart.  After base point t, element i has
    the code ``c_t[i]``: the rank of its images of base points 0..t among
    those of all elements.  ``luts[t][c_{t-1} * degree + image]`` is that
    code, or -1 if no element has these images (``c_{-1}`` is 0).  Ranks
    follow the order of the rows, because a point left out of the base
    never splits rows that agree on the base points before it; so the last
    codes are the element indices themselves.  Each array has
    ``(k + 1) * degree`` entries, k the number of codes before it: its last
    ``degree`` entries are -1, where a miss (-1) makes the next key
    negative, and the lookup stays -1.
    """
    n, degree = arr.shape
    code = np.zeros(n, dtype=np.intp)
    distinct = 1
    base, luts = [], []
    for point in range(degree):
        if distinct == n:
            break
        keys = code * degree + arr[:, point]
        uniq, code_next = np.unique(keys, return_inverse=True)
        if uniq.size == distinct:
            continue
        lut = np.full((distinct + 1) * degree, -1, dtype=np.intp)
        lut[uniq] = np.arange(uniq.size)
        code, distinct = code_next, uniq.size
        base.append(point)
        luts.append(lut)
    return base, luts


class ElementTable:
    """The index space of a (small) group.

    Elements are sorted and indexed 0..n-1; ``inv[i]`` is the index of the
    inverse of elems[i] and ``order_of[i]`` its order.  ``right(i)`` and
    ``left(i)`` give the index of x * elems[i] and of elems[i] * x for every
    x; they are the only way to multiply, so the table holds O(n * degree)
    entries and never an n x n product table.  Subgroups, cosets,
    conjugacy classes, the census and the automorphism search all run in
    this index space.

    Products are found from their images of a base (see ``_base_lookups``)
    by a chain of array lookups, never by comparing whole permutations.
    The build proves the element list equal to the group its generators
    generate: every generator column is checked on every point (so the
    list is closed under the generators), and the generator columns reach
    every element from the identity.  A base tells the elements of a group
    apart, so every lookup after that is exact.
    """

    def __init__(self, g: PermGroup):
        self.elems = sorted(g.elements())
        n = self.n = len(self.elems)
        self.pos = {e: i for i, e in enumerate(self.elems)}
        try:
            e = self.identity_index = self.pos[g.ident]
            self.gen_indices = [self.pos[x] for x in g.generators]
        except KeyError:
            raise ContractError("element list misses the identity or a generator") from None
        degree = self.degree = g.degree
        # images[p, j] = elems[j][p]
        images = self._images = np.array(self.elems, dtype=np.int32).reshape(n, degree).T.copy()
        self.base, self._luts = _base_lookups(images.T)
        cols = [self.right(j) for j in self.gen_indices]
        for gen, col in zip(g.generators, cols):
            if np.min(col) < 0:
                raise ContractError("a product is missing from the element list")
            if not np.array_equal(images[:, col], np.array(gen)[images]):
                raise ContractError("a generator column disagrees with the permutations")
        if not self._span(cols, [e]).all():
            raise ContractError("the element list is larger than the group it generates")
        inverses = np.empty_like(images)
        inverses[images, np.arange(n)] = np.arange(degree, dtype=np.int32)[:, None]
        self.inv = self._lookup(inverses[self.base]).astype(np.int32)
        # order of x: the least k whose x^k fixes every base point
        base = np.array(self.base, dtype=np.int32)[:, None]
        order_of = np.zeros(n, dtype=np.int32)
        todo, power = np.arange(n), images[self.base]
        for k in range(1, n + 1):
            hit = (power == base).all(axis=0)
            order_of[todo[hit]] = k
            todo, power = todo[~hit], power[:, ~hit]
            if not todo.size:
                break
            power = images[power, todo]  # x^(k+1) sends b to x[x^k[b]]
        else:
            raise ContractError("an element has order above the group order")
        self.order_of = order_of
        self._class_labels = None

    def _lookup(self, images) -> np.ndarray:
        """Index of the element with the base-point images ``images[t]``
        (an array per base point, of any shape), or -1 where none has them."""
        code = np.zeros(images.shape[1:], dtype=np.intp)
        for t, lut in enumerate(self._luts):
            code = lut[code * self.degree + images[t]]
        return code

    def right(self, i: int) -> np.ndarray:
        """Index of x * elems[i] for every x; it sends b to elems[i][x[b]]."""
        return self._lookup(self._images[:, i][self._images[self.base]])

    def left(self, i: int) -> np.ndarray:
        """Index of elems[i] * x for every x; it sends b to x[elems[i][b]]."""
        return self._lookup(self._images[self._images[self.base, i]])

    def conjugation(self, i: int) -> np.ndarray:
        """Index of elems[i]^-1 * x * elems[i] for every x."""
        images = self._images
        return self._lookup(images[:, i][images[images[self.base, self.inv[i]]]])

    def conjugates(self, i: int, by=None) -> np.ndarray:
        """Index of y^-1 * elems[i] * y for every y, or for the y whose
        indices are the array ``by``; it sends b to y[elems[i][y^-1[b]]]."""
        images = self._images
        by = np.arange(self.n) if by is None else by
        return self._lookup(images[images[:, i][images[self.base][:, self.inv[by]]], by])

    def class_labels(self) -> np.ndarray:
        """The least index in the conjugacy class of each element (cached)."""
        if self._class_labels is None:
            cols = [self.conjugation(i).tolist() for i in self.gen_indices]
            self._class_labels = _orbit_labels(self.n, cols)
        return self._class_labels

    def product(self, *indices) -> int:
        """Index of the product of the given elements, left to right."""
        return self.pos[reduce(pmul, (self.elems[i] for i in indices))]

    def involution_indices(self):
        return [i for i in range(self.n) if self.order_of[i] == 2]

    def _span(self, cols, seeds) -> np.ndarray:
        """Mask of the elements reached from the identity and ``seeds`` by
        the right multiplications ``cols``."""
        members = np.zeros(self.n, dtype=bool)
        members[self.identity_index] = True
        frontier = np.unique(np.asarray(seeds, dtype=np.intp))
        members[frontier] = True
        while frontier.size and cols:
            prods = np.concatenate([col[frontier] for col in cols])
            new = np.unique(prods[~members[prods]])
            members[new] = True
            frontier = new
        return members

    def closure(self, seed_indices) -> np.ndarray:
        """Mask of the subgroup generated by the given element indices."""
        seeds = sorted(set(seed_indices))
        return self._span([self.right(i) for i in seeds], seeds)

    def bfs_schedule(self, gen_indices):
        """BFS spanning tree (dst, src, gen_slot) of the Cayley graph, each
        frontier element scanning the generators in slot order."""
        cols = [self.right(j).tolist() for j in gen_indices]
        seen = [False] * self.n
        seen[self.identity_index] = True
        schedule = []
        frontier = [self.identity_index]
        while frontier:
            nxt = []
            for i in frontier:
                for slot, col in enumerate(cols):
                    d = col[i]
                    if not seen[d]:
                        seen[d] = True
                        schedule.append((d, i, slot))
                        nxt.append(d)
            frontier = nxt
        if not all(seen):
            raise ParameterError("tuple does not generate the group")
        return schedule

    def extend_map(self, schedule, gen_cols, image_cols):
        """The automorphism f sending generator s to image s, or None, from
        ``bfs_schedule`` of the generators and the ``right`` columns of the
        generators and images: f[x * g_s] = f[x] * img_s along the tree,
        then checked for every x and s and for being onto: one O(n) pass
        (Holt, Eick and O'Brien, 2005, sec. 4.6)."""
        cols = [col.tolist() for col in image_cols]
        f = [0] * self.n
        f[self.identity_index] = self.identity_index
        for dst, src, slot in schedule:
            f[dst] = cols[slot][f[src]]
        f = np.array(f, dtype=np.int32)
        for gen, img in zip(gen_cols, image_cols):
            if not np.array_equal(f[gen], img[f]):
                return None
        hit = np.zeros(self.n, dtype=bool)
        hit[f] = True
        return f if hit.all() else None

    def automorphism_index_maps(self, gen_indices):
        """One automorphism per coset Inn(G) f, as index arrays f with
        f[x*y] = f[x]*f[y], in the lexicographic order of their generator
        images: the f whose tuple of generator images is the least of its
        orbit under conjugation, so |Aut| = len(maps) * |G : Z(G)|
        (``automorphism_count``; Holt, Eick and O'Brien, 2005, sec. 4.6).

        ``gen_indices`` must generate.  The first image runs over the class
        representatives of ord(g1).  Each later image runs over the least
        elements of their orbits under the joint centralizer of the images
        before it, an index array narrowed as each image is fixed.  Every
        image is filtered by its order and by the orders of its products
        with the images chosen before (read off ``left`` columns), then the
        tuple is extended by ``extend_map``.  The kept maps are budgeted
        at CHAIN_CAP entries (maps x |G|): one more is a ResourceError.
        """
        order_of, k = self.order_of, len(gen_indices)
        schedule = self.bfs_schedule(gen_indices)
        gen_cols = [self.right(j) for j in gen_indices]
        by_order = [np.flatnonzero(order_of == order_of[j]) for j in gen_indices]
        if k:
            reps = by_order[0]
            by_order[0] = reps[self.class_labels()[reps] == reps]
        # pair_orders[i][j] = ord(g_j * g_i) for j < i
        pair_orders = [[order_of[self.product(gj, gi)] for gj in gen_indices[:i]]
                       for i, gi in enumerate(gen_indices)]
        room = CHAIN_CAP // self.n
        overflow = ResourceError(f"automorphism budget is {CHAIN_CAP} entries (maps x |G|):"
                                 f" more than {room} maps of a group of order {self.n}")
        found = []

        def extend(i, cent, lefts, rights):
            if i == k:
                f = self.extend_map(schedule, gen_cols, rights)
                if f is not None:
                    if len(found) == room:
                        raise overflow
                    found.append(f)
                return
            cands = by_order[i]
            for left, want in zip(lefts, pair_orders[i]):
                cands = cands[order_of[left[cands]] == want]
            for cand in cands.tolist():
                conj = self.conjugates(cand, cent)
                if conj.min() < cand:  # not the least of its orbit
                    continue
                # a candidate's columns are computed once, where it is chosen
                more = [self.left(cand)] if i + 1 < k else []
                extend(i + 1, cent[conj == cand], lefts + more, rights + [self.right(cand)])

        extend(0, np.arange(self.n), [], [])
        return found

    def automorphism_count(self, maps) -> int:
        """|Aut| from the maps of ``automorphism_index_maps``: len(maps) *
        |G : Z(G)|, Z(G) the elements every generator's ``conjugation``
        column fixes."""
        fixed = [self.conjugation(j) == np.arange(self.n) for j in self.gen_indices]
        return len(maps) * (self.n // int(np.logical_and.reduce(fixed).sum()))


def element_table(g: PermGroup) -> ElementTable:
    """Cached ElementTable for g."""
    cached = getattr(g, "_table", None)
    if cached is None:
        cached = ElementTable(g)
        g._table = cached
    return cached


def count_automorphisms(g: PermGroup, triple) -> int:
    """|Aut(g)| = len(maps) * |G : Z(G)|, from the automorphisms of
    ``ElementTable.automorphism_index_maps``, one per coset of Inn(g), on
    the generating ``triple``.  The element table carries the only budget
    of the group: an order above ELEMENTS_CAP is refused before its
    elements are enumerated; the maps have their own."""
    table = element_table(g)
    maps = table.automorphism_index_maps([table.pos[x] for x in tuple(triple)])
    return table.automorphism_count(maps)
