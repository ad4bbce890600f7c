"""Finite-group engine over permutation representations.

Permutations are tuples of 0-based images; ``pmul(p, q)`` applies p first,
then q, and composes in C through ``operator.itemgetter``.  Groups carry
their generators plus lazily-computed caches (order, element array, element
table).  Orders up to 10^6 come from a deterministic Schreier-Sims chain of
at most 10^7 stored entries that sifts its Schreier generators.  The same
chain lists the elements: every element is one product of transversal
elements, so the list is one integer array, sorted once by its rows' bytes.

Everything else works in the index space of one ``ElementTable`` per group
(up to 2*10^4 elements and 10^7 entries): an element is its index in the
sorted element list, a subgroup is a boolean mask over the indices, and
conjugacy classes and cosets are orbit labels (the least index of each
orbit).  The one copy of the elements is the table's array of images.
Products, whole columns (``right(i)``, ``left(i)``) or elementwise over
index arrays (``product``), are base-point lookups; no n x n table is ever
stored, and tuples are made only where elements leave the table.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import gcd, prod
from operator import itemgetter

import numpy as np

from .algebra import p_part
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
    "normal_closure",
    "odd_core",
    "sylow2_shape",
    "quotient_group",
    "count_automorphisms",
    "hom_from_generator_images",
    "ElementTable",
    "element_table",
    "check_element_budget",
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


def check_element_budget(order: int, degree: int) -> None:
    """Refuse (``ResourceError``) to list a group of this order and degree:
    more than ELEMENTS_CAP elements, or elements x degree above CHAIN_CAP."""
    if order > ELEMENTS_CAP:
        raise ResourceError(f"element budget is {ELEMENTS_CAP}, group has order {order}")
    if order * degree > CHAIN_CAP:
        raise ResourceError(
            f"element list budget is {CHAIN_CAP} entries (elements x degree):"
            f" order {order} at degree {degree}"
        )


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
        self._chain = None
        self._elements = None
        self._element_set = None

    def __repr__(self):
        size = self.cached_order if self.cached_order else "?"
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)}, order={size})"

    @property
    def ident(self) -> Perm:
        return identity(self.degree)

    def order(self) -> int:
        """|G|: the cached order, or a Schreier-Sims chain under ORDER_CAP
        and CHAIN_CAP, kept for ``element_array`` within its budget."""
        if self.cached_order is None:
            order, chain = _schreier_sims_order(self.degree, self.generators)
            if order <= ELEMENTS_CAP and order * self.degree <= CHAIN_CAP:
                self._chain = chain
            self.cached_order = order
        return self.cached_order

    def element_array(self) -> np.ndarray:
        """Every element, one row each, in ascending order: the products
        x_(r-1) ... x_0 of one element per level of a Schreier-Sims chain
        (Holt, Eick and O'Brien, 2005, sec. 4.4), one gather per level, in
        the smallest big-endian unsigned dtype, so one argsort of the rows'
        bytes sorts them like tuples.  An order above ELEMENTS_CAP, or order
        x degree above CHAIN_CAP, is refused first (``ResourceError``).  A
        given ``order=`` bounds the chain; a chain above it, a count other
        than the order or two equal rows is a ``ContractError``."""
        if self._elements is None:
            order, degree = self.order(), self.degree
            check_element_budget(order, degree)
            chain, self._chain = self._chain, None
            if chain is None:
                chain = _schreier_sims_order(degree, self.generators, claimed=order)[1]
            dtype = np.dtype("u1" if degree <= 1 << 8 else ">u2" if degree <= 1 << 16 else ">u4")
            rows = np.arange(degree, dtype=dtype)[None]
            for trans in reversed(chain):  # each row x becomes x . u for every u
                rows = np.take(np.array(trans, dtype=dtype), rows, axis=1).reshape(-1, degree)
            if len(rows) != order:
                raise ContractError(f"cached order {order} disagrees with the {len(rows)} elements listed")
            rows = rows[np.argsort(rows.view(np.dtype((np.void, rows.itemsize * degree))).ravel())]
            if (rows[1:] == rows[:-1]).all(axis=1).any():
                raise ContractError("the chain lists an element twice")
            self._elements = rows
        return self._elements

    def elements(self) -> frozenset:
        """All group elements as tuples, read off ``element_array`` (cached)."""
        if self._element_set is None:
            self._element_set = frozenset(map(tuple, self.element_array().tolist()))
        return self._element_set

    def involutions(self):
        t = element_table(self)
        return t.perms(t.involution_indices())

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


def _schreier_sims_order(degree: int, gens, claimed=None):
    """Order and transversals by a deterministic Schreier-Sims with sifting
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005, sec. 4.4.2).

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
    Passing a ``claimed`` order is a ``ContractError``.  Returns the order
    and each level's transversal elements, the first level first.
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
        if claimed is not None and order > claimed:
            raise ContractError(f"the generators give more than {claimed} elements")
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
    return prod(len(level.orbit) for level in chain), [list(level.trans.values()) for level in chain]


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

    def order(self) -> int:
        return int(self.mask.sum())

    def elements(self) -> frozenset:
        return frozenset(element_table(self.ambient).perms(np.flatnonzero(self.mask)))

    def is_trivial(self) -> bool:
        return not self.generators

    def check_normal(self) -> bool:
        t = element_table(self.ambient)
        a = np.array(t.gen_indices, dtype=np.intp)[:, None]
        h = np.array(_indices(t, self.generators), dtype=np.intp)
        return bool(self.mask[t.product(t.inv[a], h, a)].all())


def _indices(t: "ElementTable", perms) -> list:
    """The indices of the permutations ``perms`` in t (``ElementTable.find``).
    A non-member, another degree or an entry out of range is a ParameterError."""
    rows = [list(x) for x in perms]
    try:  # a ragged list, another degree or a non-integer entry fails here
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), t.degree)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.tolist() != rows or (found := t.find(arr)).min(initial=0) < 0:
        raise ParameterError("element is not in the group")
    return found.tolist()


def _handle(g: PermGroup, t: "ElementTable", gens, mask) -> NormalSubgroupHandle:
    """A handle on the subgroup of g with generator indices ``gens`` whose
    mask is already known."""
    handle = NormalSubgroupHandle(g, t.perms(gens))
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
    ambient = np.asarray(ambient, dtype=np.intp)
    gens = []
    mask = t.closure(gens)
    todo = deque(seeds)
    while todo:
        x = todo.popleft()
        if not mask[x]:
            gens.append(x)
            mask = t.closure(gens)
            todo.extend(t.product(t.inv[ambient], x, ambient).tolist())
    return gens, mask


def _derived(t: "ElementTable", gens):
    """Generator indices and mask of the derived subgroup of <gens>: the
    normal closure in <gens> of the generators' commutators."""
    a = np.asarray(gens, dtype=np.intp)[:, None]
    return _normal_closure(t, gens, t.product(t.inv[a], t.inv[a.T], a, a.T).ravel().tolist())


def normal_closure(g: PermGroup, seeds) -> NormalSubgroupHandle:
    """Smallest normal subgroup of g containing the seeds."""
    t = element_table(g)
    return _handle(g, t, *_normal_closure(t, t.gen_indices, _indices(t, seeds)))


def odd_core(g: PermGroup) -> NormalSubgroupHandle:
    """O(g): the largest normal subgroup of odd order.

    Equal to the subgroup generated by all elements whose cyclic normal
    closure has odd order (class representatives suffice, since normal
    closure is a class invariant).  A representative x with an even-order
    x^-1 x^y, an element of <x^G>, is ruled out by one gather over its
    conjugates; only the others get a normal closure.
    """
    t = element_table(g)
    seeds = [i for i in np.unique(t.class_labels()).tolist()
             if i != t.identity_index and t.order_of[i] % 2
             and (t.order_of[t.product(t.inv[i], t.conjugates(i))] % 2).all()
             and _normal_closure(t, t.gen_indices, [i])[1].sum() % 2]
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
    two_elements = np.flatnonzero((k > 1) & (k & (k - 1) == 0))
    sub_gens = [int(two_elements[0])]
    sub = t.closure(sub_gens)
    while sub.sum() < target:
        x = two_elements[~sub[two_elements]][:, None]
        # a 2-element that normalizes a 2-subgroup extends it to a 2-subgroup
        normalizes = sub[t.product(t.inv[x], np.array(sub_gens), x)].all(axis=1)
        if not normalizes.any():
            raise ContractError("failed to grow 2-subgroup to Sylow size")
        sub_gens.append(int(x[normalizes.argmax(), 0]))
        sub = t.closure(sub_gens)
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
        return self._perm_of(_indices(self._ambient_table, [x])[0])


def quotient_group(g: PermGroup, n: NormalSubgroupHandle) -> QuotientGroup:
    if n.ambient is not g:
        raise ContractError("handle does not belong to this group")
    if not n.check_normal():
        raise ContractError("subgroup is not normal in ambient")
    return QuotientGroup(g, n)


def _hom_room(group: PermGroup, image_degree: int):
    """Refuse, with a ResourceError, a group with more elements than
    ``hom_from_generator_images`` may list with images on ``image_degree``
    points; ``group.order()`` is read first."""
    room = min(ELEMENTS_CAP, CHAIN_CAP // (group.degree + image_degree))
    if group.order() > room:
        raise ResourceError(
            f"element budget is {ELEMENTS_CAP} elements and {CHAIN_CAP} entries:"
            f" the group on {group.degree} points, with images on {image_degree} points,"
            f" has more than {room} elements"
        )


def hom_from_generator_images(group: PermGroup, images):
    """Try to extend generator -> image, one image per generator of
    ``group``, to a homomorphism into the permutations of the images' degree.

    Returns the list of images, in ``element_table(group)`` index order, or
    None if the assignment is inconsistent.  Images of different degrees
    are a ParameterError.  The order of ``group`` is read first: more
    elements than ``_hom_room``, the budget of ``PermGroup.elements()`` for
    elements and images, is a ``ResourceError``.  The images are composed
    as tuples along the BFS tree of ``ElementTable.generator_tree``, and
    every edge off that tree is checked once (Holt, Eick and O'Brien, 2005,
    sec. 4.6).
    """
    if len(images) != len(group.generators):
        raise ParameterError("need one image per generator")
    if len({len(img) for img in images}) > 1:
        raise ParameterError("generator images of different degrees")
    image_degree = len(images[0]) if images else 0
    _hom_room(group, image_degree)
    t = element_table(group)
    schedule, off_tree = t.generator_tree
    f = [identity(image_degree)] * t.n  # every other element is set on the tree
    for dst, src, slot in schedule:
        f[dst] = pmul(f[src], images[slot])
    for img, (srcs, dsts) in zip(images, off_tree):
        if any(pmul(f[x], img) != f[y] for x, y in zip(srcs.tolist(), dsts.tolist())):
            return None
    return f


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

    Elements are sorted and indexed 0..n-1; ``_images[p, i]``, the image of
    point p under element i, is the only copy of the elements (``find``
    turns permutations into indices, ``perms`` indices into tuples where
    they leave the table).  ``inv[i]`` is the index of the inverse of
    element i and ``order_of[i]`` its order.  ``right(i)`` and ``left(i)``
    give x * i and i * x for every x, and ``product`` multiplies over index
    arrays; no n x n product table is stored.  Subgroups, cosets, conjugacy
    classes, the census and the automorphism search run in this space.

    Products are found from their images of a base (see ``_base_lookups``)
    by a chain of array lookups, never by comparing whole permutations.
    The build proves the element list equal to the group its generators
    generate: every generator column is checked on every point (so the
    list is closed under the generators), and the generator columns reach
    every element from the identity.  A base tells the elements of a group
    apart, so every lookup after that is exact.
    """

    def __init__(self, g: PermGroup):
        rows = g.element_array()
        n = self.n = len(rows)
        self.degree = g.degree
        images = self._images = np.ascontiguousarray(rows.T, dtype=np.int32)
        self.base, self._luts = _base_lookups(images.T)
        self._base_images = images[self.base]
        found = self.find(np.array([g.ident, *g.generators]))
        if (found < 0).any():
            raise ContractError("element list misses the identity or a generator")
        e = self.identity_index = int(found[0])
        self.gen_indices = found[1:].tolist()
        cols = [self.right(j) for j in self.gen_indices]
        for gen, col in zip(g.generators, cols):
            if np.min(col) < 0:
                raise ContractError("a product is missing from the element list")
            if not np.array_equal(images[:, col], np.array(gen, dtype=np.int32)[images]):
                raise ContractError("a generator column disagrees with the permutations")
        if not self._span(cols, [e]).all():
            raise ContractError("the element list is larger than the group it generates")
        base = np.array(self.base, dtype=np.int32)[:, None]
        # x^-1 sends b to the point that x sends to b
        self.inv = self._lookup((images == base[:, :, None]).argmax(axis=1)).astype(np.int32)
        # order of x: the least k whose x^k fixes every base point
        order_of = np.zeros(n, dtype=np.int32)
        todo, power = np.arange(n), self._base_images
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
        luts = self._luts
        if not luts:  # the trivial group
            return np.zeros(images.shape[1:], dtype=np.intp)
        code = np.asarray(luts[0][images[0]])  # 0-d for one element
        for t in range(1, len(luts)):
            code *= self.degree
            code += images[t]
            luts[t].take(code, out=code, mode="wrap")  # in place; a miss stays -1
        return code

    def find(self, perms) -> np.ndarray:
        """Index of each row of the integer array ``perms``, or -1 where it
        is no element: ``_lookup`` of its base images (clipped into range),
        then the whole row compared with that element's."""
        cols = perms.T
        found = self._lookup(np.clip(cols[self.base], 0, self.degree - 1))
        found[(found < 0) | (self._images[:, found] != cols).any(axis=0)] = -1
        return found

    def perms(self, indices) -> list:
        """The elements with the given indices as tuples: ``_images`` columns."""
        return list(map(tuple, self._images[:, indices].T.tolist()))

    def right(self, i: int) -> np.ndarray:
        """Index of x * (element i) for every x; it sends b to i[x[b]]."""
        return self._lookup(self._images[:, i][self._base_images])

    def left(self, i: int) -> np.ndarray:
        """Index of (element i) * x for every x; it sends b to x[i[b]]."""
        return self._lookup(self._images[self._base_images[:, i]])

    def conjugation(self, i: int) -> np.ndarray:
        """Index of i^-1 * x * i for every x."""
        images = self._images
        return self._lookup(images[:, i][images[self._base_images[:, self.inv[i]]]])

    def conjugates(self, i, by=None) -> np.ndarray:
        """Index of y^-1 * x * y, x the element i, for every y, or for the y
        whose indices are the array ``by``; it sends b to y[x[y^-1[b]]].
        For an index array i, one row per x (a transposed view): the images
        of every x are gathered at once."""
        images = self._images
        by = np.arange(self.n) if by is None else by
        x = images[:, i][self._base_images[:, self.inv[by]]]
        if isinstance(i, np.ndarray):
            return self._lookup(images[x, by[:, None]]).T
        return self._lookup(images[x, by])

    def class_labels(self) -> np.ndarray:
        """The least index in the conjugacy class of each element (cached)."""
        if self._class_labels is None:
            cols = [self.conjugation(i).tolist() for i in self.gen_indices]
            self._class_labels = _orbit_labels(self.n, cols)
        return self._class_labels

    def product(self, *indices):
        """Index of the product of the given elements, left to right, over
        ints (an int out) or index arrays that broadcast: the base points
        carried through the images of each factor, then ``_lookup``."""
        ndim = max(map(np.ndim, indices))
        images = np.array(self.base, dtype=np.intp).reshape((-1,) + (1,) * ndim)
        for x in indices:
            images = self._images[images, x]
        found = self._lookup(images)
        return found if ndim else int(found)

    def involution_indices(self) -> np.ndarray:
        return np.flatnonzero(self.order_of == 2)

    def _span(self, cols, seeds) -> np.ndarray:
        """Mask of the elements reached from the identity and ``seeds`` by
        the right multiplications ``cols``.  A frontier keeps the copy of a
        new element whose position the scratch ``slot`` holds: no sort."""
        members = np.zeros(self.n, dtype=bool)
        members[self.identity_index] = True
        frontier = np.asarray(seeds, dtype=np.intp)
        members[frontier] = True
        slot = np.empty(self.n, dtype=np.intp)
        while frontier.size and cols:
            prods = np.concatenate([col[frontier] for col in cols])
            new = prods[~members[prods]]
            place = np.arange(new.size)
            slot[new] = place
            frontier = new[slot[new] == place]
            members[frontier] = True
        return members

    def closure(self, seed_indices) -> np.ndarray:
        """Mask of the subgroup generated by the given element indices.

        For a (k, 2) index array of seed pairs, one mask per row, (k, n):
        one BFS over the flat ids row * n + x, in blocks of at most
        CHAIN_CAP ids.  Each level multiplies only the frontier by its
        row's seeds, and a row past n/2 elements is all of G (Lagrange)."""
        if np.ndim(seed_indices) < 2:
            seeds = sorted(set(seed_indices))
            return self._span([self.right(i) for i in seeds], seeds)
        pairs = np.asarray(seed_indices, dtype=np.intp)
        n, images = self.n, self._images
        out = np.zeros((len(pairs), n), dtype=bool)
        out[:, self.identity_index] = True
        step = max(1, CHAIN_CAP // n)
        for start in range(0, len(pairs), step):
            seeds = pairs[start:start + step]
            members = out[start:start + step]
            flat = members.reshape(-1)  # id row * n + x
            frontier = np.unique(np.arange(len(seeds))[:, None] * n + seeds)
            frontier = frontier[~flat[frontier]]
            flat[frontier] = True
            size = members.sum(axis=1)
            slot = np.empty(flat.size, dtype=np.int32)
            while frontier.size:
                row = frontier // n
                x = self._base_images[:, frontier - row * n]
                prods = np.empty((len(self.base), seeds.shape[1], frontier.size), dtype=np.int32)
                for k, seed in enumerate(seeds.T):
                    prods[:, k] = images[x, seed[row]]  # x * seed sends b to seed[x[b]]
                prods = self._lookup(prods)
                prods += row * n
                new = prods[~flat[prods]]
                place = np.arange(new.size, dtype=np.int32)
                slot[new] = place
                new = new[slot[new] == place]  # one copy of each
                flat[new] = True
                size += np.bincount(new // n, minlength=len(seeds))
                whole = 2 * size > n  # a subgroup of more than n/2 elements is G
                if whole.any():
                    members[whole] = True
                    size[whole] = 0  # and their frontier is dropped
                    new = new[~whole[new // n]]
                frontier = new
        return out

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

    @cached_property
    def generator_tree(self):
        """``bfs_schedule`` of the table's own generators and, for each slot
        s, the Cayley graph edges x -> x g_s off that tree as the index
        arrays (x, x g_s).  Computed on first use, then kept."""
        schedule = self.bfs_schedule(self.gen_indices)
        off = np.ones((len(self.gen_indices), self.n), dtype=bool)
        off[[slot for *_, slot in schedule], [src for _, src, _ in schedule]] = False
        srcs = map(np.flatnonzero, off)
        return schedule, [(x, self.right(j)[x]) for j, x in zip(self.gen_indices, srcs)]

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
        gens = np.array(gen_indices, dtype=np.intp)
        pair_orders = order_of[self.product(gens[None], gens[:, None])]  # [i, j]: ord(g_j * g_i)
        room = CHAIN_CAP // self.n
        found = []

        def extend(i, cent, lefts, rights):
            if i == k:
                f = self.extend_map(schedule, gen_cols, rights)
                if f is not None:
                    if len(found) == room:
                        raise ResourceError(
                            f"automorphism budget is {CHAIN_CAP} entries (maps x |G|):"
                            f" more than {room} maps of a group of order {self.n}")
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
        return len(maps) * (self.n // int(np.all(fixed, axis=0).sum()))


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
    maps = table.automorphism_index_maps(_indices(table, triple))
    return table.automorphism_count(maps)
