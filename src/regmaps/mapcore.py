"""The regular-map layer.

A non-orientable regular map of type {m, n} is carried by a group G
generated by involutions a, b, c with (ac)^2 = 1, ord(ab) = m, ord(bc) = n
and <ab, bc> = G.  This module verifies candidate triples, computes the
Euler characteristic and flag counts, checks the structural constraints
that odd characteristic imposes, and provides the involution-triple
enumerator behind both the triple search and the census up to Aut(G)
used as a ground-truth oracle on small groups.  The census reads its
Aut(G)-orbits, and self-duality, off one automorphism per coset of
Inn(G), in inner classes: each triple is kept as the conjugate whose first
entry is a class representative.  Aut(G) itself is never listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import as_prime_power, odd_prime_divisors, p_part
from .errors import ContractError, ParameterError
from .permgrp import (
    NormalSubgroupHandle,
    Perm,
    PermGroup,
    element_table,
    odd_core,
    pmul,
    porder,
    quotient_group,
    sylow2_shape,
)

__all__ = [
    "MapError",
    "InvolutionError",
    "GenerationError",
    "OrientableError",
    "MapTriple",
    "MapCertificate",
    "QuotientData",
    "CensusClass",
    "euler_characteristic",
    "map_counts",
    "verify_star_group",
    "quotient_data",
    "verify_structural_lemmas",
    "involution_triples",
    "classify_maps_for_group",
]


class MapError(ContractError):
    """Base class for star-group verification failures."""


class InvolutionError(MapError):
    """One of a, b, c, ac fails to square to the identity."""


class GenerationError(MapError):
    """<a, b, c> is a proper subgroup."""


class OrientableError(MapError):
    """<ab, bc> has index 2: the carrier surface is orientable."""


def euler_characteristic(order: int, m: int, n: int) -> int:
    """chi = -(|G|/2)(1/2 - 1/m - 1/n), evaluated exactly.

    Both closed forms (the fraction above and -|G|(mn-2m-2n)/(4mn)) are
    computed and must agree as exact rationals and give an integer.
    """
    if m < 2 or n < 2:
        raise ParameterError(f"need m, n >= 2, got ({m}, {n})")
    if order < 1 or order % (2 * lcm(m, n)):
        raise ContractError(
            f"|G| = {order} is not divisible by 2*lcm({m},{n}) = {2 * lcm(m, n)}"
        )
    chi_a = -Fraction(order, 2) * (Fraction(1, 2) - Fraction(1, m) - Fraction(1, n))
    chi_b = Fraction(-order * (m * n - 2 * m - 2 * n), 4 * m * n)
    if chi_a != chi_b:
        raise ContractError("the two Euler forms disagree")
    if chi_a.denominator != 1:
        raise ContractError(f"non-integral Euler characteristic {chi_a}")
    return int(chi_a)


@dataclass(frozen=True)
class MapTriple:
    """A verified (2,m,n)*-triple: group plus generating involutions."""

    group: PermGroup
    a: Perm
    b: Perm
    c: Perm
    m: int
    n: int
    chi: int

    @property
    def ab(self) -> Perm:
        return pmul(self.a, self.b)

    @property
    def bc(self) -> Perm:
        return pmul(self.b, self.c)

    def dual(self) -> "MapTriple":
        """Swap a and c: type {n, m}, same chi."""
        return MapTriple(self.group, self.c, self.b, self.a, self.n, self.m, self.chi)

    @property
    def degenerate(self) -> bool:
        """Quotient maps like (2,2,l)* are kept but flagged."""
        return self.m <= 2 or self.n <= 2


@dataclass(frozen=True)
class MapCertificate:
    m: int
    n: int
    chi: int
    non_orientable: bool
    vertices: int
    edges: int
    faces: int
    chi_prime_power: tuple | None
    degenerate: bool = False

    @property
    def u(self) -> int:
        """Vertices plus faces (the branch-point count of an r-fold cover)."""
        return self.vertices + self.faces

    def to_dict(self, order: int | None = None):
        out = {
            "m": self.m,
            "n": self.n,
            "chi": self.chi,
            "non_orientable": self.non_orientable,
            "V": self.vertices,
            "E": self.edges,
            "F": self.faces,
        }
        if order is not None:
            out["order"] = order
        if self.chi_prime_power is not None:
            out["r"], out["d"] = self.chi_prime_power
        if self.degenerate:
            out["degenerate"] = True
        return out


def map_counts(t: MapTriple) -> MapCertificate:
    """Flag counts: V = |G|/(2n), E = |G|/4, F = |G|/(2m)."""
    order = t.group.order()
    v, e, f = order // (2 * t.n), order // 4, order // (2 * t.m)
    if v - e + f != t.chi:
        raise ContractError("V - E + F does not match chi")
    cpp = None
    if t.chi <= -2:
        pp = as_prime_power(-t.chi)
        if pp is not None and pp[0] % 2 == 1:
            cpp = pp
    return MapCertificate(
        m=t.m,
        n=t.n,
        chi=t.chi,
        non_orientable=True,
        vertices=v,
        edges=e,
        faces=f,
        chi_prime_power=cpp,
        degenerate=t.degenerate,
    )


def verify_star_group(g: PermGroup, a: Perm, b: Perm, c: Perm) -> MapTriple:
    """Check that (a, b, c) makes g a (2,m,n)*-group and build the triple.

    For triples from outside the enumerator: <ab, bc> = G is proved by a
    Schreier-Sims chain of <ab, bc>.  Distinct failures raise distinct
    errors: InvolutionError, GenerationError, OrientableError.
    """
    ident = g.ident
    for name, x in (("a", a), ("b", b), ("c", c)):
        if len(x) != g.degree:
            raise ParameterError(f"{name} has wrong degree")
        if x == ident or pmul(x, x) != ident:
            raise InvolutionError(f"{name} is not an involution")
    ac = pmul(a, c)
    if ac != ident and pmul(ac, ac) != ident:
        raise InvolutionError("(ac)^2 != 1")
    order = g.order()
    x, y = pmul(a, b), pmul(b, c)
    rot_order = g.subgroup([x, y]).order()
    if rot_order != order:
        sub_order = g.subgroup([a, b, c]).order()
        if sub_order != order:
            raise GenerationError("<a, b, c> is a proper subgroup")
        if 2 * rot_order == order:
            raise OrientableError("<ab, bc> has index 2 (orientable carrier)")
        raise ContractError(f"<ab, bc> has unexpected index {order // rot_order}")
    m, n = porder(x), porder(y)
    chi = euler_characteristic(order, m, n)
    return MapTriple(group=g, a=a, b=b, c=c, m=m, n=n, chi=chi)


@dataclass(frozen=True)
class QuotientData:
    """Orders of the canonical products in G/O and G/N, with quotients."""

    m_bar: int
    n_bar: int
    m_star: int
    n_star: int
    m_o: int
    n_o: int
    m_1: int
    n_1: int


def _quotient_orders(t: MapTriple, n: NormalSubgroupHandle):
    """(G/N, the order of ab in it, the order of bc in it); G itself when
    N is trivial."""
    if n.is_trivial():
        return t.group, t.m, t.n
    q = quotient_group(t.group, n)
    return q, porder(q.project(t.ab)), porder(q.project(t.bc))


def quotient_data(t: MapTriple, n: NormalSubgroupHandle) -> QuotientData:
    _, m_bar, n_bar = _quotient_orders(t, odd_core(t.group))
    _, m_star, n_star = _quotient_orders(t, n)
    for name, big, small in (
        ("m_bar", t.m, m_bar),
        ("n_bar", t.n, n_bar),
        ("m_star", t.m, m_star),
        ("n_star", t.n, n_star),
    ):
        if big % small:
            raise ContractError(f"{name} = {small} does not divide {big}")
    return QuotientData(
        m_bar=m_bar,
        n_bar=n_bar,
        m_star=m_star,
        n_star=n_star,
        m_o=t.m // m_bar,
        n_o=t.n // n_bar,
        m_1=t.m // m_star,
        n_1=t.n // n_star,
    )


@dataclass
class LemmaCheck:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


@dataclass
class StructuralReport:
    checks: list = field(default_factory=list)

    def add(self, name, applicable, passed, detail=""):
        self.checks.append(LemmaCheck(name, applicable, bool(passed), detail))

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_structural_lemmas(t: MapTriple) -> StructuralReport:
    """Check the odd-characteristic structure facts on a concrete triple.

    (i)   the Sylow 2-subgroup is Klein or dihedral;
    (ii)  for odd primes t | |G| with t coprime to chi, Sylow-t is cyclic;
    (iii) if |G/O|_2 > 2 |m_bar|_2 |n_bar|_2 then |G|_2 = 4 and m, n odd;
    (iv)  if chi = -r^d, any odd t with |G/O|_t > |m_bar|_t |n_bar|_t is r;
    (v)   if G is soluble, G/O is a 2-group or has S4's order profile.

    Checks (ii) and (iv) read ``t.chi``; a negative control passes a copy
    of ``t`` with a corrupted chi (``dataclasses.replace``).
    """
    chi = t.chi
    if chi % 2 == 0:
        raise ContractError("structural lemmas apply to odd characteristic only")
    g = t.group
    order = g.order()
    report = StructuralReport()

    shape = sylow2_shape(g)
    report.add("sylow2_klein_or_dihedral", True, shape in ("klein", "dihedral"), shape)

    orders_present = set(g.element_orders())
    bad = [
        tt
        for tt in odd_prime_divisors(order)
        if chi % tt != 0 and p_part(order, tt) not in orders_present
    ]
    report.add(
        "sylow_cyclic_away_from_chi",
        True,
        not bad,
        f"non-cyclic Sylow at {bad}" if bad else "",
    )

    gbar, m_bar, n_bar = _quotient_orders(t, odd_core(g))
    gbar_order = gbar.order()

    cond3 = p_part(gbar_order, 2) > 2 * p_part(m_bar, 2) * p_part(n_bar, 2)
    ok3 = (p_part(order, 2) == 4 and t.m % 2 == 1 and t.n % 2 == 1) if cond3 else True
    report.add("two_part_bound", cond3, ok3)

    rd = as_prime_power(-chi) if chi <= -2 else None
    if rd is not None and rd[0] % 2 == 1:
        r = rd[0]
        offenders = [
            tt
            for tt in odd_prime_divisors(gbar_order)
            if p_part(gbar_order, tt) > p_part(m_bar, tt) * p_part(n_bar, tt) and tt != r
        ]
        report.add(
            "odd_prime_excess_is_r",
            True,
            not offenders,
            f"excess at {offenders}" if offenders else "",
        )
    else:
        report.add(
            "odd_prime_excess_is_r", False, True, "chi is not minus an odd prime power"
        )

    if g.is_soluble():
        if gbar_order & (gbar_order - 1) == 0:
            report.add("soluble_quotient", True, True, f"2-group of order {gbar_order}")
        elif gbar_order == 24:
            profile = gbar.element_orders()
            report.add(
                "soluble_quotient",
                True,
                profile == {1: 1, 2: 9, 3: 8, 4: 6},
                f"order 24, profile {profile}",
            )
        else:
            report.add("soluble_quotient", True, False, f"|G/O| = {gbar_order}")
    else:
        report.add("soluble_quotient", False, True, "group is insoluble")
    return report


@dataclass(frozen=True)
class CensusClass:
    """One Aut(G)-class of maps of ordered type (m, n), m <= n, on a group.

    ``classes_of_type`` counts Aut-orbits of ordered triples of this type;
    ``duality_classes_of_type`` counts them up to duality, which is the
    external census convention (it only differs for m = n, where a chiral
    pair of mutually dual orbits is a single census entry).
    """

    representative: MapTriple
    m: int
    n: int
    chi: int
    classes_of_type: int
    duality_classes_of_type: int
    self_dual: bool
    hyperbolic: bool


def involution_triples(g: PermGroup, types=None):
    """(2,m,n)*-triples on g whose a is an involution class representative.

    Yields (ia, ib, ic, m, n, class_size) with indices into element_table(g):
    a runs over the involution class representatives (the least index of
    each class, from ``class_labels``), b over the involutions in ascending
    index order, c in ascending index order over the involutions with
    (ac)^2 = 1.  A candidate is kept when (ord(ab), ord(bc)) is in
    ``types`` (None means every type with 2 <= m <= n) and <ab, bc> = G,
    which forces <a, b, c> = G and non-orientability.  Every Aut(g)-orbit of triples meets this set,
    and a triple with a fixed stands for class_size conjugate triples.
    ord(ax) is read off the ``left`` column of a, ord(bc) off the ``right``
    columns of the surviving c.  <ab, bc> = G takes one ``closure`` test
    per C_G(a)-orbit of candidates: conjugating by y in C_G(a) fixes a,
    keeps the orders and sends <ab, bc> to its conjugate, so the verdict
    of the first candidate met is recorded for every (b^y, c^y) (Holt,
    Eick and O'Brien, 2005, ch. 4).
    """
    table = element_table(g)
    order_of, n_all = table.order_of, table.n
    invs = table.involution_indices()
    reps, sizes = np.unique(table.class_labels(), return_counts=True)
    for ia, class_size in zip(reps.tolist(), sizes.tolist()):
        if order_of[ia] != 2:
            continue
        row_a = table.left(ia)  # a * x for every x
        ord_ax = order_of[row_a[invs]]  # ord(ax) for each involution x
        cs = invs[ord_ax <= 2]  # (ac)^2 = 1; a itself is one
        ms = ord_ax[:, None]  # ord(ab), one row per b
        bc = np.stack([table.right(c)[invs] for c in cs.tolist()], axis=1)  # b * c
        ns = order_of[bc]  # ord(bc), b by c
        if types is None:
            keep = (ms >= 2) & (ms <= ns)
        else:
            keep = np.zeros(ns.shape, dtype=bool)
            for m, n in types:
                keep |= (ms == m) & (ns == n)
        cent = np.flatnonzero(table.conjugates(ia) == ia)  # C_G(a)
        verdict = np.zeros(keep.shape, dtype=np.int8)  # 0 untested, 1 generates, -1 not
        for i, j in zip(*np.nonzero(keep)):  # row-major: b, then c ascending
            ib, ic = int(invs[i]), int(cs[j])
            if not verdict[i, j]:
                full = table.closure([int(row_a[ib]), int(bc[i, j])]).sum() == n_all
                rows = np.searchsorted(invs, table.conjugates(ib)[cent])
                verdict[rows, np.searchsorted(cs, table.conjugates(ic)[cent])] = 1 if full else -1
            if verdict[i, j] > 0:
                yield ia, ib, ic, int(ms[i, 0]), int(ns[i, j]), class_size


def _enumerated_triple(g: PermGroup, table, ia, ib, ic, m, n) -> MapTriple:
    """The MapTriple of a triple that involution_triples yielded: its
    involutions, (ac)^2 = 1, orders and closure test <ab, bc> = G are
    the proof, so no Schreier-Sims chain is built for it."""
    a, b, c = table.perms([ia, ib, ic])
    return MapTriple(g, a, b, c, m, n, euler_characteristic(table.n, m, n))


def classify_maps_for_group(g: PermGroup, types=None):
    """Census of (2,m,n)*-triples on g, up to Aut(g).

    Runs involution_triples over the involution class representatives a,
    with one closure test per C_G(a)-orbit of candidates (b, c), the only
    generation proof of a representative: every triple with
    2 <= ord(ab) <= ord(bc) that passes verify_star_group (degenerate
    quotient types like (2, l) included) is conjugate to one of them, so a
    type (m, n) has sum |class(a)| * #triples(a) triples in all.
    Aut(g) acts freely on generating triples, so the class count is that
    total / |Aut(g)|.  The automorphisms are never listed: the maps f of
    ``ElementTable.automorphism_index_maps`` are one per coset of Inn(g),
    and |Aut(g)| = (number of maps) x |g : Z(g)|.  Orbits are kept in inner
    classes: Inn(g) acts freely on generating triples, so the Inn-class of
    f(T) is the C_g(r)-orbit of its member (r, y, z) with r a class
    representative, and each such member stands for |class(r)| triples.
    The class-representative triples are walked in enumerator order; each
    one not yet covered becomes a representative T, and its orbit is the
    union of those C_g(r)-orbits over the f.  The class sizes of its
    entries must sum to |Aut(g)| and the orbits met must number
    total / |Aut(g)|.  A representative is self-dual when (c, b, a),
    moved the same way, lies in its orbit.  The dual copy of a type with
    m < n (its (n, m) triples) is not listed again.

    ``types``, if given, restricts the census to those ordered types.  The
    element table and the automorphism search carry the budgets: a group
    of order above ELEMENTS_CAP is refused before its elements are
    enumerated, and more maps than CHAIN_CAP entries hold as they are found.
    """
    table = element_table(g)
    totals = {}  # (m, n) -> number of triples of that type
    accepted = {}  # (m, n) -> list of class-representative (ia, ib, ic)
    for ia, ib, ic, m, n, class_size in involution_triples(g, types):
        totals[(m, n)] = totals.get((m, n), 0) + class_size
        accepted.setdefault((m, n), []).append((ia, ib, ic))
    if not accepted:
        return []

    first = next(iter(accepted.values()))[0]
    auts = np.array(table.automorphism_index_maps(list(first)))  # auts[k, x]: image of x under map k
    n_aut = table.automorphism_count(auts)
    labels = table.class_labels()
    sizes = np.bincount(labels, minlength=table.n)
    to_rep, cents = np.zeros(table.n, dtype=np.intp), {}  # to_rep[x]^-1 x to_rep[x] = labels[x]
    for r in np.unique(labels[table.order_of == 2]).tolist():
        conj = table.conjugates(r)
        to_rep[conj] = table.inv
        cents[r] = np.flatnonzero(conj == r)

    def canonical(x, y, z):  # each triple of the arrays conjugated to a class representative first
        u = to_rep[x]
        ys, zs = table.product(table.inv[u], np.array([y, z]), u).tolist()
        return zip(labels[x].tolist(), ys, zs)

    out = []
    for (m, n), triples in sorted(accepted.items()):
        total = totals[(m, n)]
        if total % n_aut:
            raise ContractError(
                f"type ({m},{n}): {total} triples not divisible by |Aut| = {n_aut}"
            )
        k = total // n_aut
        reps, self_duality, covered = [], [], set()
        for ia, ib, ic in triples:
            if (ia, ib, ic) in covered:
                continue
            orbit = set()  # the entries of the orbit with a class representative first
            for r, y, z in canonical(auts[:, ia], auts[:, ib], auts[:, ic]):
                if (r, y, z) not in orbit:
                    ys, zs = (table.conjugates(x, cents[r]).tolist() for x in (y, z))
                    orbit.update(zip([r] * len(ys), ys, zs))
            weight = sum(int(sizes[r]) for r, _, _ in orbit)
            if weight != n_aut:
                raise ContractError(
                    f"type ({m},{n}): orbit of {weight} triples, |Aut| = {n_aut}"
                )
            covered |= orbit
            reps.append((ia, ib, ic))
            self_duality.append(next(canonical([ic], [ib], [ia])) in orbit)
        if len(reps) != k:
            raise ContractError(f"type ({m},{n}): found {len(reps)} of {k} classes")
        if m == n:
            n_self = sum(self_duality)
            if (k - n_self) % 2:
                raise ContractError("chiral duals do not pair up")
            duality_classes = n_self + (k - n_self) // 2
        else:
            duality_classes = k
        for (ia, ib, ic), sd in zip(reps, self_duality):
            t = _enumerated_triple(g, table, ia, ib, ic, m, n)
            out.append(
                CensusClass(
                    representative=t,
                    m=m,
                    n=n,
                    chi=t.chi,
                    classes_of_type=k,
                    duality_classes_of_type=duality_classes,
                    self_dual=sd,
                    hyperbolic=t.chi < 0,
                )
            )
    return out
