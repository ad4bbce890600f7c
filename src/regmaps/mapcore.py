"""The regular-map layer.

A non-orientable regular map of type {m, n} is carried by a group G
generated by involutions a, b, c with (ac)^2 = 1, ord(ab) = m, ord(bc) = n
and <ab, bc> = G.  This module verifies candidate triples, computes the
Euler characteristic and flag counts, checks the structural constraints
that odd characteristic imposes, and provides the involution-triple
candidates and their C_G(a)-orbits behind both the triple search (lazy,
one closure test per orbit met) and the census up to Aut(G) (one batched
closure test per class representative), the census being used as a
ground-truth oracle on small groups.  The census reads its
Aut(G)-orbits, and self-duality, off one automorphism per coset of
Inn(G), in inner classes: each is kept once, as its least member whose
first entry is a class representative, and no other triple is stored.
Aut(G) itself is never listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import as_prime_power, odd_prime_divisors, p_part
from .errors import ContractError, ParameterError
from .permgrp import (
    CHAIN_CAP,
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
    "CensusClass",
    "euler_characteristic",
    "map_counts",
    "verify_star_group",
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


def _quotient_orders(t: MapTriple, n: NormalSubgroupHandle):
    """(G/N, the order of ab in it, the order of bc in it); G itself when
    N is trivial."""
    if n.is_trivial():
        return t.group, t.m, t.n
    q = quotient_group(t.group, n)
    return q, porder(q.project(t.ab)), porder(q.project(t.bc))


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


def _conjugate_rows(table, xs, by) -> np.ndarray:
    """int32 [k, u]: the index of by[u]^-1 * xs[k] * by[u], gathered by
    ``ElementTable.conjugates`` in row blocks of at most CHAIN_CAP entries
    held at once: for each row and u, the base images of xs[k], their intp
    copy as an index and the base images of the conjugate, and the intp
    code of ``_lookup``."""
    out = np.empty((len(xs), len(by)), dtype=np.int32)
    step = max(1, CHAIN_CAP // (len(by) * (3 * len(table.base) + 1)))
    for start in range(0, len(xs), step):
        out[start:start + step] = table.conjugates(xs[start:start + step], by)
    return out


def _product_rows(table, xs, ys) -> np.ndarray:
    """int32 [k, u]: the index of xs[k] * ys[u], from ``ElementTable.product``
    in row blocks of at most CHAIN_CAP entries held at once: for each row
    and u, the base images of the product, the intp copy of the first as
    an index and the intp code of ``_lookup``."""
    out = np.empty((len(xs), len(ys)), dtype=np.int32)
    step = max(1, CHAIN_CAP // max(1, len(ys) * (len(table.base) + 2)))
    for start in range(0, len(xs), step):
        out[start:start + step] = table.product(xs[start:start + step, None], ys)
    return out


def _orbit_firsts(table, ia, invs, c_pos, keep):
    """(label, firsts): the C_G(a)-orbits of the candidates ``keep`` [b, c]
    of a = element ia, b over the involutions ``invs`` and c over
    ``invs[c_pos]``.  They are marked in row-major order: ``firsts`` holds
    the (rows, columns) of the first (least) member of each orbit,
    ``label`` the number of its orbit on every candidate.  The orbits come
    from one gather of x^y for every involution x and every y in C_G(a)."""
    row_of = np.zeros(table.n, dtype=np.intp)
    row_of[invs] = np.arange(invs.size)
    col_of = np.zeros(table.n, dtype=np.intp)
    col_of[invs[c_pos]] = np.arange(c_pos.size)
    cent = np.flatnonzero(table.conjugates(ia) == ia)  # C_G(a)
    orbit = _conjugate_rows(table, invs, cent)  # [x, y]: x^y
    label = np.full(keep.shape, -1, dtype=np.int32)
    firsts = []
    # an orbit's first member lies in the row of the least b^y
    lead = keep.any(axis=1) & (orbit.min(axis=1) == invs)
    for i in np.flatnonzero(lead).tolist():
        for j in np.flatnonzero(keep[i] & (label[i] < 0)).tolist():
            if label[i, j] < 0:  # not in the orbit of an earlier j of this row
                label[row_of[orbit[i]], col_of[orbit[c_pos[j]]]] = len(firsts)
                firsts.append((i, j))
    return label, np.array(firsts).T


def _candidate_orbits(table, types):
    """The candidates (b, c) of each involution class representative a,
    with their C_G(a)-orbits.

    Yields (ia, class_size, orbit_size, invs, cs, ab, bc, keep, label,
    firsts) for each representative with a candidate: a is the least index
    of its class (``class_labels``), b runs over the involutions ``invs``
    (rows), c over the involutions ``cs`` with (ac)^2 = 1 (columns),
    ``ab[i]`` and ``bc[i, j]`` are the indices of a b_i and b_i c_j, and
    ``keep`` marks the cells with (ord(ab), ord(bc)) in ``types`` (None
    means every type with 2 <= m <= n).  Conjugating by y in C_G(a) fixes
    a, keeps the orders and sends <ab, bc> to its conjugate, so a verdict
    on <ab, bc> = G holds for the whole C_G(a)-orbit of (b, c): ``label``
    and ``firsts`` are those orbits, from ``_orbit_firsts``.  A generating
    orbit holds orbit_size = |C_G(a) : Z(G)| triples (C_G(a) meets the
    centralizer of a generating triple in Z(G); Holt, Eick and O'Brien,
    2005, ch. 4).
    """
    order_of = table.order_of
    invs = table.involution_indices()
    reps, sizes = np.unique(table.class_labels(), return_counts=True)
    n_center = int(np.count_nonzero(sizes == 1))
    for ia, class_size in zip(reps.tolist(), sizes.tolist()):
        if order_of[ia] != 2:
            continue
        ab = table.left(ia)[invs]  # a * x for each involution x
        ms = order_of[ab][:, None]  # ord(ab), one row per b
        c_pos = np.flatnonzero(ms[:, 0] <= 2)  # (ac)^2 = 1; a itself is one
        cs = invs[c_pos]
        bc = _product_rows(table, invs, cs)  # b * c
        ns = order_of[bc]  # ord(bc), b by c
        if types is None:
            keep = (ms >= 2) & (ms <= ns)
        else:
            keep = np.zeros(ns.shape, dtype=bool)
            for m, n in types:
                keep |= (ms == m) & (ns == n)
        if keep.any():
            label, firsts = _orbit_firsts(table, ia, invs, c_pos, keep)
            orbit_size = table.n // (class_size * n_center)
            yield ia, class_size, orbit_size, invs, cs, ab, bc, keep, label, firsts


def involution_triples(g: PermGroup, types=None):
    """(2,m,n)*-triples on g whose a is an involution class representative.

    Yields (ia, ib, ic, m, n) with indices into element_table(g), in the
    order of ``_candidate_orbits``: a over the involution class
    representatives, then b, then c, each ascending.  A candidate is kept
    when (ord(ab), ord(bc)) is in ``types`` (None means every type with
    2 <= m <= n) and <ab, bc> = G, which forces <a, b, c> = G and
    non-orientability.  Every Aut(g)-orbit of triples meets this set.
    The test is lazy: one ``closure`` of a single pair for the first
    member of each C_G(a)-orbit met, whose verdict holds for the orbit,
    so a caller that stops early tests only the orbits it reached.
    """
    table = element_table(g)
    order_of = table.order_of
    for ia, _, _, invs, cs, ab, bc, keep, label, _ in _candidate_orbits(table, types):
        verdict = {}
        for i in np.flatnonzero(keep.any(axis=1)).tolist():
            ib, m = int(invs[i]), int(order_of[ab[i]])
            for j in np.flatnonzero(keep[i]).tolist():
                k = label[i, j]
                if k not in verdict:
                    verdict[k] = table.closure([int(ab[i]), int(bc[i, j])]).all()
                if verdict[k]:
                    yield ia, ib, int(cs[j]), m, int(order_of[bc[i, j]])


def _enumerated_triple(g: PermGroup, table, ia, ib, ic, m, n) -> MapTriple:
    """The MapTriple of a triple that involution_triples or
    _generating_orbits found: its involutions, (ac)^2 = 1, orders and
    closure test <ab, bc> = G are the proof, so no Schreier-Sims chain is
    built for it."""
    a, b, c = table.perms([ia, ib, ic])
    return MapTriple(g, a, b, c, m, n, euler_characteristic(table.n, m, n))


def _generating_orbits(g: PermGroup, types=None):
    """(m, n) -> {first member (ia, ib, ic) of each generating C_G(a)-orbit
    of that type, in the order of ``_candidate_orbits``: the class_size x
    orbit_size triples that its inner class holds}.  The first members of
    a representative's orbits are tested in one batched ``closure`` of
    their (ab, bc) pairs; only the generating ones are kept."""
    table = element_table(g)
    order_of = table.order_of
    out = {}
    for ia, class_size, orbit_size, invs, cs, ab, bc, _, _, (i, j) in _candidate_orbits(table, types):
        full = table.closure(np.stack([ab[i], bc[i, j]], axis=1)).all(axis=1)
        i, j = i[full], j[full]
        found = zip(invs[i].tolist(), cs[j].tolist(), order_of[ab[i]].tolist(),
                    order_of[bc[i, j]].tolist())
        for ib, ic, m, n in found:
            out.setdefault((m, n), {})[(ia, ib, ic)] = class_size * orbit_size
    return out


def classify_maps_for_group(g: PermGroup, types=None):
    """Census of (2,m,n)*-triples on g, up to Aut(g).

    Reads ``_generating_orbits``: over the involution class
    representatives a, one batched closure test per representative, a row
    per C_G(a)-orbit of candidates (b, c), is the only generation proof of
    a representative: every triple with 2 <= ord(ab) <= ord(bc) that
    passes verify_star_group (degenerate quotient types like (2, l)
    included) is conjugate to one of them.  Only the first member of each
    generating C_G(a)-orbit is kept: Inn(g) acts
    freely on generating triples, so that orbit is one inner class, keyed
    by its least member with a class representative first, and a type
    (m, n) has the sum of class_size x orbit_size triples in all.
    Aut(g) acts freely on generating triples, so the class count is that
    total / |Aut(g)|.  The automorphisms are never listed: the maps f of
    ``ElementTable.automorphism_index_maps`` are one per coset of Inn(g),
    and |Aut(g)| = (number of maps) x |g : Z(g)|.  Out(g) acts freely on
    the inner classes, so the Aut-orbit of a kept T is the set of keys of
    the f(T): f(T) is conjugated to the triple (r, y, z) with r a class
    representative, and its key is the least (y^u, z^u) over u in C_g(r),
    read in one gather for all the f.  The first members are walked in
    enumerator order; each one not yet covered becomes a representative
    T.  Its orbit must hold exactly len(maps) keys, each a kept inner
    class, whose triples sum to |Aut(g)|, and the orbits met must number
    total / |Aut(g)|.  A representative is self-dual when the key of
    (c, b, a) lies in its orbit.  The dual copy of a type with m < n (its
    (n, m) triples) is not listed again.

    ``types``, if given, restricts the census to those ordered types.  The
    element table and the automorphism search carry the budgets: a group
    of order above ELEMENTS_CAP is refused before its elements are
    enumerated, and more maps than CHAIN_CAP entries hold as they are found.
    """
    table = element_table(g)
    firsts = _generating_orbits(g, types)
    if not firsts:
        return []

    first = next(iter(next(iter(firsts.values()))))
    auts = np.array(table.automorphism_index_maps(list(first)))  # auts[k, x]: image of x under map k
    n_aut = table.automorphism_count(auts)
    labels = table.class_labels()
    to_rep, cents = np.zeros(table.n, dtype=np.intp), {}  # to_rep[x]^-1 x to_rep[x] = labels[x]
    for r in np.unique(labels[table.order_of == 2]).tolist():
        conj = table.conjugates(r)
        to_rep[conj] = table.inv
        cents[r] = np.flatnonzero(conj == r)

    def keys(x, y, z):
        """The key of each triple of the arrays: conjugated to a class
        representative r first, then the least (y^u, z^u), u in C_g(r)."""
        u = to_rep[x]
        rs = labels[x]
        ys, zs = table.product(table.inv[u], np.array([y, z]), u)
        found = np.empty((3, rs.size), dtype=np.intp)
        found[0] = rs
        for r in np.unique(rs).tolist():
            at = np.flatnonzero(rs == r)
            conj = _conjugate_rows(table, np.concatenate([ys[at], zs[at]]), cents[r])
            yc, zc = conj[:at.size], conj[at.size:]
            least = yc.min(axis=1)
            found[1, at] = least
            found[2, at] = np.where(yc == least[:, None], zc, table.n).min(axis=1)
        return list(zip(*found.tolist()))

    out = []
    for (m, n), kept in sorted(firsts.items()):
        total = sum(kept.values())
        if total % n_aut:
            raise ContractError(
                f"type ({m},{n}): {total} triples not divisible by |Aut| = {n_aut}"
            )
        k = total // n_aut
        reps, self_duality, covered = [], [], set()
        for ia, ib, ic in kept:
            if (ia, ib, ic) in covered:
                continue
            # the f(T), then (c, b, a)
            triples = (np.append(auts[:, x], d) for x, d in zip((ia, ib, ic), (ic, ib, ia)))
            *images, dual = keys(*triples)
            orbit = set(images)
            if len(orbit) != len(auts) or not orbit <= kept.keys():
                raise ContractError(
                    f"type ({m},{n}): an orbit meets {len(orbit)} inner classes,"
                    f" {len(auts)} maps"
                )
            weight = sum(kept[key] for key in orbit)
            if weight != n_aut:
                raise ContractError(
                    f"type ({m},{n}): orbit of {weight} triples, |Aut| = {n_aut}"
                )
            covered |= orbit
            reps.append((ia, ib, ic))
            self_duality.append(dual in orbit)
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
