"""Differential oracles for the census: count every star triple over all
involutions a (not just class representatives), divide by |Aut(G)| and
compare with classify_maps_for_group; check its orbit representatives
and self-duality flags with pairwise ``ElementTable.extend_map`` tests;
and check the enumerator's one closure test per C_G(a)-orbit, single or
in the census's batches, against a closure test per candidate."""

import numpy as np
import pytest

from regmaps import mapcore, permgrp
from regmaps.cli import resolve_group
from regmaps.constructors import (
    build_h2,
    build_h3,
    build_heisenberg,
    build_split_extension,
    make_dihedral,
    make_field,
    make_pgl2,
    split_action_classes,
)
from regmaps.errors import ContractError
from regmaps.mapcore import classify_maps_for_group, involution_triples
from regmaps.permgrp import element_table, pinv, pmul

from conftest import reference_hom


def _oracle(g):
    """The sorted elements of g as tuples and the index of each: the index
    space of its element table, listed without the table."""
    elems = sorted(g.elements())
    return elems, {e: i for i, e in enumerate(elems)}


def brute_force_classes(g):
    """(m, n) -> Aut-class count, from all triples with 2 <= m <= n.

    Products of involutions come from pmul on the permutations, not from
    the table's columns, and |Aut| from ``reference_hom``, which walks
    permutations, so the oracle shares neither the census's product
    code nor its automorphism search."""
    table = element_table(g)
    elems, pos = _oracle(g)
    order_of = table.order_of
    invs = np.array(table.involution_indices(), dtype=np.intp)
    # prod[i, j] = index of invs[i] * invs[j]
    prod = np.array(
        [[pos[pmul(elems[x], elems[y])] for y in invs.tolist()] for x in invs.tolist()],
        dtype=np.intp,
    )
    full = {}  # (ab, bc) -> <ab, bc> = G
    by_type = {}  # (m, n) -> every generating triple of that type
    first = None
    for a in range(len(invs)):
        ia = invs[a]
        ord_ax = order_of[prod[a]]
        cs = np.flatnonzero(ord_ax <= 2)
        ms = ord_ax[:, None]
        ns = order_of[prod[:, cs]]
        for i, j in zip(*np.nonzero((ms >= 2) & (ms <= ns))):
            ib, ic = int(invs[i]), int(invs[cs[j]])
            key = (int(prod[a, i]), int(prod[i, cs[j]]))
            if key not in full:
                full[key] = bool(table.closure(list(key)).all())
            if full[key]:
                mn = (int(ms[i, 0]), int(ns[i, j]))
                by_type.setdefault(mn, []).append(tuple(elems[x] for x in (ia, ib, ic)))
                first = first or (mn, by_type[mn][0])
    # |Aut|: the triples of first's type onto which first extends to a
    # homomorphism, each an automorphism since it generates
    mn, src = first
    n_aut = sum(reference_hom(g.degree, src, dst) is not None for dst in by_type[mn])
    assert all(len(triples) % n_aut == 0 for triples in by_type.values())
    return {mn: len(triples) // n_aut for mn, triples in by_type.items()}


def _group(name, pgl_groups):
    if name == "h2:3,5":
        return build_h2(3, 5).group
    if name == "h3:9":
        return build_h3(9).group
    if name in ("he3", "cell:h1:2,21"):
        return resolve_group(name)[0]
    return pgl_groups[name]


def per_candidate_triples(g, types=None):
    """involution_triples with one closure test per candidate (b, c), and
    the number of C_G(a)-orbits of the candidates it tests, the orbits
    found by conjugating the permutations with pmul.  The first candidate
    of each orbit carries the orbit's size, the number of pairs it adds to
    ``seen``; every other candidate carries 0."""
    table = element_table(g)
    elems, pos = _oracle(g)
    order_of, n_all = table.order_of, table.n
    invs = np.array(table.involution_indices(), dtype=np.intp)
    reps, sizes = np.unique(table.class_labels(), return_counts=True)
    out, orbits = [], 0
    for ia, class_size in zip(reps.tolist(), sizes.tolist()):
        if order_of[ia] != 2:
            continue
        a = elems[ia]
        cent = [y for y in elems if pmul(a, y) == pmul(y, a)]
        row_a = table.left(ia)
        ord_ax = order_of[row_a[invs]]
        cs = invs[ord_ax <= 2]
        ms = ord_ax[:, None]
        bc = np.stack([table.right(c)[invs] for c in cs.tolist()], axis=1)
        ns = order_of[bc]
        if types is None:
            keep = (ms >= 2) & (ms <= ns)
        else:
            keep = np.zeros(ns.shape, dtype=bool)
            for m, n in types:
                keep |= (ms == m) & (ns == n)
        seen = set()
        for i, j in zip(*np.nonzero(keep)):
            ib, ic = int(invs[i]), int(cs[j])
            size = 0
            if (ib, ic) not in seen:
                orbits += 1
                b, c = elems[ib], elems[ic]
                before = len(seen)
                seen.update((pos[pmul(pmul(pinv(y), b), y)], pos[pmul(pmul(pinv(y), c), y)])
                            for y in cent)
                size = len(seen) - before
            if table.closure([int(row_a[ib]), int(bc[i, j])]).sum() == n_all:
                out.append((ia, ib, ic, int(ms[i, 0]), int(ns[i, j]), class_size, size))
    return out, orbits


def _counting_closures(monkeypatch):
    """The seed pairs of each ``ElementTable.closure`` call, one list per
    call: a row per pair of a batch, or the one pair of a single test."""
    calls = []
    closure = permgrp.ElementTable.closure

    def counted(self, seeds):
        calls.append(list(map(tuple, np.reshape(seeds, (-1, 2)).tolist())))
        return closure(self, seeds)

    monkeypatch.setattr(permgrp.ElementTable, "closure", counted)
    return calls


@pytest.mark.parametrize(
    "name", ["psl5", "pgl5", "pgl7", "pgl9", "h2:3,5", "h3:9", "he3", "cell:h1:2,21"]
)
def test_enumerator_matches_per_candidate_closures(name, pgl_groups, monkeypatch):
    g = _group(name, pgl_groups)
    # every other type found, and each of them read the other way round
    some = sorted({t[3:5] for t in per_candidate_triples(g)[0]})[::2]
    for types in (None, set(some) | {(n, m) for m, n in some}):
        want, orbits = per_candidate_triples(g, types)
        calls = _counting_closures(monkeypatch)
        assert list(involution_triples(g, types)) == [t[:5] for t in want]
        assert sum(map(len, calls)) == len(calls) == orbits
        monkeypatch.undo()


def test_orbit_gather_in_blocks_keeps_the_stream(monkeypatch):
    # cell:h1:2,21 has a central involution, so C_G(a) = G: a cap of five
    # rows of |G| x (3 x base points + 1) entries splits its gather into
    # blocks
    g = _group("cell:h1:2,21", None)
    table = element_table(g)
    calls = _counting_closures(monkeypatch)
    want = list(involution_triples(g))
    closures = sum(map(len, calls))
    gathers = []
    conjugates = permgrp.ElementTable.conjugates

    def counted(self, i, by=None):
        if isinstance(i, np.ndarray) and len(by) == table.n:
            gathers.append(len(i))
        return conjugates(self, i, by)

    monkeypatch.setattr(permgrp.ElementTable, "conjugates", counted)
    monkeypatch.setattr(mapcore, "CHAIN_CAP", 5 * table.n * (3 * len(table.base) + 1))
    del calls[:]
    assert list(involution_triples(g)) == want
    assert sum(map(len, calls)) == closures
    assert gathers == [5] * 8 + [3]  # the 43 involutions conjugated by the whole group


def test_pgl2_7_census_tests_each_centralizer_orbit_once(pgl_groups, monkeypatch):
    # 490 candidates pass the order filter, in 55 C_G(a)-orbits: one batch
    # per involution class, whose rows are different pairs, 55 rows in all
    g = pgl_groups["pgl7"]
    calls = _counting_closures(monkeypatch)
    assert len(classify_maps_for_group(g)) == 13
    assert [len(set(rows)) for rows in calls] == [len(rows) for rows in calls]
    assert len(calls) == 2 and sum(map(len, calls)) == 55


@pytest.mark.parametrize("name", ["pgl7", "h2:3,5", "he3", "cell:h1:2,21"])
def test_census_keeps_one_entry_per_generating_orbit(name, pgl_groups):
    g = _group(name, pgl_groups)
    triples = per_candidate_triples(g)[0]
    firsts = [t for t in triples if t[6]]  # the first member of each generating orbit
    kept = mapcore._generating_orbits(g)
    stored = [(mn, key, weight) for mn, orbits in kept.items() for key, weight in orbits.items()]
    assert len(stored) == len(firsts)
    assert sorted(stored) == sorted((t[3:5], t[:3], t[5] * t[6]) for t in firsts)
    # the weights of a type add up to its triples, each conjugate counted
    want = {}
    for t in triples:
        want[t[3:5]] = want.get(t[3:5], 0) + t[5]
    assert {mn: sum(orbits.values()) for mn, orbits in kept.items()} == want


def test_wrong_orbit_size_fails_the_weight_check(pgl_groups, monkeypatch):
    g = pgl_groups["pgl7"]
    generating_orbits = mapcore._generating_orbits

    def doubled(g, types=None):
        return {mn: {key: 2 * weight for key, weight in kept.items()}
                for mn, kept in generating_orbits(g, types).items()}

    monkeypatch.setattr(mapcore, "_generating_orbits", doubled)
    with pytest.raises(ContractError, match=r"orbit of \d+ triples, \|Aut\| = 336"):
        classify_maps_for_group(g)


@pytest.mark.parametrize("name,want", [
    ("h1:200", [(2, 200, 1, 1, 1, False)]),
    ("cell:h1:2,99", [(2, 198, 1, 1, 1, False)]),
])
def test_h1_censuses_are_pinned(name, want):
    g = resolve_group(name)[0]
    got = [(c.m, c.n, c.chi, c.classes_of_type, c.duality_classes_of_type, c.self_dual)
           for c in classify_maps_for_group(g)]
    assert got == want


@pytest.mark.parametrize("name", ["psl5", "pgl5", "pgl7", "h2:3,5", "h3:9"])
def test_census_matches_all_involution_count(name, pgl_groups):
    g = _group(name, pgl_groups)
    census = {(c.m, c.n): c.classes_of_type for c in classify_maps_for_group(g)}
    assert census == brute_force_classes(g)


@pytest.fixture(scope="module")
def he3_d4_classes():
    """One He3 : D4 split extension per Aut(He3)-class of actions."""
    d4 = make_dihedral(4)
    reg, homs = split_action_classes(build_heisenberg(), d4)
    return [build_split_extension(reg, d4, hom) for hom in homs]


def _extends(table, src, dst):
    """Whether the generating triple src -> dst extends to an automorphism."""
    return table.extend_map(
        table.bfs_schedule(src),
        [table.right(i) for i in src],
        [table.right(i) for i in dst],
    ) is not None


@pytest.mark.parametrize(
    "name",
    ["psl5", "pgl5", "pgl7", "pgl9", "h2:3,5", "h3:9"] + [f"he3d4:{i}" for i in range(11)],
)
def test_census_orbits_match_extend_map(name, pgl_groups, he3_d4_classes):
    if name.startswith("he3d4:"):
        g = he3_d4_classes[int(name[len("he3d4:"):])]
    else:
        g = _group(name, pgl_groups)
    table = element_table(g)
    pos = _oracle(g)[1]
    reps = {}  # (m, n) -> [(ia, ib, ic, self_dual)]
    for c in classify_maps_for_group(g):
        t = c.representative
        reps.setdefault((c.m, c.n), []).append(
            ([pos[x] for x in (t.a, t.b, t.c)], c.self_dual)
        )
    for classes in reps.values():
        for i, (rep, self_dual) in enumerate(classes):
            assert _extends(table, rep, rep[::-1]) == self_dual
            for other, _ in classes[i + 1:]:
                assert not _extends(table, rep, other)


@pytest.mark.parametrize("name", ["pgl7", "pgl9"])
def test_census_types_restriction_matches_full_census(name, pgl_groups):
    g = pgl_groups[name]
    full = classify_maps_for_group(g)
    for mn in sorted({(c.m, c.n) for c in full}):
        assert classify_maps_for_group(g, types={mn}) == [c for c in full if (c.m, c.n) == mn]
    some = {(c.m, c.n) for c in full[::2]}
    assert classify_maps_for_group(g, types=some) == [c for c in full if (c.m, c.n) in some]


# PSL(2,17) per type: (m, n) -> (chi, classes, duality classes, self-dual
# classes), as the census that read classes off the full automorphism list
# gave them
PSL2_17 = {
    (3, 9): (-68, 1, 1, 0),
    (3, 17): (-132, 1, 1, 0),
    (4, 9): (-170, 1, 1, 0),
    (4, 17): (-234, 1, 1, 0),
    (8, 9): (-323, 4, 4, 0),
    (8, 17): (-387, 2, 2, 0),
    (9, 9): (-340, 3, 2, 1),
    (9, 17): (-404, 3, 3, 0),
    (17, 17): (-468, 1, 1, 1),
}


def test_psl2_17_census_is_pinned():
    census = classify_maps_for_group(make_pgl2(make_field(17, 1), "psl"))
    got = {}
    for c in census:
        row = got.setdefault((c.m, c.n), [c.chi, c.classes_of_type, c.duality_classes_of_type, 0])
        assert row[:3] == [c.chi, c.classes_of_type, c.duality_classes_of_type]
        row[3] += c.self_dual
    assert {mn: tuple(row) for mn, row in got.items()} == PSL2_17
    assert len(census) == sum(k for _chi, k, _kd, _sd in PSL2_17.values())
