"""ElementTable against the permutation oracles pmul, pinv and porder.

The table is built from base-point lookups; these tests check every
inverse and every order, every product (or a seeded sample of them on the
larger groups) through whole ``right`` columns, and a seeded sample of
right, left, conjugation and conjugates columns against the plain tuple
arithmetic (and class labels against the least conjugate), and bound
every base-point lookup array by the codes it maps from, on relabelled
PSL/PGL(2,q), a slice of the group zoo, the trivial group and a regular
representation.  ``extend_map`` must rebuild inner automorphisms from
their generator images; the automorphism search must anchor every
generator, and its one map per coset of Inn(G) times |G : Z(G)| must be
the |Aut| of a brute-force generator-image count.  The element array
listed from the Schreier-Sims chain must equal a tuple breadth-first
closure, sorted, and the table built from it the table built from that
closure.  ``product`` must equal the tuple products over ints and index
arrays on drawn groups, where a non-member, another degree and an entry
out of range are refused, and the table must keep one copy of the
elements (under two image arrays of memory).  The negative tests tamper
with the element array that the table reads, and plant a repeated
transversal element and a forged order in the chain.
"""

import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmaps.constructors import (
    build_h2,
    build_heisenberg,
    build_module_extension,
    find_triples,
    make_dihedral,
    make_field,
    make_pgl2,
    regular_form,
    search_module_actions,
)
from regmaps import permgrp
from regmaps.errors import ContractError, ParameterError, ResourceError
from regmaps.permgrp import (
    ElementTable,
    PermGroup,
    count_automorphisms,
    element_table,
    from_cycles,
    normal_closure,
    pinv,
    pmul,
    porder,
)

FULL_CHECK_MAX = 400
SAMPLE_PAIRS = 10 ** 4
SAMPLE_COLUMNS = 40


def _relabelled(g, seed):
    """g with its points relabelled by a seeded permutation sigma."""
    rng = random.Random(seed)
    sigma = list(range(g.degree))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    si = pinv(sigma)
    return PermGroup(g.degree, [pmul(pmul(si, x), sigma) for x in g.generators])


def _pgl(q, kind):
    p, e = {5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1)}[q]
    return make_pgl2(make_field(p, e), kind)


def _oracle(g):
    """The sorted elements of g as tuples and the index of each: the index
    space of its element table, listed without the table."""
    elems = sorted(g.elements())
    return elems, {e: i for i, e in enumerate(elems)}


def check_table(g, seed=0):
    t = ElementTable(g)
    elems, pos = _oracle(g)
    n = len(elems)
    assert t.n == n and t.perms(np.arange(n)) == elems
    assert t.find(np.array(elems)).tolist() == list(range(n))
    assert t.identity_index == pos[g.ident]
    assert t.gen_indices == [pos[x] for x in g.generators]
    # inverses and orders come from base images
    assert [int(x) for x in t.inv] == [pos[pinv(e)] for e in elems]
    assert [int(x) for x in t.order_of] == [porder(e) for e in elems]
    for arr in (t.inv, t.order_of):
        assert arr.dtype == np.int32
    # the lookup array of base point k maps from the codes of base[:k]
    for k, lut in enumerate(t._luts):
        codes = len({tuple(e[b] for b in t.base[:k]) for e in elems})
        assert lut.size == (codes + 1) * g.degree, k
    rng = random.Random(seed)
    # j -> the i whose product elems[i] * elems[j] is checked
    if n <= FULL_CHECK_MAX:
        rows_by_column = {j: list(range(n)) for j in range(n)}
    else:
        rows_by_column = {}
        for _ in range(SAMPLE_PAIRS):
            i, j = rng.randrange(n), rng.randrange(n)
            rows_by_column.setdefault(j, []).append(i)
    columns = sorted(rng.sample(range(n), min(n, SAMPLE_COLUMNS)))
    for c in columns:
        x = elems[c]
        xi = pinv(x)
        assert t.right(c).tolist() == [pos[pmul(y, x)] for y in elems], c
        assert t.left(c).tolist() == [pos[pmul(x, y)] for y in elems], c
        assert t.conjugation(c).tolist() == [pos[pmul(pmul(xi, y), x)] for y in elems], c
        conjugates = t.conjugates(c).tolist()
        assert conjugates == [pos[pmul(pmul(pinv(y), x), y)] for y in elems], c
        assert t.class_labels()[c] == min(conjugates), c
    # an index array of elements: one row of conjugates per element
    cols, by = np.array(columns), np.array(columns[::2], dtype=np.intp)
    assert t.conjugates(cols).tolist() == [t.conjugates(c).tolist() for c in columns]
    assert t.conjugates(cols, by).tolist() == [t.conjugates(c)[by].tolist() for c in columns]
    for j, rows in rows_by_column.items():
        x = elems[j]
        got = t.right(j)[rows].tolist()
        assert got == [pos[pmul(elems[i], x)] for i in rows], j


def test_zoo_slice(group_zoo):
    for g in group_zoo[::25]:
        check_table(g)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
@pytest.mark.parametrize("kind", ["psl", "pgl"])
def test_relabelled_pgl2(q, kind):
    check_table(_relabelled(_pgl(q, kind), seed=1000 * q + len(kind)), seed=q)


def test_trivial_group():
    g = PermGroup(3, [])
    check_table(g)
    t = ElementTable(g)
    assert t.n == 1 and t.right(0).tolist() == [0]


def test_regular_heisenberg():
    # the regular action is told apart by the image of a single point
    check_table(regular_form(build_heisenberg()))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(st.data())
def test_product_matches_tuple_products(data):
    # the groups of test_order_invariant_under_presentation, at degrees
    # whose symmetric groups fit an element table
    degree = data.draw(st.integers(1, 7))
    perm = st.permutations(range(degree)).map(tuple)
    g = PermGroup(degree, data.draw(st.lists(perm, min_size=1, max_size=3)))
    t = element_table(g)
    elems, pos = _oracle(g)
    index = st.integers(0, t.n - 1)
    factors = data.draw(st.lists(index, min_size=1, max_size=4))
    got = t.product(*factors)
    assert type(got) is int and got == pos[reduce(pmul, (elems[i] for i in factors))]
    size = data.draw(st.integers(0, 6))
    arrays = data.draw(st.lists(st.lists(index, min_size=size, max_size=size), min_size=1, max_size=4))
    arrays = [np.array(a, dtype=np.intp) for a in arrays]
    want = [pos[reduce(pmul, (elems[i] for i in column))] for column in zip(*arrays)]
    assert t.product(*arrays).tolist() == want
    # a scalar broadcasts against the arrays
    assert t.product(factors[0], *arrays).tolist() == [
        pos[pmul(elems[factors[0]], elems[i])] for i in want
    ]
    # a permutation that the group misses, one of another degree and ones
    # with an entry out of range are refused; a member is found
    refused = [tuple(range(degree + 1)), tuple(range(1, degree + 1)), (-1,) + tuple(range(1, degree))]
    outsider = data.draw(perm)
    if outsider not in pos:
        refused.append(outsider)
    for x in refused:
        with pytest.raises(ParameterError, match="not in the group"):
            normal_closure(g, [x])
    member = elems[factors[0]]
    assert member in normal_closure(g, [member]).elements()


def _triple_indices(g, triple):
    pos = _oracle(g)[1]
    return [pos[x] for x in (triple.a, triple.b, triple.c)]


@pytest.mark.parametrize("q, other", [(5, (5, 6)), (7, (3, 8))])
def test_extend_map_rebuilds_inner_automorphisms(q, other):
    g = _relabelled(_pgl(q, "pgl"), seed=q)
    t = element_table(g)
    gens = _triple_indices(g, find_triples(g, 4, 6, limit=1)[0])
    schedule, gen_cols = t.bfs_schedule(gens), [t.right(j) for j in gens]
    for x in random.Random(q).sample(range(t.n), 10):
        conj = t.conjugation(x)
        f = t.extend_map(schedule, gen_cols, [t.right(int(conj[j])) for j in gens])
        assert f is not None and f.tolist() == conj.tolist(), x
    # a triple of another type has the same element orders but is no image
    images = _triple_indices(g, find_triples(g, *other, limit=1)[0])
    assert t.extend_map(schedule, gen_cols, [t.right(i) for i in images]) is None


@pytest.mark.parametrize("q", [5, 7])
def test_automorphism_index_maps_anchor_every_generator(q):
    # g1 goes to its class representative, and every later generator to the
    # least element of its orbit under the joint centralizer of the images
    # before it, so the tuples come in lexicographic order, one per coset
    g = _relabelled(_pgl(q, "pgl"), seed=q)
    t = element_table(g)
    gens = _triple_indices(g, find_triples(g, 4, 6, limit=1)[0])
    auts = t.automorphism_index_maps(gens)
    assert auts
    tuples = [[int(f[j]) for j in gens] for f in auts]
    assert tuples == sorted(tuples) and len({tuple(x) for x in tuples}) == len(tuples)
    for images in tuples:
        cent = np.ones(t.n, dtype=bool)
        for image in images:
            conj = t.conjugates(image)
            assert image == conj[cent].min()
            cent &= conj == image


def _e9_d10():
    """E_3^2 : D10, the module extension of order 180 with a {6, 30} map."""
    d10 = make_dihedral(10)
    for spec in search_module_actions(d10, 3, 2):
        ext = build_module_extension(d10, spec)
        if ext.order() == 180 and find_triples(ext, 6, 30, limit=1):
            return ext
    raise AssertionError("no E_3^2 : D10 carries a {6, 30} map")


_AUT_GROUPS = {
    # group -> |Out|
    "psl2:5": (lambda: _pgl(5, "psl"), 2),
    "pgl2:5": (lambda: _pgl(5, "pgl"), 1),
    "pgl2:7": (lambda: _pgl(7, "pgl"), 1),
    "he3": (build_heisenberg, 48),
    "h2:3,5": (lambda: build_h2(3, 5).group, 2),
    "E_3^2:D10": (_e9_d10, 4),
}


def _brute_force_aut_order(t, gens):
    """|Aut|: every image tuple, filtered by the orders of the images and
    of their pairwise products, that ``extend_map`` accepts, none anchored."""
    schedule, gen_cols = t.bfs_schedule(gens), [t.right(j) for j in gens]
    order_of, count = t.order_of, 0

    def walk(images):
        nonlocal count
        i = len(images)
        if i == len(gens):
            count += t.extend_map(schedule, gen_cols, [t.right(x) for x in images]) is not None
            return
        for x in np.flatnonzero(order_of == order_of[gens[i]]).tolist():
            if all(order_of[t.product(images[j], x)] == order_of[t.product(gens[j], gens[i])]
                   for j in range(i)):
                walk(images + [x])

    walk([])
    return count


def _check_aut_search(g, n_out):
    t = element_table(g)
    centre = [z for z in g.elements() if all(pmul(z, x) == pmul(x, z) for x in g.generators)]
    inner = t.n // len(centre)
    n_aut = _brute_force_aut_order(t, t.gen_indices)
    maps = t.automorphism_index_maps(t.gen_indices)
    assert len(maps) * inner == t.automorphism_count(maps) == n_aut
    assert len(maps) == n_aut // inner == n_out


@pytest.mark.parametrize("name", sorted(_AUT_GROUPS))
def test_automorphism_search_vs_brute_force(name):
    build, n_out = _AUT_GROUPS[name]
    _check_aut_search(build(), n_out)


@pytest.mark.parametrize("name", sorted(_AUT_GROUPS))
def test_aut_oracle_catches_first_generator_anchoring(name, monkeypatch):
    # planted fault: every candidate passes as the least of its orbit under
    # the centralizer, so only g1 is anchored and each coset of Inn(G)
    # gives more than one map; the census gathers (an index array i, as
    # find_triples runs them while _e9_d10 is built) are left alone
    conjugates = ElementTable.conjugates

    def unanchored(self, i, by=None):
        if by is None or isinstance(i, np.ndarray):
            return conjugates(self, i, by)
        return np.full(len(by), i)

    monkeypatch.setattr(ElementTable, "conjugates", unanchored)
    build, n_out = _AUT_GROUPS[name]
    with pytest.raises(AssertionError):
        _check_aut_search(build(), n_out)


def test_automorphism_maps_are_budgeted(monkeypatch):
    # He3 has 48 maps of 27 entries each; the 48th passes a budget one
    # entry smaller only by raising, as soon as it is found
    g = build_heisenberg()
    monkeypatch.setattr(permgrp, "CHAIN_CAP", 48 * 27)
    assert count_automorphisms(g, g.generators) == 432
    monkeypatch.setattr(permgrp, "CHAIN_CAP", 48 * 27 - 1)
    message = ("automorphism budget is 1295 entries (maps x |G|):"
               " more than 47 maps of a group of order 27")
    with pytest.raises(ResourceError) as err:
        count_automorphisms(g, g.generators)
    assert str(err.value) == message


def _tampered(g, k):
    """A fresh copy of g and the k-th sorted element that is neither the
    identity nor a generator."""
    fresh = PermGroup(g.degree, g.generators)
    skip = set(g.generators) | {g.ident}
    victim = [x for x in sorted(fresh.elements()) if x not in skip][k]
    return fresh, victim


def _plant(g, elems):
    """Make the sorted tuples ``elems`` the element array that g's table
    reads."""
    g._elements = np.array(sorted(elems), dtype=np.int64).reshape(-1, g.degree)


def test_missing_element_raises():
    g = _pgl(7, "pgl")
    for k in (0, 17, 200):
        fresh, victim = _tampered(g, k)
        _plant(fresh, fresh.elements() - {victim})
        with pytest.raises(ContractError):
            ElementTable(fresh)


def test_element_wrong_off_the_base_raises():
    # PGL(2,7) is sharply 3-transitive, so points 0, 1, 2 are a base.  An
    # element with two other images swapped still matches every base lookup;
    # only the full check of the generator columns can see it.
    g = _pgl(7, "pgl")
    fresh, victim = _tampered(g, 5)
    bogus = list(victim)
    bogus[3], bogus[4] = bogus[4], bogus[3]
    _plant(fresh, fresh.elements() - {victim} | {tuple(bogus)})
    with pytest.raises(ContractError, match="generator column"):
        ElementTable(fresh)


def test_missing_generator_raises():
    g = _pgl(5, "psl")
    fresh = PermGroup(g.degree, g.generators)
    _plant(fresh, fresh.elements() - {g.generators[0]})
    with pytest.raises(ContractError):
        ElementTable(fresh)


def test_element_outside_the_generated_group_raises():
    # PGL(2,7) is closed under right multiplication by one of its
    # generators, but that generator alone reaches only its cyclic subgroup
    g = _pgl(7, "pgl")
    fresh = PermGroup(g.degree, g.generators[:1])
    fresh._elements = g.element_array()
    with pytest.raises(ContractError, match="larger than the group"):
        ElementTable(fresh)


def _bfs_elements(g):
    """The oracle: every element by a breadth-first closure over tuples,
    sorted."""
    elems = {g.ident}
    frontier = [g.ident]
    while frontier:
        frontier = [y for y in {pmul(x, s) for x in frontier for s in g.generators} if y not in elems]
        elems.update(frontier)
    return sorted(elems)


def _oracle_groups():
    """The groups of ``test_oracle_element_array``: name -> (build, dtype of
    the element array)."""
    d300 = lambda: PermGroup(300, [tuple((i + 1) % 300 for i in range(300)),
                                    tuple((-i) % 300 for i in range(300))])
    # a little-endian key would sort 256 before 255
    swap = lambda: PermGroup(70000, [from_cycles(70000, [(255, 256)])])
    groups = {"trivial": (lambda: PermGroup(3, []), "u1"),
              "D_300": (d300, ">u2"),
              "transposition on 70000 points": (swap, ">u4")}
    for q in (5, 7, 9, 13):
        for kind in ("psl", "pgl"):
            build = lambda q=q, kind=kind: _relabelled(_pgl(q, kind), seed=1000 * q + len(kind))
            groups[f"{kind}2:{q}"] = (build, "u1")
    return groups


def _check_against_bfs(g, dtype=None):
    elems = _bfs_elements(g)
    rows = g.element_array()
    assert rows.tolist() == [list(x) for x in elems]
    if dtype is not None:
        assert rows.dtype == np.dtype(dtype)
    oracle = PermGroup(g.degree, g.generators)
    _plant(oracle, elems)
    want, got = ElementTable(oracle), ElementTable(g)
    assert got.perms(np.arange(got.n)) == want.perms(np.arange(want.n)) == elems
    assert got.inv.tolist() == want.inv.tolist()
    assert got.order_of.tolist() == want.order_of.tolist()
    assert got.class_labels().tolist() == want.class_labels().tolist()


@pytest.mark.parametrize("name", sorted(_oracle_groups()))
def test_oracle_element_array(name):
    build, dtype = _oracle_groups()[name]
    _check_against_bfs(build(), dtype)


def test_oracle_element_array_zoo(group_zoo):
    for g in group_zoo:
        _check_against_bfs(PermGroup(g.degree, g.generators))


@pytest.mark.parametrize("fault, match", [("repeat", "twice"),
                                          ("drop", "disagrees with the 8 elements")])
def test_planted_chain_fault_raises(fault, match):
    # D_5: the level of point 0 moves it to each of 5 points; one more copy
    # of a transversal element keeps the count but lists an element twice,
    # and one transversal element fewer lists 8 elements
    g = PermGroup(5, make_dihedral(5).generators)
    assert g.order() == 10
    level = g._chain[0]
    if fault == "repeat":
        level[1] = level[2]
    else:
        level.pop()
    with pytest.raises(ContractError, match=match):
        g.element_array()
    assert g._elements is None


@pytest.mark.parametrize("order, match", [(9, "more than 9 elements"),
                                          (20, "cached order 20 disagrees with the 10 elements")])
def test_forged_order_raises(order, match):
    g = make_dihedral(5)
    forged = PermGroup(g.degree, g.generators, order=order)
    with pytest.raises(ContractError, match=match):
        forged.element_array()
    assert forged._elements is None


def test_table_keeps_one_copy_of_the_elements():
    # the images array, n x degree int32 entries, is the table's only copy
    # of the elements: base lookups, inverses and orders stay below one
    # more such array (the tuple list and index dict held 6.5 MB here)
    g = make_pgl2(make_field(3, 3), "pgl")
    g.element_array()
    tracemalloc.start()
    try:
        t = ElementTable(g)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert t.n == 19656
    assert kept < 2 * t.n * g.degree * 4
