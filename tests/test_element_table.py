"""ElementTable against the permutation oracles pmul, pinv and porder.

The table is built from base-point lookups; these tests check every
inverse and every order, every product (or a seeded sample of them on the
larger groups) through whole ``right`` columns, and a seeded sample of
right, left, conjugation and conjugates columns against the plain tuple
arithmetic (and class labels against the least conjugate), and bound
every base-point lookup array by the codes it maps from, on relabelled
PSL/PGL(2,q), a slice of the group zoo, the trivial group and a regular
representation.  ``extend_map`` must rebuild inner automorphisms from
their generator images, and the automorphism search must anchor the first
generator at a class representative.  The negative tests tamper with the
element list.
"""

import random

import numpy as np
import pytest

from regmaps.constructors import (
    build_heisenberg,
    find_triples,
    make_field,
    make_pgl2,
    regular_form,
)
from regmaps.errors import ContractError
from regmaps.permgrp import ElementTable, PermGroup, element_table, pinv, pmul, porder

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


def check_table(g, seed=0):
    t = ElementTable(g)
    elems = sorted(g.elements())
    n = len(elems)
    assert t.elems == elems and t.n == n
    assert t.pos == {e: i for i, e in enumerate(elems)}
    assert t.identity_index == t.pos[g.ident]
    # inverses and orders come from base images
    assert [int(x) for x in t.inv] == [t.pos[pinv(e)] for e in elems]
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
        assert t.right(c).tolist() == [t.pos[pmul(y, x)] for y in elems], c
        assert t.left(c).tolist() == [t.pos[pmul(x, y)] for y in elems], c
        assert t.conjugation(c).tolist() == [t.pos[pmul(pmul(xi, y), x)] for y in elems], c
        conjugates = t.conjugates(c).tolist()
        assert conjugates == [t.pos[pmul(pmul(pinv(y), x), y)] for y in elems], c
        assert t.class_labels()[c] == min(conjugates), c
    for j, rows in rows_by_column.items():
        x = elems[j]
        got = t.right(j)[rows].tolist()
        assert got == [t.pos[pmul(elems[i], x)] for i in rows], j


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


def _triple_indices(t, triple):
    return [t.pos[x] for x in (triple.a, triple.b, triple.c)]


@pytest.mark.parametrize("q, other", [(5, (5, 6)), (7, (3, 8))])
def test_extend_map_rebuilds_inner_automorphisms(q, other):
    g = _relabelled(_pgl(q, "pgl"), seed=q)
    t = element_table(g)
    gens = _triple_indices(t, find_triples(g, 4, 6, limit=1)[0])
    schedule, gen_cols = t.bfs_schedule(gens), [t.right(j) for j in gens]
    for x in random.Random(q).sample(range(t.n), 10):
        conj = t.conjugation(x)
        f = t.extend_map(schedule, gen_cols, [t.right(int(conj[j])) for j in gens])
        assert f is not None and f.tolist() == conj.tolist(), x
    # a triple of another type has the same element orders but is no image
    images = _triple_indices(t, find_triples(g, *other, limit=1)[0])
    assert t.extend_map(schedule, gen_cols, [t.right(i) for i in images]) is None


@pytest.mark.parametrize("q", [5, 7])
def test_automorphism_index_maps_anchor_the_first_generator(q):
    g = _relabelled(_pgl(q, "pgl"), seed=q)
    t = element_table(g)
    gens = _triple_indices(t, find_triples(g, 4, 6, limit=1)[0])
    auts = t.automorphism_index_maps(gens)
    assert auts
    for f in auts:
        image = int(f[gens[0]])
        assert image == min(t.conjugates(image).tolist())


def _tampered(g, k):
    """A fresh copy of g and the k-th sorted element that is neither the
    identity nor a generator."""
    fresh = PermGroup(g.degree, g.generators)
    skip = set(g.generators) | {g.ident}
    victim = [x for x in sorted(fresh.elements()) if x not in skip][k]
    return fresh, victim


def test_missing_element_raises():
    g = _pgl(7, "pgl")
    for k in (0, 17, 200):
        fresh, victim = _tampered(g, k)
        fresh._elements = frozenset(fresh.elements() - {victim})
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
    fresh._elements = frozenset(fresh.elements() - {victim} | {tuple(bogus)})
    with pytest.raises(ContractError, match="generator column"):
        ElementTable(fresh)


def test_missing_generator_raises():
    g = _pgl(5, "psl")
    fresh = PermGroup(g.degree, g.generators)
    fresh._elements = frozenset(fresh.elements() - {g.generators[0]})
    with pytest.raises(ContractError):
        ElementTable(fresh)


def test_element_outside_the_generated_group_raises():
    # PGL(2,7) is closed under right multiplication by one of its
    # generators, but that generator alone reaches only its cyclic subgroup
    g = _pgl(7, "pgl")
    fresh = PermGroup(g.degree, g.generators[:1])
    fresh._elements = g.elements()
    with pytest.raises(ContractError, match="larger than the group"):
        ElementTable(fresh)
