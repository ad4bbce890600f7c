"""ElementTable against the permutation oracles pmul, pinv and porder.

The table is built from base-point lookups; these tests check every
product (or a seeded sample of them on the larger groups), every inverse
and every order against the plain tuple arithmetic, on relabelled
PSL/PGL(2,q), a slice of the group zoo, the trivial group and a regular
representation.  The negative tests tamper with the element list.
"""

import random

import numpy as np
import pytest

from regmaps.constructors import build_heisenberg, make_field, make_pgl2, regular_form
from regmaps.errors import ContractError
from regmaps.permgrp import ElementTable, PermGroup, pinv, pmul, porder

FULL_CHECK_MAX = 400
SAMPLE_PAIRS = 10 ** 4


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
    assert t.mul.shape == (n, n)
    for arr in (t.mul, t.inv, t.order_of):
        assert arr.dtype == np.int32
    if n <= FULL_CHECK_MAX:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE_PAIRS)]
    for i, j in pairs:
        assert t.mul[i, j] == t.pos[pmul(elems[i], elems[j])], (i, j)
    assert [int(x) for x in t.inv] == [t.pos[pinv(e)] for e in elems]
    assert [int(x) for x in t.order_of] == [porder(e) for e in elems]


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
    assert t.n == 1 and t.mul.tolist() == [[0]]


def test_regular_heisenberg():
    # the regular action is told apart by the image of a single point
    check_table(regular_form(build_heisenberg()))


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
