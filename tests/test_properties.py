"""Randomized property suites (each runs >= 10^3 cases).

Cases come from seeded conjugation, seeded matrix entries and seeded
generator choices, so failures replay deterministically.  The check
bodies are plain functions so the acceptance suite can drive the same
checks.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from regmaps import permgrp
from regmaps.algebra import det_bareiss, mod_p_rank
from regmaps.cli import resolve_group
from regmaps.constructors import (
    build_h1,
    build_h2,
    build_h3,
    build_heisenberg,
    build_module_extension,
    build_split_extension,
    find_triples,
    make_dihedral,
    search_module_actions,
    search_split_actions,
)
from regmaps.mapcore import (
    classify_maps_for_group,
    euler_characteristic,
    verify_star_group,
)
from regmaps.permgrp import element_table, odd_core, pinv, pmul, quotient_group, sylow2_shape


def _conjugate_triple(t, g):
    gi = pinv(g)
    return tuple(pmul(pmul(gi, x), g) for x in (t.a, t.b, t.c))


def check_duality(pool, seed=0xC0FFEE, cases=1000):
    rng = random.Random(seed)
    done = 0
    while done < cases:
        t = rng.choice(pool)
        elems = sorted(t.group.elements())
        g = elems[rng.randrange(len(elems))]
        a, b, c = _conjugate_triple(t, g)
        got = verify_star_group(t.group, c, b, a)
        assert (got.m, got.n, got.chi) == (t.n, t.m, t.chi)
        done += 1
    return done


def check_euler_two_forms(seed=0xC0FFEE, cases=1000):
    rng = random.Random(seed)
    for _ in range(cases):
        m = rng.randint(2, 40)
        n = rng.randint(2, 40)
        order = 4 * m * n * rng.randint(1, 50)
        chi = euler_characteristic(order, m, n)
        direct = -Fraction(order, 2) * (Fraction(1, 2) - Fraction(1, m) - Fraction(1, n))
        assert chi == direct
        assert chi == -order * (m * n - 2 * m - 2 * n) // (4 * m * n)
    return cases


def check_odd_core(zoo):
    assert len(zoo) >= 1000
    for g in zoo:
        oc = odd_core(g)
        assert oc.order() % 2 == 1
        if oc.is_trivial():
            continue
        assert oc.check_normal()
        q = quotient_group(g, oc)
        assert odd_core(q).is_trivial()
        assert g.order() == oc.order() * q.order()
    return len(zoo)


def check_sylow2_shapes(pool, seed=0xC0FFEE, cases=1000):
    rng = random.Random(seed)
    shapes = {}
    done = 0
    while done < cases:
        t = rng.choice(pool)
        if t.chi % 2 == 0:
            continue
        key = id(t.group)
        if key not in shapes:
            shapes[key] = sylow2_shape(t.group)
        elems = sorted(t.group.elements())
        g = elems[rng.randrange(len(elems))]
        a, b, c = _conjugate_triple(t, g)
        got = verify_star_group(t.group, a, b, c)
        assert got.chi == t.chi
        assert shapes[key] in ("klein", "dihedral")
        done += 1
    return done


def check_snf(cases):
    assert len(cases) >= 1000
    for m, res in cases:
        facs = res.invariant_factors
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0
        assert res.free_rank == m.cols - len(facs)
        if m.rows == m.cols:
            det = det_bareiss(m)
            if det != 0:
                prod = 1
                for d in facs:
                    prod *= d
                assert prod == abs(det)
        for p in (2, 3, 5):
            assert mod_p_rank(m, p) == sum(1 for d in facs if d % p)
    return len(cases)


def _constructor_zoo_500():
    produced = []
    for ell in range(2, 40, 2):
        produced.append(build_h1(ell))
    for (j, k) in ((3, 5), (3, 7), (3, 11), (3, 13), (5, 7), (5, 9), (3, 17), (5, 11)):
        if 4 * j * k <= 500:
            produced.append(build_h2(j, k))
    for ell in (3, 9, 15, 21, 27, 33, 39, 45, 51, 57):
        produced.append(build_h3(ell))
    d4 = make_dihedral(4)
    for spec in search_module_actions(d4, 3, 2):
        ext = build_module_extension(d4, spec)
        if ext.order() <= 500:
            found = find_triples(ext, 6, 4, limit=1)
            if len(found):
                produced.append(found[0])
    he3 = build_heisenberg()
    d2 = make_dihedral(2)
    reg, homs = search_split_actions(he3, d2)
    for hom in homs:
        ext = build_split_extension(reg, d2, hom)
        found = find_triples(ext, 6, 6, limit=1)
        if len(found):
            produced.append(found[0])
            break
    return produced


def check_constructor_census_equivalence(seed=0xC0FFEE, min_cases=1000):
    rng = random.Random(seed)
    produced = _constructor_zoo_500()
    cases = 0
    for t in produced:
        classes = classify_maps_for_group(
            t.group, types={(min(t.m, t.n), max(t.m, t.n))}
        )
        assert classes, (t.m, t.n, t.group)
        match = classes[0]
        assert match.chi == t.chi
        assert match.classes_of_type >= 1
        elems = sorted(t.group.elements())
        for _ in range(1 + min_cases // max(1, len(produced))):
            g = elems[rng.randrange(len(elems))]
            a, b, c = _conjugate_triple(match.representative, g)
            got = verify_star_group(t.group, a, b, c)
            assert (got.m, got.n, got.chi) == (match.m, match.n, match.chi)
            cases += 1
    assert cases >= min_cases
    return cases


def check_batched_closure(g, seed=0xC0FFEE, cases=1000):
    """``ElementTable.closure`` of a (k, 2) array of seed pairs against
    one single-subgroup mask per pair: random pairs, then pairs drawn
    from an index-2 subgroup one of them generated, if any, which fill
    exactly n/2 elements and so never cross the whole-group cut.
    Returns the number of index-2 rows."""
    t = element_table(g)
    rng = random.Random(seed)
    pairs = [(rng.randrange(t.n), rng.randrange(t.n)) for _ in range(cases // 2)]
    singles = [t.closure(list(pair)) for pair in pairs]
    half = next((mask for mask in singles if 2 * mask.sum() == t.n), None)
    if half is not None:
        inside = np.flatnonzero(half).tolist()
        more = [(rng.choice(inside), rng.choice(inside)) for _ in range(cases - len(pairs))]
        pairs += more
        singles += [t.closure(list(pair)) for pair in more]
    got = t.closure(np.array(pairs))
    assert got.shape == (len(pairs), t.n)
    assert all(np.array_equal(row, mask) for row, mask in zip(got, singles))
    return sum(2 * int(mask.sum()) == t.n for mask in singles)


# -- the pytest wrappers -------------------------------------------------------


def test_duality_invariance(triple_pool):
    assert check_duality(triple_pool) >= 1000


def test_euler_two_forms_agree():
    assert check_euler_two_forms() >= 1000


def test_odd_core_idempotent(group_zoo):
    assert check_odd_core(group_zoo) >= 1000


def test_sylow2_klein_or_dihedral_for_odd_chi(triple_pool):
    assert check_sylow2_shapes(triple_pool) >= 1000


def test_snf_random_properties(snf_random_cases):
    assert check_snf(snf_random_cases) >= 1000


def test_constructor_census_equivalence():
    assert check_constructor_census_equivalence() >= 1000


# index-2 subgroups: PGL(2,7) has PSL(2,7), the dihedral groups their
# rotations; PSL(2,13), He3 and C3 wr C3 have none
@pytest.mark.parametrize("name,index2", [
    ("pgl2:7", True), ("psl2:13", False), ("he3", False), ("wr3", False),
    ("h1:200", True), ("cell:h1:2,21", True),
])
def test_batched_closure_matches_single_masks(name, index2, monkeypatch):
    g = resolve_group(name)[0]
    assert bool(check_batched_closure(g)) == index2
    # seven rows per block: the 1000 rows run as 143 separate BFS blocks
    monkeypatch.setattr(permgrp, "CHAIN_CAP", 7 * element_table(g).n)
    assert bool(check_batched_closure(g, seed=7)) == index2
