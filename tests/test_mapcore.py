import dataclasses

import numpy as np
import pytest

from regmaps.constructors import build_h1, build_h2, find_triples
from regmaps.errors import ContractError, ParameterError
from regmaps.mapcore import (
    GenerationError,
    InvolutionError,
    OrientableError,
    _quotient_orders,
    classify_maps_for_group,
    euler_characteristic,
    map_counts,
    verify_star_group,
    verify_structural_lemmas,
)
from regmaps.permgrp import (
    NormalSubgroupHandle,
    PermGroup,
    count_automorphisms,
    odd_core,
    pmul,
)


def test_euler_characteristic_values():
    assert euler_characteristic(60, 5, 5) == -3
    assert euler_characteristic(336, 3, 8) == -7
    assert euler_characteristic(1092, 3, 13) == -49
    assert euler_characteristic(1092, 3, 7) == -13
    for ell in (2, 4, 6, 10):
        assert euler_characteristic(2 * ell, 2, ell) == 1


def test_euler_characteristic_errors():
    with pytest.raises(ParameterError):
        euler_characteristic(60, 1, 5)
    with pytest.raises(ContractError):
        euler_characteristic(61, 5, 5)  # divisibility precondition


def test_map_counts(pgl_groups):
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    cert = map_counts(t)
    assert (cert.vertices, cert.edges, cert.faces) == (15, 30, 12)
    assert cert.chi == -3 and cert.u == 27
    assert cert.u - cert.edges == cert.chi
    t2 = find_triples(pgl_groups["psl5"], 5, 5)[0]
    cert2 = map_counts(t2)
    assert cert2.vertices == cert2.faces == 6 and cert2.edges == 15 and cert2.chi == -3
    h1 = build_h1(4)
    cert3 = map_counts(h1)
    assert (cert3.vertices, cert3.edges, cert3.faces, cert3.chi) == (1, 2, 2, 1)
    assert cert3.degenerate


def test_verify_star_group_accepts_h1():
    t = build_h1(6)
    assert (t.m, t.n, t.chi) == (2, 6, 1)


def test_verify_star_group_rejects_orientable():
    # full (2,2,n) triangle group D_n x C2: <ab, bc> has index 2
    n = 5
    deg = n + 2
    rot = tuple([(i + 1) % n for i in range(n)] + [n, n + 1])
    ref = tuple([(-i) % n for i in range(n)] + [n, n + 1])
    z = tuple(list(range(n)) + [n + 1, n])
    g = PermGroup(deg, [rot, ref, z])
    assert g.order() == 4 * n
    b = ref
    c = pmul(ref, rot)
    a = z
    with pytest.raises(OrientableError):
        verify_star_group(g, a, b, c)


def test_verify_star_group_rejects_non_generating(pgl_groups):
    g = pgl_groups["psl5"]
    invs = g.involutions()
    with pytest.raises(GenerationError):
        verify_star_group(g, invs[0], invs[0], invs[0])


def test_verify_star_group_rejects_bad_involutions(pgl_groups):
    g = pgl_groups["psl5"]
    invs = g.involutions()
    order3 = next(x for x in g.elements() if x != g.ident and pmul(x, pmul(x, x)) == g.ident)
    with pytest.raises(InvolutionError):
        verify_star_group(g, order3, invs[0], invs[1])
    # a pair with (ac)^2 != 1
    a = invs[0]
    c = next(x for x in invs if pmul(pmul(a, x), pmul(a, x)) != g.ident)
    with pytest.raises(InvolutionError):
        verify_star_group(g, a, invs[1], c)


def test_quotient_orders(e9_d4_triple):
    # m_bar and n_bar of the lemmas: the orders of ab and bc in G/O(G)
    t = e9_d4_triple
    gbar, m_bar, n_bar = _quotient_orders(t, odd_core(t.group))
    assert (gbar.order(), m_bar, n_bar) == (8, 2, 4)
    triv = NormalSubgroupHandle(t.group, ())
    assert _quotient_orders(t, triv)[1:] == (t.m, t.n)


def _all_passed(rep):
    return all(c.passed for c in rep.checks if c.applicable)


def test_structural_lemmas_psl13(pgl_groups):
    t = find_triples(pgl_groups["psl13"], 3, 7)[0]
    rep = verify_structural_lemmas(t)
    assert _all_passed(rep)
    assert rep["sylow2_klein_or_dihedral"].detail == "klein"


def test_structural_lemmas_e9_d4(e9_d4_triple):
    rep = verify_structural_lemmas(e9_d4_triple)
    assert _all_passed(rep)
    # r = 3 is exempt from the cyclic-Sylow requirement
    assert rep["sylow_cyclic_away_from_chi"].passed


def test_structural_lemmas_s4_quotient():
    # the hemicube: S4 is soluble with trivial odd core, so G/O is S4 itself
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    t = find_triples(s4, 3, 4)[0]
    assert t.chi == 1
    check = verify_structural_lemmas(t)["soluble_quotient"]
    assert check.applicable and check.passed
    assert check.detail == "order 24, profile {1: 1, 2: 9, 3: 8, 4: 6}"


def _largest_table_attribute(g):
    """Cells held by the largest attribute of g's element table (arrays by
    size, lists and tuples by the cells of their items, dicts by length)."""

    def cells(value):
        if isinstance(value, np.ndarray):
            return value.size
        if isinstance(value, (list, tuple)):
            return sum(cells(v) for v in value)
        if isinstance(value, dict):
            return len(value)
        return 1

    return max(cells(v) for v in vars(g._table).values())


def test_structural_lemmas_leave_mul_unfilled():
    # the lemmas run in the index space of the element table, which holds
    # no n x n product table (10.8 MB for this group of order 1680)
    from regmaps.cli import resolve_group

    g, t = resolve_group("cell:pgl2:7:3:8,5")
    assert g.order() == 1680 and (t.m, t.n) == (15, 8)
    rep = verify_structural_lemmas(t)
    assert _all_passed(rep)
    assert rep["sylow2_klein_or_dihedral"].detail == "dihedral"
    assert _largest_table_attribute(g) < g.order() ** 2


def test_census_and_automorphisms_store_no_square_table(pgl_groups):
    # the triple enumerator and the automorphism search multiply through
    # table columns only
    g = pgl_groups["pgl7"]
    t = find_triples(g, 3, 8, limit=1)[0]
    assert classify_maps_for_group(g)
    assert count_automorphisms(g, (t.a, t.b, t.c)) == 336
    assert _largest_table_attribute(g) < g.order() ** 2


def test_structural_lemmas_negative_control(pgl_groups):
    # PSL2(13) as (2,3,7)* has a 13-excess over the product orders, so a
    # corrupted chi = -3 must trip the "excess prime equals r" check
    t = find_triples(pgl_groups["psl13"], 3, 7)[0]
    rep = verify_structural_lemmas(dataclasses.replace(t, chi=-3))
    assert not rep["odd_prime_excess_is_r"].passed
    assert not _all_passed(rep)


def test_structural_lemmas_cyclic_sylow_negative_control(e9_d4_triple):
    # the Sylow 3-subgroup of E9:D4 is E9, exempt only while 3 divides chi
    rep = verify_structural_lemmas(dataclasses.replace(e9_d4_triple, chi=-5))
    check = rep["sylow_cyclic_away_from_chi"]
    assert not check.passed and check.detail == "non-cyclic Sylow at [3]"


def test_census_counts(pgl_groups):
    by_type = {
        (c.m, c.n): c for c in classify_maps_for_group(pgl_groups["psl5"])
    }
    assert by_type[(5, 5)].classes_of_type == 1
    assert by_type[(5, 5)].chi == -3 and by_type[(5, 5)].self_dual
    assert by_type[(3, 5)].chi == 1 and not by_type[(3, 5)].hyperbolic


def test_census_klein_group_is_degenerate_only():
    v4 = PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    classes = classify_maps_for_group(v4)
    assert classes and all(c.m <= 2 for c in classes)
    assert not [c for c in classes if c.m >= 3 and c.n >= 3]
    assert all(c.representative.degenerate for c in classes)


def test_census_finds_constructor_triples():
    t = build_h2(3, 5)
    classes = classify_maps_for_group(t.group, types={(6, 10)})
    assert classes and classes[0].chi == -7


def test_duality_of_census_reps(pgl_groups):
    for c in classify_maps_for_group(pgl_groups["pgl5"]):
        t = c.representative
        d = t.dual()
        td = verify_star_group(t.group, d.a, d.b, d.c)
        assert (td.m, td.n, td.chi) == (t.n, t.m, t.chi)
