"""Differential oracles for the census: count every star triple over all
involutions a (not just class representatives), divide by |Aut(G)| and
compare with classify_maps_for_group; and check its orbit representatives
and self-duality flags with pairwise ``ElementTable.extend_map`` tests."""

import numpy as np
import pytest

from regmaps.constructors import (
    build_h2,
    build_h3,
    build_heisenberg,
    build_split_extension,
    make_dihedral,
    split_action_classes,
)
from regmaps.mapcore import classify_maps_for_group
from regmaps.permgrp import count_automorphisms, element_table, pmul


def brute_force_classes(g):
    """(m, n) -> Aut-class count, from all triples with 2 <= m <= n.

    Products of involutions come from pmul on the permutations, not from
    the table's columns, so the oracle does not share the census's
    product code."""
    table = element_table(g)
    elems, order_of = table.elems, table.order_of
    invs = np.array(table.involution_indices(), dtype=np.intp)
    # prod[i, j] = index of invs[i] * invs[j]
    prod = np.array(
        [[table.pos[pmul(elems[x], elems[y])] for y in invs.tolist()] for x in invs.tolist()],
        dtype=np.intp,
    )
    full = {}  # (ab, bc) -> <ab, bc> = G
    totals = {}
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
                totals[mn] = totals.get(mn, 0) + 1
                first = first or (int(ia), ib, ic)
    elems = table.elems
    n_aut = count_automorphisms(g, [elems[i] for i in first])
    assert all(total % n_aut == 0 for total in totals.values())
    return {mn: total // n_aut for mn, total in totals.items()}


def _group(name, pgl_groups):
    if name == "h2:3,5":
        return build_h2(3, 5).group
    if name == "h3:9":
        return build_h3(9).group
    return pgl_groups[name]


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
    reps = {}  # (m, n) -> [(ia, ib, ic, self_dual)]
    for c in classify_maps_for_group(g):
        t = c.representative
        reps.setdefault((c.m, c.n), []).append(
            ([table.pos[x] for x in (t.a, t.b, t.c)], c.self_dual)
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
