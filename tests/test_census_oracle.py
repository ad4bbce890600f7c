"""Differential oracle for the census: count every star triple over all
involutions a (not just class representatives), divide by |Aut(G)| and
compare with classify_maps_for_group."""

import numpy as np
import pytest

from regmaps.constructors import build_h2, build_h3
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


@pytest.mark.parametrize("name", ["psl5", "pgl5", "pgl7", "h2:3,5", "h3:9"])
def test_census_matches_all_involution_count(name, pgl_groups):
    if name == "h2:3,5":
        g = build_h2(3, 5).group
    elif name == "h3:9":
        g = build_h3(9).group
    else:
        g = pgl_groups[name]
    census = {(c.m, c.n): c.classes_of_type for c in classify_maps_for_group(g)}
    assert census == brute_force_classes(g)
