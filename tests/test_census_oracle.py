"""Differential oracle for the census: count every star triple over all
involutions a (not just class representatives), divide by |Aut(G)| and
compare with classify_maps_for_group."""

import numpy as np
import pytest

from regmaps.constructors import build_h2, build_h3
from regmaps.mapcore import classify_maps_for_group
from regmaps.permgrp import count_automorphisms, element_table


def brute_force_classes(g):
    """(m, n) -> Aut-class count, from all triples with 2 <= m <= n."""
    table = element_table(g)
    mul, order_of = table.mul, table.order_of
    invs = np.array(table.involution_indices(), dtype=np.intp)
    full = {}  # (ab, bc) -> <ab, bc> = G
    totals = {}
    first = None
    for ia in invs:
        cs = invs[order_of[mul[ia, invs]] <= 2]
        ms = order_of[mul[ia, invs]][:, None]
        ns = order_of[mul[np.ix_(invs, cs)]]
        for i, j in zip(*np.nonzero((ms >= 2) & (ms <= ns))):
            ib, ic = int(invs[i]), int(cs[j])
            key = (int(mul[ia, ib]), int(mul[ib, ic]))
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
