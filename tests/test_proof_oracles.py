"""Oracles for the proofs that the fast paths leave out.

``find_triples`` and the census representatives take <ab, bc> = G from a
closure test (one per orbit in ``involution_triples``, one batch per class
representative in the census) and build no Schreier-Sims chain for a
triple; here ``verify_star_group`` proves every one of them again.
``odd_core`` rules a class out by one gather over its conjugates before any
normal closure; here it is compared with a normal closure per class.
"""

import numpy as np
import pytest

from regmaps import permgrp
from regmaps.cli import resolve_group
from regmaps.constructors import find_triples, make_dihedral, make_field, make_pgl2
from regmaps.families import COROLLARY_ROWS
from regmaps.mapcore import classify_maps_for_group, verify_star_group
from regmaps.permgrp import _normal_closure, element_table, odd_core


def _proved_by_chain(g):
    """Every census representative of g and up to 4 find_triples triples
    of each census type equal the MapTriple that verify_star_group, with
    its Schreier-Sims chain, builds from the same involutions.  Returns
    the number of triples checked."""
    checked = 0
    classes = classify_maps_for_group(g)
    types = sorted({(c.m, c.n) for c in classes})
    found = [t for mn in types for t in find_triples(g, *mn, limit=4)]
    for t in [c.representative for c in classes] + found:
        assert verify_star_group(g, t.a, t.b, t.c) == t
        checked += 1
    assert bool(classes) == bool(found)
    return checked


def _soluble_row(label):
    """The candidate groups of the corollary row named ``label``, of the
    row's order (rows of one group yield the same candidates)."""
    row = next(row for row in COROLLARY_ROWS if row.group_label == label)
    return [g for g in row.candidates() if g.order() == row.order]


def test_enumerated_triples_pass_the_chain_on_the_zoo(group_zoo):
    assert sum(_proved_by_chain(g) for g in group_zoo) > 1000


@pytest.mark.parametrize("label", ["E_3^2 : D4", "E_3^2 : D2"])
def test_enumerated_triples_pass_the_chain_on_soluble_rows(label):
    assert sum(_proved_by_chain(g) for g in _soluble_row(label)) > 0


def test_enumerated_triples_pass_the_chain_on_the_twist_cell():
    g, cell = resolve_group("cell:pgl2:7:3:8,5")
    (t,) = [c.representative for c in classify_maps_for_group(g, {(cell.m, cell.n)})]
    for u in [t, *find_triples(g, cell.m, cell.n, limit=4)]:
        assert verify_star_group(g, u.a, u.b, u.c) == u
        assert (u.m, u.n, u.chi) == (cell.m, cell.n, cell.chi)


def test_enumerated_triples_build_no_chain(monkeypatch):
    # once |G| is known, neither path starts a Schreier-Sims chain
    g = make_pgl2(make_field(7, 1), "pgl")
    element_table(g)

    def sift(*args):
        raise AssertionError("a Schreier-Sims chain was started")

    monkeypatch.setattr(permgrp, "_schreier_sims_order", sift)
    assert len(find_triples(g, 3, 8)) == 16
    assert {(c.m, c.n) for c in classify_maps_for_group(g)} >= {(3, 8), (4, 6)}


def _odd_core_reference(g):
    """The mask of O(g) from a normal closure of every odd-order class
    representative, with no class ruled out first."""
    t = element_table(g)
    seeds = [i for i in np.unique(t.class_labels()).tolist()
             if i != t.identity_index and t.order_of[i] % 2
             and _normal_closure(t, t.gen_indices, [i])[1].sum() % 2]
    return _normal_closure(t, t.gen_indices, seeds)[1]


def _odd_core_groups():
    yield "dihedral(15)", make_dihedral(15)
    for g in _soluble_row("E_3^2 : D4"):
        yield "E9:D4", g
    labels = dict.fromkeys(row.group_label for row in COROLLARY_ROWS if row.candidates
                           and "PGL" not in row.group_label and "PSL" not in row.group_label)
    for label in labels:
        yield label, _soluble_row(label)[0]
    yield "cell:pgl2:7:3:8,5", resolve_group("cell:pgl2:7:3:8,5")[0]
    for p, e in ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):  # 5 <= q <= 13
        for kind in ("psl", "pgl"):
            yield f"{kind}2:{p ** e}", make_pgl2(make_field(p, e), kind)


def test_odd_core_matches_per_class_normal_closures():
    sizes = {}
    for name, g in _odd_core_groups():
        mask = odd_core(g).mask
        assert np.array_equal(mask, _odd_core_reference(g)), name
        sizes[name] = int(mask.sum())
    assert sizes["dihedral(15)"] == 15 and sizes["cell:pgl2:7:3:8,5"] == 5
    soluble = [sizes[row.group_label] for row in COROLLARY_ROWS if row.group_label in sizes]
    assert min(soluble) == 9 and max(soluble) == 135


def test_odd_core_filter_rules_out_classes(monkeypatch):
    # a filter that never fires would leave one normal closure per class
    g = make_pgl2(make_field(13, 1), "psl")
    t = element_table(g)
    odd_reps = [i for i in np.unique(t.class_labels()).tolist()
                if i != t.identity_index and t.order_of[i] % 2]
    calls = []

    def counted(table, ambient, seeds):
        calls.append(list(seeds))
        return _normal_closure(table, ambient, seeds)

    monkeypatch.setattr(permgrp, "_normal_closure", counted)
    assert odd_core(g).is_trivial()
    per_class = len(calls) - 1  # the last call closes the seeds kept
    assert odd_reps and per_class < len(odd_reps)
