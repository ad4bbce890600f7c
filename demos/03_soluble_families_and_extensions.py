"""Soluble map groups: dihedral shapes and 3-group extensions.
===============================================================

Three presentations exhaust the soluble almost-Sylow-cyclic star groups:

  H1(l) = D_l            as (2,2,l)*,  l even        (projective-planar)
  H2(j,k) = D_j x D_k    as (2,2j,2k)*, j,k odd coprime
  H3(l) = (C2xC2) : D_l  as (2,4,l)*,  l = 3 mod 6

Everything else soluble sits above these through a normal r-subgroup.
This script builds the three shapes and then the small split extensions
over elementary-abelian and Heisenberg kernels that realize the maps of
characteristic -3^d, d <= 4.
"""

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
    split_action_classes,
)
from regmaps.permgrp import odd_core, sylow2_shape

for t, label in (
    (build_h1(6), "H1(6)"),
    (build_h2(3, 5), "H2(3,5)"),
    (build_h3(15), "H3(15)"),
):
    print(
        f"{label}: order {t.group.order()}, type {{{t.m},{t.n}}}, chi = {t.chi}, "
        f"Sylow-2 {sylow2_shape(t.group)}"
    )

# The order-72 group: a 2-dimensional module over F_3 acted on by D_4.
# Action search -> build the affine extension -> find the map.
d4 = make_dihedral(4)
for spec in search_module_actions(d4, 3, 2):
    ext = build_module_extension(d4, spec)
    found = find_triples(ext, 6, 4, limit=1)
    if found:
        t = found[0]
        print(
            f"\nE_9 : D4 of order 72 carries a (2,6,4)* triple, chi = {t.chi};"
            f" odd core has order {odd_core(ext).order()}"
        )
        break

# The Heisenberg group of order 27 admits D_4-actions whose extensions of
# order 216 carry both a {4,6} map (chi = -9) and a pair of {6,12} maps
# (chi = -27).  Conjugate actions give isomorphic extensions, so one action
# per Aut(He3)-conjugacy class is tried: 11 of the 676 homomorphisms.
he3 = build_heisenberg()
reg, homs = split_action_classes(he3, d4)
seen = {}
for hom in homs:
    ext = build_split_extension(reg, d4, hom)
    for mn in ((4, 6), (6, 12)):
        if mn not in seen:
            found = find_triples(ext, *mn, limit=1)
            if found:
                seen[mn] = found[0].chi
    if len(seen) == 2:
        break
for mn, chi in sorted(seen.items()):
    print(f"He3 : D4 of order 216 carries type {mn} with chi = {chi}")
