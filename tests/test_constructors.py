import re
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from sympy import Poly, Symbol, primerange

from regmaps.algebra import IntMatrix, det_bareiss
from regmaps.constructors import (
    SemidirectSpec,
    ModuleExtensionSpec,
    ProjectiveLine,
    automorphism_perm_group,
    build_h1,
    build_h2,
    build_h3,
    build_heisenberg,
    build_module_extension,
    build_semidirect_cell,
    build_split_extension,
    build_wreath_c3,
    find_triples,
    gl_group,
    make_dihedral,
    make_field,
    make_pgl2,
    psl2_membership,
    search_module_actions,
    search_split_actions,
    split_action_classes,
)
from regmaps import constructors, permgrp
from regmaps.errors import ContractError, ParameterError, ResourceError
from regmaps.families import _product_split_candidates
from regmaps.homology import TriangleTarget, kernel_presentation
from regmaps.mapcore import classify_maps_for_group, verify_star_group
from regmaps.permgrp import (
    CHAIN_CAP,
    PermGroup,
    count_automorphisms,
    element_table,
    hom_from_generator_images,
    normal_closure,
    pmul,
    pinv,
    porder,
)

from conftest import reference_hom


# -- fields -----------------------------------------------------------------


def test_make_field_prime():
    f5 = make_field(5, 1)
    assert f5.q == 5
    xs = f5.elements()
    assert len(xs) == 5
    assert f5.mul(f5.from_int(2), f5.from_int(3)) == f5.from_int(1)


def test_make_field_gf9():
    f9 = make_field(3, 2)
    assert f9.q == 9
    for x in f9.elements():
        if x == f9.zero:
            continue
        y = f9.one
        for _ in range(8):
            y = f9.mul(y, x)
        assert y == f9.one
        assert f9.mul(x, f9.inv(x)) == f9.one


def _code_poly(code, p, e):
    """The monic modulus make_field reads from ``code``, little-endian: the
    top base-p digit is the constant term, the lowest the x^(e-1)
    coefficient."""
    digits = [code // p ** i % p for i in range(e)]
    return digits[::-1] + [1]


@pytest.mark.parametrize("p", list(primerange(3, 98)))
def test_make_field_modulus_is_the_first_irreducible_code(p):
    # sympy is the oracle; codes below p^(e-1) have constant term 0, and
    # for p <= 5 the scan starts at code 0 to show that skipping them is safe
    x = Symbol("x")

    def irreducible(coeffs):
        return Poly(coeffs[::-1], x, modulus=p).is_irreducible

    for e in (2, 3, 4):
        modulus = list(make_field(p, e).modulus)
        codes = range(0 if p <= 5 else p ** (e - 1), p ** e)
        first = next(c for c in codes if irreducible(_code_poly(c, p, e)))
        assert _code_poly(first, p, e) == modulus


def test_make_field_squares():
    f13 = make_field(13, 1)
    squares = [x for x in f13.elements() if x != f13.zero and f13.is_square(x)]
    assert len(squares) == 6


def test_field_modulus_deterministic():
    assert make_field(3, 2).modulus == make_field(3, 2).modulus
    # the modulus is monic irreducible of the right degree
    f = make_field(7, 3)
    assert len(f.modulus) == 4 and f.modulus[-1] == 1


def test_make_field_rejects():
    with pytest.raises(ParameterError):
        make_field(2, 3)
    with pytest.raises(ParameterError):
        make_field(101, 1)
    with pytest.raises(ParameterError):
        make_field(5, 5)


# -- PSL2/PGL2 ---------------------------------------------------------------


def test_pgl2_orders(pgl_groups):
    assert pgl_groups["pgl5"].degree == 6 and pgl_groups["pgl5"].order() == 120
    assert pgl_groups["psl13"].degree == 14 and pgl_groups["psl13"].order() == 1092
    assert pgl_groups["pgl9"].degree == 10 and pgl_groups["pgl9"].order() == 720


def test_psl_normal_in_pgl(pgl_groups):
    pgl5, psl5 = pgl_groups["pgl5"], pgl_groups["psl5"]
    assert psl5.order() * 2 == pgl5.order()
    ncl = normal_closure(pgl5, psl5.generators)
    assert ncl.order() == 60


def test_unipotent_order():
    for p, e in ((5, 1), (7, 1), (3, 2)):
        g = make_pgl2(make_field(p, e), "pgl")
        assert porder(g.generators[0]) == p


def test_make_pgl2_rejects():
    with pytest.raises(ParameterError):
        make_pgl2(make_field(3, 1), "pgl")
    with pytest.raises(ParameterError):
        make_pgl2(make_field(5, 1), "gl")


# -- soluble families ---------------------------------------------------------


@pytest.mark.parametrize("ell,order,chi", [(2, 4, 1), (4, 8, 1), (6, 12, 1), (30, 60, 1)])
def test_build_h1(ell, order, chi):
    t = build_h1(ell)
    assert t.group.order() == order and (t.m, t.n) == (2, ell) and t.chi == chi


# the triples build_h1 gave when it laid out D_ell by hand
H1_TRIPLES = {
    2: ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)),
    4: ((2, 3, 0, 1), (0, 3, 2, 1), (1, 0, 3, 2)),
    30: (
        (15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
         0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
        (0, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16,
         15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1),
        (1, 0, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17,
         16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2),
    ),
}


@pytest.mark.parametrize("ell", sorted(H1_TRIPLES))
def test_build_h1_triples_are_pinned(ell):
    t = build_h1(ell)
    assert (t.a, t.b, t.c) == H1_TRIPLES[ell]


def test_build_h1_rejects_odd():
    with pytest.raises(ParameterError):
        build_h1(3)


def test_make_dihedral_order_matches_schreier_sims():
    for n in range(1, 13):
        d = make_dihedral(n)
        assert d.cached_order == 2 * n == PermGroup(d.degree, d.generators).order()


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)])
@pytest.mark.parametrize("kind", ["psl", "pgl"])
def test_make_pgl2_order_matches_schreier_sims(p, e, kind):
    # every odd prime power q with 5 <= q <= 27
    g = make_pgl2(make_field(p, e), kind)
    assert g.cached_order == PermGroup(g.degree, g.generators).order()


def test_build_h1_refuses_above_its_budget_before_building():
    # <ab, bc> = D_ell on ell points: its chain holds ell * (ell + 2) entries
    assert build_h1(2000).group.order() == 4000
    start = time.perf_counter()
    message = f"Schreier-Sims chain budget is {CHAIN_CAP} entries (degree x transversal elements): 500 at degree 20000"
    with pytest.raises(ResourceError, match=re.escape(message)):
        build_h1(20000)
    assert time.perf_counter() - start < 1


def test_build_h2():
    t = build_h2(3, 5)
    assert t.group.order() == 60 and (t.m, t.n) == (6, 10) and t.chi == -7
    t2 = build_h2(5, 49)
    assert t2.group.order() == 980 and (t2.m, t2.n) == (10, 98) and t2.chi == -191
    with pytest.raises(ParameterError):
        build_h2(3, 3)
    with pytest.raises(ParameterError):
        build_h2(3, 4)


def test_build_h3():
    t = build_h3(15)
    assert t.group.order() == 120 and (t.m, t.n) == (4, 15) and t.chi == -11
    t2 = build_h3(3)
    assert t2.group.order() == 24 and t2.chi == 1
    t3 = build_h3(9)
    assert t3.group.order() == 72 and t3.chi == -5
    with pytest.raises(ParameterError):
        build_h3(5)


def test_h_relators():
    # the defining extra relators hold verbatim
    t = build_h1(6)
    half = t.bc
    for _ in range(2):
        half = pmul(half, t.bc)  # (bc)^3 = (bc)^(ell/2)
    assert pmul(t.a, half) == t.group.ident
    t = build_h2(3, 5)
    w = pmul(t.b, t.ab)
    for _ in range(2):
        w = pmul(w, t.ab)
    for _ in range(5):
        w = pmul(w, t.bc)
    assert w == t.group.ident
    t = build_h3(9)
    w = pmul(pmul(pmul(t.c, t.b), pmul(t.a, t.b)), pmul(t.c, pmul(t.ab, t.ab)))
    assert w == t.group.ident


# -- 3-groups -----------------------------------------------------------------


def test_heisenberg():
    he3 = build_heisenberg()
    assert he3.order() == 27
    orders = he3.element_orders()
    assert max(orders) == 3
    centre = [
        x
        for x in he3.elements()
        if all(pmul(x, g) == pmul(g, x) for g in he3.generators)
    ]
    assert len(centre) == 3


def test_wreath():
    from regmaps.permgrp import pinv

    wr = build_wreath_c3()
    assert wr.order() == 81
    assert max(wr.element_orders()) == 9
    a, b = wr.generators
    commutator = pmul(pmul(pinv(a), pinv(b)), pmul(a, b))
    derived = normal_closure(wr, [commutator])
    assert derived.order() == 9


# -- module extensions ---------------------------------------------------------


def test_gl_elements():
    assert gl_group(2, 3).order() == 48
    assert gl_group(1, 5).order() == 4
    assert gl_group(3, 3).order() == 11232
    with pytest.raises(ResourceError):
        gl_group(4, 3)  # 3^16 matrix codes x 81 vectors is over the listing budget
    with pytest.raises(ParameterError):
        gl_group(2, 4)


def _code_order(k, p):
    """Sort key of a linear permutation: the code of its matrix, whose
    digit i*k + j (base p) is entry (i, j)."""
    return lambda x: sum(x[p ** i] * p ** (i * k) for i in range(k))


@pytest.mark.parametrize(
    "k,p", [(1, 5), (2, 3), (2, 5), (2, 7), (2, 11), (3, 2), (3, 3), (1, 257)]
)
def test_gl_listing_is_the_sorted_matrix_permutations(k, p):
    perms = sorted((constructors._mat_perm(m, p) for m in _oracle_gl(k, p)), key=_code_order(k, p))
    listing = constructors._gl_listing(k, p)
    # uint16 at p^k = 257: an addition-table index formed in that dtype would wrap
    assert listing.dtype == np.min_scalar_type(p ** k - 1)
    assert listing.tolist() == [list(x) for x in perms]


def test_gl_listing_is_refused_before_anything_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("GL_1(4999) was built")

    for name in ("_gl_generators", "_gl_listing", "_mat_perm", "PermGroup"):
        monkeypatch.setattr(constructors, name, unreachable)
    # 4999 matrix codes x 4999 vectors is over CHAIN_CAP
    with pytest.raises(ResourceError, match="listing budget"):
        gl_group(1, 4999)


def _det(m):
    return det_bareiss(IntMatrix(len(m), len(m), [x for row in m for x in row]))


def _oracle_gl(k, p):
    """GL_k(p) from all p^(k^2) integer matrices with a unit determinant."""
    mats = [tuple(zip(*[iter(e)] * k)) for e in product(range(p), repeat=k * k)]
    return [m for m in mats if _det(m) % p]


def _mm(a, b, p):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a
    )


def _inverse(m, p):
    """det^-1 times the adjugate (cofactors from Bareiss determinants)."""
    k, scale = len(m), pow(_det(m), -1, p)

    def minor(i, j):
        return [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i]

    return tuple(
        tuple((-1) ** (i + j) * _det(minor(j, i)) * scale % p for j in range(k))
        for i in range(k)
    )


def _oracle_homs(n, gl, p):
    """Images of make_dihedral(n)'s generators satisfying its presentation:
    x^2 for n = 1, else x^n, y^2, (xy)^2."""
    k = len(gl[0])
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    def power(m, e):
        out = ident
        for _ in range(e):
            out = _mm(out, m, p)
        return out

    if n == 1:
        return {(x,) for x in gl if power(x, 2) == ident}
    return {
        (x, y)
        for x in gl
        if power(x, n) == ident
        for y in gl
        if power(y, 2) == ident and power(_mm(x, y, p), 2) == ident
    }


@pytest.mark.parametrize("n,p,k", [(2, 3, 2), (4, 3, 2), (1, 3, 3)])
def test_module_actions_vs_brute_force(n, p, k):
    gl = _oracle_gl(k, p)
    conj = [(_inverse(g, p), g) for g in gl]
    homs = _oracle_homs(n, gl, p)
    covered = []
    for spec in search_module_actions(make_dihedral(n), p, k):
        covered += {
            tuple(_mm(_mm(ginv, m, p), g, p) for m in spec.matrices) for ginv, g in conj
        }
    # the orbits are disjoint and together hold every homomorphism
    assert len(covered) == len(set(covered)) and set(covered) == homs


def _per_candidate_homs(acting, targets):
    """The generator images from ``targets`` that extend to homomorphisms
    from ``acting``, one walk per candidate: each image's order divides its
    generator's, and the tuples go in the order of ``itertools.product``."""
    choices = [[t for t in targets if porder(g) % porder(t) == 0] for g in acting.generators]
    return [
        images
        for images in product(*choices)
        if reference_hom(acting.degree, acting.generators, images) is not None
    ]


# acting groups whose order filters are no presentation, so the Cayley walk
# rejects candidates: C3 x C3 (orders 3, 3, 3) and S3 x C3 (three generators)
_ACTING = {
    "c3xc3": lambda: PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),
    "s3xc3": lambda: PermGroup(6, [(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),
    "trivial": lambda: PermGroup(1, []),
}


def _acting(name):
    return make_dihedral(int(name[1:])) if name[0] == "d" else _ACTING[name]()


@pytest.mark.parametrize(
    "acting,p,k",
    [("d1", 3, 2), ("d2", 3, 2), ("d4", 3, 2), ("d5", 3, 2), ("d10", 3, 2), ("d1", 3, 3),
     ("c3xc3", 3, 2), ("s3xc3", 3, 2), ("trivial", 3, 2)],
)
def test_module_action_homs_match_per_candidate_walks(acting, p, k, monkeypatch):
    d = _acting(acting)
    gl = sorted(gl_group(k, p).elements(), key=_code_order(k, p))
    listing = constructors._gl_listing(k, p)
    homs = constructors._hom_tuples(listing, constructors._action_homs(d, listing))
    assert homs == _per_candidate_homs(d, gl)
    if not d.generators:
        assert homs == [()]
        assert search_module_actions(d, p, k) == [ModuleExtensionSpec(k, p, ())]
    # a walk in blocks of two candidates gives the same answer
    monkeypatch.setattr(constructors, "CHAIN_CAP", 2 * d.order() * p ** k)
    assert constructors._hom_tuples(listing, constructors._action_homs(d, listing)) == homs


_S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@pytest.mark.parametrize("acting", [f"d{n}" for n in range(1, 11)] + sorted(_ACTING))
def test_hom_walk_matches_the_reference_walk(acting):
    # every image tuple into S3, and the group's own generators: both
    # walks give None, or the same image of every element
    d = _acting(acting)
    gens = d.generators
    elems = element_table(d).perms(np.arange(d.order()))
    tuples = [gens, *product(_S3, repeat=len(gens))]
    verdicts = set()
    for images in tuples:
        got = hom_from_generator_images(d, images)
        if got is not None:
            got = dict(zip(elems, got))
        assert got == reference_hom(d.degree, gens, images)
        verdicts.add(got is None)
    assert verdicts == ({False} if acting == "trivial" else {False, True})


def _old_module_extension(h, spec):
    """The module extension as it was assembled by hand: the matrix actions
    on the vector points beside H's own action, then one translation per
    basis vector."""
    k, p = spec.k, spec.p
    nv = p ** k
    vecs = [tuple(c // p ** i % p for i in range(k)) for c in range(nv)]
    code = {v: c for c, v in enumerate(vecs)}

    def act(m):
        return [
            code[tuple(sum(v[i] * m[i][j] for i in range(k)) % p for j in range(k))] for v in vecs
        ]

    gens = [tuple(act(m) + [nv + i for i in g]) for g, m in zip(h.generators, spec.matrices)]
    for b in range(k):
        shift = [code[tuple((x + (i == b)) % p for i, x in enumerate(v))] for v in vecs]
        gens.append(tuple(shift + list(range(nv, nv + h.degree))))
    return PermGroup(nv + h.degree, gens)


@pytest.mark.parametrize("n,p,k", [(4, 3, 2), (2, 3, 2), (10, 3, 2), (1, 3, 3)])
def test_module_extension_is_the_old_assembly(n, p, k):
    d = make_dihedral(n)
    for spec in search_module_actions(d, p, k):
        ext = build_module_extension(d, spec)
        assert ext.elements() == _old_module_extension(d, spec).elements()


def test_module_spec_validation():
    with pytest.raises(ParameterError):
        ModuleExtensionSpec(1, 4, (((2,),),))
    with pytest.raises(ParameterError):
        ModuleExtensionSpec(1, 3, (((3,),),))
    with pytest.raises(ResourceError):
        ModuleExtensionSpec(13, 3, ())  # 3^13 points
    # 3^12 + 500000 points is over the cell degree cap
    ident = tuple(tuple(int(i == j) for j in range(12)) for i in range(12))
    with pytest.raises(ResourceError):
        build_module_extension(make_dihedral(500_000), ModuleExtensionSpec(12, 3, (ident, ident)))


def test_search_module_actions_d4(e9_d4_triple):
    assert e9_d4_triple.group.order() == 72
    assert (e9_d4_triple.m, e9_d4_triple.n) == (6, 4)
    assert e9_d4_triple.chi == -3


def test_search_module_actions_trivial():
    d2 = make_dihedral(2)
    specs = search_module_actions(d2, 3, 0)
    assert len(specs) == 1
    ext = build_module_extension(d2, specs[0])
    assert ext.order() == 4


def test_module_actions_of_c2_above_the_element_cap():
    # |GL_4(2)| = 20160 and |GL_2(13)| = 26208 pass ELEMENTS_CAP, but the
    # listing budgets only matrix codes x vectors: C2 has one action per
    # number of Jordan blocks of size 2 (GL_4(2)) or -1 eigenvalues (GL_2(13))
    assert len(search_module_actions(make_dihedral(1), 2, 4)) == 3
    assert len(search_module_actions(make_dihedral(1), 13, 2)) == 3


def test_module_extension_d10():
    d10 = make_dihedral(10)
    hit = None
    for spec in search_module_actions(d10, 3, 2):
        ext = build_module_extension(d10, spec)
        if ext.order() != 180:
            continue
        found = find_triples(ext, 6, 30, limit=1)
        if len(found):
            hit = found[0]
            break
    assert hit is not None and hit.chi == -27


def test_module_extension_rejects_bad_matrices():
    d4 = make_dihedral(4)
    bad = ModuleExtensionSpec(2, 3, (((1, 1), (0, 1)), ((1, 0), (0, 1))))
    with pytest.raises(ContractError):
        build_module_extension(d4, bad)  # (1,1;0,1) has order 3, not 2


# -- split extensions ----------------------------------------------------------


def test_aut_he3():
    he3 = build_heisenberg()
    _reg, auts = automorphism_perm_group(he3)
    assert len(auts) == 432


def test_split_kernel_budget_refuses_before_enumerating():
    # the regular form of S7 would list 5040^2 entries, over CHAIN_CAP
    s7 = PermGroup(7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])
    message = f"regular form budget is {CHAIN_CAP} entries (|V| x |V|): |V| = 5040"
    with pytest.raises(ResourceError, match=re.escape(message)):
        search_split_actions(s7, make_dihedral(2))
    assert s7._elements is None


def test_aut_listing_budget_counts_automorphisms_times_order(monkeypatch):
    # |Aut(He3)| x |He3| = 432 x 27 entries; |He3|^2 = 729 is within both caps
    monkeypatch.setattr(constructors, "CHAIN_CAP", 432 * 27)
    assert len(automorphism_perm_group(build_heisenberg())[1]) == 432
    monkeypatch.setattr(constructors, "CHAIN_CAP", 432 * 27 - 1)
    message = "Aut(V) listing budget is 11663 entries (automorphisms x |V|): 432 x 27"
    with pytest.raises(ResourceError, match=re.escape(message)):
        automorphism_perm_group(build_heisenberg())


def test_aut_listing_keeps_one_row_per_inner_automorphism():
    # C_211 is abelian: one inner row, not 211 rows per outer map
    c211 = PermGroup(211, [tuple((i + 1) % 211 for i in range(211))])
    c211.order()
    tracemalloc.start()
    try:
        _, auts = automorphism_perm_group(c211)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(auts) == 210 and len(set(auts)) == 210
    assert peak < 10 * 2 ** 20


def test_projective_line_degree_is_refused_before_anything_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a Moebius permutation was built")

    monkeypatch.setattr(ProjectiveLine, "moebius_perm", unreachable)
    # 97^4 + 1 points is over CELL_DEGREE_CAP
    with pytest.raises(ResourceError, match="projective line degree 88529282 exceeds 1000000"):
        make_pgl2(make_field(97, 4), "pgl")


def _on_pgl31(call):
    def case():
        # |PGL(2,31)| = 29760 is within the group-order budget but not the element budget
        g = make_pgl2(make_field(31, 1), "pgl")
        return g, lambda: call(g)
    return case


def _find_triples_s9():
    s9 = PermGroup(9, [(1, 2, 3, 4, 5, 6, 7, 8, 0), (1, 0, 2, 3, 4, 5, 6, 7, 8)])
    return s9, lambda: find_triples(s9, 3, 4)


def _kernel_pgl31():
    F = make_field(31, 1)
    g, line = make_pgl2(F, "pgl"), ProjectiveLine(F)
    one, zero, neg = F.one, F.zero, F.neg(F.one)
    a = line.moebius_perm(neg, zero, zero, one)  # x -> -x
    b = line.moebius_perm(one, one, F.add(one, one), neg)  # x -> (x + 1) / (2x - 1)
    c = line.moebius_perm(zero, one, one, zero)  # x -> 1 / x
    t = verify_star_group(g, a, b, c)  # {32, 6}, proved on a Schreier-Sims chain
    return g, lambda: kernel_presentation(TriangleTarget(t, (2, t.m, t.n)))


PGL31_REFUSAL = "element budget is 20000, group has order 29760"


@pytest.mark.parametrize(
    "case, message",
    [
        (_on_pgl31(lambda g: count_automorphisms(g, g.generators)), PGL31_REFUSAL),
        (_find_triples_s9, "element budget is 20000, group has order 362880"),
        (_on_pgl31(lambda g: find_triples(g, 3, 8)), PGL31_REFUSAL),
        (_kernel_pgl31, PGL31_REFUSAL),
        (_on_pgl31(element_table), PGL31_REFUSAL),
        (_on_pgl31(classify_maps_for_group), PGL31_REFUSAL),
    ],
    ids=["aut", "find_triples", "find_triples_pgl31", "coset_table", "element_table", "census"],
)
def test_fixed_budgets_refuse_before_enumerating(case, message):
    g, call = case()
    with pytest.raises(ResourceError, match=re.escape(message)):
        call()
    assert g._elements is None


def test_psl2_membership_keeps_the_element_budget(monkeypatch):
    made, real = [], constructors.make_pgl2

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(constructors, "make_pgl2", recording)
    # |PSL(2,81)| = 265680
    with pytest.raises(ResourceError, match="element budget is 20000, group has order 265680"):
        psl2_membership(make_field(3, 4))
    assert made[0]._elements is None


def test_count_automorphisms_above_the_old_cap():
    g = make_pgl2(make_field(13, 1), "pgl")  # order 2184; PGL(2,p) is its own Aut
    assert count_automorphisms(g, g.generators) == 2184


def _automorphisms(v):
    """Every automorphism of v as a permutation of its sorted elements, in
    the lexicographic order of the generator images: each choice of images
    of the same orders that ``reference_hom`` extends, kept when it is
    bijective."""
    elems = sorted(v.elements())
    pos = {x: i for i, x in enumerate(elems)}
    choices = [[y for y in elems if porder(y) == porder(g)] for g in v.generators]
    out = []
    for images in product(*choices):
        phi = reference_hom(v.degree, v.generators, images)
        if phi is not None and len(set(phi.values())) == len(elems):
            out.append(tuple(pos[phi[x]] for x in elems))
    return out


_KERNELS = {
    "he3": build_heisenberg,
    "wr3": build_wreath_c3,
    "c3": lambda: PermGroup(3, [(1, 2, 0)]),
    "d4": lambda: make_dihedral(4),
}


@pytest.mark.parametrize("kernel", ["he3", "wr3", "d4", "c3"])
def test_automorphism_perm_group_vs_brute_force(kernel):
    # the class-anchored search followed by every inner automorphism gives
    # the whole of Aut(v), in the order of the full generator-image search
    v = _KERNELS[kernel]()
    _reg, auts = automorphism_perm_group(v)
    assert auts == _automorphisms(v)
    assert count_automorphisms(v, v.generators) == len(auts)


@pytest.mark.parametrize(
    "kernel,n,classes",
    [("he3", 4, 11), ("he3", 2, 10), ("he3", 10, 10), ("wr3", 2, 16), ("c3", 4, 4)],
)
def test_split_action_classes_vs_brute_force(kernel, n, classes):
    v, d = _KERNELS[kernel](), make_dihedral(n)
    conj = [(pinv(a), a) for a in _automorphisms(v)]
    _reg, reps = split_action_classes(v, d)
    covered = []
    for rep in reps:
        covered += {tuple(pmul(pmul(ainv, x), a) for x in rep) for ainv, a in conj}
    # the orbits are disjoint and together hold every homomorphism
    assert len(reps) == classes
    assert len(covered) == len(set(covered))
    assert set(covered) == set(search_split_actions(v, d)[1])


@pytest.mark.parametrize(
    "kernel,acting",
    [(kernel, n) for kernel in ("he3", "wr3", "c3") for n in ("d2", "d4", "d10")]
    + [("he3", "c3xc3"), ("he3", "trivial"), ("c3", "trivial")],
)
def test_split_actions_match_per_candidate_walks(kernel, acting):
    v, d = _KERNELS[kernel](), _acting(acting)
    _reg, auts = automorphism_perm_group(v)
    homs = search_split_actions(v, d)[1]
    assert homs == _per_candidate_homs(d, auts)
    if not d.generators:
        assert homs == [()]


def test_action_searches_walk_no_candidate_alone(monkeypatch):
    # the order filters are power tests on arrays and the homomorphism test
    # is one batched walk: porder runs only on the generators and their
    # pairwise products, and no candidate gets its own walk
    calls = {"porder": 0, "hom": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(constructors, "porder", counted("porder", porder))
    monkeypatch.setattr(
        constructors, "hom_from_generator_images", counted("hom", hom_from_generator_images)
    )
    d4 = make_dihedral(4)
    assert len(search_module_actions(d4, 3, 3)) == 24
    assert calls == {"porder": 3, "hom": 0}
    assert len(search_split_actions(build_heisenberg(), d4)[1]) == 676
    assert calls == {"porder": 6, "hom": 0}


def test_split_builds_walk_one_generator_tree(monkeypatch):
    # the search and all 676 builds share the BFS tree of D4's table, and
    # no table computes its tree before it is asked for
    he3, d4 = build_heisenberg(), make_dihedral(4)
    trees = []
    bfs = permgrp.ElementTable.bfs_schedule

    def counted(table, gen_indices):
        trees.append(table.n)
        return bfs(table, gen_indices)

    monkeypatch.setattr(permgrp.ElementTable, "bfs_schedule", counted)
    assert "generator_tree" not in vars(element_table(d4))
    reg, homs = search_split_actions(he3, d4)
    assert {build_split_extension(reg, d4, hom).order() for hom in homs} == {216}
    assert (len(homs), trees.count(8)) == (676, 1)


def test_split_he3_d4():
    he3 = build_heisenberg()
    d4 = make_dihedral(4)
    reg, homs = search_split_actions(he3, d4)
    seen = set()
    for hom in homs:
        ext = build_split_extension(reg, d4, hom)
        if ext.order() != 216:
            continue
        for (m, n) in ((4, 6), (6, 12)):
            if (m, n) in seen:
                continue
            found = find_triples(ext, m, n, limit=1)
            if len(found):
                seen.add((m, n))
        if seen == {(4, 6), (6, 12)}:
            break
    assert (4, 6) in seen and (6, 12) in seen


def _certified_extensions():
    """Every extension whose certified order the oracle test checks."""
    he3, wreath = build_heisenberg(), build_wreath_c3()
    for kernel, n in ((he3, 4), (he3, 2), (wreath, 2)):
        d = make_dihedral(n)
        reg, homs = search_split_actions(kernel, d)
        yield from (build_split_extension(reg, d, hom) for hom in homs)
    yield from _product_split_candidates()
    for n, p, k in ((4, 3, 2), (2, 3, 2), (10, 3, 2), (4, 3, 3), (1, 3, 3)):
        d = make_dihedral(n)
        yield from (build_module_extension(d, spec) for spec in search_module_actions(d, p, k))


def test_certified_split_orders_match_schreier_sims():
    count = 0
    for ext in _certified_extensions():
        assert ext.cached_order is not None  # proved at build time
        assert ext.order() == PermGroup(ext.degree, ext.generators).order()
        count += 1
    assert count == 676 + 460 + 244 + 44 + 59


def test_split_extension_rejects_a_broken_certificate():
    he3, d4 = build_heisenberg(), make_dihedral(4)
    reg, homs = search_split_actions(he3, d4)
    hom = homs[1]
    # a consistent tuple first, so D4's tree is kept for the broken ones
    assert build_split_extension(reg, d4, hom).order() == 216
    # a transposition satisfies D4's relations (as the image of both
    # generators) but fixes 25 of He3's 27 points, so it cannot normalize it
    swap = (1, 0) + tuple(range(2, reg.degree))
    assert hom_from_generator_images(d4, (swap, swap)) is not None
    with pytest.raises(ContractError, match="normalize"):
        build_split_extension(reg, d4, (swap, swap))
    # an image of order 3 for an involution breaks D4's relations
    three = reg.generators[0]
    assert porder(three) == 3
    with pytest.raises(ContractError, match="relations"):
        build_split_extension(reg, d4, (hom[0], three))
    with pytest.raises(ParameterError):
        build_split_extension(reg, d4, hom[:1])
    wrong = PermGroup(reg.degree, reg.generators, order=26)
    with pytest.raises(ContractError):
        build_split_extension(wrong, d4, hom)


def test_split_extensions_skip_schreier_sims(monkeypatch):
    he3, d4 = build_heisenberg(), make_dihedral(4)
    reg, homs = search_split_actions(he3, d4)
    calls = []
    sifted = permgrp._schreier_sims_order

    def counted(degree, gens, claimed=None):
        calls.append((degree, claimed))
        return sifted(degree, gens, claimed)

    monkeypatch.setattr(permgrp, "_schreier_sims_order", counted)
    orders = {build_split_extension(reg, d4, hom).order() for hom in homs}
    # the one chain lists V, held to its given order; no extension gets one
    assert (len(homs), orders, calls) == (676, {216}, [(27, 27)])


# -- semidirect cells ----------------------------------------------------------


def _rotation_subgroup_elements(triple):
    out = set()
    cur = triple.group.ident
    for _ in range(triple.n):
        out.add(cur)
        cur = pmul(cur, triple.bc)
    return frozenset(out)


def test_cell_identity_ell():
    h1 = build_h1(4)
    spec = SemidirectSpec(base=h1, h0_elements=_rotation_subgroup_elements(h1), ell=1)
    assert build_semidirect_cell(spec) is h1


def test_cell_over_dihedral_matches_h1():
    h1 = build_h1(4)
    spec = SemidirectSpec(base=h1, h0_elements=_rotation_subgroup_elements(h1), ell=3)
    cell = build_semidirect_cell(spec)
    assert (cell.m, cell.n, cell.chi) == (2, 12, 1)
    assert cell.group.order() == 24
    # generic re-verification on the small degree
    fresh = PermGroup(cell.group.degree, [cell.a, cell.b, cell.c])
    assert fresh.order() == 24  # Schreier-Sims, not the cached order
    t = verify_star_group(fresh, cell.a, cell.b, cell.c)
    assert (t.m, t.n, t.chi) == (2, 12, 1)


def test_cell_b3(pgl_groups):
    pslset = psl2_membership(make_field(7, 1))
    base = next(
        t
        for t in find_triples(pgl_groups["pgl7"], 3, 8, limit=50)
        if t.a not in pslset and t.b not in pslset and t.c in pslset
    )
    cell = build_semidirect_cell(SemidirectSpec(base=base, h0_elements=pslset, ell=5))
    assert (cell.m, cell.n) == (15, 8) and cell.group.order() == 1680
    fresh = PermGroup(cell.group.degree, [cell.a, cell.b, cell.c])
    assert fresh.order() == 1680  # Schreier-Sims, not the cached order
    t = verify_star_group(fresh, cell.a, cell.b, cell.c)
    assert (t.m, t.n) == (15, 8) and t.chi == cell.chi

    ell = (7 ** 6 + 8) // 9
    assert ell == 13073
    big = build_semidirect_cell(SemidirectSpec(base=base, h0_elements=pslset, ell=ell))
    assert (big.m, big.n) == (3 * ell, 8)
    assert big.group.order() == 336 * ell
    assert big.chi == -(7 ** 7)


def test_cell_rejects_inside_pattern(pgl_groups):
    # all (2,5,4)* triples of PGL2(5) have a, b inside PSL: the C_ell part
    # provably collapses, so the builder must refuse
    pslset = psl2_membership(make_field(5, 1))
    base = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    assert base.a in pslset and base.b in pslset
    with pytest.raises(ContractError):
        build_semidirect_cell(SemidirectSpec(base=base, h0_elements=pslset, ell=17))


def test_cell_spec_validation(pgl_groups):
    h1 = build_h1(4)
    h0 = _rotation_subgroup_elements(h1)
    with pytest.raises(ParameterError):
        SemidirectSpec(base=h1, h0_elements=h0, ell=4)  # even
    with pytest.raises(ParameterError):
        SemidirectSpec(base=h1, h0_elements=h0, ell=3 * 8)  # not coprime/odd


@pytest.mark.parametrize("outside", [(), ("a", "b")], ids=["all_inside", "forged_signs"])
def test_cell_spec_rejects_an_h0_that_is_no_subgroup(pgl_groups, outside):
    # a base triple with true PSL signs (in, in, out), and an h0 of the
    # right size, 168, that puts a, b or none of a, b, c outside it
    pgl7 = pgl_groups["pgl7"]
    pslset = psl2_membership(make_field(7, 1))
    base = next(
        t
        for t in find_triples(pgl7, 3, 8, limit=64)
        if t.a in pslset and t.b in pslset and t.c not in pslset
    )
    named = {"a": base.a, "b": base.b, "c": base.c}
    kept = {x for name, x in named.items() if name not in outside}
    others = sorted(set(pgl7.elements()) - set(named.values()))
    forged = frozenset(kept | set(others[: 168 - len(kept)]))
    assert len(forged) == 168
    with pytest.raises(ParameterError):
        SemidirectSpec(base=base, h0_elements=forged, ell=5)


# -- find_triples ---------------------------------------------------------------


def test_find_triples(pgl_groups):
    r46 = find_triples(pgl_groups["pgl5"], 4, 6)
    assert len(r46) and r46[0].chi == -5
    r45 = find_triples(pgl_groups["pgl5"], 4, 5)
    assert len(r45) and r45[0].chi == -3
    r73 = find_triples(pgl_groups["psl7"], 7, 3)
    assert r73 == []  # fewer than limit: the search was exhaustive


def test_find_triples_limit(pgl_groups):
    res = find_triples(pgl_groups["pgl5"], 4, 6, limit=1)
    assert len(res) == 1


def test_cell_projection_recovers_base(pgl_groups):
    # factoring the C_ell part out of a stretched triple recovers the base
    from regmaps.permgrp import NormalSubgroupHandle, quotient_group, porder
    from regmaps.permgrp import ppow

    pslset = psl2_membership(make_field(7, 1))
    base = next(
        t
        for t in find_triples(pgl_groups["pgl7"], 3, 8, limit=50)
        if t.a not in pslset and t.b not in pslset
    )
    cell = build_semidirect_cell(SemidirectSpec(base=base, h0_elements=pslset, ell=5))
    assert PermGroup(cell.group.degree, [cell.a, cell.b, cell.c]).order() == cell.group.order()
    z_part = ppow(cell.ab, base.m)
    handle = NormalSubgroupHandle(cell.group, [z_part])
    assert handle.order() == 5 and handle.check_normal()
    q = quotient_group(cell.group, handle)
    assert q.order() == base.group.order()
    assert porder(q.project(cell.ab)) == base.m
    assert porder(q.project(cell.bc)) == base.n
