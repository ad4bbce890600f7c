from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from regmaps import permgrp
from regmaps.errors import ContractError, ParameterError, ResourceError
from regmaps.permgrp import (
    CHAIN_CAP,
    ORDER_CAP,
    NormalSubgroupHandle,
    PermGroup,
    _schreier_sims_order,
    _sylow2,
    count_automorphisms,
    element_table,
    from_cycles,
    hom_from_generator_images,
    identity,
    normal_closure,
    odd_core,
    pinv,
    pmul,
    porder,
    ppow,
    quotient_group,
    sylow2_shape,
)


def dihedral(n):
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, ref])


def test_perm_primitives():
    p = from_cycles(5, [(0, 1, 2)])
    q = from_cycles(5, [(3, 4)])
    assert pmul(p, q) == from_cycles(5, [(0, 1, 2), (3, 4)])
    assert porder(pmul(p, q)) == 6
    assert pinv(p) == from_cycles(5, [(2, 1, 0)])
    assert ppow(p, 3) == identity(5)


def test_group_order():
    assert dihedral(15).order() == 30
    assert PermGroup(1, []).order() == 1
    s7 = PermGroup(7, [from_cycles(7, [tuple(range(7))]), from_cycles(7, [(0, 1)])])
    assert s7.order() == 5040
    with pytest.raises(ResourceError):
        big = PermGroup(13, [from_cycles(13, [tuple(range(13))]), from_cycles(13, [(0, 1)])])
        big.order()  # |S13| > ORDER_CAP = 10^6


def test_forged_order_stops_the_enumeration():
    # the chain is held to the claimed order: S13's first orbit already
    # passes 10, so the chain stops there and nothing is listed
    s13 = [from_cycles(13, [tuple(range(13))]), from_cycles(13, [(0, 1)])]
    forged = PermGroup(13, s13, order=10)
    with pytest.raises(ContractError, match="more than 10 elements"):
        forged.elements()
    assert forged._elements is None


def test_pgl_order_and_element_order(pgl_groups):
    assert pgl_groups["pgl5"].order() == 120
    g = pgl_groups["pgl5"]
    assert porder(g.ident) == 1
    # the unipotent x -> x + 1 has order p
    unip = g.generators[0]
    assert porder(unip) == 5


def test_normal_closure():
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert normal_closure(s4, [s4.ident]).order() == 1
    klein = normal_closure(s4, [from_cycles(4, [(0, 1), (2, 3)])])
    assert klein.order() == 4
    assert klein.check_normal()


def test_normal_closure_simple(pgl_groups):
    psl5 = pgl_groups["psl5"]
    some = next(x for x in psl5.elements() if x != psl5.ident)
    assert normal_closure(psl5, [some]).order() == 60


def test_odd_core():
    assert odd_core(dihedral(15)).order() == 15
    psl5 = PermGroup(5, [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1, 2)])])
    assert odd_core(psl5).is_trivial()


def test_odd_core_e9_d4(e9_d4_triple):
    g = e9_d4_triple.group
    oc = odd_core(g)
    assert oc.order() == 9
    # no larger odd normal subgroup: the quotient's core is trivial
    q = quotient_group(g, oc)
    assert q.order() == 8
    assert odd_core(q).is_trivial()


def test_sylow2_shape(pgl_groups):
    assert sylow2_shape(pgl_groups["psl7"]) == "dihedral"
    assert sylow2_shape(pgl_groups["psl5"]) == "klein"
    c6 = PermGroup(6, [from_cycles(6, [tuple(range(6))])])
    assert sylow2_shape(c6) == "cyclic"
    assert sylow2_shape(PermGroup(3, [from_cycles(3, [(0, 1, 2)])])) == "trivial"
    # C2 x C2 x C2 on 6 points is 'other'
    e8 = PermGroup(
        6, [from_cycles(6, [(0, 1)]), from_cycles(6, [(2, 3)]), from_cycles(6, [(4, 5)])]
    )
    assert sylow2_shape(e8) == "other"


def test_quotient_group(pgl_groups):
    d15 = dihedral(15)
    q = quotient_group(d15, odd_core(d15))
    assert q.order() == 2
    # trivial quotient is an isomorphic copy
    triv = NormalSubgroupHandle(d15, ())
    q2 = quotient_group(d15, triv)
    assert q2.order() == 30
    # non-normal subgroup is rejected
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    bad = NormalSubgroupHandle(s4, [(1, 0, 2, 3)])
    with pytest.raises(ContractError):
        quotient_group(s4, bad)


def test_quotient_direct_product(pgl_groups):
    # PGL2(5) x C7: quotient by the C7 factor has order 120
    pgl5 = pgl_groups["pgl5"]
    deg = pgl5.degree + 7
    gens = [tuple(list(g) + list(range(pgl5.degree, deg))) for g in pgl5.generators]
    c7 = tuple(list(range(pgl5.degree)) + [pgl5.degree + (i + 1) % 7 for i in range(7)])
    g = PermGroup(deg, gens + [c7])
    assert g.order() == 840
    handle = NormalSubgroupHandle(g, [c7])
    assert quotient_group(g, handle).order() == 120


def test_normal_subgroup_handle_generators():
    s3 = PermGroup(3, [(1, 0, 2), (0, 2, 1)])
    handle = NormalSubgroupHandle(s3, [(0, 1, 2), (1, 2, 0), [1, 2, 0], (0, 1, 2)])
    assert handle.generators == ((1, 2, 0),)  # identity and duplicate dropped
    assert handle.order() == 3
    with pytest.raises(ParameterError):
        NormalSubgroupHandle(s3, [(0, 0, 1)])


def test_count_automorphisms(pgl_groups):
    c2 = PermGroup(2, [(1, 0)])
    assert count_automorphisms(c2, [(1, 0)]) == 1
    s3 = PermGroup(3, [(1, 0, 2), (0, 2, 1)])
    assert count_automorphisms(s3, s3.generators) == 6
    psl5 = pgl_groups["psl5"]
    # Aut(PSL2(5)) = S5
    trip = psl5.generators
    assert count_automorphisms(psl5, trip) == 120


def test_element_outside_the_group_is_a_parameter_error(pgl_groups):
    # (5 4 3 2 1 0) is not in PGL(2,5) on its 6 points
    g = pgl_groups["pgl5"]
    outsider = (5, 4, 3, 2, 1, 0)
    with pytest.raises(ParameterError, match="not in the group"):
        count_automorphisms(g, [outsider, *g.generators[1:]])
    q = quotient_group(g, normal_closure(g, g.generators[:1]))  # PGL(2,5) / PSL(2,5)
    assert q.order() == 2 and q.project(g.generators[0]) == q.ident
    with pytest.raises(ParameterError, match="not in the group"):
        q.project(outsider)


def test_direct_product_order():
    # |D_j x D_k| = 4jk
    from regmaps.constructors import build_h2

    for j, k in ((3, 5), (3, 7), (5, 9)):
        assert build_h2(j, k).group.order() == 4 * j * k


def test_odd_core_generator_invariant():
    # the same group presented through conjugated generators has the same core
    d15 = dihedral(15)
    oc1 = odd_core(d15).elements()
    w = ppow(d15.generators[0], 4)
    wi = pinv(w)
    conj = PermGroup(15, [pmul(pmul(wi, x), w) for x in d15.generators])
    assert conj.order() == 30
    assert odd_core(conj).elements() == oc1


def test_order_and_solubility_match_sympy(group_zoo):
    for g in group_zoo[::25]:
        ref = PermutationGroup([Permutation(list(x), size=g.degree) for x in g.generators])
        assert g.order() == ref.order()
        assert g.is_soluble() == ref.is_solvable
        assert g.derived_series() == [h.order() for h in ref.derived_series()]
        t = element_table(g)
        reps, sizes = np.unique(t.class_labels(), return_counts=True)
        assert sorted(sizes.tolist()) == sorted(map(len, ref.conjugacy_classes()))
        elems = sorted(g.elements())
        for rep in (elems[i] for i in reps.tolist()):
            want = ref.normal_closure(Permutation(list(rep), size=g.degree)).order()
            assert normal_closure(g, [rep]).order() == want
        syl = ref.sylow_subgroup(2)
        assert _sylow2(element_table(g)).sum() == syl.order()
        assert (sylow2_shape(g) in ("trivial", "cyclic")) == syl.is_cyclic


def sympy_order(g):
    return PermutationGroup([Permutation(list(x), size=g.degree) for x in g.generators]).order()


def symmetric(n):
    return PermGroup(n, [from_cycles(n, [tuple(range(n))]), from_cycles(n, [(0, 1)])])


def alternating(n):
    return PermGroup(n, [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)])


@pytest.mark.parametrize("n", range(5, 10))
def test_symmetric_and_alternating_orders_match_sympy(n):
    for g, want in ((symmetric(n), factorial(n)), (alternating(n), factorial(n) // 2)):
        assert g.order() == sympy_order(g) == want


@pytest.mark.parametrize("q", (5, 7, 9, 11, 13))
def test_pgl2_orders_match_sympy(q):
    from regmaps.constructors import make_field, make_pgl2

    ctx = make_field(3, 2) if q == 9 else make_field(q, 1)
    for kind, index in (("psl", 2), ("pgl", 1)):
        g = make_pgl2(ctx, kind)
        assert g.order() == sympy_order(g) == q * (q * q - 1) // index


def test_wreath_heisenberg_and_split_extension_orders_match_sympy():
    from regmaps.constructors import (
        build_heisenberg,
        build_split_extension,
        build_wreath_c3,
        make_dihedral,
        search_split_actions,
    )

    he3 = build_heisenberg()
    for g, want in ((build_wreath_c3(), 81), (he3, 27)):
        assert g.order() == sympy_order(g) == want
    d4 = make_dihedral(4)
    reg, homs = search_split_actions(he3, d4)
    assert len(homs) == 676
    for h in homs[::25]:
        ext = build_split_extension(reg, d4, h)
        fresh = PermGroup(ext.degree, ext.generators)
        assert ext.order() == fresh.order() == sympy_order(fresh) == 216


def test_order_cap_is_a_lower_bound(monkeypatch):
    s10 = symmetric(10)
    with pytest.raises(ResourceError) as err:
        s10.order()
    assert ORDER_CAP < err.value.partial <= factorial(10)
    monkeypatch.setattr(permgrp, "ORDER_CAP", factorial(10))
    assert _schreier_sims_order(10, s10.generators)[0] == factorial(10)


def test_chain_budget_refuses_before_filling_memory(run_capped):
    # C_100000 on 100000 points: order 10^5 is within ORDER_CAP, but its
    # chain would hold 10^10 entries
    code = (
        "import time\n"
        "from regmaps.permgrp import PermGroup\n"
        "n = 10 ** 5\n"
        "g = PermGroup(n, [tuple(range(1, n)) + (0,)])\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    g.order()\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "print(time.perf_counter() - start)\n"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    error, seconds = proc.stdout.splitlines()
    assert error == (
        f"ResourceError Schreier-Sims chain budget is {CHAIN_CAP} entries"
        " (degree x transversal elements): 100 at degree 100000"
    )
    assert float(seconds) < 1


def test_hom_walk_is_under_the_element_budget(monkeypatch):
    from regmaps.constructors import make_dihedral, make_field, make_pgl2

    # PSL(2,37) has 25308 elements, above ELEMENTS_CAP
    g = make_pgl2(make_field(37, 1), "psl")
    message = (
        "element budget is 20000 elements and 10000000 entries: the group on"
        " 38 points, with images on 38 points, has more than 20000 elements"
    )
    with pytest.raises(ResourceError) as err:
        hom_from_generator_images(g, g.generators)
    assert str(err.value) == message
    # the images count too: D_4 on 4 points, acting trivially on 20 points,
    # needs 8 x (4 + 20) entries
    d4, ident = make_dihedral(4), identity(20)
    monkeypatch.setattr(permgrp, "CHAIN_CAP", 8 * 24)
    assert len(hom_from_generator_images(d4, (ident, ident))) == 8
    monkeypatch.setattr(permgrp, "CHAIN_CAP", 8 * 24 - 1)
    with pytest.raises(ResourceError, match="has more than 7 elements"):
        hom_from_generator_images(d4, (ident, ident))


def test_hom_images_of_different_degrees_are_refused():
    from regmaps.constructors import make_dihedral

    d2 = make_dihedral(2)
    with pytest.raises(ParameterError, match="different degrees"):
        hom_from_generator_images(d2, ((1, 0, 2), (0, 1, 2, 3, 4)))


def test_chain_inverses_share_int_objects(run_capped):
    # D_3160 on 3160 points: a chain at the budget, with its sifted inverses
    code = (
        "import resource\n"
        "from regmaps.constructors import make_dihedral\n"
        "from regmaps.permgrp import PermGroup\n"
        "print(PermGroup(3160, make_dihedral(3160).generators).order())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    order, peak_kb = map(int, proc.stdout.split())
    assert order == 6320 and peak_kb < 300 * 1024


@pytest.mark.parametrize("degree", (0, 1, 2))
def test_small_degree_products_are_tuples(degree):
    perms = [tuple(p) for p in ([], [0], [0, 1], [1, 0]) if len(p) == degree]
    for p in perms:
        assert pinv(p) == tuple(p.index(i) for i in range(degree))
        for q in perms:
            assert pmul(p, q) == tuple(q[i] for i in p)


DETERMINISTIC = settings(derandomize=True, deadline=None, max_examples=80, database=None)


@DETERMINISTIC
@given(st.data())
def test_order_invariant_under_presentation(data):
    degree = data.draw(st.integers(1, 10))
    perm = st.permutations(range(degree)).map(tuple)
    gens = data.draw(st.lists(perm, min_size=1, max_size=3))
    order = lambda gens: _schreier_sims_order(degree, gens)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgrp, "ORDER_CAP", factorial(10))  # S_10 is above the cap
        want = order(gens)
        assert want == sympy_order(PermGroup(degree, gens))
        shuffled = data.draw(st.permutations(gens))
        assert order(shuffled) == want
        sigma = data.draw(perm)
        si = pinv(sigma)
        conjugated = [pmul(pmul(si, x), sigma) for x in gens]
        assert order(conjugated) == want
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=3))
        redundant = gens + [pmul(x, y) for x, y in pairs]
        assert order(redundant) == want
