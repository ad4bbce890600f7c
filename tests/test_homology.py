import random

import pytest

from regmaps.algebra import mod_p_rank
from regmaps.constructors import build_h1, find_triples, make_field, make_pgl2
from regmaps.errors import ContractError, ParameterError
from regmaps.homology import (
    TriangleTarget,
    branched_rank_check,
    cover_characteristic,
    cover_exponent,
    kernel_abelianization,
    kernel_presentation,
)
from regmaps.mapcore import MapTriple, map_counts, verify_star_group
from regmaps.permgrp import PermGroup, pinv, pmul


def test_coset_table_sizes(pgl_groups):
    # the |G| - 1 tree edges of the 3|G| Schreier generators are eliminated
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    assert kernel_presentation(TriangleTarget(t, (2, 5, 4))).n_generators == 2 * 120 + 1
    h1 = build_h1(2)
    assert kernel_presentation(TriangleTarget(h1, (2, 2, 2))).n_generators == 2 * 4 + 1
    t38 = find_triples(pgl_groups["pgl7"], 3, 8)[0]
    assert kernel_presentation(TriangleTarget(t38, (2, 3, 8))).n_generators == 2 * 336 + 1


def _pmul_coset_table(t):
    """Actions and BFS tree edges (labels scanned A < B < C) of the Cayley
    graph from the sorted elements and 3|G| permutation products; an edge
    (parent, label) fixes its child, actions[label][parent]."""
    g = t.triple.group
    elems = sorted(g.elements())
    index = {e: i for i, e in enumerate(elems)}
    gens = (t.triple.a, t.triple.b, t.triple.c)
    actions = tuple(tuple(index[pmul(x, gen)] for x in elems) for gen in gens)
    root = index[g.ident]
    seen, frontier, edges = {root}, [root], set()
    while frontier:
        nxt = []
        for i in frontier:
            for lab in range(3):
                j = actions[lab][i]
                if j not in seen:
                    seen.add(j)
                    edges.add((i, lab))
                    nxt.append(j)
        frontier = nxt
    return actions, frozenset(edges)


def test_target_validation(pgl_groups):
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    with pytest.raises(ParameterError):
        TriangleTarget(t, (2, 5, 6))
    with pytest.raises(ParameterError):
        TriangleTarget(t, (3, 5, 4))


@pytest.mark.parametrize("delta", [(2, 0, 4), (2, -5, 4), (2, 5, 0), (2, 5, -4)])
def test_target_exponents_must_be_positive(pgl_groups, delta):
    # 0 and -5 are multiples of m = 5, but no triangle-group exponents
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    with pytest.raises(ParameterError, match="positive multiples"):
        TriangleTarget(t, delta)


def test_presentation_shape(pgl_groups):
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    pres = kernel_presentation(TriangleTarget(t, (2, 5, 4)))
    assert pres.n_generators == 2 * 120 + 1
    # one row per relator cycle: A, B, C and AC act as involutions, AB and
    # BC as right multiplication by elements of orders 5 and 4
    assert pres.relation_matrix.rows == 4 * (120 // 2) + 120 // 5 + 120 // 4
    assert pres.genus_g == 2 - t.chi
    assert map_counts(t).u == 27  # V + F of the base map


def test_smooth_kernel_projective_plane():
    h1 = build_h1(2)
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(h1, (2, 2, 2))))
    assert snf.torsion() == (2,) and snf.free_rank == 0


def test_smooth_kernel_pgl5(pgl_groups):
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t, (2, 5, 4))))
    assert snf.torsion() == (2,) and snf.free_rank == 4


def test_smooth_kernel_pgl7(pgl_groups):
    t = find_triples(pgl_groups["pgl7"], 3, 8)[0]
    pres = kernel_presentation(TriangleTarget(t, (2, 3, 8)))
    snf = kernel_abelianization(pres)
    assert snf.torsion() == (2,) and snf.free_rank == 8
    # independent rank check mod two large primes
    rank = pres.relation_matrix.cols - snf.free_rank
    for p in (10007, 30011):
        assert mod_p_rank(pres.relation_matrix, p) == rank


def test_smooth_kernel_pgl9(pgl_groups):
    t = find_triples(pgl_groups["pgl9"], 5, 8)[0]
    assert t.chi == -63
    pres = kernel_presentation(TriangleTarget(t, (2, 5, 8)))
    snf = kernel_abelianization(pres)
    assert snf.torsion() == (2,) and snf.free_rank == 64
    rank = pres.relation_matrix.cols - snf.free_rank
    assert mod_p_rank(pres.relation_matrix, 10007) == rank


def test_branched_mod3_dimension_31(pgl_groups):
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    pres = kernel_presentation(TriangleTarget(t, (2, 15, 12)))
    dim = pres.n_generators - mod_p_rank(pres.relation_matrix, 3)
    assert dim == 31
    assert branched_rank_check(t, 3) == (31, 31, True)


def _relabelled(t, seed):
    """The triple t with its points relabelled by a seeded permutation."""
    sigma = list(range(t.group.degree))
    random.Random(seed).shuffle(sigma)
    si = pinv(tuple(sigma))
    a, b, c = (pmul(pmul(si, x), tuple(sigma)) for x in (t.a, t.b, t.c))
    g = PermGroup(t.group.degree, [a, b, c], order=t.group.order())
    return verify_star_group(g, a, b, c)


def test_branched_tree_order_invariance(pgl_groups):
    # the dual (c, b, a) of type {4, 5} has the same kernel, but its BFS
    # scans the original's labels C < B < A, so its spanning tree is
    # another one; relabelling the points renumbers the cosets
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    copies = [t, t.dual(), _relabelled(t, 1), _relabelled(t.dual(), 2)]
    trees, dims = [], set()
    for copy in copies:
        target = TriangleTarget(copy, (2, 3 * copy.m, 3 * copy.n))
        trees.append(_pmul_coset_table(target)[1])
        pres = kernel_presentation(target)
        dims.add(pres.n_generators - mod_p_rank(pres.relation_matrix, 3))
    assert dims == {31}
    assert len(set(trees)) == len(copies)
    # read in the original's labels (A and C swapped), the dual's tree differs
    assert frozenset((i, 2 - lab) for i, lab in trees[1]) != trees[0]


def test_branched_checks(pgl_groups):
    t78 = find_triples(pgl_groups["pgl7"], 7, 8)[0]
    assert branched_rank_check(t78, 3) == (85, 85, True)
    t38 = find_triples(pgl_groups["pgl7"], 3, 8)[0]
    assert branched_rank_check(t38, 7) == (85, 85, True)


def test_branched_pgl9(pgl_groups):
    t58 = find_triples(pgl_groups["pgl9"], 5, 8)[0]
    assert branched_rank_check(t58, 3) == (181, 181, True)


def test_cover_characteristic():
    assert cover_characteristic(-3, 3) == -243
    assert cover_characteristic(-7, 1) == -7
    assert cover_characteristic(-7, 7) == -(7 ** 9)
    with pytest.raises(ParameterError):
        cover_characteristic(-3, 2)
    with pytest.raises(ParameterError):
        cover_characteristic(3, 3)


def test_cover_exponent():
    assert cover_exponent(3, 1, 1) == 5
    assert cover_exponent(7, 1, 0) == 1
    assert cover_exponent(7, 1, 2) == 17
    # consistency with cover_characteristic when chi = -r^d, s = r^alpha
    for r, d, alpha in ((3, 1, 1), (3, 2, 2), (7, 1, 1), (5, 3, 1)):
        chi = -(r ** d)
        assert cover_characteristic(chi, r ** alpha) == -(r ** cover_exponent(r, d, alpha))


def test_smooth_kernel_soluble_group():
    # the C2 x Z^(1-chi) shape holds beyond the projective groups
    from regmaps.constructors import build_h2

    t = build_h2(3, 5)  # order 60, chi = -7
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t, (2, 6, 10))))
    assert snf.torsion() == (2,) and snf.free_rank == 8


def _full_word_matrix(t):
    """Sparse rows of the relation matrix from tracing every relator word
    in full (length up to 2 * exponent * |period|) on the reference table
    of ``_pmul_coset_table``, one row per relator cycle from its least
    coset."""
    _two, M, N = t.delta_type
    acts, tree = _pmul_coset_table(t)
    n = len(acts[0])
    col_of = {}
    for lab in range(3):
        for i in range(n):
            if (i, lab) not in tree:
                col_of[(i, lab)] = len(col_of)
    rows = []
    for period, exponent in (((0,), 2), ((1,), 2), ((2,), 2), ((0, 2), 2), ((0, 1), M), ((1, 2), N)):
        seen = [False] * n
        for s in range(n):
            if seen[s]:
                continue
            row, c = {}, s
            for _ in range(exponent):
                for lab in period:
                    if (c, lab) in col_of:
                        row[col_of[(c, lab)]] = row.get(col_of[(c, lab)], 0) + 1
                    c = acts[lab][c]
                if c != s:
                    seen[c] = True
            assert c == s
            rows.append(row)
    return len(col_of), rows


@pytest.mark.parametrize(
    "group,m,n", [("pgl5", 5, 4), ("pgl7", 3, 8), ("pgl9", 5, 8), ("psl13", 3, 7)]
)
def test_scaled_cycle_rows_match_full_words(pgl_groups, group, m, n):
    # the reference table numbers the sorted elements by permutation
    # products, so the matrices agree only if the element table, its BFS
    # tree and the column numbering all do
    t = find_triples(pgl_groups[group], m, n)[0]
    for r in (3, 5, 7):
        target = TriangleTarget(t, (2, r * m, r * n))
        mat = kernel_presentation(target).relation_matrix
        assert (mat.cols, list(mat.sparse)) == _full_word_matrix(target)


def test_relator_cycle_must_divide_exponent(pgl_groups):
    # a triple that claims ord(ab) = 4 passes the target check, but the
    # traced AB cycles have length 3
    t = find_triples(pgl_groups["psl13"], 3, 7)[0]
    liar = MapTriple(t.group, t.a, t.b, t.c, 4, t.n, t.chi)
    with pytest.raises(ContractError, match="does not divide"):
        kernel_presentation(TriangleTarget(liar, (2, 4, 7)))


def test_smooth_and_branched_kernel_psl13(pgl_groups):
    # |G| = 1092, the largest coset table of the cover rows; chi = -13
    t = find_triples(pgl_groups["psl13"], 3, 7)[0]
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t, (2, 3, 7))))
    assert snf.torsion() == (2,) and snf.free_rank == 14
    assert branched_rank_check(t, 13) == (274, 274, True)


def test_branched_rank_large_r(pgl_groups):
    # the rewrite traces each relator cycle once, so r only scales entries
    t = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    assert branched_rank_check(t, 1000003) == (31, 31, True)


@pytest.mark.parametrize(
    "kind, q, m, rank",
    [("pgl", 13, 14, 547), ("psl", 17, 17, 613)],
    ids=["pgl13", "psl17"],
)
def test_kernel_homology_above_two_thousand(kind, q, m, rank):
    # |G| = 2184 and 2448: the element table is the presentation's only budget
    t = find_triples(make_pgl2(make_field(q, 1), kind), m, m, limit=1)[0]
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t, (2, m, m))))
    assert snf.torsion() == (2,) and snf.free_rank == 1 - t.chi
    assert branched_rank_check(t, 3) == (rank, rank, True)
