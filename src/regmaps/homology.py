"""Kernel homology of triangle-group epimorphisms.

For a star triple (a, b, c) on G and a full triangle group
D = D(2, M, N) = <A, B, C | A^2, B^2, C^2, (AC)^2, (AB)^M, (BC)^N>
with M, N multiples of (ord(ab), ord(bc)), the kernel K of the obvious
epimorphism D -> G has coset table equal to the Cayley graph of G.
Reidemeister-Schreier then presents K on 2|G| + 1 generators (spanning-tree
generators eliminated); the abelianized relation matrix yields K/K' by
Smith normal form and the mod-r kernel dimension by mod-p rank.

A smooth target (M, N) = (m, n) realizes the surface group: K/K' is
C2 x Z^(1-chi).  The branched target (rm, rn) gives the elementary-abelian
cover datum: dim_r K/(K' K^(r)) = 1 + |G|/4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import IntMatrix, SnfResult, mod_p_rank, smith_normal_form, is_prime
from .errors import ContractError, ParameterError, ResourceError
from .mapcore import MapTriple, euler_characteristic, map_counts
from .permgrp import pmul, porder

__all__ = [
    "TriangleTarget",
    "CosetTable",
    "KernelPresentation",
    "cayley_coset_table",
    "reidemeister_schreier",
    "kernel_presentation",
    "kernel_abelianization",
    "branched_target",
    "branched_rank",
    "branched_rank_check",
    "cover_characteristic",
    "cover_exponent",
    "COSET_CAP",
]

COSET_CAP = 2000


@dataclass(frozen=True)
class TriangleTarget:
    """A star triple together with the triangle-group exponents (M, N)."""

    triple: MapTriple
    delta_type: tuple  # (2, M, N)

    def __post_init__(self):
        two, M, N = self.delta_type
        if two != 2:
            raise ParameterError("delta type must be (2, M, N)")
        if M % self.triple.m or N % self.triple.n:
            raise ParameterError(
                f"(M, N) = ({M}, {N}) must be multiples of ({self.triple.m}, {self.triple.n})"
            )

    @property
    def branched(self) -> bool:
        return self.delta_type[1:] != (self.triple.m, self.triple.n)


@dataclass
class CosetTable:
    """Cayley action of G on itself via the epimorphism, plus a BFS
    spanning tree (edge label order A < B < C)."""

    index: int
    actions: tuple  # three tuples: right multiplication by a, b, c
    tree_parent: tuple  # parent coset per coset (root: -1)
    tree_label: tuple  # generator label 0/1/2 of the edge from parent (root: -1)
    tree_edge: frozenset  # {(parent, label)} of tree edges, the eliminated gens


def cayley_coset_table(
    t: TriangleTarget, cap: int = COSET_CAP, label_order=(0, 1, 2)
) -> CosetTable:
    """The coset table of K in D: the Cayley graph of G.

    ``label_order`` sets the BFS edge scan order (default A < B < C); any
    order gives the same homology, which the tests exercise.
    """
    g = t.triple.group
    order = g.order()
    if order > cap:
        raise ResourceError(f"coset table budget is {cap}, |G| = {order}")
    if sorted(label_order) != [0, 1, 2]:
        raise ParameterError("label_order must be a permutation of (0, 1, 2)")
    elems = sorted(g.elements(max(cap, order)))
    index = {e: i for i, e in enumerate(elems)}
    gens = (t.triple.a, t.triple.b, t.triple.c)
    actions = tuple(
        tuple(index[pmul(x, gen)] for x in elems) for gen in gens
    )
    root = index[g.ident]
    parent = [-1] * order
    label = [-1] * order
    seen = [False] * order
    seen[root] = True
    tree_edges = set()
    frontier = [root]
    while frontier:
        nxt = []
        for i in frontier:
            for lab in label_order:
                j = actions[lab][i]
                if not seen[j]:
                    seen[j] = True
                    parent[j] = i
                    label[j] = lab
                    tree_edges.add((i, lab))
                    nxt.append(j)
        frontier = nxt
    if not all(seen):
        raise ContractError("Cayley graph is not connected (triple does not generate)")
    return CosetTable(
        index=order,
        actions=actions,
        tree_parent=tuple(parent),
        tree_label=tuple(label),
        tree_edge=frozenset(tree_edges),
    )


@dataclass
class KernelPresentation:
    """Abelianized Reidemeister-Schreier presentation of the kernel."""

    n_generators: int
    relation_matrix: IntMatrix
    genus_g: int
    branch_u: int
    delta_type: tuple
    deduped: bool


def reidemeister_schreier(
    table: CosetTable, delta_type: tuple, dedupe: bool = True
) -> KernelPresentation:
    """Abelianized relation matrix of the kernel.

    Schreier generators are indexed by (coset, label); the |G| - 1 tree
    edges are eliminated, leaving 2|G| + 1 columns.  Each relator of
    D(2, M, N), conjugated by each coset representative, is rewritten; the
    rewrite of w_i R w_i^{-1} reduces to tracing R from coset i because
    tree words contribute only eliminated generators.  With dedupe=True,
    starts on the same relator cycle (which abelianize identically) are
    emitted once; correctness is unaffected, only size.
    """
    two, M, N = delta_type
    if two != 2:
        raise ParameterError("delta type must be (2, M, N)")
    n = table.index
    acts = table.actions
    col_of = {}
    for lab in range(3):
        for i in range(n):
            if (i, lab) not in table.tree_edge:
                col_of[(i, lab)] = len(col_of)
    n_gens = len(col_of)
    if n_gens != 2 * n + 1:
        raise ContractError(f"expected {2 * n + 1} Schreier generators, got {n_gens}")

    relators = [
        ((0, 0), 1),          # A^2: word (AA), period word (A)
        ((1, 1), 1),          # B^2
        ((2, 2), 1),          # C^2
        ((0, 2, 0, 2), 2),    # (AC)^2, period (AC)
        (tuple([0, 1] * M), 2),   # (AB)^M, period (AB)
        (tuple([1, 2] * N), 2),   # (BC)^N, period (BC)
    ]

    rows = []
    for word, period in relators:
        period_word = word[:period]
        starts = range(n)
        if dedupe:
            seen = [False] * n
            chosen = []
            for s in range(n):
                if seen[s]:
                    continue
                chosen.append(s)
                c = s
                while True:
                    for lab in period_word:
                        c = acts[lab][c]
                    if c == s:
                        break
                    seen[c] = True
            starts = chosen
        for s in starts:
            row = {}
            c = s
            for lab in word:
                col = col_of.get((c, lab))
                if col is not None:
                    row[col] = row.get(col, 0) + 1
                c = acts[lab][c]
            if c != s:
                raise ContractError("relator trace did not close")
            dense = [0] * n_gens
            for col, v in row.items():
                dense[col] = v
            rows.append(dense)

    matrix = IntMatrix.from_rows(rows) if rows else IntMatrix(0, n_gens, [])

    # base-map data straight from the table: ord(ab), ord(bc) of the
    # composite actions, then chi, genus and the branch-point count
    def composite_order(l1, l2):
        return porder(tuple(acts[l2][acts[l1][i]] for i in range(n)))

    m = composite_order(0, 1)
    n_ord = composite_order(1, 2)
    if M % m or N % n_ord:
        raise ContractError("table is inconsistent with the delta type")
    chi = euler_characteristic(n, m, n_ord)
    branched = (M, N) != (m, n_ord)
    u = (n // (2 * n_ord) + n // (2 * m)) if branched else 0
    return KernelPresentation(
        n_generators=n_gens,
        relation_matrix=matrix,
        genus_g=2 - chi,
        branch_u=u,
        delta_type=delta_type,
        deduped=dedupe,
    )


def kernel_presentation(t: TriangleTarget, dedupe: bool = True, cap: int = COSET_CAP) -> KernelPresentation:
    """Coset table plus rewriting in one step."""
    table = cayley_coset_table(t, cap)
    return reidemeister_schreier(table, t.delta_type, dedupe)


def kernel_abelianization(pres: KernelPresentation) -> SnfResult:
    """Smith normal form of the abelianized kernel presentation."""
    return smith_normal_form(pres.relation_matrix)


def branched_target(base: MapTriple, r: int) -> TriangleTarget:
    """The branched target D(2, rm, rn) -> G of ``base``, for an odd prime r."""
    if not is_prime(r) or r == 2:
        raise ParameterError(f"need an odd prime, got {r}")
    return TriangleTarget(base, (2, r * base.m, r * base.n))


def branched_rank(base: MapTriple, r: int, pres: KernelPresentation):
    """Mod-r dimension of the branched-cover kernel vs 1 + |G|/4.

    ``pres`` is the kernel presentation of ``branched_target(base, r)``.
    Computes dim_r K/(K' K^(r)) = (number of Schreier generators) -
    rank_r(matrix), and compares with the two equal closed forms 1 + |G|/4
    and (g - 1) + u, u = V + F.  Returns (expected, computed, ok).
    """
    if pres.delta_type != branched_target(base, r).delta_type:
        raise ParameterError(f"presentation of {pres.delta_type} is not the branched target for r = {r}")
    computed = pres.n_generators - mod_p_rank(pres.relation_matrix, r)
    expected = 1 + base.group.order() // 4
    alt = (pres.genus_g - 1) + map_counts(base).u
    if alt != expected:
        raise ContractError(f"(g-1)+u = {alt} but 1+|G|/4 = {expected}")
    return expected, computed, computed == expected


def branched_rank_check(base: MapTriple, r: int, cap: int = COSET_CAP):
    """Build the branched target's kernel presentation and check it with
    ``branched_rank``; returns (expected, computed, ok)."""
    pres = kernel_presentation(branched_target(base, r), cap=cap)
    return branched_rank(base, r, pres)


def cover_characteristic(chi: int, s: int) -> int:
    """Euler characteristic s^(1-chi) * chi of the degree-s^(1-chi) smooth
    cover obtained by factoring the surface kernel by K' K^(s), s odd."""
    if chi >= 0:
        raise ParameterError(f"need chi < 0, got {chi}")
    if s < 1 or s % 2 == 0:
        raise ParameterError(f"need odd s >= 1, got {s}")
    return s ** (1 - chi) * chi


def cover_exponent(r: int, d: int, alpha: int) -> int:
    """Exponent beta with chi = -r^beta for the r^alpha-cover of a map of
    characteristic -r^d: beta = alpha (1 + r^d) + d."""
    return alpha * (1 + r ** d) + d
