"""Kernel homology of triangle-group epimorphisms.

For a star triple (a, b, c) on G and a full triangle group
D = D(2, M, N) = <A, B, C | A^2, B^2, C^2, (AC)^2, (AB)^M, (BC)^N>
with M, N positive multiples of (ord(ab), ord(bc)), the kernel K of the
obvious epimorphism D -> G has coset table equal to the Cayley graph of
G, read off G's element table.  Reidemeister-Schreier then presents K on
2|G| + 1 generators (spanning-tree generators eliminated).  Each
relator's period word acts on the cosets as right multiplication by one
element, so its cycles share one length, that element's order; every
cycle is traced at once on integer arrays.  The abelianized relation
matrix, kept as sparse rows, yields K/K' by Smith normal form and the
mod-r kernel dimension by mod-p rank.

A smooth target (M, N) = (m, n) realizes the surface group: K/K' is
C2 x Z^(1-chi).  The branched target (rm, rn) gives the elementary-abelian
cover datum: dim_r K/(K' K^(r)) = 1 + |G|/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .algebra import IntMatrix, SnfResult, mod_p_rank, smith_normal_form, is_prime
from .errors import ContractError, ParameterError
from .mapcore import MapTriple, euler_characteristic, map_counts
from .permgrp import _indices, element_table

__all__ = [
    "TriangleTarget",
    "KernelPresentation",
    "kernel_presentation",
    "kernel_abelianization",
    "branched_target",
    "branched_rank",
    "branched_rank_check",
    "cover_characteristic",
    "cover_exponent",
]


@dataclass(frozen=True)
class TriangleTarget:
    """A star triple together with the triangle-group exponents (M, N)."""

    triple: MapTriple
    delta_type: tuple  # (2, M, N)

    def __post_init__(self):
        two, M, N = self.delta_type
        if two != 2:
            raise ParameterError("delta type must be (2, M, N)")
        m, n = self.triple.m, self.triple.n
        if M <= 0 or N <= 0 or M % m or N % n:
            raise ParameterError(f"(M, N) = ({M}, {N}) must be positive multiples of ({m}, {n})")


@dataclass
class KernelPresentation:
    """Abelianized Reidemeister-Schreier presentation of the kernel."""

    n_generators: int
    relation_matrix: IntMatrix
    genus_g: int
    delta_type: tuple


def kernel_presentation(t: TriangleTarget) -> KernelPresentation:
    """Abelianized relation matrix of the kernel K of D(2, M, N) -> G.

    The coset table of K in D is the Cayley graph of G: the ``right``
    columns of a, b and c in G's element table, with the BFS tree of
    ``bfs_schedule`` (labels scanned A < B < C), whose budgets are the only
    ones: every array built here has O(|G|) entries.
    Schreier generators are indexed by (coset, label); the |G| - 1 tree
    edges are eliminated, leaving 2|G| + 1 columns.  Each relator of
    D(2, M, N), conjugated by each coset representative, is rewritten; the
    rewrite of w_i R w_i^{-1} reduces to tracing R from coset i because
    tree words contribute only eliminated generators.

    A relator R = P^e is traced on integer arrays, every start at once.
    P acts on the cosets as right multiplication by one element, so its
    cycles have one length L, that element's order, which must divide e.
    Pointer doubling labels each start with its cycle's least coset, the
    (cycle, column) pairs of P's letters from every start are counted by
    ``np.unique``, and a cycle's row is its counts times e / L, so the work
    does not grow with e.  Starts on one cycle abelianize identically, so
    each cycle gives one row, in the order of its least coset.
    """
    _two, M, N = t.delta_type
    table = element_table(t.triple.group)
    n = table.n
    gens = _indices(table, (t.triple.a, t.triple.b, t.triple.c))
    acts = np.array([table.right(j) for j in gens], dtype=np.intp)
    free = np.ones((3, n), dtype=bool)
    _dst, src, lab = np.array(table.bfs_schedule(gens), dtype=np.intp).reshape(-1, 3).T
    free[lab, src] = False
    n_gens = int(free.sum())
    if n_gens != 2 * n + 1:
        raise ContractError(f"expected {2 * n + 1} Schreier generators, got {n_gens}")
    col_of = np.full((3, n), -1, dtype=np.intp)  # -1 on the tree edges
    col_of[free] = np.arange(n_gens)

    # (period word, exponent) of A^2, B^2, C^2, (AC)^2, (AB)^M and (BC)^N
    relators = [((0,), 2), ((1,), 2), ((2,), 2), ((0, 2), 2), ((0, 1), M), ((1, 2), N)]

    rows, orders = [], {}
    for period, exponent in relators:
        state, letters = np.arange(n), []
        for lab in period:
            letters.append(col_of[lab, state])
            state = acts[lab, state]
        least, step = np.arange(n), state
        while True:  # least[s]: min over s, P(s), ..., P^(2^k - 1)(s)
            nxt = np.minimum(least, least[step])
            if np.array_equal(nxt, least):
                break
            least, step = nxt, step[step]
        _, cycle_of, length = np.unique(least, return_inverse=True, return_counts=True)
        lengths = length.tolist()
        order = orders[period] = lcm(*set(lengths))
        if exponent % order:
            raise ContractError(f"relator cycle of length {order} does not divide {exponent}")
        letters = np.concatenate(letters)
        owner = np.tile(cycle_of, len(period))[letters >= 0]
        pairs, count = np.unique(owner * n_gens + letters[letters >= 0], return_counts=True)
        cycle_rows = [{} for _ in lengths]
        for key, v in zip(pairs.tolist(), count.tolist()):
            cyc, j = divmod(key, n_gens)
            cycle_rows[cyc][j] = v * (exponent // lengths[cyc])
        rows += cycle_rows

    # ord(ab) | M and ord(bc) | N from the traced cycles give chi and the genus
    chi = euler_characteristic(n, orders[(0, 1)], orders[(1, 2)])
    return KernelPresentation(
        n_generators=n_gens,
        relation_matrix=IntMatrix.from_sparse(n_gens, rows),
        genus_g=2 - chi,
        delta_type=t.delta_type,
    )


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


def branched_rank_check(base: MapTriple, r: int):
    """Build the branched target's kernel presentation and check it with
    ``branched_rank``; returns (expected, computed, ok)."""
    pres = kernel_presentation(branched_target(base, r))
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
