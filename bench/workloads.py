"""The benchmark's workloads: seeded inputs, jobs and exact expected answers.

Every input group is relabelled by a seeded permutation of its points and
its generator order is shuffled, the seeded conjugation idiom of
``tests/test_properties.py``.  The program receives only the relabelled
generator tuples.  Every answer checked here is invariant under relabelling,
so the expected answers do not depend on the seed.

Jobs call the program through module attributes (``constructors.find_triples``
and so on) at call time, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from regmaps import constructors, homology, mapcore, permgrp
from regmaps.errors import RegmapsError


@dataclass(frozen=True)
class Job:
    """One closed-loop request: ``run`` returns the job's canonical answer."""

    label: str
    kind: str
    run: Callable[[], object]
    expected: object


def canonical(value):
    """The JSON form of an answer (tuples become lists), used to compare."""
    return json.loads(json.dumps(value))


def run_jobs(jobs, tracer=None, between=None):
    """Run the jobs one after another and check each answer.

    A job fails when it raises or when its answer differs from the expected
    one; a failure is recorded, never raised.  ``between``, if given, is
    called before the first job and after every job.
    """
    results = []
    if between is not None:
        between()
    for index, job in enumerate(jobs):
        scope = tracer.job(index) if tracer is not None else nullcontext()
        try:
            with scope:
                answer = canonical(job.run())
        except Exception as exc:  # a failing job is a result, not a crash
            results.append(
                {"label": job.label, "kind": job.kind, "ok": False,
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        finally:
            if between is not None:
                between()
        ok = answer == canonical(job.expected)
        results.append({"label": job.label, "kind": job.kind, "ok": ok, "answer": answer})
    return results


# ---------------------------------------------------------------------------
# seeded relabelling


def point_permutation(degree: int, rng: random.Random):
    sigma = list(range(degree))
    rng.shuffle(sigma)
    return sigma


def conjugate(gens, sigma):
    """sigma^-1 x sigma for each generator x ('apply left factor first')."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return [tuple(sigma[x[inv[i]]] for i in range(len(sigma))) for x in gens]


def relabel(group, rng: random.Random, sigma=None):
    """(degree, generators) of ``group`` relabelled by ``sigma`` (a fresh
    seeded permutation if None), in a seeded order."""
    if sigma is None:
        sigma = point_permutation(group.degree, rng)
    gens = conjugate(group.generators, sigma)
    rng.shuffle(gens)
    return group.degree, tuple(gens)


def _group(degree, gens):
    return permgrp.PermGroup(degree, gens)


def _pgl2(desc: str):
    """pgl2:q / psl2:q for the prime powers used here."""
    kind, q = desc.split(":")
    p, e = {5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1)}[int(q)]
    return constructors.make_pgl2(constructors.make_field(p, e), kind[:3])


# ---------------------------------------------------------------------------
# census: Aut-class census of the criterion-2 groups


def _census(degree, gens):
    classes = mapcore.classify_maps_for_group(_group(degree, gens))
    per_type = {}
    for c in classes:
        key = (c.m, c.n, c.chi, c.classes_of_type, c.duality_classes_of_type)
        per_type[key] = per_type.get(key, 0) + int(c.self_dual)
    # (m, n, chi, classes, duality classes, self-dual count)
    return sorted(key + (self_dual,) for key, self_dual in per_type.items())


CENSUS_EXPECTED = {
    "psl2:5": [(3, 5, 1, 1, 1, 0), (5, 5, -3, 1, 1, 1)],
    "pgl2:5": [(4, 5, -3, 1, 1, 0), (4, 6, -5, 1, 1, 0), (5, 6, -8, 1, 1, 0),
               (6, 6, -10, 1, 1, 1)],
    "pgl2:7": [(3, 8, -7, 2, 2, 0), (4, 6, -14, 1, 1, 0), (4, 8, -21, 2, 2, 0),
               (6, 6, -28, 1, 1, 1), (6, 7, -32, 1, 1, 0), (6, 8, -35, 2, 2, 0),
               (7, 8, -39, 2, 2, 0), (8, 8, -42, 2, 2, 2)],
}


def census_jobs(rng):
    jobs = []
    for desc, expected in CENSUS_EXPECTED.items():
        degree, gens = relabel(_pgl2(desc), rng)
        jobs.append(Job(f"census {desc}", "census",
                        lambda d=degree, g=gens: _census(d, g), expected))
    return jobs


# ---------------------------------------------------------------------------
# verify: the body of `regmaps verify`


def _certify(t):
    """Order, type, chi, flag counts and the structural-lemma pass flags."""
    cert = mapcore.map_counts(t).to_dict(order=t.group.order())
    lemmas = []
    if t.chi % 2:
        report = mapcore.verify_structural_lemmas(t)
        lemmas = [(c.name, c.applicable, (not c.applicable) or c.passed)
                  for c in report.checks]
    return {"cert": cert, "lemmas": lemmas}


def _verify(degree, gens, m, n):
    found = constructors.find_triples(_group(degree, gens), m, n, limit=4)
    return _certify(found[0])


def _verify_cell(degree, pgl_gens, psl_gens, m, n, ell):
    """`regmaps verify cell:pgl2:q:m:n,ell`: the first usable base triple."""
    h0 = _group(degree, psl_gens).elements()
    for t in constructors.find_triples(_group(degree, pgl_gens), m, n, limit=64):
        try:
            spec = constructors.SemidirectSpec(base=t, h0_elements=h0, ell=ell)
            return _certify(constructors.build_semidirect_cell(spec))
        except RegmapsError:
            continue
    raise LookupError("no base triple has a usable membership pattern")


LEMMAS = (
    "sylow2_klein_or_dihedral",
    "sylow_cyclic_away_from_chi",
    "two_part_bound",
    "odd_prime_excess_is_r",
    "soluble_quotient",
)


def _lemmas(*inapplicable):
    """Every structural check passes; the named ones do not apply."""
    return [(name, name not in inapplicable, True) for name in LEMMAS]


def _cert(order, m, n, chi, r=None, d=None):
    out = {"m": m, "n": n, "chi": chi, "non_orientable": True,
           "V": order // (2 * n), "E": order // 4, "F": order // (2 * m),
           "order": order}
    if r is not None:
        out["r"], out["d"] = r, d
    return out


VERIFY_CASES = (
    # (group, m, n, expected)
    ("pgl2:7", 3, 8, {"cert": _cert(336, 3, 8, -7, 7, 1),
                      "lemmas": _lemmas("two_part_bound", "soluble_quotient")}),
    ("psl2:13", 3, 7, {"cert": _cert(1092, 3, 7, -13, 13, 1),
                       "lemmas": _lemmas("soluble_quotient")}),
    ("psl2:13", 3, 13, {"cert": _cert(1092, 3, 13, -49, 7, 2),
                        "lemmas": _lemmas("soluble_quotient")}),
    ("pgl2:9", 5, 8, {"cert": _cert(720, 5, 8, -63), "lemmas": _lemmas(
        "two_part_bound", "odd_prime_excess_is_r", "soluble_quotient")}),
)
# C_5 x| PGL(2,7) of type {15, 8}; -chi = 259 = 7 * 37 is no prime power
CELL_EXPECTED = {"cert": _cert(1680, 15, 8, -259), "lemmas": _lemmas(
    "two_part_bound", "odd_prime_excess_is_r", "soluble_quotient")}


def verify_jobs(rng):
    jobs = []
    for desc, m, n, expected in VERIFY_CASES:
        degree, gens = relabel(_pgl2(desc), rng)
        jobs.append(Job(f"verify {desc} {{{m},{n}}}", "verify",
                        lambda d=degree, g=gens, m=m, n=n: _verify(d, g, m, n), expected))
    pgl, psl = _pgl2("pgl2:7"), _pgl2("psl2:7")
    sigma = point_permutation(pgl.degree, rng)
    degree, pgl_gens = relabel(pgl, rng, sigma)
    _, psl_gens = relabel(psl, rng, sigma)
    jobs.append(Job("verify cell:pgl2:7:3:8,5", "verify",
                    lambda: _verify_cell(degree, pgl_gens, psl_gens, 3, 8, 5), CELL_EXPECTED))
    return jobs


# ---------------------------------------------------------------------------
# extensions: soluble rows of the d <= 4 table, in the row loop of
# families.verify_corollary_table, plus the split-action builds of He3 : D4
# and one GL_3(3) module-action search


def _carrier(candidates, order, m, n, neg_chi, n_classes):
    """Filter by order and element-order profile, then find a triple and
    count its classes, as verify_corollary_table does for one row."""
    for g in candidates:
        if g.order() != order:
            continue
        profile = g.element_orders()
        if m not in profile or n not in profile:
            continue
        found = constructors.find_triples(g, m, n, limit=2)
        if not len(found):
            continue
        if -found[0].chi != neg_chi:
            continue
        classes = mapcore.classify_maps_for_group(g, types={(m, n)})
        got = classes[0].duality_classes_of_type if classes else 0
        if got != n_classes:
            continue
        return {"ok": True, "chi": found[0].chi, "classes": got}
    return {"ok": False}


def _module_row(acting, p, k, *target):
    d = _group(*acting)
    specs = constructors.search_module_actions(d, p, k)
    return _carrier([constructors.build_module_extension(d, s) for s in specs], *target)


def _split_builds(kernel, acting):
    """Every homomorphism D -> Aut(V) and its split extension.  The He3 : D4
    rows stop at the first candidate that carries their type, and which one
    that is depends on the labelling (1 to 91 tries here), so only the
    search and the builds are timed."""
    v, d = _group(*kernel), _group(*acting)
    reg, homs = constructors.search_split_actions(v, d)
    orders = {constructors.build_split_extension(reg, d, h).order() for h in homs}
    return {"homs": len(homs), "orders": sorted(orders)}


EXTENSION_ROWS = (
    # (label, dihedral n, (p, k), order, (m, n), -chi, classes)
    ("E_3^2:D4", 4, (3, 2), 72, (4, 6), 3, 1),
    ("E_3^2:D2", 2, (3, 2), 36, (6, 6), 3, 1),
    ("E_3^2:D10", 10, (3, 2), 180, (6, 30), 27, 1),
)
# |Hom(D4, Aut(He3))|, each giving a split extension of order 27 * 8
HE3_D4_SPLIT = {"homs": 676, "orders": [216]}
# C2 acting on F_3^3: one orbit per number of -1 eigenvalues (0..3)
GL33_C2_ORBITS = 4


def extension_jobs(rng):
    jobs = []
    for label, d_n, (p, k), order, (m, n), neg_chi, n_classes in EXTENSION_ROWS:
        acting = relabel(constructors.make_dihedral(d_n), rng)
        target = (order, m, n, neg_chi, n_classes)
        jobs.append(Job(f"row {label} {{{m},{n}}}", "row",
                        lambda a=acting, p=p, k=k, t=target: _module_row(a, p, k, *t),
                        {"ok": True, "chi": -neg_chi, "classes": n_classes}))
    he3 = relabel(constructors.build_heisenberg(), rng)
    d4 = relabel(constructors.make_dihedral(4), rng)
    jobs.append(Job("split extensions He3:D4", "split",
                    lambda: _split_builds(he3, d4), HE3_D4_SPLIT))
    c2 = relabel(constructors.make_dihedral(1), rng)
    jobs.append(Job("module actions C2 on F_3^3", "module_search",
                    lambda: len(constructors.search_module_actions(_group(*c2), 3, 3)),
                    GL33_C2_ORBITS))
    return jobs


# ---------------------------------------------------------------------------
# homology: smooth-kernel abelianization and branched mod-r ranks


def _triple(degree, gens, m, n):
    return constructors.find_triples(_group(degree, gens), m, n, limit=2)[0]


def _smooth(degree, gens, m, n):
    t = _triple(degree, gens, m, n)
    pres = homology.kernel_presentation(homology.TriangleTarget(t, (2, m, n)))
    snf = homology.kernel_abelianization(pres)
    return {"torsion": snf.torsion(), "free_rank": snf.free_rank}


def _branched(degree, gens, m, n, r):
    expected, computed, _ok = homology.branched_rank_check(_triple(degree, gens, m, n), r)
    return (expected, computed)


SMOOTH_CASES = (
    ("pgl2:5", 5, 4, {"torsion": (2,), "free_rank": 4}),
    ("pgl2:7", 3, 8, {"torsion": (2,), "free_rank": 8}),
)
BRANCHED_CASES = (
    ("pgl2:5", 5, 4, 3, (31, 31)),
    ("pgl2:7", 7, 8, 3, (85, 85)),
    ("pgl2:9", 5, 8, 3, (181, 181)),
    ("pgl2:7", 3, 8, 7, (85, 85)),
)


def homology_jobs(rng):
    jobs = []
    for desc, m, n, expected in SMOOTH_CASES:
        degree, gens = relabel(_pgl2(desc), rng)
        jobs.append(Job(f"smooth {desc} {{{m},{n}}}", "smooth",
                        lambda d=degree, g=gens, m=m, n=n: _smooth(d, g, m, n), expected))
    for desc, m, n, r, expected in BRANCHED_CASES:
        degree, gens = relabel(_pgl2(desc), rng)
        jobs.append(Job(f"branched {desc} {{{m},{n}}} r={r}", "branched",
                        lambda d=degree, g=gens, m=m, n=n, r=r: _branched(d, g, m, n, r),
                        expected))
    return jobs


BUILDERS = {
    "census": census_jobs,
    "verify": verify_jobs,
    "extensions": extension_jobs,
    "homology": homology_jobs,
}


def build(workload: str, labelling: str):
    """The workload's jobs, with inputs relabelled from ``labelling``."""
    return BUILDERS[workload](random.Random(labelling))
