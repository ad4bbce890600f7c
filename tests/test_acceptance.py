"""The acceptance gate: one test per criterion, exact arithmetic, stated
runtime ceilings.  Each test prints a single PASS line when it holds."""

import time

import pytest

from regmaps.constructors import (
    build_h2,
    build_h3,
    build_heisenberg,
    build_split_extension,
    find_triples,
    make_dihedral,
    search_split_actions,
)
from regmaps.errors import ParameterError
from regmaps.families import (
    CONGRUENCE_ROWS,
    minimal_rows,
    row_chi,
    scan_pgl_cases,
    verify_congruence_row,
)
from regmaps.homology import (
    TriangleTarget,
    branched_rank_check,
    cover_characteristic,
    kernel_abelianization,
    kernel_presentation,
)
from regmaps.mapcore import (
    OrientableError,
    GenerationError,
    classify_maps_for_group,
    euler_characteristic,
    verify_star_group,
)
from regmaps.permgrp import PermGroup, pmul

import test_properties as props


def _passline(n, msg):
    print(f"PASS criterion {n}: {msg}")


def test_criterion_01_euler_table_suite():
    t0 = time.time()
    rows = minimal_rows()
    assert len(rows) == 18
    for row in rows:
        row_chi(row)  # raises on any formula/Euler mismatch
    assert -euler_characteristic(60, 5, 5) == 3
    assert -euler_characteristic(336, 3, 8) == 7
    assert -euler_characteristic(1092, 3, 13) == 49
    assert -euler_characteristic(1092, 3, 7) == 13
    # A2 numerology: |G| = 60 * 3^6 of type {3,15}
    assert -euler_characteristic(60 * 3 ** 6, 3, 15) == 3 ** 7
    # B2 numerology: |G| = 15000 of type {20,30}
    assert -euler_characteristic(15000, 20, 30) == 5 ** 5
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _passline(1, f"18 family rows Euler-consistent in {elapsed:.2f}s")


def test_criterion_02_census_oracle(pgl_groups):
    t0 = time.time()

    def counts(g):
        return {
            (c.m, c.n): (c.classes_of_type, c.chi, c.hyperbolic)
            for c in classify_maps_for_group(g)
        }

    psl5 = counts(pgl_groups["psl5"])
    assert psl5[(5, 5)] == (1, -3, True)  # N5.3
    assert psl5[(3, 5)][0] == 1 and psl5[(3, 5)][2] is False  # chi=+1, not hyperbolic
    pgl5 = counts(pgl_groups["pgl5"])
    assert pgl5[(4, 5)] == (1, -3, True)  # N5.1
    assert pgl5[(4, 6)] == (1, -5, True)  # N7.1
    pgl7 = counts(pgl_groups["pgl7"])
    assert pgl7[(3, 8)] == (2, -7, True)  # N9.1, N9.2
    psl13 = counts(pgl_groups["psl13"])
    assert psl13[(3, 7)] == (1, -13, True)  # N15.1
    assert psl13[(3, 13)] == (1, -49, True)  # N51.1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 2 took {elapsed:.0f}s"
    _passline(2, f"census counts reproduce N5.3/N5.1/N7.1/N9.1,2/N15.1/N51.1 in {elapsed:.0f}s")


def test_criterion_03_soluble_constructions(e9_d4_triple):
    t0 = time.time()
    t = build_h2(3, 5)
    assert t.group.order() == 60 and t.chi == -7
    t = build_h3(15)
    assert t.group.order() == 120 and t.chi == -11
    assert e9_d4_triple.group.order() == 72
    assert (e9_d4_triple.m, e9_d4_triple.n) == (6, 4) and e9_d4_triple.chi == -3
    he3 = build_heisenberg()
    d4 = make_dihedral(4)
    reg, homs = search_split_actions(he3, d4)
    hit = None
    for hom in homs:
        ext = build_split_extension(reg, d4, hom)
        if ext.order() != 216:
            continue
        found = find_triples(ext, 4, 6, limit=1)
        if len(found):
            hit = found[0]
            break
    assert hit is not None and hit.chi == -9  # N11.1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 3 took {elapsed:.0f}s"
    _passline(3, f"H2(3,5), H3(15), E9:D4, He3:D4 all verified in {elapsed:.0f}s")


def test_criterion_04_homology_smooth(pgl_groups):
    t0 = time.time()
    t54 = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t54, (2, 5, 4))))
    assert snf.torsion() == (2,) and snf.free_rank == 4
    first = time.time() - t0
    assert first < 60
    t1 = time.time()
    t38 = find_triples(pgl_groups["pgl7"], 3, 8)[0]
    snf = kernel_abelianization(kernel_presentation(TriangleTarget(t38, (2, 3, 8))))
    assert snf.torsion() == (2,) and snf.free_rank == 8
    second = time.time() - t1
    assert second < 60
    _passline(4, f"kernel abelianizations C2xZ^4 ({first:.1f}s) and C2xZ^8 ({second:.1f}s)")


def test_criterion_05_homology_branched(pgl_groups):
    t0 = time.time()
    t54 = find_triples(pgl_groups["pgl5"], 5, 4)[0]
    assert branched_rank_check(t54, 3) == (31, 31, True)
    t78 = find_triples(pgl_groups["pgl7"], 7, 8)[0]
    assert branched_rank_check(t78, 3) == (85, 85, True)
    t58 = find_triples(pgl_groups["pgl9"], 5, 8)[0]
    assert branched_rank_check(t58, 3) == (181, 181, True)
    t38 = find_triples(pgl_groups["pgl7"], 3, 8)[0]
    assert branched_rank_check(t38, 7) == (85, 85, True)
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 5 took {elapsed:.0f}s"
    _passline(5, f"branched mod-r ranks 31/85/181/85 all match in {elapsed:.0f}s")


def test_criterion_06_congruence_rows():
    for rid in ("B3", "B4", "B5", "B6", "B7", "C7"):
        assert rid in CONGRUENCE_ROWS
        res = verify_congruence_row(rid, 100)
        assert res["window"][1] >= 100 and res["pass"], rid
    _passline(6, "congruence rows B3, B4, B5, B6, B7, C7 all reproduce their residue classes")


def test_criterion_07_pgl_scan():
    t0 = time.time()
    expected = [(5, (4, 5), 3, 1), (5, (4, 6), 5, 1), (7, (3, 8), 7, 1)]
    assert scan_pgl_cases(121) == expected
    assert scan_pgl_cases(1000) == expected
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 7 took {elapsed:.1f}s"
    _passline(7, f"PGL2 scan: exactly three cases, stable to q = 1000, in {elapsed:.1f}s")


def test_criterion_08_corollary_table(corollary_table):
    results = corollary_table
    assert len(results) == 22
    assert all(r["ok"] for r in results), [r for r in results if not r["ok"]]
    constructed = sum(1 for r in results if r["evidence"] == "constructed")
    numerology = sum(1 for r in results if r["evidence"] == "numerology")
    assert (constructed, numerology) == (16, 6)
    assert all(r.get("detail", "") == "" for r in results)
    _passline(8, f"corollary table: {constructed} constructed + {numerology} numerology rows, zero mismatches")


def test_criterion_09_property_suites(triple_pool, group_zoo, snf_random_cases):
    n1 = props.check_duality(triple_pool)
    n2 = props.check_euler_two_forms()
    n3 = props.check_odd_core(group_zoo)
    n4 = props.check_sylow2_shapes(triple_pool)
    n5 = props.check_snf(snf_random_cases)
    n6 = props.check_constructor_census_equivalence()
    assert min(n1, n2, n3, n4, n5, n6) >= 1000
    _passline(9, f"property suites with case counts {(n1, n2, n3, n4, n5, n6)}")


def test_criterion_10_negative_controls(pgl_groups):
    # orientable rejection: the full (2,2,n) triangle group D_n x C2
    n = 5
    deg = n + 2
    rot = tuple([(i + 1) % n for i in range(n)] + [n, n + 1])
    ref = tuple([(-i) % n for i in range(n)] + [n, n + 1])
    z = tuple(list(range(n)) + [n + 1, n])
    g = PermGroup(deg, [rot, ref, z])
    with pytest.raises(OrientableError):
        verify_star_group(g, z, ref, pmul(ref, rot))
    # non-generating rejection
    invs = pgl_groups["psl5"].involutions()
    with pytest.raises(GenerationError):
        verify_star_group(pgl_groups["psl5"], invs[0], invs[0], invs[0])
    # even covering degree rejection
    with pytest.raises(ParameterError):
        cover_characteristic(-3, 2)
    _passline(10, "orientable, non-generating and even-s controls all rejected")
