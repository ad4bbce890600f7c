"""Command-line verifier.

Subcommands: verify, census, family, tables, corollary, cover-rank, snf,
scan-pgl.  Output formats: json (schema 1), tsv, text.  The process exit
status is 0 exactly when every per-item pass flag is true.  Reports are
deterministic for a fixed configuration except for the "seconds" field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .algebra import IntMatrix, PrimePower, smith_normal_form
from .constructors import (
    SemidirectSpec,
    ModuleExtensionSpec,
    build_h1,
    build_h2,
    build_h3,
    build_heisenberg,
    build_module_extension,
    build_semidirect_cell,
    build_wreath_c3,
    find_triples,
    make_field,
    make_pgl2,
    psl2_membership,
)
from .errors import ParameterError, RegmapsError
from .families import (
    CONGRUENCE_ROWS,
    minimal_rows,
    row_chi,
    scan_pgl_cases,
    search_c1_c2,
    search_c3,
    search_c4,
    search_c6_c7,
    verify_congruence_row,
    verify_corollary_table,
)
from .homology import branched_rank, branched_target, kernel_presentation
from .mapcore import (
    classify_maps_for_group,
    map_counts,
    verify_structural_lemmas,
)
from .permgrp import cycles, pmul

DESCRIPTOR_HELP = (
    "group descriptors: pgl2:q | psl2:q | h1:L | h2:j,k | h3:L | he3 | wr3 | "
    "modext:FILE (JSON with acting/p/k/matrices) | cell:pgl2:q:m:n,L | cell:h1:L0,L"
)


def resolve_group(desc: str):
    """Descriptor -> (PermGroup, MapTriple or None)."""
    if desc == "he3":
        return build_heisenberg(), None
    if desc == "wr3":
        return build_wreath_c3(), None
    if desc.startswith("pgl2:") or desc.startswith("psl2:"):
        kind = desc[:4].replace("2", "")  # 'pgl' / 'psl'
        q = int(desc.split(":", 1)[1])
        pp = PrimePower.of(q)
        return make_pgl2(make_field(pp.p, pp.e), kind), None
    if desc.startswith("h1:"):
        t = build_h1(int(desc[3:]))
        return t.group, t
    if desc.startswith("h2:"):
        j, k = map(int, desc[3:].split(","))
        t = build_h2(j, k)
        return t.group, t
    if desc.startswith("h3:"):
        t = build_h3(int(desc[3:]))
        return t.group, t
    if desc.startswith("modext:"):
        path = desc[len("modext:"):]
        with open(path) as fh:
            data = json.load(fh)
        acting, _ = resolve_group(data["acting"])
        spec = ModuleExtensionSpec(
            k=int(data["k"]),
            p=int(data["p"]),
            matrices=tuple(tuple(tuple(r) for r in m) for m in data["matrices"]),
        )
        return build_module_extension(acting, spec), None
    if desc.startswith("cell:"):
        body = desc[len("cell:"):]
        base_desc, ell = body.rsplit(",", 1)
        t = _resolve_cell(base_desc, int(ell))
        return t.group, t
    raise ParameterError(f"unknown group descriptor {desc!r}; {DESCRIPTOR_HELP}")


def _resolve_cell(base_desc: str, ell: int):
    if base_desc.startswith("pgl2:"):
        parts = base_desc.split(":")
        if len(parts) != 4:
            raise ParameterError("cell base must be pgl2:q:m:n")
        q, m, n = int(parts[1]), int(parts[2]), int(parts[3])
        pp = PrimePower.of(q)
        ctx = make_field(pp.p, pp.e)
        g = make_pgl2(ctx, "pgl")
        h0 = psl2_membership(ctx)
        for t in find_triples(g, m, n, limit=64):
            try:
                return build_semidirect_cell(
                    SemidirectSpec(base=t, h0_elements=h0, ell=ell)
                )
            except RegmapsError:
                continue
        raise ParameterError(
            f"no (2,{m},{n})*-triple of pgl2:{q} has a usable index-2 membership pattern"
        )
    if base_desc.startswith("h1:"):
        t = build_h1(int(base_desc[3:]))
        rot = t.bc
        h0 = set()
        cur = t.group.ident
        for _ in range(t.n):
            h0.add(cur)
            cur = pmul(cur, rot)
        return build_semidirect_cell(
            SemidirectSpec(base=t, h0_elements=frozenset(h0), ell=ell)
        )
    raise ParameterError("cell base must be pgl2:q:m:n or h1:L")


# ---------------------------------------------------------------------------
# emission


def emit(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(report, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
    elif fmt == "tsv":
        items = report.get("items", [])
        if items:
            keys = sorted({k for it in items for k in it})
            stream.write("\t".join(keys) + "\n")
            for it in items:
                stream.write("\t".join(str(it.get(k, "")) for k in keys) + "\n")
        stream.write(f"pass\t{report['pass']}\n")
    else:
        for it in report.get("items", []):
            stream.write(" ".join(f"{k}={v}" for k, v in sorted(it.items())) + "\n")
        stream.write(f"pass: {report['pass']}\n")


def _report(command, config, items, passed, t0):
    return {
        "schema": 1,
        "version": __version__,
        "command": command,
        "config": config,
        "items": items,
        "pass": bool(passed),
        "seconds": round(time.time() - t0, 3),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    t0 = time.time()
    g, triple = resolve_group(args.group)
    if args.type:
        m, n = map(int, args.type.split(","))
        found = find_triples(g, m, n, limit=4)
        if not len(found):
            return _report(
                "verify",
                {"group": args.group, "type": args.type},
                [{"error": f"no (2,{m},{n})*-triple found" , "pass": False}],
                False,
                t0,
            )
        triple = found[0]
    if triple is None:
        raise ParameterError("give --type m,n for group descriptors without a built-in triple")
    cert = map_counts(triple)
    item = cert.to_dict(order=triple.group.order())
    item["pass"] = True
    # generators in one-line cycle notation (image lists for tiny degrees)
    for name, x in (("a", triple.a), ("b", triple.b), ("c", triple.c)):
        item[name] = list(x) if triple.group.degree <= 32 else cycles(x)
    items = [item]
    if triple.chi % 2 and not args.no_lemmas:
        rep = verify_structural_lemmas(triple)
        for c in rep.checks:
            items.append(
                {
                    "check": c.name,
                    "applicable": c.applicable,
                    "pass": (not c.applicable) or c.passed,
                    "detail": c.detail,
                }
            )
    passed = all(it.get("pass", True) for it in items)
    return _report("verify", {"group": args.group, "type": args.type}, items, passed, t0)


def cmd_census(args):
    t0 = time.time()
    g, _ = resolve_group(args.group)
    classes = classify_maps_for_group(g, cap=args.budget)
    items = []
    for c in classes:
        if args.hyperbolic and not c.hyperbolic:
            continue
        items.append(
            {
                "m": c.m,
                "n": c.n,
                "chi": c.chi,
                "classes_of_type": c.classes_of_type,
                "duality_classes_of_type": c.duality_classes_of_type,
                "self_dual": c.self_dual,
                "hyperbolic": c.hyperbolic,
            }
        )
    return _report(
        "census",
        {"group": args.group, "budget": args.budget, "hyperbolic": args.hyperbolic},
        items,
        True,
        t0,
    )


def cmd_family(args):
    t0 = time.time()
    row = args.row.upper()
    items = []
    passed = True
    if row in CONGRUENCE_ROWS:
        res = verify_congruence_row(row, args.max)
        items.append(
            {
                "row": row,
                "window": res["window"][1],
                "modulus": res["modulus"],
                "residues": ",".join(map(str, res["residues"])),
                "n_hits": len(res["hits"]),
                "pass": res["pass"],
            }
        )
        passed = res["pass"]
    elif row in ("C1", "C2"):
        for sol in search_c1_c2(args.max):
            if sol["row"] == row:
                items.append(sol)
    elif row == "C3":
        for j, k in search_c3(args.r, args.d):
            items.append({"row": "C3", "r": args.r, "d": args.d, "j": j, "k": k})
    elif row == "C4":
        for sol in search_c4(args.r, i_max=args.max, alpha_max=args.alpha_max):
            items.append(sol)
    elif row in ("C6", "C7-SEARCH"):
        for sol in search_c6_c7(args.r, alpha_max=args.alpha_max, delta_max=args.max):
            items.append(sol)
    else:
        raise ParameterError(f"unknown family row {args.row!r}")
    return _report(
        "family",
        {"row": row, "max": args.max, "r": args.r, "d": args.d},
        items,
        passed,
        t0,
    )


def cmd_tables(args):
    t0 = time.time()

    def check(row):
        try:
            neg = row_chi(row)
            shown = neg if neg < 10 ** 12 else f"~10^{len(str(neg)) - 1}"
            return {"row": row.id, "neg_chi": shown, "pass": True}
        except RegmapsError as exc:
            return {"row": row.id, "error": str(exc), "pass": False}

    items = [check(row) for row in minimal_rows()]
    passed = all(it["pass"] for it in items)
    return _report("tables", {"all": True}, items, passed, t0)


def cmd_corollary(args):
    t0 = time.time()
    results = verify_corollary_table(census_counts=not args.no_counts)
    passed = all(r["ok"] for r in results)
    items = [
        {
            "family": r["family"],
            "group": r["group"],
            "m": r["type"][0],
            "n": r["type"][1],
            "neg_chi": r["neg_chi"],
            "order": r["order"],
            "census": r.get("census") or "",
            "evidence": r["evidence"],
            "pass": r["ok"],
            "detail": r.get("detail", ""),
        }
        for r in results
    ]
    return _report("corollary", {"budget": args.budget}, items, passed, t0)


def cmd_cover_rank(args):
    t0 = time.time()
    g, triple = resolve_group(args.group)
    m, n = map(int, args.type.split(","))
    if triple is None or (triple.m, triple.n) != (m, n):
        found = find_triples(g, m, n, limit=2)
        if not len(found):
            return _report(
                "cover-rank",
                {"group": args.group, "type": args.type, "r": args.r},
                [{"error": "no such triple", "pass": False}],
                False,
                t0,
            )
        triple = found[0]
    pres = kernel_presentation(branched_target(triple, args.r))
    expected, computed, ok = branched_rank(triple, args.r, pres)
    items = [
        {
            "expected": expected,
            "computed": computed,
            "pass": ok,
            "matrix_rows": pres.relation_matrix.rows,
            "matrix_cols": pres.relation_matrix.cols,
        }
    ]
    return _report(
        "cover-rank", {"group": args.group, "type": args.type, "r": args.r}, items, ok, t0
    )


def cmd_snf(args):
    t0 = time.time()
    with open(args.matrix) as fh:
        m = IntMatrix.from_text(fh.read())
    res = smith_normal_form(m)
    items = [
        {
            "rows": m.rows,
            "cols": m.cols,
            "invariant_factors": ",".join(map(str, res.invariant_factors)),
            "torsion": ",".join(map(str, res.torsion())),
            "free_rank": res.free_rank,
            "pass": True,
        }
    ]
    return _report("snf", {"matrix": args.matrix}, items, True, t0)


def cmd_scan_pgl(args):
    t0 = time.time()
    hits = scan_pgl_cases(args.bound)
    items = [{"q": q, "m": mn[0], "n": mn[1], "r": r, "d": d} for q, mn, r, d in hits]
    return _report("scan-pgl", {"bound": args.bound}, items, True, t0)


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="regmaps",
        description="Exact verifier for non-orientable regular maps with "
        "prime-power Euler characteristic.  " + DESCRIPTOR_HELP,
    )
    ap.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a star triple and its structure facts")
    p.add_argument("group")
    p.add_argument("--type", help="m,n")
    p.add_argument("--no-lemmas", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("census", help="exhaustive involution-triple census")
    p.add_argument("group")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--hyperbolic", action="store_true", help="only chi < 0 classes")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("family", help="family-row searches and congruence checks")
    p.add_argument("--row", required=True)
    p.add_argument("--max", type=int, default=100)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha-max", type=int, default=2)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("tables", help="check every family-row formula against Euler")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("corollary", help="verify the complete d <= 4 table")
    p.add_argument("--budget", type=int, default=3000)
    p.add_argument("--no-counts", action="store_true", help="skip census class counts")
    p.set_defaults(fn=cmd_corollary)

    p = sub.add_parser("cover-rank", help="branched-cover kernel rank check")
    p.add_argument("--group", required=True)
    p.add_argument("--type", required=True, help="m,n")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=cmd_cover_rank)

    p = sub.add_parser("snf", help="Smith normal form of a matrix file")
    p.add_argument("matrix", help='text file: first line "rows cols", then rows')
    p.set_defaults(fn=cmd_snf)

    p = sub.add_parser("scan-pgl", help="scan PGL2(q) star-types for prime-power -chi")
    p.add_argument("--bound", type=int, default=121)
    p.set_defaults(fn=cmd_scan_pgl)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = args.fn(args)
    except RegmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, args.format)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
