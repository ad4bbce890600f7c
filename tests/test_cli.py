import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from regmaps import cli, permgrp
from regmaps.cli import build_parser, main, resolve_group
from regmaps.errors import ResourceError
from regmaps.mapcore import verify_structural_lemmas
from regmaps.permgrp import CHAIN_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_verify_pgl7(capsys):
    code, rep = run_json(capsys, "verify", "pgl2:7", "--type", "3,8")
    assert code == 0 and rep["pass"] and rep["schema"] == 1
    cert = rep["items"][0]
    assert cert["chi"] == -7 and cert["non_orientable"] and cert["order"] == 336
    assert (cert["r"], cert["d"]) == (7, 1)


def test_verify_h_descriptors(capsys):
    code, rep = run_json(capsys, "verify", "h2:3,5", "--no-lemmas")
    assert code == 0 and rep["items"][0]["chi"] == -7
    code, rep = run_json(capsys, "verify", "h3:15", "--no-lemmas")
    assert code == 0 and rep["items"][0]["chi"] == -11


def test_census_psl5(capsys):
    code, rep = run_json(capsys, "census", "psl2:5")
    assert code == 0
    types = {(it["m"], it["n"]): it for it in rep["items"]}
    assert types[(5, 5)]["classes_of_type"] == 1 and types[(5, 5)]["chi"] == -3
    assert types[(3, 5)]["chi"] == 1 and not types[(3, 5)]["hyperbolic"]


def test_family_rows(capsys):
    code, rep = run_json(capsys, "family", "--row", "B3", "--max", "100")
    assert code == 0 and rep["items"][0]["pass"]
    code, rep = run_json(capsys, "family", "--row", "C3", "--r", "7", "--d", "1")
    assert code == 0 and {(it["j"], it["k"]) for it in rep["items"]} == {(3, 5)}
    for argv, want in (
        (["C1", "--max", "3"], [("C1", 4, [6, 4]), ("C1", 6, [6, 6]), ("C1", 12, [6, 12]), ("C1", 30, [6, 30])]),
        (["C2", "--max", "3"], [("C2", 2, [6, 6]), ("C2", 4, [6, 12]), ("C2", 10, [6, 30]), ("C2", 28, [6, 84])]),
        (["C6", "--r", "3", "--max", "3"], [("C6", 3, [12, 3])]),
    ):
        code, rep = run_json(capsys, "family", "--row", *argv)
        assert code == 0 and [(it["row"], it["ell"], it["type"]) for it in rep["items"]] == want
    code, rep = run_json(capsys, "family", "--row", "C4", "--r", "3", "--max", "3")
    assert code == 0 and [(it["i"], it["alpha"], it["beta"], it["j"], it["k"]) for it in rep["items"]] == [
        (1, 1, 0, 1, 3), (3, 1, 0, 1, 15), (3, 1, 0, 5, 3), (2, 1, 1, 1, 5), (2, 1, 1, 5, 1),
    ]


def test_tables(capsys):
    code, rep = run_json(capsys, "tables")
    assert code == 0 and rep["pass"] and len(rep["items"]) == 18


def test_cover_rank(capsys):
    code, rep = run_json(
        capsys, "cover-rank", "--group", "pgl2:5", "--type", "5,4", "--r", "3"
    )
    assert code == 0
    item = rep["items"][0]
    assert item["expected"] == item["computed"] == 31 and item["pass"]
    assert item["matrix_cols"] == 241
    assert item["matrix_rows"] == 294 and item["matrix_nnz"] == 723


def test_snf_file(tmp_path, capsys):
    f = tmp_path / "m.txt"
    # the second matrix is diagonal but not yet in divisibility order
    for text, factors in (("2 2\n2 4\n6 8\n", "2,4"), ("3 3\n4 0 0\n0 6 0\n0 0 10\n", "2,2,60")):
        f.write_text(text)
        code, rep = run_json(capsys, "snf", str(f))
        assert code == 0
        assert rep["items"][0]["invariant_factors"] == factors
        assert rep["items"][0]["free_rank"] == 0


def test_corollary_json(monkeypatch, capsys, corollary_table):
    monkeypatch.setattr(cli, "verify_corollary_table", lambda: corollary_table)
    code, rep = run_json(capsys, "corollary")
    assert code == 0 and rep["pass"]
    evidence = [it["evidence"] for it in rep["items"]]
    assert (len(evidence), evidence.count("constructed"), evidence.count("numerology")) == (22, 16, 6)
    assert all(it["pass"] and it["detail"] == "" for it in rep["items"])


def test_scan_pgl(capsys):
    code, rep = run_json(capsys, "scan-pgl", "--bound", "121")
    assert code == 0
    assert [(it["q"], it["m"], it["n"], it["r"]) for it in rep["items"]] == [
        (5, 4, 5, 3),
        (5, 4, 6, 5),
        (7, 3, 8, 7),
    ]


def test_cell_descriptor(capsys):
    code, rep = run_json(capsys, "verify", "cell:h1:4,3", "--no-lemmas")
    assert code == 0
    assert (rep["items"][0]["m"], rep["items"][0]["n"]) == (2, 12)


@pytest.mark.parametrize(
    "ell,message",
    [
        ("0", "ell must be odd and positive, got 0"),
        ("7", "ell = 7 not coprime to |H*| = 336"),
        ("1000003", "cell degree 1000011 exceeds 1000000"),
        ("10000000000001", "cell degree 10000000000009 exceeds 1000000"),
    ],
)
def test_cell_descriptor_reports_its_own_error(capsys, ell, message):
    # a bad ell is not a per-triple membership refusal: its error must surface
    assert main(["verify", f"cell:pgl2:7:3:8,{ell}", "--no-lemmas"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cell_over_the_element_budget_is_refused(capsys):
    # |C_100001 x| PGL(2,7)| = 33600336 on 100009 points: the structural
    # lemmas need its element table, which is refused before enumeration
    message = "element budget is 20000, group has order 33600336"
    _g, t = resolve_group("cell:pgl2:7:3:8,100001")
    with pytest.raises(ResourceError, match=message):
        verify_structural_lemmas(t)
    start = time.perf_counter()
    assert main(["verify", "cell:pgl2:7:3:8,100001"]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == f"error: {message}\n"


def test_chain_over_its_budget_exits_2(run_capped):
    # D_9999 x D_10001 on 20000 points: the chain of its first orbit alone
    # would hold 2 * 10^8 entries
    start = time.perf_counter()
    proc = run_capped("-m", "regmaps.cli", "verify", "h2:9999,10001")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: Schreier-Sims chain budget is {CHAIN_CAP} entries"
        " (degree x transversal elements): 500 at degree 20000\n"
    )


def test_element_list_over_its_entry_budget_exits_2(run_capped):
    # C_4999 x| H1(2): order 19996, within ELEMENTS_CAP, on 5003 points;
    # its element list would hold 10^8 entries
    start = time.perf_counter()
    proc = run_capped("-m", "regmaps.cli", "census", "cell:h1:2,4999")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: element list budget is {CHAIN_CAP} entries (elements x degree):"
        " order 19996 at degree 5003\n"
    )


def test_module_extension_walk_is_budgeted(tmp_path, run_capped):
    # the action of PGL(2,97) (912576 elements) would be checked by a walk
    # of its Cayley graph, whose element budget refuses it
    f = tmp_path / "ext.json"
    f.write_text(json.dumps({"acting": "pgl2:97", "p": 3, "k": 1, "matrices": [[[1]], [[1]], [[1]]]}))
    start = time.perf_counter()
    proc = run_capped("-m", "regmaps.cli", "verify", f"modext:{f}", "--type", "3,8")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: element budget is 20000 elements")
    assert proc.stderr.count("\n") == 1


def test_module_extension_is_budgeted_before_its_actions(tmp_path, run_capped):
    # PGL(2,7) on F_3^12: the walk has room for 10^7 // (8 + 3^12) = 18 of
    # its 336 elements, so no action on the 531441 vectors is built
    f = tmp_path / "ext.json"
    ident = [[int(i == j) for j in range(12)] for i in range(12)]
    f.write_text(json.dumps({"acting": "pgl2:7", "p": 3, "k": 12, "matrices": [ident] * 3}))
    start = time.perf_counter()
    proc = run_capped("-m", "regmaps.cli", "verify", f"modext:{f}", "--type", "3,8")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: element budget is 20000 elements and {CHAIN_CAP} entries: the group"
        " on 8 points, with images on 531441 points, has more than 18 elements\n"
    )


def test_pgl2_order_is_known_before_any_chain(monkeypatch, capsys):
    def sift(*args):
        raise AssertionError("a Schreier-Sims chain was started")

    monkeypatch.setattr(permgrp, "_schreier_sims_order", sift)
    assert main(["verify", "pgl2:2401", "--type", "3,8"]) == 2
    assert capsys.readouterr().err == "error: element budget is 20000, group has order 13841284800\n"


def test_reports_deterministic(capsys):
    _c1, rep1 = run_json(capsys, "census", "pgl2:5")
    _c2, rep2 = run_json(capsys, "census", "pgl2:5")
    rep1.pop("seconds")
    rep2.pop("seconds")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_family_over_its_factoring_budget_exits_2(capsys):
    assert main(["family", "--row", "C4", "--r", "7"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: a 287-bit target is above the factoring budget of 162 bits\n"


def test_bad_descriptor(capsys):
    assert main(["verify", "sporadic:1", "--type", "3,7"]) == 2


def test_modext_bad_modulus(tmp_path, capsys):
    f = tmp_path / "ext.json"
    f.write_text(json.dumps({"acting": "h1:2", "p": 4, "k": 1, "matrices": [[[2]]]}))
    assert main(["census", f"modext:{f}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "desc",
    [
        {"acting": "h1:2", "p": 3, "matrices": [[[2]]]},  # no "k"
        {"acting": 3, "p": 3, "k": 1, "matrices": [[[2]]]},
        "pgl2:x",
        "h2:3",
        "cell:pgl2:7:3:8,x",
        "cell:pgl2:7:3,2",
    ],
)
def test_malformed_descriptor_exits_2(tmp_path, capsys, desc):
    if isinstance(desc, dict):  # the body of a modext file
        f = tmp_path / "ext.json"
        f.write_text(json.dumps(desc))
        desc = f"modext:{f}"
    assert main(["census", desc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "group descriptors:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "pgl2:7", "--type", "3,8,9"],
        ["verify", "pgl2:7", "--type", "x"],
        ["cover-rank", "--group", "pgl2:7", "--type", "3", "--r", "3"],
    ],
)
def test_malformed_type_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--type" in err


def test_module_entry_point_runs_without_warning():
    # importing the package must not import regmaps.cli before `-m` runs it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "regmaps.cli", "tables"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("pass: True")


def test_cli_starts_without_sympy():
    # sympy is loaded only by the C3/C4 divisor searches
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import regmaps, regmaps.cli\n"
        "assert 'sympy' not in sys.modules, 'import'\n"
        "assert regmaps.cli.main(['census', 'psl2:5']) == 0\n"
        "assert 'sympy' not in sys.modules, 'census'\n"
        "assert regmaps.families.search_c3(7, 1) == [(3, 5)]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_family_c3_negative_d_exits_2(capsys):
    assert main(["family", "--row", "C3", "--r", "7", "--d", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_snf_file_non_integer(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 2\n1 x\n")
    assert main(["snf", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_failing_check_exits_nonzero(capsys):
    # no (2,7,3)*-triple in PSL2(7): definitive refusal
    code, rep = run_json(capsys, "verify", "psl2:7", "--type", "7,3")
    assert code == 1 and not rep["pass"]


def test_tsv_and_text_formats(capsys):
    code, out = run_cli(capsys, "--format", "tsv", "scan-pgl", "--bound", "121")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["d", "m", "n", "q", "r"]
    assert lines[-1] == "pass\tTrue"
    code, out = run_cli(capsys, "--format", "text", "tables")
    assert code == 0 and out.strip().endswith("pass: True")


def test_parser_has_all_subcommands():
    ap = build_parser()
    subs = next(
        a for a in ap._actions if isinstance(a, type(ap._subparsers._group_actions[0]))
    )
    names = set(subs.choices)
    assert {
        "verify",
        "census",
        "family",
        "tables",
        "corollary",
        "cover-rank",
        "snf",
        "scan-pgl",
    } <= names
