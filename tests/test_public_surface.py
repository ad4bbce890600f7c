"""Every public name of the library has a caller outside the tests."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("algebra", "permgrp", "mapcore", "constructors", "homology", "families")

# Public names the tests use as utilities and independent oracles.
TEST_TOOLS = {
    "from_cycles": "builds test groups from cycle notation",
    "normal_closure": "builds the normal subgroups the quotient and constructor tests check",
    "count_automorphisms": "the |Aut| oracle of the census and map tests",
    "automorphism_perm_group": "the Aut(V) oracle of the split-action tests",
    "det_bareiss": "the exact determinant oracle of the Smith normal form tests",
}


def _used_names():
    used = set()
    for folder in ("src/regmaps", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    public = {
        name
        for module in MODULES
        for name in importlib.import_module(f"regmaps.{module}").__all__
    }
    assert TEST_TOOLS.keys() <= public
    assert sorted(public - used - TEST_TOOLS.keys()) == []
