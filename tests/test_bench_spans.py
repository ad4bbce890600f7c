"""The benchmark's tracer and jobs must keep working against the program.

``bench/spans.py`` wraps functions and methods by name, and
``bench/workloads.py`` calls them with keyword arguments; a rename or a
removed parameter would otherwise show only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from regmaps import algebra, constructors, homology, mapcore, permgrp
from regmaps.constructors import find_triples, make_field, make_pgl2

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def test_instrument_and_restore():
    spans = _load_spans()
    modules = (algebra, constructors, homology, mapcore, permgrp)
    before = [dict(vars(m)) for m in modules]
    classes = {cls: dict(vars(cls)) for cls in (permgrp.ElementTable, permgrp.PermGroup)}
    tracer = spans.Tracer()
    spans.instrument(tracer)
    assert [dict(vars(m)) for m in modules] != before  # something was wrapped
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert {cls: dict(vars(cls)) for cls in classes} == classes


def test_matrix_size_reads_the_relation_matrix():
    # homology.matrix_cells / matrix_nnz in traced runs come from _matrix_size
    g = make_pgl2(make_field(5, 1), "pgl")
    t = find_triples(g, 5, 4)[0]
    pres = homology.kernel_presentation(homology.TriangleTarget(t, (2, 5, 4)))
    m = pres.relation_matrix
    nnz = sum(1 for row in m.to_rows() for x in row if x)
    assert nnz > 0
    assert _load_spans()._matrix_size((), pres) == (m.rows * m.cols, nnz)


@pytest.mark.parametrize("workload", ["census", "verify", "extensions", "homology"])
def test_workload_jobs_pass(workload):
    workloads = _load("workloads")
    results = workloads.run_jobs(workloads.build(workload, "0/0"))
    assert results and [r for r in results if not r["ok"]] == []
