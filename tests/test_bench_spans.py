"""The functions and methods the benchmark's tracer wraps must exist.

``bench/spans.py`` wraps them by name; a rename or removal would otherwise
show only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from regmaps import algebra, constructors, homology, mapcore, permgrp
from regmaps.constructors import find_triples, make_field, make_pgl2

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
