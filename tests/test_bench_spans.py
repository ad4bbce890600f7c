"""The functions and methods the benchmark's tracer wraps must exist.

``bench/spans.py`` wraps them by name; a rename or removal would otherwise
show only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from regmaps import algebra, constructors, homology, mapcore, permgrp

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
