"""Spans around the program's public functions, recorded from the benchmark.

The program is not changed: ``instrument`` replaces module functions and
class methods by timing wrappers and ``Tracer.restore`` puts the originals
back.  A module function is replaced at every import site, that is in every
``regmaps`` module that binds the same object (``from .x import y``), so a
call through any of them is seen.  Spans are kept in memory; a span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from contextlib import contextmanager

# name, job index, parent span index (-1 for a job's root), start, end, info
NAME, JOB, PARENT, START, END, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = -1
        self._undo = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._job, stack[-1] if stack else -1, 0.0, 0.0, ()]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info is not None:
                record[INFO] = info(args, result)
            return result

        return traced

    @contextmanager
    def job(self, index):
        """Root span of one job; every span inside it carries its index."""
        self._job = index
        record = ["job", index, -1, time.perf_counter(), 0.0, ()]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            self._job = -1

    def patch_function(self, module, attr, name, info=None):
        """Wrap ``module.attr`` in every regmaps module that binds it.  A
        renamed or removed function raises AttributeError here."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, info)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "regmaps" and not mod_name.startswith("regmaps."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr, name, info=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, info))
        self._undo.append((cls, attr, original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _matrix_size(args, pres):
    m = pres.relation_matrix
    return (m.rows * m.cols, sum(1 for x in m.entries if x))


def instrument(tracer: Tracer):
    """Wrap the public functions of permgrp, mapcore, constructors,
    homology and algebra that the per-layer metrics are read from."""
    from regmaps import algebra, constructors, homology, mapcore, permgrp

    table, group = permgrp.ElementTable, permgrp.PermGroup
    # a table is counted where it is built, whichever helper builds it
    tracer.patch_method(table, "__init__", "permgrp.table_build",
                        lambda a, r: (a[0].n * a[0].n,))
    tracer.patch_method(table, "closure", "permgrp.closure",
                        lambda a, r: (int(r.sum() == a[0].n),))
    tracer.patch_method(table, "automorphism_index_maps", "permgrp.aut_search",
                        lambda a, r: (len(r),))
    tracer.patch_method(group, "order", "permgrp.order")
    tracer.patch_method(group, "elements", "permgrp.elements")
    tracer.patch_function(permgrp, "hom_from_generator_images", "permgrp.hom",
                          lambda a, r: (int(r is not None),))
    tracer.patch_function(mapcore, "classify_maps_for_group", "mapcore.census",
                          lambda a, r: (len(r),))
    tracer.patch_function(mapcore, "verify_structural_lemmas", "mapcore.lemmas")
    tracer.patch_function(constructors, "search_module_actions",
                          "constructors.module_search", lambda a, r: (len(r),))
    tracer.patch_function(constructors, "search_split_actions",
                          "constructors.split_search", lambda a, r: (len(r[1]),))
    tracer.patch_function(constructors, "build_module_extension",
                          "constructors.extension_build")
    tracer.patch_function(constructors, "build_split_extension",
                          "constructors.extension_build")
    tracer.patch_function(constructors, "find_triples", "constructors.find_triples")
    tracer.patch_function(homology, "kernel_presentation", "homology.presentation",
                          _matrix_size)
    tracer.patch_function(algebra, "smith_normal_form", "algebra.snf")
    tracer.patch_function(algebra, "mod_p_rank", "algebra.modp_rank")


def _paused(pauses, ends, s, e):
    """Seconds of the time-ordered, disjoint (start, seconds) ``pauses``,
    ending at ``ends``, that fall inside [s, e]."""
    total = 0.0
    for start, seconds in pauses[bisect.bisect_right(ends, s):]:
        if start >= e:
            break
        total += min(e, start + seconds) - max(s, start)
    return total


def aggregate(spans, pauses=()):
    """name -> [self seconds, calls, summed info...].

    ``pauses`` are (start, seconds) intervals in time order, the kernel
    samples of ``calibrate.Sampler``; time inside them is not counted in
    any span."""
    pauses = list(pauses)
    ends = [start + seconds for start, seconds in pauses]
    duration = [rec[END] - rec[START] - _paused(pauses, ends, rec[START], rec[END])
                for rec in spans]
    child_time = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += duration[i]
    out = {}
    for i, rec in enumerate(spans):
        entry = out.setdefault(rec[NAME], [0.0, 0] + [0] * len(rec[INFO]))
        entry[0] += duration[i] - child_time[i]
        entry[1] += 1
        for k, value in enumerate(rec[INFO]):
            entry[2 + k] += value
    return out


# per-layer metric -> (unit, span name, field: 0 self seconds, 1 calls, 2+ info)
PER_LAYER = {
    "permgrp.table_build_s": ("s", "permgrp.table_build", 0),
    "permgrp.tables_built": ("count", "permgrp.table_build", 1),
    "permgrp.table_cells": ("count", "permgrp.table_build", 2),
    "permgrp.closure_s": ("s", "permgrp.closure", 0),
    "permgrp.closure_calls": ("count", "permgrp.closure", 1),
    "permgrp.aut_search_s": ("s", "permgrp.aut_search", 0),
    "permgrp.aut_maps": ("count", "permgrp.aut_search", 2),
    "permgrp.order_s": ("s", "permgrp.order", 0),
    "permgrp.order_calls": ("count", "permgrp.order", 1),
    "permgrp.elements_s": ("s", "permgrp.elements", 0),
    "permgrp.hom_s": ("s", "permgrp.hom", 0),
    "permgrp.hom_checks": ("count", "permgrp.hom", 1),
    "mapcore.census_s": ("s", "mapcore.census", 0),
    "mapcore.census_calls": ("count", "mapcore.census", 1),
    "mapcore.census_classes": ("count", "mapcore.census", 2),
    "mapcore.lemmas_s": ("s", "mapcore.lemmas", 0),
    "constructors.module_search_s": ("s", "constructors.module_search", 0),
    "constructors.module_actions": ("count", "constructors.module_search", 2),
    "constructors.split_search_s": ("s", "constructors.split_search", 0),
    "constructors.split_homs": ("count", "constructors.split_search", 2),
    "constructors.extension_build_s": ("s", "constructors.extension_build", 0),
    "constructors.extensions_built": ("count", "constructors.extension_build", 1),
    "constructors.find_triples_s": ("s", "constructors.find_triples", 0),
    "constructors.find_triples_calls": ("count", "constructors.find_triples", 1),
    "homology.presentation_s": ("s", "homology.presentation", 0),
    "homology.presentations": ("count", "homology.presentation", 1),
    "homology.matrix_cells": ("count", "homology.presentation", 2),
    "homology.matrix_nnz": ("count", "homology.presentation", 3),
    "algebra.snf_s": ("s", "algebra.snf", 0),
    "algebra.snf_calls": ("count", "algebra.snf", 1),
    "algebra.modp_rank_s": ("s", "algebra.modp_rank", 0),
    "algebra.modp_rank_calls": ("count", "algebra.modp_rank", 1),
}
# useful outcomes over attempts: (unit, numerator span and field, denominator)
RATIOS = {
    "permgrp.closure_full_ratio": ("ratio", ("permgrp.closure", 2), ("permgrp.closure", 1)),
    "permgrp.hom_accept_ratio": ("ratio", ("permgrp.hom", 2), ("permgrp.hom", 1)),
    # rows whose carrier was found, over the extensions built to find them
    "constructors.candidate_hit_ratio": ("ratio", ("rows", 0),
                                         ("constructors.extension_build", 1)),
}

# Spans each workload must reach, from the metric-to-workload table in the
# README: a traced run that reads zero calls on one of them fails, so a
# refactor cannot silently route work around a span.
REQUIRED = {
    "census": ("permgrp.table_build", "permgrp.closure", "permgrp.aut_search",
               "mapcore.census"),
    "verify": ("permgrp.table_build", "mapcore.lemmas", "constructors.find_triples"),
    "extensions": ("permgrp.closure", "permgrp.aut_search", "permgrp.order",
                   "permgrp.elements", "permgrp.hom", "mapcore.census",
                   "constructors.module_search", "constructors.split_search",
                   "constructors.extension_build", "constructors.find_triples"),
    "homology": ("permgrp.table_build", "constructors.find_triples",
                 "homology.presentation", "algebra.snf", "algebra.modp_rank"),
}


def layer_metrics(agg, rows_found):
    """Per-layer metric values from an ``aggregate`` and the count of
    extension rows whose carrier group was found."""
    agg = dict(agg, rows=[rows_found])

    def field(span, k):
        entry = agg.get(span)
        return entry[k] if entry is not None and k < len(entry) else 0

    out = {name: field(span, k) for name, (_unit, span, k) in PER_LAYER.items()}
    for name, (_unit, num, den) in RATIOS.items():
        d = field(*den)
        out[name] = field(*num) / d if d else 0.0
    return out


def missing_spans(workload, agg):
    return [name for name in REQUIRED[workload] if name not in agg]
