"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import dataclasses
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from regmaps import algebra, constructors, homology, mapcore, permgrp  # noqa: E402

# one or two fast jobs of each workload
CHEAP = {
    "census": {"census psl2:5"},
    "verify": {"verify pgl2:7 {3,8}"},
    "extensions": {"row E_3^2:D2 {6,6}"},
    "homology": {"smooth pgl2:5 {5,4}", "branched pgl2:5 {5,4} r=3"},
}


def cheap_jobs(workload, labelling="test/0"):
    jobs = [j for j in workloads.build(workload, labelling) if j.label in CHEAP[workload]]
    assert len(jobs) == len(CHEAP[workload])
    return jobs


def test_relabel_preserves_order_and_generator_count():
    rng = random.Random(7)
    groups = (workloads._pgl2("pgl2:7"), constructors.build_heisenberg(),
              constructors.make_dihedral(2), constructors.make_dihedral(10))
    for g in groups:
        degree, gens = workloads.relabel(g, rng)
        assert degree == g.degree
        assert len(gens) == len(g.generators)
        assert permgrp.PermGroup(degree, gens).order() == g.order()


def test_corrupted_expected_answer_fails_the_job_without_raising():
    job = cheap_jobs("census")[0]
    corrupted = dataclasses.replace(job, expected=[(5, 5, -3, 2, 2, 1)])
    raising = workloads.Job("raises", "census", lambda: 1 // 0, 0)
    results = workloads.run_jobs([corrupted, raising, job])
    assert [r["ok"] for r in results] == [False, False, True]
    assert results[1]["error"].startswith("ZeroDivisionError")
    alone = workloads.run_jobs([corrupted])
    assert sum(not r["ok"] for r in alone) / len(alone) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_answers_agree(workload):
    jobs = cheap_jobs(workload)
    plain = workloads.run_jobs(jobs)
    originals = (homology.smith_normal_form, mapcore.classify_maps_for_group,
                 permgrp.ElementTable.closure)
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        # a name bound by `from .algebra import ...` is wrapped at its import site
        assert homology.smith_normal_form is algebra.smith_normal_form
        assert homology.smith_normal_form is not originals[0]
        traced = workloads.run_jobs(jobs, tracer)
    assert (homology.smith_normal_form, mapcore.classify_maps_for_group,
            permgrp.ElementTable.closure) == originals
    assert all(r["ok"] for r in plain)
    assert traced == plain
    agg = spans.aggregate(tracer.spans)
    assert agg["job"][1] == len(jobs)
    assert all(entry[0] >= 0 for entry in agg.values())


def test_a_span_the_workload_must_reach_is_reported_missing():
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        workloads.run_jobs(cheap_jobs("census"), tracer)
    agg = spans.aggregate(tracer.spans)
    assert spans.missing_spans("census", agg) == []
    assert "algebra.snf" in spans.missing_spans("homology", agg)


def test_a_kernel_sample_is_taken_before_and_after_every_job():
    jobs = cheap_jobs("homology")
    calls = []
    results = workloads.run_jobs(jobs, between=lambda: calls.append(1))
    assert all(r["ok"] for r in results)
    assert len(calls) == len(jobs) + 1


def test_the_timer_samples_a_long_job_and_is_removed_afterwards():
    handler = signal.getsignal(signal.SIGALRM)
    calibrate.warm_up()
    with calibrate.Sampler(period=0.05) as sampler:
        sampler.mark()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        sampler.mark()
    assert len(sampler.samples) >= 4
    starts = [start for start, _ in sampler.samples]
    assert starts == sorted(starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_each_stretch_is_rescaled_by_the_kernel_times_at_its_ends():
    ref = calibrate.REFERENCE_S
    samples = [(0.0, ref), (ref + 1.0, ref), (2 * ref + 3.0, 3 * ref)]
    wall, reference = calibrate.reference_pass(samples)
    assert wall == pytest.approx(3.0)
    assert reference == pytest.approx(1.0 + 2.0 / 2)


def test_kernel_samples_are_left_out_of_span_self_times():
    records = [["job", 0, -1, 0.0, 10.0, ()], ["algebra.snf", 0, 0, 1.0, 5.0, ()]]
    # one pause inside the child span, one in the job's own time, one after
    agg = spans.aggregate(records, [(2.0, 1.0), (6.0, 0.5), (11.0, 1.0)])
    assert agg["algebra.snf"][0] == pytest.approx(3.0)
    assert agg["job"][0] == pytest.approx(10.0 - 1.5 - 3.0)
