#!/usr/bin/env python3
"""The regmaps benchmark.

    python3 bench/run.py --workload census --seed 1 --seconds 28 --trace 0

Runs one workload (census, verify, extensions, homology, or ``all``) as a
closed loop: one fresh process per repetition, one after another, each
setting up its seeded inputs and making one pass over the workload's jobs
with every answer checked.  Repetitions start until ``--seconds`` would be
exceeded (at least three untraced ones).  With ``--trace 0`` it reports the
end-to-end metrics, times in reference seconds (see ``calibrate.py``); with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory; the
benchmark exits non-zero without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("census", "verify", "extensions", "homology")
MIN_UNTRACED = 3
# no repetition starts that could end after this many seconds of the run
HARD_LIMIT_S = 150
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def labelling(seed: int, rep: int) -> str:
    """Relabelling seed of one repetition; the same seed gives the same inputs."""
    return f"{seed}/{rep}"


# ---------------------------------------------------------------------------
# child: one repetition in a fresh process


def child(workload: str, label: str, traced: bool, spans_path: str | None):
    sys.path.insert(0, str(SRC))
    import regmaps

    if Path(regmaps.__file__).resolve().parent != SRC / "regmaps":
        raise BenchError(f"regmaps was imported from {regmaps.__file__}, not {SRC}")
    import workloads

    jobs = workloads.build(workload, label)
    ready = time.monotonic()
    calibrate.warm_up()
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        spans.instrument(tracer)
    with calibrate.Sampler() as sampler:
        results = workloads.run_jobs(jobs, tracer, sampler.mark)
    record = {
        "ready": ready,
        "kernel": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        tracer.restore()
        agg = spans.aggregate(tracer.spans, sampler.samples)
        rows = sum(1 for r in results if r["kind"] == "row" and r["ok"])
        record["layers"] = spans.layer_metrics(agg, rows)
        record["missing"] = spans.missing_spans(workload, agg)
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"workload": workload, "labelling": label,
                           "fields": ["name", "job", "parent", "start", "end", "info"],
                           "jobs": [j.label for j in jobs], "spans": tracer.spans,
                           "kernel_samples": sampler.samples}, fh)
    print(json.dumps(record))


def spawn(workload: str, label: str, traced: bool, spans_path: Path | None = None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
           "--labelling", label, "--trace", str(int(traced))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    record["wall_s"], record["reference_s"] = calibrate.reference_pass(record["kernel"])
    record["traced"] = traced
    return record


# ---------------------------------------------------------------------------
# parent: repetitions and aggregation


def kernel_median(record) -> float:
    return statistics.median(k for _, k in record["kernel"])


def reference_setup(record) -> float:
    """A repetition's set-up time, rescaled by its median kernel time."""
    return calibrate.reference_seconds(record["setup_s"], kernel_median(record))


def repetitions(workload: str, seed: int, seconds: float, trace: bool):
    """Run repetitions until a typical one would overrun ``seconds``.

    Untraced runs give each repetition its own relabelling, so a median
    over repetitions also averages over labellings.  A traced run uses the
    seed's first labelling throughout, so counts repeat exactly and the
    tracing overhead compares like with like.
    """
    reps, durations = [], []
    start = time.monotonic()
    while True:
        k = len(reps)
        traced = trace and k % 2 == 1
        spans_path = None
        if traced and not any(r["traced"] for r in reps):
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        t = time.monotonic()
        reps.append(spawn(workload, labelling(seed, 0 if trace else k), traced, spans_path))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in reps if not r["traced"])
        enough = (untraced >= 1 and len(reps) > untraced) if trace else untraced >= MIN_UNTRACED
        if elapsed + max(durations) > HARD_LIMIT_S:
            if not enough:
                raise BenchError(f"{workload}: repetitions too slow for the run limit")
            return reps
        if enough and elapsed + statistics.median(durations) > seconds:
            return reps


def summarize(workload: str, reps, trace: bool):
    """(metrics, attempted, failed, problems, human-readable lines)."""
    jobs = [j for r in reps for j in r["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    problems = [f"{workload}: {j['label']}: {j.get('error') or j.get('answer')}"
                for j in failed]
    plain = [r for r in reps if not r["traced"]]
    wall = statistics.median(r["reference_s"] for r in plain)
    lines = []
    if not trace:
        setup = statistics.median(reference_setup(r) for r in reps)
        rss = statistics.median(r["peak_rss_mb"] for r in reps)
        raw_wall = statistics.median(r["wall_s"] for r in reps)
        raw_setup = statistics.median(r["setup_s"] for r in reps)
        kernel = statistics.median(kernel_median(r) for r in reps)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        n = len(reps)
        lines.append(
            f"{workload:<11} wall_s {wall:.3f} s (median of {n})  setup_s {setup:.3f} s "
            f"(median of {n})  peak_rss_mb {rss:.1f} MB  "
            f"fail_rate {len(failed) / len(jobs):.3f} ratio ({len(failed)}/{len(jobs)} jobs)"
        )
        lines.append(
            f"{'':<11} as measured: wall {raw_wall:.3f} s  setup {raw_setup:.3f} s  "
            f"kernel {kernel * 1000:.1f} ms (reference {calibrate.REFERENCE_S * 1000:.0f} ms)"
        )
        return metrics, len(jobs), len(failed), problems, lines
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    for name, (unit, *_rest) in {**spans.PER_LAYER, **spans.RATIOS}.items():
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(r["reference_s"] for r in traced) - wall
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for r in traced:
        problems += [f"{workload}: no calls reached span {name}" for name in r["missing"]]
    lines.append(f"{workload}: {len(traced)} traced and {len(plain)} untraced repetitions")
    shown = sorted(((v["value"], k) for k, v in metrics.items()
                    if v["unit"] == "s" and k != "trace.overhead_s"), reverse=True)
    lines += [f"  {k:<34} {value:.3f} s" for value, k in shown if value > 0]
    lines.append(f"  {'trace.overhead_s':<34} {overhead:.3f} s")
    return metrics, len(jobs), len(failed), problems, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--labelling", help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.child:
            child(args.workload, args.labelling, bool(args.trace), args.spans)
            return 0
        if not (SRC / "regmaps" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed, problems = {}, 0, 0, []
        for name in names:
            reps = repetitions(name, args.seed, args.seconds, bool(args.trace))
            m, a, f, p, lines = summarize(name, reps, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, problems = attempted + a, failed + f, problems + p
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
