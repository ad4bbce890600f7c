#!/usr/bin/env python3
"""Seed invariance check: every workload's canonical answers must be the
same at two seeds, so no change can depend on one point labelling.

    python3 bench/check_seeds.py --seeds 1 2
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, BenchError, labelling, spawn


def answers(workload: str, seed: int):
    record = spawn(workload, labelling(seed, 0), traced=False)
    return [(j["label"], j.get("answer"), j.get("error")) for j in record["jobs"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = ap.parse_args(argv)
    first, second = args.seeds
    if first == second:
        ap.error("give two different seeds")
    same_everywhere = True
    for workload in WORKLOADS:
        try:
            a, b = answers(workload, first), answers(workload, second)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        errors = [e for _, _, e in a + b if e is not None]
        same = a == b and not errors
        same_everywhere &= same
        verdict = "identical" if same else "DIFFERENT"
        print(f"{workload:<11} {verdict} canonical answers at seeds {first} and "
              f"{second} ({len(a)} jobs)")
        for (label, x, ex), (_, y, ey) in zip(a, b):
            if (x, ex) != (y, ey) or ex is not None:
                print(f"  {label}: seed {first}: {ex or x}; seed {second}: {ey or y}")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
