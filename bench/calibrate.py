"""Host speed calibration.

This benchmark runs on shared hosts whose speed drifts by tens of percent
from one second to the next, for reasons outside the process (other
tenants on the same cores and caches).  A fixed kernel, owned by the
benchmark and never changed by the program, is timed before and after
every job and, from a timer signal, every ``PERIOD_S`` seconds while a job
runs.  A stretch of the pass divided by the kernel times measured at its
two ends does not move with the host's speed; multiplied by
``REFERENCE_S`` it reads in reference seconds, its wall time on a host
that runs the kernel in ``REFERENCE_S``.

The kernel mixes the kinds of work the program does, because a slow phase
of the host slows each kind by a different amount: permutation rows
composed with numpy and looked up by their bytes (the element table build),
integer row operations on lists (the Smith normal form), numpy ``unique``
over small index arrays (subgroup closure), and a pointer chase through a
heap larger than the core's cache (searches that walk many objects).  It
runs with the garbage collector off, so a program that changes collector
settings cannot change the kernel's time.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time

import numpy as np

# median kernel time on the 2-core Xeon VM the benchmark was tuned on
REFERENCE_S = 0.035
# seconds between kernel samples while a job runs
PERIOD_S = 0.4

_PERMS = np.array(sorted(itertools.permutations(range(6))), dtype=np.int32)
_INDEX = {bytes(memoryview(row)): i for i, row in enumerate(_PERMS)}
_ROWS = [[(31 * i + 17 * j) % 23 - 11 for j in range(80)] for i in range(80)]
_CLOSURE = np.arange(2_000, dtype=np.int32) * 7919 % 1_009
_CHASE_STEPS = 20_000
_chain = []


def warm_up():
    """Build the kernel's heap and run it once; call before the first sample."""
    if not _chain:
        # one cycle through 150k int objects in random order, about 6 MB
        order = np.random.default_rng(0).permutation(150_000)
        succ = np.empty_like(order)
        succ[order] = np.roll(order, -1)
        _chain.extend(succ.tolist())
    kernel()


def kernel() -> int:
    """About 35 ms of the program's kinds of work.  It allocates nothing
    large, so page faults do not enter its time."""
    total = 0
    for j in range(0, len(_PERMS), 24):
        prod = _PERMS[j][_PERMS]
        total += sum(_INDEX[bytes(memoryview(np.ascontiguousarray(row)))] for row in prod)
    rows = [row[:] for row in _ROWS]
    for t in range(4):
        pivot = rows[t]
        for row in rows[t + 1:]:
            c = row[t] // 5
            for k in range(t, len(row)):
                row[k] -= c * pivot[k]
    for shift in range(40):
        total += int(np.unique(_CLOSURE + shift).size)
    i = 0
    for _ in range(_CHASE_STEPS):
        i = _chain[i]
    return total + rows[-1][-1] + i


def sample() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel samples taken during a pass.

    ``mark`` takes one now.  Inside ``with sampler:`` a SIGALRM timer takes
    one more every ``period`` seconds, so a long job is sampled while it
    runs; the timer is re-armed only after its sample ends, and a sample
    never starts inside another.  ``samples`` holds (start, seconds) pairs
    in clock order.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self._busy = False
        self._previous = None

    def mark(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append((start, sample()))
        finally:
            self._busy = False

    def _alarm(self, signum, frame):
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def reference_seconds(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, rescaled to
    a host on which the kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / kernel_s


def reference_pass(samples) -> tuple[float, float]:
    """(wall seconds, reference seconds) of the stretch from the first
    sample to the last, kernel time left out.  The time between two
    samples is rescaled by the mean of their kernel times."""
    wall = ref = 0.0
    for (start, k), (nxt, k_next) in zip(samples, samples[1:]):
        span = nxt - (start + k)
        wall += span
        ref += reference_seconds(span, (k + k_next) / 2)
    return wall, ref
