#!/usr/bin/env python3
"""Machine-speed calibration for the basisbound benchmark.

On a shared machine the speed of a core can change by a factor of two
within a minute, which swamps the differences a benchmark must resolve.
The benchmark therefore reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / calibration seconds

The calibration is a fixed piece of pure-Python work with the operation
mix of the package's hot loops (a bitset clique search on Python ints and
a Fraction elimination); it does not use the package, so no change to the
package can move it.  While jobs run, a sampler process pinned to the same
core repeats it every PERIOD_S and records its CPU time, so a job is scaled
by the machine's speed during that job, after the time the sampler took
from it is removed.  On a machine where the calibration takes REFERENCE_S,
reference seconds are plain seconds.

    python3 perfbench/calibrate.py --out samples.txt   (the sampler)
"""

from __future__ import annotations

import argparse
import bisect
import gc
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import product

from workloads import _det_rank, _Rational

REFERENCE_S = 0.010
PERIOD_S = 0.25

_VECTORS = [int("".join(map(str, v)), 2) for v in product((0, 1), repeat=7)]
_ADJ = [sum(1 << j for j, w in enumerate(_VECTORS) if (v ^ w).bit_count() == 4) for v in _VECTORS]
_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(14)] for _ in range(14)]


def _clique(cand: int, size: int, best: list):
    while cand:
        if size + cand.bit_count() <= best[0]:
            return
        low = cand & -cand
        cand ^= low
        best[0] = max(best[0], size + 1)
        _clique(cand & _ADJ[low.bit_length() - 1], size + 1, best)


def calibrate() -> float:
    """CPU seconds taken by the fixed calibration work (garbage collection
    off, so no other heap can affect it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _clique((1 << len(_VECTORS)) - 1, 0, [0])
        _det_rank(_Rational(), _MATRIX)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for work timed between
    two calibrations."""
    return REFERENCE_S / ((before + after) / 2)


class Speed:
    """Calibration samples recorded by the sampler, each (start, end,
    CPU seconds) with monotonic-clock stamps."""

    def __init__(self, path):
        with open(path) as fh:
            samples = sorted(tuple(map(float, line.split())) for line in fh if line.strip())
        if not samples:
            raise RuntimeError("the calibration sampler recorded nothing")
        self.samples = samples
        self.starts = [s[0] for s in samples]

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of work timed from `start` to `end` on the
        sampler's core: the time the sampler took from it is removed, and
        the rest is scaled by the calibrations during the interval, or by
        the nearest one on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        near = self.samples[max(lo - 1, 0) : hi + 1]
        stolen = 0.0
        for a, b, cpu in near:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                stolen += cpu * overlap / (b - a)
        inside = self.samples[lo:hi] or near
        return (end - start - stolen) * REFERENCE_S / statistics.fmean(s[2] for s in inside)

    def median(self) -> float:
        return statistics.median(s[2] for s in self.samples)


def main() -> int:
    parser = argparse.ArgumentParser(description="calibration sampler")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    parent = os.getppid()
    with open(args.out, "w") as fh:
        while os.getppid() == parent:  # stop if the worker is gone
            time.sleep(PERIOD_S)
            start = time.monotonic()
            cpu = calibrate()
            fh.write(f"{start} {time.monotonic()} {cpu}\n")
            fh.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
