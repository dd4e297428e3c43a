"""Machine-speed calibration: a fixed loop that shares no code with the program.

The cores of the machine the benchmark was written on switch, for
seconds to minutes at a time, between a usual state and one up to 1.7
times faster, and raw timings follow.  Every operation is therefore
timed together with a calibration loop run right before and after it on
the same core, and its seconds are scaled by ``ref_s`` over the loop's
mean time: the figures read as seconds on the machine in its usual
state.  The loop is ``steps`` elementwise numpy operations on
int64 arrays of ``width`` elements; a workload picks the width of the
arrays its own numpy work runs on, since a loop of another width does
not follow its timings (README.md has the figures).
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

import numpy


class Calibration(NamedTuple):
    width: int  # array length of every operation of the loop
    steps: int  # operations per run of the loop
    ref_s: float  # the loop's seconds on the machine in its usual state


# per-call work on length-1 arrays: verdicts at batch size 1
SMALL = Calibration(width=1, steps=400, ref_s=0.0015)
# bulk work on a scan batch's worth of arrays: 2048 subsets x 32
BULK = Calibration(width=2048 * 32, steps=100, ref_s=0.036)


@functools.lru_cache(maxsize=None)
def _base(width: int) -> numpy.ndarray:
    return numpy.arange(width, dtype=numpy.int64) % 1000 + 1


def seconds(cal: Calibration) -> float:
    """The time of one run of the loop."""
    base = _base(cal.width)
    x = base
    t0 = time.perf_counter()
    for _ in range(cal.steps):
        x = (x * 3 + base) % 1000003
    return time.perf_counter() - t0

