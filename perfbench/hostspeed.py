"""Host speed reference for the Magus benchmark.

The benchmark runs on small shared virtual machines whose speed drifts
with the load of neighbouring machines: a fixed CPU loop timed in 15 s
windows on a 2-vCPU x86-64 host read 0.0187-0.0236 s, an interquartile
spread of 17.5 % of the median.  A run of a few tens of seconds cannot
average that out, so the raw wall times of two runs of one program
differ by about as much as the bounds a regression is judged by.

:class:`HostSpeed` times a fixed reference kernel, made of the kinds of
work the planner does (Python-level hashing of small frozen dataclasses
and NumPy reductions over ``[K, H, W]`` float32 planes), between the
steps of a run.  A step's wall time is scaled by ``REFERENCE_S /
kernel time`` measured around it: it reads in *reference seconds*, the
time the step would take while the kernel takes ``REFERENCE_S``.  On
six seeds per workload this cut the spread of ``mitigations_per_hour``
from 14-19 % to 4-6 % and that of the median ticket latency from
16-18 % to 6-7 %.  The kernel is part of the benchmark, not of the
program, so a change to the program moves the scaled times as much as
the raw ones.  One exception: work the program leaves running between
tickets, such as a busy background thread or process, slows the kernel
and so shrinks the scaled times.  Each run's table also prints the
unscaled wall figures, which show such a change.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy as np

#: Median kernel time on the 2-vCPU x86-64 host the benchmark was tuned
#: on; it only fixes the scale of the reported times.
REFERENCE_S = 0.0053

#: Samples on each side of a step that set its speed: the drift is
#: slow, a single sample is not.
_NEIGHBOURS = 2


@dataclass(frozen=True)
class _Key:
    sector: int
    tilt: int


_PLANES = np.random.default_rng(0).random((8, 96, 96), dtype=np.float32)


def _kernel() -> float:
    cache = {}
    for i in range(1500):
        cache[_Key(i % 97, i)] = i
    hits = sum(cache.get(_Key(i % 97, i), 0) for i in range(1500))
    total = _PLANES.sum(axis=0)
    for k in range(_PLANES.shape[0]):
        plane = _PLANES.copy()
        plane[k] *= 0.5
        total = total + plane.sum(axis=0)
        hits += int(plane.argmax(axis=0)[0, 0])
    return hits + float(total[0, 0])


def kernel_seconds(repeats: int = 3) -> float:
    """The fastest of ``repeats`` kernel runs, in seconds.  The garbage
    collector is off meanwhile: a collection would time the program's
    heap, not the host."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class HostSpeed:
    """Kernel samples taken during one run, by time."""

    def __init__(self) -> None:
        self._at: List[float] = []
        self._s: List[float] = []

    def sample(self) -> None:
        """Time the kernel now."""
        seconds = kernel_seconds()
        self._at.append(time.perf_counter())
        self._s.append(seconds)

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall time ``end - start`` in reference seconds, at the
        median speed of the samples inside it and of up to
        ``_NEIGHBOURS`` on each side."""
        lo = max(bisect.bisect_left(self._at, start) - _NEIGHBOURS, 0)
        hi = bisect.bisect_right(self._at, end) + _NEIGHBOURS
        return (end - start) * REFERENCE_S / statistics.median(
            self._s[lo:hi])

    @property
    def samples(self) -> List[float]:
        return list(self._s)
