"""Machine-speed reference for the benchmark's times.

On a shared virtual machine (the benchmark was tuned on a 2-vCPU Xeon
guest at 2.1 GHz, Python 3.11) the speed of all code drifts by about a
quarter over seconds to minutes: a fixed pure-Python loop slows down and
speeds up together with the program.  Left in, that drift swamps the
differences between two versions of the program measured minutes apart.

A :class:`SpeedProbe` times a fixed kernel (tuple hashing, dict lookups
and integer arithmetic on a couple of hundred kilobytes of data, with no
lasting allocation) at regular points of a phase.  Slowness is a median
kernel time divided by :data:`REFERENCE_S`, the kernel's typical time on
that guest.  The speed changes within a run too, so each timing is
divided by the slowness of the samples taken within half a second of it
(:meth:`SpeedProbe.local`); rates are scaled alike.  Raw figures are
printed alongside.
"""

from __future__ import annotations

import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable

#: Kernel time (seconds) that counts as slowness 1.0.
REFERENCE_S = 650e-6

_KEYS = [(i, i * 7 % 13, i % 97) for i in range(2048)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def _kernel() -> int:
    table = _TABLE
    total = 0
    for key in _KEYS:
        total += table[key]
        total ^= hash(key) & 1023
        total %= 1_000_003
    return total


class SpeedProbe:
    """Kernel timings taken through one phase of a run."""

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.samples = array("d")
        self.times = array("d")
        self._last = 0.0

    def sample(self) -> float:
        """Time the kernel once, after one untimed run that brings its
        data back into cache; returns the seconds both runs took."""
        start = time.perf_counter()
        _kernel()
        timed = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.times.append(end)
        self._last = end
        return end - start

    def maybe_sample(self) -> float:
        """Sample when ``every_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            return self.sample()
        return 0.0

    @property
    def slowness(self) -> float:
        """Median kernel time over :data:`REFERENCE_S` (1.0 if unsampled)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S

    def local(self, halfwidth_s: float = 0.5, least: int = 3) -> Callable[[float], float]:
        """Slowness as a function of ``time.perf_counter()`` time: the
        median of the samples within ``halfwidth_s`` of it, or of the
        whole phase where fewer than ``least`` samples fall there."""
        times, samples, overall = self.times, self.samples, self.slowness

        def at(moment: float) -> float:
            lo = bisect_left(times, moment - halfwidth_s)
            hi = bisect_right(times, moment + halfwidth_s)
            if hi - lo < least:
                return overall
            return statistics.median(samples[lo:hi]) / REFERENCE_S

        return at
