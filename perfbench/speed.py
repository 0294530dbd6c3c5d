"""Host-speed drift correction with a fixed reference kernel.

On a shared 2-vCPU host the speed of the same code drifts by up to 2x
over minutes (other tenants), while CPU time equals wall time, so
neither CPU time nor more repetitions remove it.  The worker therefore
times :func:`probe` -- a fixed kernel shaped like the engine's inner
loop: small NumPy arrays, a heap and a dict -- before the first cell and
after every cell, and :class:`DriftClock` converts each
measured interval to *corrected seconds*::

    corrected = raw * NOMINAL_S / (mean of the probes before and after it)

i.e. host seconds at the speed where the kernel takes ``NOMINAL_S``.
The kernel is benchmark code and never calls the program, so a faster
program still shows as fewer corrected seconds.  Raw seconds are kept
beside every corrected figure.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: Reference-kernel time on an uncontended 2-vCPU Xeon (2.0 GHz) host.
NOMINAL_S = 0.0022

_B = np.arange(64.0)


def _kernel() -> float:
    s = 0.0
    heap: list[tuple[float, int]] = []
    for i in range(400):
        x = _B * 0.5 + i
        j = int(np.argmin(x[i % 64:]))
        heapq.heappush(heap, (float(x[j]), i))
        if len(heap) > 32:
            s += heapq.heappop(heap)[0]
        d = {k: k for k in range(8)}
        s += len(d)
    return s


def probe(n: int = 1) -> float:
    """Median seconds of ``n`` runs of the reference kernel.

    The cyclic garbage collector is off while the kernel runs: its ~800
    allocations would otherwise trigger collections whose cost depends
    on how many objects the program has left alive, and the divisor
    must not depend on the program.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class DriftClock:
    """Splits a timed region into laps and corrects each for drift.

    ``lap()`` ends the current interval, runs one probe (whose own time
    is excluded from every interval), and starts the next interval.
    ``call(layer, fn)`` runs the probe, so a traced run can span it.
    """

    def __init__(self, ref: float, call=lambda layer, fn: fn()) -> None:
        self.ref = ref
        self.refs = [ref]
        self.raw = 0.0
        self.corrected = 0.0
        self.cells: list[tuple[float, float]] = []
        self._call = call
        self.mark = time.perf_counter()

    def lap(self, cell: bool) -> None:
        t = time.perf_counter()
        d = t - self.mark
        r = self._call("bench.probe", probe)
        scale = NOMINAL_S / ((self.ref + r) / 2)
        self.raw += d
        self.corrected += d * scale
        if cell:
            self.cells.append((d, d * scale))
        self.ref = r
        self.refs.append(r)
        self.mark = time.perf_counter()
