"""Host-speed calibration for the benchmark's end-to-end times.

On a shared two-vCPU Intel Xeon VM (Python 3.11.7), the same pass ran up to
2x slower for stretches of seconds to minutes (no steal time showed; process
CPU time stretched with wall time).  In a 240 s probe, the fastest 1.5 s
sample of each 30 s window still moved by 15% (quartile spread) from window
to window; the sample time divided by the time of the fixed loop below,
timed every second or so in the same window, moved by 5%.

``work`` does a fixed mix of what the library's hot loops do (dict updates,
Fraction sums, breadth-first search over adjacency lists, boolean-mask ORs
and ``flatnonzero`` on numpy rows).  It uses nothing from relaysynth, so no
library change can move it.  A time t measured while ``work`` takes c seconds
is reported as t * (REFERENCE_S / c) ** exponent: seconds at the speed where
``work`` takes REFERENCE_S.

The workloads slow down less than ``work`` does, and by different shares:
fitting log pass time against log calibration time over the passes of
five-run sets gave slopes of 0.80 (sn_exact_sweep), 0.57-0.74 (sn_pd_large)
and 0.55 (st_scheme_small).  Short solves track ``work`` more closely than
long ones: on the exact sweep, p50 (28 ms solves) varied between runs as much
as ``work`` did.  So each workload names its exponent
(``workloads.Workload.host_exponent``), chosen on recorded runs to keep the
spreads of its wall time and latency quantiles all small.  Each of the loop's
four parts alone, and a random walk over a large list, tracked the solves no
closer than the whole loop.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from fractions import Fraction

import numpy as np

# Median time of ``work`` on a quiet Intel Xeon vCPU, Python 3.11.7,
# numpy 2.4.6 (the machine noted in baseline/).
REFERENCE_S = 0.025

_ROWS = np.eye(400, dtype=bool) | np.roll(np.eye(400, dtype=bool), 1, axis=1)
_ADJ = {v: [(v * 7 + k) % 1000 for k in range(5)] for v in range(1000)}


def work():
    counts = {}
    for i in range(120_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i)
    for src in range(16):
        seen = {src}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for x in _ADJ[u]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
    for _ in range(2):
        mask = np.zeros(400, dtype=bool)
        for row in _ROWS:
            mask |= row
            np.flatnonzero(mask).tolist()


def timed_work():
    # The cyclic collector stays off: with the run's outputs alive, a
    # collection set off by work()'s allocations would time the heap, not the
    # host.  work() makes no reference cycles.
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def sample(seconds, into):
    """Append times of ``work`` to ``into``: at least one, until ``seconds`` pass."""
    end = time.perf_counter() + seconds
    into.append(timed_work())
    while time.perf_counter() < end:
        into.append(timed_work())


def speed(samples, exponent):
    """Factor that turns seconds measured alongside ``samples`` (times of
    ``work``) into seconds at the reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** exponent
