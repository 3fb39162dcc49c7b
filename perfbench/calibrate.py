"""Machine-speed drift, sampled while a run measures, and timings scaled to
a reference speed.

The CPU of a shared virtual machine can switch between a fast and a slow
state many times a second, and the share of time it spends slow drifts over
minutes: on the VM named at ``REFERENCE_CHUNK_S`` whole stretches of ten
minutes and more ran the program 1.3-1.7x slower than others.  Raw timings of
two sets of runs of the same code then differ by more than any useful
regression bound.

:class:`Speedometer` measures the drift.  A background thread times a fixed
chunk of work (interpreter loops plus a small NumPy sort, nothing from the
program under test) eight times a second, in thread CPU time, so time the
thread spends waiting for the interpreter lock or a core is not counted.
Each sample runs the chunk once untimed first, so that the timed run finds
its code and data in cache whatever the program did in between.  Sampling
costs about 2 ms of one core every 125 ms.

:meth:`Speedometer.factor` is the median chunk time in an interval over the
reference chunk time: above 1 when the machine ran slower than the
reference.  :func:`at_reference` divides a duration by the factor raised to
how strongly that kind of duration follows the chunk (see the constants).
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: Seconds between samples.
INTERVAL_S = 0.125
#: How strongly timings follow the chunk: durations are divided by
#: ``factor ** sensitivity``.  Fitted on the VM named at REFERENCE_CHUNK_S,
#: between a set of runs in a slow stretch and one in a fast stretch.
#: Set-up runs on one thread while the sampler has the other core, and
#: followed the chunk fully.  Read latency and throughput followed it with
#: exponent 0.45 (hybrid_full), 0.55 (parallel_hybrid) and 1.0
#: (durable_updates); 0.8 kept the medians of the two sets within 13% of
#: each other on every read metric, against up to 42% unscaled.
SETUP_SENSITIVITY = 1.0
READ_SENSITIVITY = 0.8
#: Thread CPU seconds one warm chunk takes at reference speed: the typical
#: sample during a run on a 2-vCPU Xeon (Sapphire Rapids) VM under Python
#: 3.11.  A factor of 1.2 means the chunk ran 20% slower than that.
REFERENCE_CHUNK_S = 0.0013

_SORT_INPUT = np.random.default_rng(0).integers(0, 1 << 30, 2048)


def chunk() -> int:
    """A fixed piece of work: dict, list and integer operations like those of
    the query engine's Python paths, and one small NumPy sort."""
    counts = {}
    total = 0
    for i in range(6000):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        total += (i * 7) % 13
    items = sorted(counts.items(), key=lambda kv: -kv[1])
    total += int(np.sort(_SORT_INPUT)[1024])
    return total + len(items)


def time_chunk() -> float:
    """Thread CPU seconds of one chunk, run warm."""
    chunk()
    start = time.thread_time()
    chunk()
    return time.thread_time() - start


class Speedometer:
    """Samples :func:`time_chunk` on a daemon thread from :meth:`start` to
    :meth:`stop`."""

    def __init__(self) -> None:
        self._times: List[float] = []  # sample midpoints, perf_counter seconds
        self._costs: List[float] = []  # chunk thread CPU seconds
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, name="speedometer", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            cost = time_chunk()
            # Only this thread appends, in time order; the factors are read
            # after stop().
            self._costs.append(cost)
            self._times.append((start + time.perf_counter()) / 2)

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._costs))

    def _costs_in(self, start: float, end: float) -> List[float]:
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return self._costs[lo:hi]

    def factor(self, start: float, end: float) -> float:
        """How much slower than reference the machine ran in ``[start, end]``:
        the median chunk time of its samples over :data:`REFERENCE_CHUNK_S`.
        0.0 with no samples."""
        costs = self._costs_in(start, end)
        return statistics.median(costs) / REFERENCE_CHUNK_S if costs else 0.0

    def drift(self, start: float, end: float) -> float:
        """Interquartile range of the chunk times in ``[start, end]`` over
        their median: how much the machine's speed moved in the interval."""
        costs = self._costs_in(start, end)
        if len(costs) < 4:
            return 0.0
        q1, q2, q3 = statistics.quantiles(costs, n=4)
        return (q3 - q1) / q2


def at_reference(seconds: float, factor: float, sensitivity: float) -> float:
    """``seconds`` measured at speed ``factor``, scaled to reference speed.
    Unscaled when there were no samples (factor 0)."""
    return seconds / factor ** sensitivity if factor > 0 else seconds
